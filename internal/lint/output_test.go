package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// taintedFixture is a minimal sim-scoped package with one no-wallclock
// finding, reused by the output-format tests.
const taintedFixture = `package eventsim

import "time"

func bad() time.Time { return time.Now() }
`

func runOne(t *testing.T, src string) ([]Diagnostic, Result) {
	t.Helper()
	pkg := writeFixture(t, "eventsim", src)
	res := Run([]*Package{pkg})
	return res.Diags, res
}

func TestWriteSARIF(t *testing.T) {
	diags, _ := runOne(t, taintedFixture)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags, ""); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shell: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "omcast lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Every rule (including the reserved directive rules) must be advertised
	// even though only one fired.
	wantRules := len(Rules()) + 2
	if len(run.Tool.Driver.Rules) != wantRules {
		t.Errorf("driver advertises %d rules, want %d", len(run.Tool.Driver.Rules), wantRules)
	}
	if len(run.Results) != 1 || run.Results[0].RuleID != "no-wallclock" {
		t.Fatalf("unexpected results: %+v", run.Results)
	}
	if got := run.Results[0].Locations[0].PhysicalLocation.Region.StartLine; got != 5 {
		t.Errorf("startLine = %d, want 5", got)
	}
}

// TestSARIFEmptyRun: a clean tree must still produce a valid log with an
// empty (not null) results array — CI uploads the artifact unconditionally.
func TestSARIFEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, ""); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if strings.Contains(s, `"results": null`) || strings.Contains(s, `"rules": null`) {
		t.Fatalf("empty run serialises null arrays:\n%s", s)
	}
}

func TestWriteStats(t *testing.T) {
	_, res := runOne(t, taintedFixture)
	var buf bytes.Buffer
	WriteStats(&buf, res)
	s := buf.String()
	if !strings.Contains(s, "no-wallclock") || !strings.Contains(s, "total") {
		t.Fatalf("stats table missing rows:\n%s", s)
	}
}

// TestStaleAuditFires: a directive suppressing nothing is flagged on a full
// run.
func TestStaleAuditFires(t *testing.T) {
	src := `package eventsim

func fine() int {
	//lint:ignore no-wallclock reason: fixture: nothing here needs this
	return 1
}
`
	pkg := writeFixture(t, "eventsim", src)
	res := Run([]*Package{pkg})
	if len(res.Diags) != 1 || res.Diags[0].Rule != RuleStaleSuppression {
		t.Fatalf("want one stale-suppression finding, got %v", res.Diags)
	}
}

// TestUnknownRuleDirective: naming a rule the analyzer does not know is a
// bad-directive finding.
func TestUnknownRuleDirective(t *testing.T) {
	src := `package eventsim

func fine() int {
	//lint:ignore no-such-rule reason: fixture: typo in the rule name
	return 1
}
`
	pkg := writeFixture(t, "eventsim", src)
	res := Run([]*Package{pkg})
	if len(res.Diags) != 1 || res.Diags[0].Rule != RuleBadDirective {
		t.Fatalf("want one bad-directive finding, got %v", res.Diags)
	}
	if !strings.Contains(res.Diags[0].Message, "unknown rule") {
		t.Fatalf("message does not mention the unknown rule: %s", res.Diags[0].Message)
	}
}
