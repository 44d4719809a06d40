package lint

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteStats(t *testing.T) {
	pkg := writeFixture(t, "eventsim", `package eventsim

import "time"

func bad() time.Time { return time.Now() }
`)
	res := Run([]*Package{pkg})
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
