package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// SARIF 2.1.0 skeleton, minimal but valid: one run, one rule descriptor per
// distinct rule, one result per diagnostic. GitHub code scanning and most CI
// annotators consume exactly this subset.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string          `json:"name"`
	InformationURI string          `json:"informationUri,omitempty"`
	Rules          []sarifRuleDesc `json:"rules"`
}

type sarifRuleDesc struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log. Artifact URIs are
// root-relative with forward slashes.
func WriteSARIF(w io.Writer, diags []Diagnostic, root string) error {
	// The driver always advertises its full rule set (stable order), so a
	// clean run still documents what was checked.
	ruleDescs := []sarifRuleDesc{}
	for _, r := range Rules() {
		ruleDescs = append(ruleDescs, sarifRuleDesc{
			ID:               r.Name,
			ShortDescription: sarifMessage{Text: r.Doc},
		})
	}
	ruleDescs = append(ruleDescs,
		sarifRuleDesc{ID: RuleBadDirective, ShortDescription: sarifMessage{Text: "malformed //lint:ignore suppression directive"}},
		sarifRuleDesc{ID: RuleStaleSuppression, ShortDescription: sarifMessage{Text: "suppression directive that silences nothing"}},
	)

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI: filepath.ToSlash(relPath(root, d.Pos.Filename)),
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "omcast lint", Rules: ruleDescs}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// WriteStats renders the per-rule statistics table for -stats.
func WriteStats(w io.Writer, res Result) {
	fmt.Fprintf(w, "%-20s %9s %10s %10s\n", "rule", "findings", "suppressed", "wall_ms")
	for _, s := range res.Stats {
		fmt.Fprintf(w, "%-20s %9d %10d %10.2f\n", s.Rule, s.Findings, s.Suppressed, s.Millis)
	}
	fmt.Fprintf(w, "%-20s %9s %10s %10.2f\n", "total", "", "", res.TotalMillis)
}

func relPath(root, path string) string {
	if root == "" {
		return path
	}
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
