package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"omcast/internal/golden"
	"omcast/internal/metrics"
)

// figureRun is what one Run delivers: the formatted table and the progress
// lines emitted while it ran.
type figureRun struct {
	table    string
	progress []string
}

// runSuite runs ids in order on one Runner built from opts and returns each
// Run's output plus the final metrics snapshot as snapshotLines renders it.
func runSuite(t *testing.T, opts Options, ids []string) ([]figureRun, string, *Runner) {
	t.Helper()
	var lines []string
	opts.Progress = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	r := NewRunner(opts)
	runs := make([]figureRun, len(ids))
	for i, id := range ids {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		runs[i] = figureRun{tab.Format(), lines}
		lines = nil
	}
	return runs, snapshotLines(t, opts.Metrics.Snapshot(0)), r
}

// snapshotLines renders snap's JSON encoding with a line break after its
// opening bracket, after each metric and before its closing bracket, so each
// metric is a line of its own; deleting the line breaks gives json.Marshal's
// bytes back.
func snapshotLines(t *testing.T, snap metrics.Snapshot) string {
	t.Helper()
	whole, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(metrics.Snapshot{T: snap.T, Metrics: []metrics.Metric{}})
	if err != nil {
		t.Fatal(err)
	}
	head, tail, _ := strings.Cut(string(envelope), "[]")
	ms := make([]string, len(snap.Metrics))
	for i, m := range snap.Metrics {
		line, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = string(line)
	}
	if head+"["+strings.Join(ms, ",")+"]"+tail != string(whole) {
		t.Fatal("the snapshot's JSON is not its envelope around its metrics")
	}
	return head + "[\n" + strings.Join(ms, ",\n") + "\n]" + tail + "\n"
}

// suiteGolden is the suite's golden file.
var suiteGolden = filepath.Join("testdata", "suite.golden")

// TestFigureSuiteGolden pins the whole suite's output in testdata/suite.golden:
// every progress line and table of one Runner over every experiment, then its
// final metrics snapshot's JSON, one metric per line; any change to a table,
// to the progress stream or to the order registries are merged in shows up
// there.
// `go test -run TestFigureSuiteGolden -update` rewrites it.
func TestFigureSuiteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Arrival times are float arithmetic; architectures on which the
		// compiler fuses multiply-add round differently.
		t.Skipf("the golden was taken on amd64, not %s", runtime.GOARCH)
	}
	runs, snap, _ := runSuite(t, tinyOptions(2), IDs())
	var b strings.Builder
	for _, run := range runs {
		for _, line := range run.progress {
			b.WriteString("progress: " + line + "\n")
		}
		b.WriteString(run.table)
	}
	b.WriteString(snap)
	golden.Check(t, suiteGolden, b.String(), suiteSections)
}

// suiteSections splits a suite rendering into one section per table, named
// by its "== id: title ==" line and holding the progress lines emitted
// before it, then one per line of the snapshot, which begins at the first
// line opening with "{": a metric's line is named by the metric, the
// envelope's by itself.
func suiteSections(text string) []golden.Section {
	var out []golden.Section
	progress, snapshot := "", false
	for _, line := range strings.SplitAfter(text, "\n") {
		var m struct{ Name string }
		snapshot = snapshot || strings.HasPrefix(line, "{")
		switch {
		case line == "":
		case snapshot && json.Unmarshal([]byte(strings.TrimSuffix(line, ",\n")), &m) == nil && m.Name != "":
			out = append(out, golden.Section{Name: m.Name, Text: line})
		case snapshot:
			out = append(out, golden.Section{Name: strings.TrimSuffix(line, "\n"), Text: line})
		case strings.HasPrefix(line, "progress: "):
			progress += line
		case strings.HasPrefix(line, "== "):
			out = append(out, golden.Section{Name: strings.TrimSuffix(line, "\n"), Text: progress + line})
			progress = ""
		case len(out) > 0:
			out[len(out)-1].Text += line
		}
	}
	return out
}

// TestSuiteGoldenReportNamesOneTable: a rendering that differs from the
// golden in one table cell is reported as that table alone, one that
// differs in one metric as that metric alone, and one that renames a field
// of the snapshot's envelope as that envelope line.
func TestSuiteGoldenReportNamesOneTable(t *testing.T) {
	raw, err := os.ReadFile(suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	secs := suiteSections(want)
	join := func(edit int, text string) string {
		var b strings.Builder
		for i, s := range secs {
			if i == edit {
				s.Text = text
			}
			b.WriteString(s.Text)
		}
		return b.String()
	}
	if join(-1, "") != want {
		t.Fatalf("%s is not exactly its sections", suiteGolden)
	}
	rows := strings.SplitAfter(secs[3].Text, "\n")
	rows[len(rows)-2] = "9" + rows[len(rows)-2] // a cell of the table's last row
	// The last metric's line comes just before the envelope's closing one.
	metric := len(secs) - 2
	for _, tc := range []struct {
		i    int
		text string
	}{
		{3, strings.Join(rows, "")},
		{metric, strings.Replace(secs[metric].Text, `"value":`, `"value":1`, 1)},
	} {
		report := golden.Diff(want, join(tc.i, tc.text), suiteSections)
		if first, _, _ := strings.Cut(report, "\n"); first != secs[tc.i].Name || strings.Count(report, "\n") != 3 {
			t.Errorf("one changed line in %s reported as:\n%s", secs[tc.i].Name, report)
		}
	}
	open := slices.IndexFunc(secs, func(s golden.Section) bool { return strings.HasPrefix(s.Text, "{") })
	renamed := strings.Replace(secs[open].Text, `"metrics"`, `"metric"`, 1)
	if report := golden.Diff(want, join(open, renamed), suiteSections); report != "- "+secs[open].Text+"+ "+renamed {
		t.Errorf("a renamed snapshot field reported as:\n%s", report)
	}
}

// TestSuiteMatchesFreshRunners: the memo is invisible in the output and
// visible in the work. Each experiment run alone on a fresh Runner gives the
// table and progress lines it gives inside the shared-Runner suite, except
// that a group's later tables (fig7, fig8 and fig10 after fig4; fig9 after
// fig6) emit no progress because their group already delivered it. The
// suite runs each distinct simulation once: the counts are pinned, so a
// cell that forgets a field that changes its result (its buffer, its seed)
// collapses distinct simulations into one and fails here. So are the churn
// sessions they take at the workers used: stream and pair cells on one tree
// share a session per unit, and a unit is at most a worker's share of them.
func TestSuiteMatchesFreshRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite once per experiment; skipped in -short mode")
	}
	suite, _, r := runSuite(t, tinyOptions(2), IDs())
	delivered := map[string]bool{}
	for i, e := range r.exps {
		fresh, _, _ := runSuite(t, tinyOptions(2), []string{e.id})
		want := fresh[0]
		if group := cmp.Or(e.group, e.id); delivered[group] {
			want.progress = nil
		} else {
			delivered[group] = true
		}
		if suite[i].table != want.table {
			t.Errorf("%s: suite table differs from a fresh Runner's:\n--- suite\n%s\n--- fresh\n%s", e.id, suite[i].table, want.table)
		}
		if !slices.Equal(suite[i].progress, want.progress) {
			t.Errorf("%s: suite progress %q, fresh Runner %q", e.id, suite[i].progress, want.progress)
		}
	}
	// 61 simulations before the memo: Figure 5 repeated five sweep runs,
	// Figure 13 three of Figure 12's, and the ablations five more. At two
	// workers the 49 take 40 churn sessions.
	if r.sims != 49 || r.sessions != 40 {
		t.Errorf("suite ran %d simulations in %d sessions, want 49 in 40", r.sims, r.sessions)
	}

	// The benchmark's figures shape: Figures 4-14 at sizes {1000, 2000} and
	// size 1000 on the paper's underlay. 62 simulations before the memo; all
	// of Figure 5's and Figure 13's 5 s row repeat earlier ones. At two
	// workers Figure 12's two trees take 4 sessions, Figure 13's one tree 2
	// and Figure 14's 6 pairs over four trees 8: 33 sessions in all, 19 of
	// them tree-level.
	figures := Options{Seed: 1, Sizes: []int{1000, 2000}, Size: 1000, Warmup: 20 * time.Minute, Measure: 20 * time.Minute,
		Replicas: 2, SweepSeeds: 1, ScaleSizes: []int{1000}, Workers: 2, Metrics: metrics.NewRegistry()}
	_, _, r = runSuite(t, figures, IDs()[:11])
	if r.sims != 54 || r.sessions != 33 {
		t.Errorf("figures shape ran %d simulations in %d sessions, want 54 in 33", r.sims, r.sessions)
	}
}
