package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"omcast/internal/metrics"
)

// figureRun is what one Run delivers: the formatted table and the progress
// lines emitted while it ran.
type figureRun struct {
	table    string
	progress []string
}

// runSuite runs ids in order on one Runner built from opts and returns each
// Run's output plus the final metrics snapshot as JSON.
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
	snap, err := json.Marshal(opts.Metrics.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	return runs, string(snap), r
}

// TestFigureSuiteGolden pins the whole suite's output: every table, every
// progress line and the final metrics snapshot of one Runner over every
// experiment; any change to a table, to the progress stream or to the order
// registries are merged in shows up here. When the fleet figure and then the
// multiple-tree extension were retired, the hash was re-taken each time from
// the previous engine over the suite without the retired table, so every
// remaining table, progress line and metrics series is unchanged; only the
// retired tables, their progress lines and their series left. When the
// kernel lost event cancellation the hash was re-taken the same way: the
// previous engine's output minus its always-zero
// omcast_sim_events_canceled_total record, and again, when the simulator
// stopped modelling BTP cheaters, minus the always-zero
// omcast_rost_rejected_claims_total record.
func TestFigureSuiteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Arrival times are float arithmetic; architectures on which the
		// compiler fuses multiply-add round differently.
		t.Skipf("golden hash was taken on amd64, not %s", runtime.GOARCH)
	}
	const (
		wantSHA   = "1492567b3d451b7e8297849329ae03eb1e47dec20865183afccb69067ce3d30d"
		wantLines = 178
	)
	runs, snap, _ := runSuite(t, tinyOptions(2), IDs())
	var b strings.Builder
	for _, run := range runs {
		for _, line := range run.progress {
			b.WriteString("progress: " + line + "\n")
		}
		b.WriteString(run.table)
	}
	b.WriteString(snap + "\n")
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	if lines := strings.Count(b.String(), "\n"); got != wantSHA || lines != wantLines {
		t.Fatalf("suite sha256 = %s (%d lines), want %s (%d lines)", got, lines, wantSHA, wantLines)
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
