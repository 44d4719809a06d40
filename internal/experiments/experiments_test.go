package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"omcast"
)

func quickRunner() *Runner {
	return NewRunner(Options{Seed: 1, Quick: true})
}

// parseCell strips units ("%", "ms", "s", "x") and parses the number.
func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	for _, suffix := range []string{"%", "ms", "s", "x"} {
		cell = strings.TrimSuffix(cell, suffix)
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", cell, err)
	}
	return v
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 {
		t.Fatalf("IDs() has %d entries, want 16 (11 figures + 4 ablations + fig-scale)", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := quickRunner().Run("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Sizes) != 5 || o.Size != 8000 || o.Replicas != 5 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Size >= 8000 || q.Measure >= time.Hour {
		t.Fatalf("quick mode did not shrink: %+v", q)
	}
}

// TestQuickSweepFigures runs the shared-sweep figures in quick mode and
// checks table shapes; the sweep must run once, for the first figure.
func TestQuickSweepFigures(t *testing.T) {
	r := quickRunner()
	sims := 0
	for _, id := range []string{"fig4", "fig7", "fig8", "fig10"} {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tab.ID != id {
			t.Fatalf("table ID %q, want %q", tab.ID, id)
		}
		if len(tab.Header) != 6 { // x + 5 algorithms
			t.Fatalf("%s header has %d columns", id, len(tab.Header))
		}
		if len(tab.Rows) != 2 { // quick mode: two sizes
			t.Fatalf("%s has %d rows, want 2", id, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s row width %d vs header %d", id, len(row), len(tab.Header))
			}
		}
		if sims == 0 {
			sims = r.sims
		} else if r.sims != sims {
			t.Fatalf("%s ran %d more simulations; the sweep is not shared", id, r.sims-sims)
		}
	}
}

func TestQuickFig5(t *testing.T) {
	tab, err := quickRunner().Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 { // thresholds 1..128
		t.Fatalf("fig5 rows = %d, want 8", len(tab.Rows))
	}
	// CDF columns are monotone down the rows and end at 100%.
	prev := make([]float64, len(tab.Header))
	for _, row := range tab.Rows {
		for c := 1; c < len(row); c++ {
			v := parseCell(t, row[c])
			if v < prev[c] {
				t.Fatalf("CDF decreased in column %d", c)
			}
			prev[c] = v
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	for c := 1; c < len(last); c++ {
		if parseCell(t, last[c]) < 99.9 {
			t.Fatalf("CDF at threshold 128 is %s, want ~100%%", last[c])
		}
	}
}

func TestQuickTrackedFigures(t *testing.T) {
	r := quickRunner()
	fig6, err := r.Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig6.Rows) == 0 {
		t.Fatal("fig6 empty")
	}
	// Cumulative disruptions are non-decreasing down each column.
	prev := make([]float64, len(fig6.Header))
	for _, row := range fig6.Rows {
		for c := 1; c < len(row); c++ {
			v := parseCell(t, row[c])
			if v < prev[c] {
				t.Fatalf("fig6 cumulative count decreased in column %d", c)
			}
			prev[c] = v
		}
	}
	// fig9 reuses the tracked runs.
	sims := r.sims
	fig9, err := r.Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if r.sims != sims {
		t.Fatalf("fig9 ran %d more simulations; the tracked runs are not shared", r.sims-sims)
	}
	if len(fig9.Rows) != len(fig6.Rows) {
		t.Fatalf("fig9 rows %d != fig6 rows %d", len(fig9.Rows), len(fig6.Rows))
	}
}

func TestQuickFig11(t *testing.T) {
	tab, err := quickRunner().Run("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // quick: two intervals
		t.Fatalf("fig11 rows = %d, want 2", len(tab.Rows))
	}
	if len(tab.Header) != 5 {
		t.Fatalf("fig11 header = %d columns, want 5", len(tab.Header))
	}
}

func TestQuickStreamingFigures(t *testing.T) {
	r := quickRunner()
	for _, id := range []string{"fig12", "fig13", "fig14"} {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s empty", id)
		}
	}
}

// TestFig14IntervalNeedsTwoReplicas: one seed has no confidence interval, so
// Figure 14 prints "n/a" for its radius instead of a zero-width one; two
// seeds print a numeric radius.
func TestFig14IntervalNeedsTwoReplicas(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		opts := tinyOptions(2)
		opts.Replicas = replicas
		tab, err := NewRunner(opts).Run("fig14")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			for _, cell := range row[1:3] {
				if na := strings.HasSuffix(cell, "+/- n/a"); na != (replicas < 2) {
					t.Errorf("replicas=%d: cell %q", replicas, cell)
				}
			}
		}
	}
}

func TestQuickAblations(t *testing.T) {
	r := quickRunner()
	for _, id := range []string{"ablation-recovery", "ablation-rejoin", "ablation-priority", "ablation-guard"} {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) < 2 {
			t.Fatalf("%s has %d rows, want >= 2", id, len(tab.Rows))
		}
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		ID:     "fig4",
		Title:  "demo",
		Header: []string{"x", "a"},
		Rows:   [][]string{{"1", "2.0"}},
		Notes:  []string{"a note"},
	}
	out := tab.Format()
	for _, want := range []string{"fig4", "demo", "a note", "2.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var lines int
	r := NewRunner(Options{Seed: 1, Quick: true, Progress: func(string, ...any) { lines++ }})
	if _, err := r.Run("fig11"); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no progress lines emitted")
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{
		Header: []string{"x", "a,b", "c"},
		Rows:   [][]string{{"1", "2.0%", "has \"quotes\""}},
	}
	out := tab.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], `"a,b"`) {
		t.Fatalf("comma cell not quoted: %q", lines[0])
	}
	if !strings.Contains(lines[1], `""quotes""`) {
		t.Fatalf("quote cell not escaped: %q", lines[1])
	}
}

// TestUnitsShareOnlyOneTree: stream and pair cells share a unit only when
// they name one churn session, differing in recovery, K or buffer alone; a
// shared tree is dealt round-robin over at most the workers; every other
// cell runs alone; the largest tree runs first.
func TestUnitsShareOnlyOneTree(t *testing.T) {
	o := Options{Seed: 1}
	base := o.streamCell(1000, 1)
	vary := func(set func(*cell)) cell {
		c := base
		set(&c)
		return c
	}
	shared := []cell{
		base,
		vary(func(c *cell) { c.k = 2 }),
		vary(func(c *cell) { c.buffer = 20 * time.Second }),
		vary(func(c *cell) { c.recovery = omcast.SingleSource }),
	}
	apart := []cell{
		vary(func(c *cell) { c.alg = omcast.ROST }),
		vary(func(c *cell) { c.seed = 2 }),
		vary(func(c *cell) { c.interval = 480 * time.Second }),
		vary(func(c *cell) { c.size = 2000 }),
		vary(func(c *cell) { c.kind = runPair }),
		vary(func(c *cell) { c.noAncestorRejoin = true }),
		vary(func(c *cell) { c.priority = true }),
		vary(func(c *cell) { c.noBandwidthGuard = true }),
		o.treeCell(omcast.MinimumDepth, 1000),
	}
	unitOf := func(work [][]cell, c cell) []cell {
		for _, u := range work {
			if slices.Contains(u, c) {
				return u
			}
		}
		t.Fatalf("cell %+v is in no unit", c)
		return nil
	}
	work := units(append(slices.Clone(shared), apart...), 1)
	if len(work) != 1+len(apart) {
		t.Fatalf("one worker: %d units, want %d", len(work), 1+len(apart))
	}
	if u := unitOf(work, base); !slices.Equal(u, shared) {
		t.Errorf("one worker: the shared tree's unit is %+v, want %+v", u, shared)
	}
	for _, c := range apart {
		if u := unitOf(work, c); len(u) != 1 {
			t.Errorf("cell %+v shares a unit with %d others", c, len(u)-1)
		}
	}
	if work[0][0].size != 2000 {
		t.Errorf("first unit is %+v, want the largest tree", work[0])
	}

	work = units(shared, 2)
	want := [][]cell{{shared[0], shared[2]}, {shared[1], shared[3]}}
	if !slices.EqualFunc(work, want, slices.Equal[[]cell]) {
		t.Errorf("two workers: units %+v, want %+v", work, want)
	}
}
