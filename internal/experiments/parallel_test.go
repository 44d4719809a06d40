package experiments

import (
	"encoding/json"
	"fmt"
	"testing"

	"omcast/internal/metrics"
)

// tinyOptions returns the smallest configuration that still exercises every
// code path: Quick's small topology with custom sweep sizes and windows
// (possible because Quick only fills fields left at their zero value).
func tinyOptions(workers int) Options {
	return Options{
		Seed:    7,
		Quick:   true,
		Workers: workers,
		Sizes:   []int{200, 300},
		Size:    300,
		Metrics: metrics.NewRegistry(),
	}
}

// figureOutput runs one figure and returns its rendered table plus the
// JSON-serialised metrics snapshot — the two byte streams the engine
// promises are independent of the worker count.
func figureOutput(t *testing.T, id string, workers int) (string, string) {
	t.Helper()
	opts := tinyOptions(workers)
	var progress []string
	opts.Progress = func(format string, args ...any) {
		progress = append(progress, fmt.Sprintf(format, args...))
	}
	tab, err := NewRunner(opts).Run(id)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", id, workers, err)
	}
	snap, err := json.Marshal(opts.Metrics.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Format()
	for _, line := range progress {
		out += "progress: " + line + "\n"
	}
	return out, string(snap)
}

// TestParallelByteIdentical is the worker-pool merge property test: for
// figures covering the shared sweep, the tracked runs, a streaming grid, the
// fleet and the scale sweep, workers 1, 2 and 8 must produce byte-identical
// tables, progress streams and metrics snapshots.
func TestParallelByteIdentical(t *testing.T) {
	for _, id := range []string{"fig4", "fig6", "fig13", "fig-fleet", "fig-scale"} {
		wantTab, wantSnap := figureOutput(t, id, 1)
		for _, workers := range []int{2, 8} {
			gotTab, gotSnap := figureOutput(t, id, workers)
			if gotTab != wantTab {
				t.Errorf("%s: table/progress bytes differ between workers=1 and workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s",
					id, workers, wantTab, workers, gotTab)
			}
			if gotSnap != wantSnap {
				t.Errorf("%s: metrics snapshot differs between workers=1 and workers=%d", id, workers)
			}
		}
	}
}

// TestParallelAllFiguresByteIdentical covers every experiment ID: a full
// suite run with the parallel pool must reproduce the sequential suite
// byte-for-byte (tables and the final merged snapshot).
func TestParallelAllFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison skipped in -short mode")
	}
	run := func(workers int) (map[string]string, string) {
		opts := tinyOptions(workers)
		r := NewRunner(opts)
		out := make(map[string]string, len(IDs()))
		for _, id := range IDs() {
			tab, err := r.Run(id)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			out[tab.ID] = tab.Format()
		}
		snap, err := json.Marshal(opts.Metrics.Snapshot(0))
		if err != nil {
			t.Fatal(err)
		}
		return out, string(snap)
	}
	seqTables, seqSnap := run(1)
	parTables, parSnap := run(8)
	if len(seqTables) != len(IDs()) {
		t.Fatalf("suite produced %d tables, want %d", len(seqTables), len(IDs()))
	}
	for _, id := range IDs() {
		if seqTables[id] != parTables[id] {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				id, seqTables[id], parTables[id])
		}
	}
	if seqSnap != parSnap {
		t.Error("final metrics snapshot differs between sequential and parallel suite runs")
	}
}
