package main

import (
	"fmt"
	"strings"
	"time"

	"omcast/internal/experiments"
	"omcast/internal/topology"
)

// figureIDs are the paper's figures. The ablations, fig-fleet, fig-scale and
// extension-multitree stay out: the last alone is 19 of omcast-all -quick's 22
// seconds and would drown the rest.
var figureIDs = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14"}

// figureSpec sizes the "regenerate the paper" job.
type figureSpec struct {
	sizes   []int // member counts of the size sweeps
	size    int   // member count of the single-size figures
	window  time.Duration
	workers int
	// quick swaps in the small underlay (smoke sizes only).
	quick bool
}

func (f figureSpec) options(seed int64, workers int, progress func(string, ...any)) experiments.Options {
	return experiments.Options{
		Seed:       seed,
		Sizes:      f.sizes,
		Size:       f.size,
		Warmup:     f.window,
		Measure:    f.window,
		Replicas:   2,
		SweepSeeds: 1,
		ScaleSizes: []int{f.size},
		Workers:    workers,
		Quick:      f.quick,
		Progress:   progress,
	}
}

// figureWorkload regenerates Figures 4-14 with a fresh Runner per repetition.
// The traced pass has no decorator to insert -- the Runner is one call from
// outside -- so it repeats the job on one worker: the digest must not change
// (tables are byte-identical at every worker count) and the time ratio is
// parallel.speedup.
func figureWorkload(spec figureSpec, nominal float64) *workload {
	w := &workload{
		name:    "figures",
		why:     "the user-visible job, regenerate the paper's Figures 4-14: all five algorithms, tracked members, CER and the parallel pool, in the mix a researcher pays for",
		opsUnit: "simulation runs",
		nominal: nominal,
	}
	w.setup = func(seed int64) error {
		// What every work unit pays before it simulates: the Runner itself is
		// free, the underlay is not.
		experiments.NewRunner(spec.options(seed, spec.workers, nil))
		cfg := simSpec{small: spec.quick}.topology(seed)
		_, err := topology.New(cfg)
		return err
	}
	w.prepare = func(seed int64, tr *tracer) (func() (repOutput, error), error) {
		workers := spec.workers
		if tr != nil {
			workers = 1
		}
		return func() (repOutput, error) {
			out, err := spec.regenerate(seed, workers)
			if tr != nil {
				out.layer = nil // per-figure times are reported at spec.workers
			}
			return out, err
		}, nil
	}
	w.once = func(_ int64, values map[string]float64) (map[string]float64, error) {
		// One worker against spec.workers: the overhead figure is the
		// speed-up, not a tracing cost.
		return map[string]float64{
			"parallel.speedup":   1 + values["trace.overhead_pct"]/100,
			"trace.overhead_pct": 0,
		}, nil
	}
	return w
}

// regenerate runs every figure on a fresh Runner and checks the tables.
func (f figureSpec) regenerate(seed int64, workers int) (repOutput, error) {
	out := repOutput{layer: map[string]float64{}}
	runs := 0
	runner := experiments.NewRunner(f.options(seed, workers, func(string, ...any) { runs++ }))
	d := newDigester()
	for _, id := range figureIDs {
		table, err := runner.Run(id)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out.attempted++
		text := table.Format()
		d.text(text)
		if problem := f.tableProblem(table); problem != "" {
			out.fail("%s: %s", id, problem)
		}
		out.layer["experiments."+id+"_s"] = table.Elapsed.Seconds()
	}
	out.layer["experiments.tables"] = float64(out.attempted - out.failed)
	out.ops = int64(runs)
	out.digest = d.sum()
	return out, nil
}

// sweepFigures have one row per swept member count.
var sweepFigures = map[string]bool{"fig4": true, "fig7": true, "fig8": true, "fig10": true, "fig12": true}

// tableProblem reports a missing row, a ragged row or a non-finite cell.
func (f figureSpec) tableProblem(t experiments.Table) string {
	if len(t.Rows) == 0 {
		return "no rows"
	}
	if sweepFigures[t.ID] && len(t.Rows) != len(f.sizes) {
		return fmt.Sprintf("%d rows for %d swept sizes", len(t.Rows), len(f.sizes))
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Sprintf("row %d has %d cells under %d headers", i, len(row), len(t.Header))
		}
		for _, cell := range row {
			if cell == "" || strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
				return fmt.Sprintf("row %d has the cell %q", i, cell)
			}
		}
	}
	return ""
}
