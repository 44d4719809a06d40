// Package experiments defines one regenerator per figure of the paper's
// evaluation (Figures 4-14) plus the ablations DESIGN.md calls out. Each
// experiment produces a Table with exactly the series the paper plots, so
// `omcast sim` and the benchmarks can print paper-vs-measured comparisons.
//
// Runs that share simulations (Figures 4, 7, 8 and 10 all read the same
// tree-level sweep; Figures 6 and 9 share the tracked-member runs) are
// cached inside a Runner so `omcast sim -fig all` does the work once.
//
// Every figure decomposes into independent seeded work units — one per
// replication or curve point — executed on a bounded worker pool
// (internal/parallel) and merged in canonical unit order, so tables,
// progress lines and metric snapshots are byte-identical for every worker
// count. See DESIGN.md §12 for the determinism argument.
package experiments

import (
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"time"

	"omcast"
	"omcast/internal/metrics"
	"omcast/internal/parallel"
	"omcast/internal/stats"
)

// Options scales the experiment suite.
type Options struct {
	// Seed is the base random seed; replicated runs use Seed, Seed+1, ...
	Seed int64
	// Sizes are the steady-state member counts for the size sweeps
	// (Figures 4, 7, 8, 10, 12); nil means the paper's {2000, 5000, 8000,
	// 11000, 14000}.
	Sizes []int
	// Size is the member count for single-size figures (5, 6, 9, 11, 13,
	// 14); zero means the paper's 8000.
	Size int
	// Warmup and Measure bound each run; zero means 3 h / 1 h.
	Warmup, Measure time.Duration
	// Replicas is the number of independent seeds behind Figure 14's 95%
	// confidence intervals; zero means 5.
	Replicas int
	// SweepSeeds averages the Figure 4/7/8/10 size sweep over this many
	// seeds; zero means 3.
	SweepSeeds int
	// ScaleSizes are the member counts for the fig-scale sweep; nil means
	// {2000, 14000, 140000} — the paper's smallest and largest sweep sizes
	// plus the Figure 4 re-run at ten times the paper's N. The table reports
	// only seed-deterministic observables (disruptions, delay, event
	// counts); bytes/member and ns/event live in BENCH scale artifacts
	// (internal/bench.RunScale), which is also where the 10^6-member single
	// run belongs.
	ScaleSizes []int
	// Workers bounds the worker pool running a figure's independent work
	// units; zero means GOMAXPROCS, 1 forces sequential execution. Every
	// setting produces byte-identical output: results, metrics and progress
	// lines are merged in canonical unit order after each batch.
	Workers int
	// Quick shrinks everything (small topology, few hundred members, short
	// windows) for smoke tests and benchmarks. It fills only the fields the
	// caller left at their zero value, so tests can combine Quick's small
	// topology with custom sizes or windows.
	Quick bool
	// Paranoid routes every run's invariant checks through the full O(n)
	// scan and schedules periodic tree audits (omcast.Config.Paranoid). The
	// audit events can shift same-time tie-breaks, so paranoid outputs are
	// only comparable to other paranoid runs — it is a debugging aid, not a
	// reporting mode.
	Paranoid bool
	// Progress, when non-nil, receives one line per completed run. Lines
	// for a figure's work units are delivered after the figure's batch
	// completes, in canonical unit order regardless of Workers; the
	// callback is only ever invoked from the goroutine calling Run.
	Progress func(format string, args ...any)
	// Metrics, when non-nil, accumulates every run's instruments. Work
	// units populate private registries that are merged into this one in
	// canonical unit order (see metrics.Registry.Merge), which mirrors
	// sequential sessions sharing the registry and keeps snapshots
	// byte-identical across worker counts.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Quick {
		if o.Sizes == nil {
			o.Sizes = []int{400, 800}
		}
		if o.Size == 0 {
			o.Size = 800
		}
		if o.Warmup <= 0 {
			o.Warmup = 45 * time.Minute
		}
		if o.Measure <= 0 {
			o.Measure = 30 * time.Minute
		}
		if o.Replicas <= 0 {
			o.Replicas = 2
		}
		if o.SweepSeeds <= 0 {
			o.SweepSeeds = 1
		}
		if o.ScaleSizes == nil {
			o.ScaleSizes = []int{250, 500}
		}
	}
	if o.ScaleSizes == nil {
		o.ScaleSizes = []int{2000, 14000, 140000}
	}
	if o.Sizes == nil {
		o.Sizes = []int{2000, 5000, 8000, 11000, 14000}
	}
	if o.Size == 0 {
		o.Size = 8000
	}
	if o.Warmup <= 0 {
		o.Warmup = 3 * time.Hour
	}
	if o.Measure <= 0 {
		o.Measure = time.Hour
	}
	if o.Replicas <= 0 {
		o.Replicas = 5
	}
	if o.SweepSeeds <= 0 {
		o.SweepSeeds = 3
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// baseConfig builds the session configuration for one run.
func (o Options) baseConfig(seed int64, alg omcast.Algorithm, size int) omcast.Config {
	cfg := omcast.Config{
		Seed:       seed,
		Algorithm:  alg,
		TargetSize: size,
		Warmup:     o.Warmup,
		Measure:    o.Measure,
		Metrics:    o.Metrics,
		Paranoid:   o.Paranoid,
	}
	if o.Quick {
		cfg.Topology = omcast.SmallTopology()
	}
	return cfg
}

// Table is one regenerated figure: a header row plus formatted data rows.
type Table struct {
	ID      string
	Title   string
	Header  []string
	Rows    [][]string
	Notes   []string
	Elapsed time.Duration
}

// Format renders the table as aligned plain text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for r, row := range rows {
		for i, cell := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", pad+2, cell)
		}
		b.WriteString("\n")
		if r == 0 {
			for i := range t.Header {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteString("\n")
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 comma-separated values (header first),
// for plotting pipelines. Cells keep their unit suffixes; strip them with
// the consumer of your choice.
func (t Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// Write never fails on a strings.Builder; the error is surfaced by
	// Flush below for completeness.
	_ = w.Write(t.Header)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// experiment pairs an experiment ID with the Runner method regenerating it.
type experiment struct {
	id  string
	run func(*Runner) (Table, error)
}

// experimentTable names every experiment once, in figure order; IDs and Run
// both read it, so the two can never disagree.
var experimentTable = []experiment{
	{"fig4", (*Runner).fig4},
	{"fig5", (*Runner).fig5Table},
	{"fig6", (*Runner).fig6},
	{"fig7", (*Runner).fig7},
	{"fig8", (*Runner).fig8},
	{"fig9", (*Runner).fig9},
	{"fig10", (*Runner).fig10},
	{"fig11", (*Runner).fig11},
	{"fig12", (*Runner).fig12},
	{"fig13", (*Runner).fig13},
	{"fig14", (*Runner).fig14},
	{"ablation-recovery", (*Runner).ablationRecovery},
	{"ablation-rejoin", (*Runner).ablationRejoin},
	{"ablation-priority", (*Runner).ablationPriority},
	{"ablation-guard", (*Runner).ablationGuard},
	{"extension-multitree", (*Runner).extensionMultiTree},
	{"fig-fleet", (*Runner).figFleet},
	{"fig-scale", (*Runner).figScale},
}

// IDs lists all experiment identifiers in figure order.
func IDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

// Runner executes experiments with shared-run caching.
type Runner struct {
	opts Options

	sweep   map[omcast.Algorithm][]omcast.TreeResult // per size
	tracked map[omcast.Algorithm]omcast.TrackedSeries
	fig5    map[omcast.Algorithm][]float64
}

// NewRunner builds a Runner over the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts.withDefaults()}
}

// runUnits executes n independent work units on the engine's worker pool and
// returns their results in unit order. Each unit receives a copy of the
// runner's options with Metrics swapped for a private registry and Progress
// swapped for a line buffer; once the whole batch finishes, the registries
// are merged into the shared registry and the buffered lines emitted, both
// in canonical unit order. Every worker count — including 1 — goes through
// the same private-registry path, so float accumulation order, snapshot
// bytes and the progress stream never depend on Workers or on scheduling.
//
// Units must draw randomness only from the seeds in their own configs
// (omcast.Run derives every stream from Config.Seed), touch no Runner state,
// and leave all table assembly to the merge code in their caller.
func runUnits[T any](r *Runner, n int, fn func(o Options, i int) (T, error)) ([]T, error) {
	type sidecar struct {
		reg  *metrics.Registry
		msgs []string
	}
	sidecars := make([]sidecar, n)
	results, err := parallel.Run(r.opts.Workers, n, func(i int) (T, error) {
		sc := &sidecars[i]
		o := r.opts
		if o.Metrics != nil {
			sc.reg = metrics.NewRegistry()
			o.Metrics = sc.reg
		}
		o.Progress = func(format string, args ...any) {
			sc.msgs = append(sc.msgs, fmt.Sprintf(format, args...))
		}
		return fn(o, i)
	})
	if err != nil {
		return nil, err
	}
	for i := range sidecars {
		if sidecars[i].reg != nil {
			r.opts.Metrics.Merge(sidecars[i].reg)
		}
		for _, line := range sidecars[i].msgs {
			r.opts.progress("%s", line)
		}
	}
	return results, nil
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (Table, error) {
	i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	//lint:ignore no-wallclock reason: Table.Elapsed is harness wall-clock cost, not simulation output
	start := time.Now()
	t, err := experimentTable[i].run(r)
	if err != nil {
		return Table{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	t.ID = id
	//lint:ignore no-wallclock reason: Table.Elapsed is harness wall-clock cost, not simulation output
	t.Elapsed = time.Since(start)
	return t, nil
}

// treeSweep runs (once) the shared size sweep behind Figures 4, 7, 8, 10.
// Work units are the individual (algorithm, size, replication) runs; the
// merge loop averages replications in ascending seed order, exactly as the
// sequential engine did, so the averages are bit-identical.
func (r *Runner) treeSweep() (map[omcast.Algorithm][]omcast.TreeResult, error) {
	if r.sweep != nil {
		return r.sweep, nil
	}
	type cell struct {
		alg  omcast.Algorithm
		size int
		rep  int
	}
	cells := make([]cell, 0, len(omcast.Algorithms)*len(r.opts.Sizes)*r.opts.SweepSeeds)
	for _, alg := range omcast.Algorithms {
		for _, size := range r.opts.Sizes {
			for rep := 0; rep < r.opts.SweepSeeds; rep++ {
				cells = append(cells, cell{alg, size, rep})
			}
		}
	}
	results, err := runUnits(r, len(cells), func(o Options, i int) (omcast.TreeResult, error) {
		c := cells[i]
		res, err := omcast.Run(o.baseConfig(o.Seed+int64(c.rep), c.alg, c.size))
		if err != nil {
			return omcast.TreeResult{}, fmt.Errorf("sweep %v at %d: %w", c.alg, c.size, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	sweep := make(map[omcast.Algorithm][]omcast.TreeResult, len(omcast.Algorithms))
	n := float64(r.opts.SweepSeeds)
	i := 0
	for _, alg := range omcast.Algorithms {
		for _, size := range r.opts.Sizes {
			var avg omcast.TreeResult
			for rep := 0; rep < r.opts.SweepSeeds; rep++ {
				res := results[i]
				i++
				avg.Algorithm = res.Algorithm
				avg.AvgDisruptions += res.AvgDisruptions / n
				avg.AvgReconnections += res.AvgReconnections / n
				avg.PerLifetimeDisruptions += res.PerLifetimeDisruptions / n
				avg.PerLifetimeReconnections += res.PerLifetimeReconnections / n
				avg.AvgServiceDelayMS += res.AvgServiceDelayMS / n
				avg.AvgStretch += res.AvgStretch / n
				avg.AvgSize += res.AvgSize / n
				avg.Departures += res.Departures
			}
			sweep[alg] = append(sweep[alg], avg)
			r.opts.progress("sweep %-26s M=%-6d disruptions=%.2f delay=%.0fms (%d seeds)",
				alg, size, avg.AvgDisruptions, avg.AvgServiceDelayMS, r.opts.SweepSeeds)
		}
	}
	r.sweep = sweep
	return sweep, nil
}

// sweepTable renders one metric of the shared sweep.
func (r *Runner) sweepTable(title, unit string, metric func(omcast.TreeResult) float64) (Table, error) {
	sweep, err := r.treeSweep()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  title,
		Header: []string{"avg size"},
	}
	for _, alg := range omcast.Algorithms {
		t.Header = append(t.Header, alg.String())
	}
	for i, size := range r.opts.Sizes {
		row := []string{fmt.Sprintf("%.0f", sweep[omcast.MinimumDepth][i].AvgSize)}
		for _, alg := range omcast.Algorithms {
			row = append(row, fmt.Sprintf("%.2f%s", metric(sweep[alg][i]), unit))
		}
		t.Rows = append(t.Rows, row)
		_ = size
	}
	return t, nil
}

func (r *Runner) fig4() (Table, error) {
	t, err := r.sweepTable("Avg streaming disruptions per node vs steady-state size", "", func(res omcast.TreeResult) float64 {
		return res.AvgDisruptions
	})
	t.Notes = append(t.Notes,
		"paper: ROST lowest everywhere; 36-57% below relaxed BO, up to 40% below relaxed TO;",
		"minimum-depth and longest-first worst and most size-sensitive")
	return t, err
}

func (r *Runner) fig7() (Table, error) {
	t, err := r.sweepTable("Avg end-to-end service delay vs size", "ms", func(res omcast.TreeResult) float64 {
		return res.AvgServiceDelayMS
	})
	t.Notes = append(t.Notes,
		"paper: relaxed BO shortest (centralized); ROST best of the distributed algorithms;",
		"longest-first by far the tallest tree")
	return t, err
}

func (r *Runner) fig8() (Table, error) {
	t, err := r.sweepTable("Avg network stretch vs size", "", func(res omcast.TreeResult) float64 {
		return res.AvgStretch
	})
	t.Notes = append(t.Notes, "paper: same ordering as Figure 7")
	return t, err
}

func (r *Runner) fig10() (Table, error) {
	t, err := r.sweepTable("Optimizer reconnections per node vs size (protocol overhead)", "", func(res omcast.TreeResult) float64 {
		return res.AvgReconnections
	})
	t.Notes = append(t.Notes,
		"paper: minimum-depth and longest-first impose none; relaxed TO highest, relaxed BO next;",
		"ROST far below one reconnection per node")
	return t, err
}

// fig5Data runs (once) the 5-algorithm single-size comparison behind the
// disruption CDF. One work unit per algorithm.
func (r *Runner) fig5Data() (map[omcast.Algorithm][]float64, error) {
	if r.fig5 != nil {
		return r.fig5, nil
	}
	counts, err := runUnits(r, len(omcast.Algorithms), func(o Options, i int) ([]float64, error) {
		alg := omcast.Algorithms[i]
		res, err := omcast.Run(o.baseConfig(o.Seed, alg, o.Size))
		if err != nil {
			return nil, err
		}
		o.progress("fig5 %-26s members=%d", alg, len(res.DisruptionCounts))
		return res.DisruptionCounts, nil
	})
	if err != nil {
		return nil, err
	}
	data := make(map[omcast.Algorithm][]float64, len(omcast.Algorithms))
	for i, alg := range omcast.Algorithms {
		data[alg] = counts[i]
	}
	r.fig5 = data
	return data, nil
}

func (r *Runner) fig5Table() (Table, error) {
	data, err := r.fig5Data()
	if err != nil {
		return Table{}, err
	}
	thresholds := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	t := Table{
		Title:  fmt.Sprintf("CDF of per-node disruption counts (%d nodes)", r.opts.Size),
		Header: []string{"disruptions <="},
		Notes: []string{
			"cumulative percentage of nodes with at most X disruptions over the window",
			"paper: the ROST curve dominates (is leftmost/highest) at every threshold",
		},
	}
	for _, alg := range omcast.Algorithms {
		t.Header = append(t.Header, alg.String())
	}
	for _, th := range thresholds {
		row := []string{fmt.Sprintf("%.0f", th)}
		for _, alg := range omcast.Algorithms {
			points := stats.CDFAt(data[alg], []float64{th})
			row = append(row, fmt.Sprintf("%.1f%%", points[0].Fraction*100))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// trackedRuns runs (once) the Figure 6/9 typical-member sessions. One work
// unit per algorithm.
func (r *Runner) trackedRuns() (map[omcast.Algorithm]omcast.TrackedSeries, error) {
	if r.tracked != nil {
		return r.tracked, nil
	}
	observe := 300 * time.Minute
	if r.opts.Quick {
		observe = 60 * time.Minute
	}
	series, err := runUnits(r, len(omcast.Algorithms), func(o Options, i int) (omcast.TrackedSeries, error) {
		alg := omcast.Algorithms[i]
		s, _, err := omcast.RunTracked(o.baseConfig(o.Seed, alg, o.Size), 2, observe)
		if err != nil {
			return omcast.TrackedSeries{}, err
		}
		o.progress("tracked %-26s samples=%d", alg, len(s.Minutes))
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[omcast.Algorithm]omcast.TrackedSeries, len(omcast.Algorithms))
	for i, alg := range omcast.Algorithms {
		out[alg] = series[i]
	}
	r.tracked = out
	return out, nil
}

// trackedTable renders one series of the tracked runs sampled at the
// paper's 33-minute ticks.
func (r *Runner) trackedTable(title string, value func(omcast.TrackedSeries, int) string) (Table, error) {
	data, err := r.trackedRuns()
	if err != nil {
		return Table{}, err
	}
	t := Table{Title: title, Header: []string{"minute"}}
	for _, alg := range omcast.Algorithms {
		t.Header = append(t.Header, alg.String())
	}
	// Find the shortest series to bound sampling.
	minLen := -1
	for _, alg := range omcast.Algorithms {
		if n := len(data[alg].Minutes); minLen < 0 || n < minLen {
			minLen = n
		}
	}
	step := 33
	if r.opts.Quick {
		step = 10
	}
	for i := 0; i < minLen; i += step {
		row := []string{fmt.Sprintf("%.0f", data[omcast.MinimumDepth].Minutes[i])}
		for _, alg := range omcast.Algorithms {
			row = append(row, value(data[alg], i))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (r *Runner) fig6() (Table, error) {
	t, err := r.trackedTable("Cumulative disruptions of a typical member over time",
		func(s omcast.TrackedSeries, i int) string {
			return fmt.Sprintf("%d", s.Disruptions[i])
		})
	t.Notes = append(t.Notes,
		"paper: under ROST the slope flattens as the member ages and ascends the tree")
	return t, err
}

func (r *Runner) fig9() (Table, error) {
	t, err := r.trackedTable("Service delay of a typical member over time",
		func(s omcast.TrackedSeries, i int) string {
			return fmt.Sprintf("%.0fms", s.ServiceDelayMS[i])
		})
	t.Notes = append(t.Notes,
		"paper: ROST and relaxed TO delays shrink as the member climbs; the others fluctuate without converging",
		"0ms samples mean the member was between parents at the sampling instant")
	return t, err
}

func (r *Runner) fig11() (Table, error) {
	intervals := []time.Duration{480 * time.Second, 960 * time.Second, 1200 * time.Second, 1800 * time.Second}
	if r.opts.Quick {
		intervals = []time.Duration{240 * time.Second, 960 * time.Second}
	}
	t := Table{
		Title:  fmt.Sprintf("Effect of the ROST switching interval (%d nodes)", r.opts.Size),
		Header: []string{"interval", "disruptions/node", "service delay", "stretch", "reconnections/node"},
		Notes: []string{
			"paper: smaller intervals improve reliability, delay and stretch at a small overhead cost",
			"(0.15 reconnections per node at the smallest interval)",
		},
	}
	rows, err := runUnits(r, len(intervals), func(o Options, i int) ([]string, error) {
		iv := intervals[i]
		cfg := o.baseConfig(o.Seed, omcast.ROST, o.Size)
		cfg.SwitchInterval = iv
		res, err := omcast.Run(cfg)
		if err != nil {
			return nil, err
		}
		o.progress("fig11 interval=%v disruptions=%.2f", iv, res.AvgDisruptions)
		return []string{
			fmt.Sprintf("%.0fs", iv.Seconds()),
			fmt.Sprintf("%.2f", res.AvgDisruptions),
			fmt.Sprintf("%.0fms", res.AvgServiceDelayMS),
			fmt.Sprintf("%.2f", res.AvgStretch),
			fmt.Sprintf("%.2f", res.AvgReconnections),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

func (r *Runner) fig12() (Table, error) {
	groups := []int{1, 2, 3, 4}
	t := Table{
		Title:  "Avg starving-time ratio vs size for recovery group sizes 1-4 (min-depth tree, CER)",
		Header: []string{"avg size"},
		Notes: []string{
			"paper: growing the group from 1 to 3 cuts the starving time by an order of magnitude (<0.2% everywhere)",
		},
	}
	for _, k := range groups {
		t.Header = append(t.Header, fmt.Sprintf("K=%d", k))
	}
	type cell struct{ size, k int }
	cells := make([]cell, 0, len(r.opts.Sizes)*len(groups))
	for _, size := range r.opts.Sizes {
		for _, k := range groups {
			cells = append(cells, cell{size, k})
		}
	}
	type point struct {
		avgSize float64
		cell    string
	}
	points, err := runUnits(r, len(cells), func(o Options, i int) (point, error) {
		c := cells[i]
		res, err := omcast.RunStreaming(o.baseConfig(o.Seed, omcast.MinimumDepth, c.size),
			omcast.StreamConfig{Recovery: omcast.CER, GroupSize: c.k})
		if err != nil {
			return point{}, err
		}
		o.progress("fig12 M=%-6d K=%d starving=%.3f%%", c.size, c.k, res.AvgStarvingRatio*100)
		return point{res.AvgSize, fmt.Sprintf("%.3f%%", res.AvgStarvingRatio*100)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	i := 0
	for range r.opts.Sizes {
		row := make([]string, 0, len(groups)+1)
		row = append(row, fmt.Sprintf("%.0f", points[i].avgSize))
		for range groups {
			row = append(row, points[i].cell)
			i++
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (r *Runner) fig13() (Table, error) {
	buffers := []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second, 25 * time.Second, 30 * time.Second}
	groups := []int{1, 2, 3}
	if r.opts.Quick {
		buffers = []time.Duration{5 * time.Second, 20 * time.Second}
	}
	t := Table{
		Title:  fmt.Sprintf("Avg starving-time ratio vs buffer size (%d nodes, min-depth tree, CER)", r.opts.Size),
		Header: []string{"buffer"},
		Notes: []string{
			"paper: with one recovery node only a ~27s buffer reaches what two recovery nodes achieve at 5s",
		},
	}
	for _, k := range groups {
		t.Header = append(t.Header, fmt.Sprintf("K=%d", k))
	}
	type cell struct {
		buffer time.Duration
		k      int
	}
	cells := make([]cell, 0, len(buffers)*len(groups))
	for _, b := range buffers {
		for _, k := range groups {
			cells = append(cells, cell{b, k})
		}
	}
	ratios, err := runUnits(r, len(cells), func(o Options, i int) (string, error) {
		c := cells[i]
		res, err := omcast.RunStreaming(o.baseConfig(o.Seed, omcast.MinimumDepth, o.Size),
			omcast.StreamConfig{Recovery: omcast.CER, GroupSize: c.k, Buffer: c.buffer})
		if err != nil {
			return "", err
		}
		o.progress("fig13 B=%v K=%d starving=%.3f%%", c.buffer, c.k, res.AvgStarvingRatio*100)
		return fmt.Sprintf("%.3f%%", res.AvgStarvingRatio*100), nil
	})
	if err != nil {
		return Table{}, err
	}
	i := 0
	for _, b := range buffers {
		row := []string{fmt.Sprintf("%.0fs", b.Seconds())}
		for range groups {
			row = append(row, ratios[i])
			i++
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (r *Runner) fig14() (Table, error) {
	groups := []int{1, 2, 3}
	t := Table{
		Title:  fmt.Sprintf("ROST+CER vs minimum-depth + single-source (%d nodes, 95%% CI over %d seeds)", r.opts.Size, r.opts.Replicas),
		Header: []string{"group size", "ROST+CER", "min-depth + single source", "improvement"},
		Notes: []string{
			"paper: ROST+CER reduces the starving ratio 8-9x on average; even at group size 1 it beats",
			"the baseline with two recovery nodes",
		},
	}
	type cell struct{ k, rep int }
	cells := make([]cell, 0, len(groups)*r.opts.Replicas)
	for _, k := range groups {
		for rep := 0; rep < r.opts.Replicas; rep++ {
			cells = append(cells, cell{k, rep})
		}
	}
	type pair struct{ rost, base float64 }
	pairs, err := runUnits(r, len(cells), func(o Options, i int) (pair, error) {
		c := cells[i]
		seed := o.Seed + int64(c.rep)
		a, err := omcast.RunStreaming(o.baseConfig(seed, omcast.ROST, o.Size),
			omcast.StreamConfig{Recovery: omcast.CER, GroupSize: c.k})
		if err != nil {
			return pair{}, err
		}
		b, err := omcast.RunStreaming(o.baseConfig(seed, omcast.MinimumDepth, o.Size),
			omcast.StreamConfig{Recovery: omcast.SingleSource, GroupSize: c.k})
		if err != nil {
			return pair{}, err
		}
		o.progress("fig14 K=%d seed=%d rost=%.3f%% base=%.3f%%", c.k, seed, a.AvgStarvingRatio*100, b.AvgStarvingRatio*100)
		return pair{a.AvgStarvingRatio * 100, b.AvgStarvingRatio * 100}, nil
	})
	if err != nil {
		return Table{}, err
	}
	i := 0
	for _, k := range groups {
		var rost, base []float64
		for rep := 0; rep < r.opts.Replicas; rep++ {
			rost = append(rost, pairs[i].rost)
			base = append(base, pairs[i].base)
			i++
		}
		ra := stats.ConfidenceInterval95(rost)
		ba := stats.ConfidenceInterval95(base)
		improvement := "n/a"
		if ra.Mean > 0 {
			improvement = fmt.Sprintf("%.1fx", ba.Mean/ra.Mean)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f%% +/- %.3f", ra.Mean, ra.Radius),
			fmt.Sprintf("%.3f%% +/- %.3f", ba.Mean, ba.Radius),
			improvement,
		})
	}
	return t, nil
}

func (r *Runner) ablationRecovery() (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: recovery group selection and striping (%d nodes, min-depth tree, K=3)", r.opts.Size),
		Header: []string{"scheme", "starving ratio"},
		Notes:  []string{"isolates the value of MLC selection (Algorithm 1) from the value of bandwidth striping"},
	}
	schemes := []omcast.Recovery{omcast.CER, omcast.CERRandomGroup, omcast.SingleSource}
	rows, err := runUnits(r, len(schemes), func(o Options, i int) ([]string, error) {
		scheme := schemes[i]
		res, err := omcast.RunStreaming(o.baseConfig(o.Seed, omcast.MinimumDepth, o.Size),
			omcast.StreamConfig{Recovery: scheme, GroupSize: 3})
		if err != nil {
			return nil, err
		}
		o.progress("ablation-recovery %s starving=%.3f%%", scheme, res.AvgStarvingRatio*100)
		return []string{scheme.String(), fmt.Sprintf("%.3f%%", res.AvgStarvingRatio*100)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

func (r *Runner) ablationRejoin() (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: ancestor-first orphan rejoin (%d nodes, ROST)", r.opts.Size),
		Header: []string{"orphan rejoin", "disruptions/node", "service delay"},
		Notes:  []string{"ancestor rejoin keeps freed interior positions inside the affected subtree"},
	}
	variants := []bool{false, true}
	rows, err := runUnits(r, len(variants), func(o Options, i int) ([]string, error) {
		disable := variants[i]
		cfg := o.baseConfig(o.Seed, omcast.ROST, o.Size)
		cfg.DisableAncestorRejoin = disable
		res, err := omcast.Run(cfg)
		if err != nil {
			return nil, err
		}
		label := "ancestor-first"
		if disable {
			label = "full re-join"
		}
		o.progress("ablation-rejoin disable=%v disruptions=%.2f", disable, res.AvgDisruptions)
		return []string{label,
			fmt.Sprintf("%.2f", res.AvgDisruptions),
			fmt.Sprintf("%.0fms", res.AvgServiceDelayMS)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

func (r *Runner) ablationPriority() (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: contributor-priority join (%d nodes, ROST)", r.opts.Size),
		Header: []string{"join rule", "disruptions/node", "service delay", "stretch"},
		Notes:  []string{"parking free-riders deep keeps high slots for members switching can actually displace"},
	}
	variants := []bool{false, true}
	rows, err := runUnits(r, len(variants), func(o Options, i int) ([]string, error) {
		cp := variants[i]
		cfg := o.baseConfig(o.Seed, omcast.ROST, o.Size)
		cfg.ContributorPriority = cp
		res, err := omcast.Run(cfg)
		if err != nil {
			return nil, err
		}
		label := "minimum-depth for all"
		if cp {
			label = "contributor priority"
		}
		o.progress("ablation-priority cp=%v disruptions=%.2f", cp, res.AvgDisruptions)
		return []string{label,
			fmt.Sprintf("%.2f", res.AvgDisruptions),
			fmt.Sprintf("%.0fms", res.AvgServiceDelayMS),
			fmt.Sprintf("%.2f", res.AvgStretch)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

func (r *Runner) ablationGuard() (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Ablation: ROST bandwidth guard on switching (%d nodes)", r.opts.Size),
		Header: []string{"guard", "disruptions/node", "reconnections/node", "service delay"},
		Notes:  []string{"without the guard, lower-bandwidth children switch up only to be overtaken and demoted again"},
	}
	variants := []bool{false, true}
	rows, err := runUnits(r, len(variants), func(o Options, i int) ([]string, error) {
		disabled := variants[i]
		cfg := o.baseConfig(o.Seed, omcast.ROST, o.Size)
		cfg.DisableBandwidthGuard = disabled
		res, err := omcast.Run(cfg)
		if err != nil {
			return nil, err
		}
		label := "bandwidth >= parent required"
		if disabled {
			label = "BTP comparison only"
		}
		o.progress("ablation-guard disabled=%v disruptions=%.2f", disabled, res.AvgDisruptions)
		return []string{label,
			fmt.Sprintf("%.2f", res.AvgDisruptions),
			fmt.Sprintf("%.2f", res.AvgReconnections),
			fmt.Sprintf("%.0fms", res.AvgServiceDelayMS)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

func (r *Runner) extensionMultiTree() (Table, error) {
	size := r.opts.Size / 4
	if r.opts.Quick {
		size = r.opts.Size
	}
	t := Table{
		Title:  fmt.Sprintf("Extension: multiple-tree delivery with MDC (%d nodes)", size),
		Header: []string{"configuration", "outage ratio", "delivery ratio", "episodes"},
		Notes: []string{
			"the paper's stated future direction: striping the stream over T trees so one failure",
			"degrades (one stripe) instead of interrupting; quorum = stripes-1 models one-description slack",
		},
	}
	type variant struct {
		label string
		mt    omcast.MultiTreeConfig
	}
	variants := []variant{
		{"single tree (baseline)", omcast.MultiTreeConfig{Stripes: 1}},
		{"4 stripes, split bandwidth", omcast.MultiTreeConfig{Stripes: 4, Quorum: 3}},
		{"4 stripes, interior-disjoint", omcast.MultiTreeConfig{Stripes: 4, Quorum: 3, Disjoint: true}},
		{"4 stripes, split + ROST", omcast.MultiTreeConfig{Stripes: 4, Quorum: 3, UseROST: true}},
	}
	rows, err := runUnits(r, len(variants), func(o Options, i int) ([]string, error) {
		v := variants[i]
		res, err := omcast.RunMultiTree(o.baseConfig(o.Seed, omcast.MinimumDepth, size), v.mt)
		if err != nil {
			return nil, err
		}
		o.progress("multitree %-30s outage=%.3f%%", v.label, res.OutageRatio*100)
		return []string{
			v.label,
			fmt.Sprintf("%.3f%%", res.OutageRatio*100),
			fmt.Sprintf("%.2f%%", res.FullQualityRatio*100),
			fmt.Sprintf("%d", res.Episodes),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// figFleet exercises the federation control plane (internal/fleet): N
// trees x M viewers under steady churn, hotspot skew with rebalancing, a
// flash crowd, a source kill, a cascading double kill, and a graceful
// drain. Every scenario checks the configured reassignment-time and
// outage-ratio bounds; the "bounds" column must read "ok" on every row.
func (r *Runner) figFleet() (Table, error) {
	viewers := 240
	if r.opts.Quick {
		viewers = 80
	}
	base := func(o Options, seed int64) omcast.FleetConfig {
		return omcast.FleetConfig{
			Seed:              seed,
			Sources:           3,
			TreesPerSource:    2,
			TreeCapacity:      viewers / 3,
			Viewers:           viewers,
			Horizon:           2 * time.Minute,
			HeartbeatInterval: 500 * time.Millisecond,
			SuspectMisses:     2,
			DownMisses:        4,
			RejoinBackoffBase: 100 * time.Millisecond,
			RejoinBackoffMax:  2 * time.Second,
			AdmitPerInterval:  viewers / 10,
			MaxReassignTime:   15 * time.Second,
			Metrics:           o.Metrics,
		}
	}
	t := Table{
		Title:  fmt.Sprintf("Fleet federation: bounded source failover (%d viewers, 3 sources x 2 trees)", viewers),
		Header: []string{"scenario", "viewers", "failovers", "reassigned", "p99 reassign", "outage ratio", "migrations", "bounds"},
		Notes: []string{
			"failover bound: every viewer orphaned by a source death re-admitted within MaxReassignTime,",
			"paced by per-source admission tokens and the node layer's jittered exponential backoff",
		},
	}
	type variant struct {
		label string
		mut   func(*omcast.FleetConfig)
	}
	variants := []variant{
		{"steady churn", func(c *omcast.FleetConfig) {
			c.MeanLifetime = 90 * time.Second
			c.MaxOutageRatio = 0 // churned departures can strand an episode mid-backoff
		}},
		{"load skew + rebalance", func(c *omcast.FleetConfig) {
			c.LoadSkew = 0.7
			c.RebalanceEvery = 2 * time.Second
			c.RebalanceSlack = 2
		}},
		{"flash crowd", func(c *omcast.FleetConfig) {
			c.Viewers = viewers / 4
			c.Arrivals = []omcast.FleetBurst{{At: 10 * time.Second, Count: viewers - viewers/4}}
		}},
		{"source kill", func(c *omcast.FleetConfig) {
			c.Kills = []omcast.FleetEvent{{At: 20 * time.Second, Source: 0}}
			c.MaxOutageRatio = 0.25
		}},
		{"cascading kill (10 s apart)", func(c *omcast.FleetConfig) {
			c.TreeCapacity = viewers // the last source standing holds everyone
			c.Kills = []omcast.FleetEvent{
				{At: 20 * time.Second, Source: 0},
				{At: 30 * time.Second, Source: 1},
			}
			c.MaxOutageRatio = 0.5
		}},
		{"graceful drain", func(c *omcast.FleetConfig) {
			c.Drains = []omcast.FleetEvent{{At: 20 * time.Second, Source: 0}}
			c.MaxOutageRatio = 0.001 // make-before-break: zero outage expected
		}},
	}
	rows, err := runUnits(r, len(variants), func(o Options, i int) ([]string, error) {
		v := variants[i]
		cfg := base(o, o.Seed+int64(i))
		v.mut(&cfg)
		res, err := omcast.RunFleet(cfg)
		if err != nil {
			return nil, err
		}
		bounds := "ok"
		if n := len(res.BoundViolations); n > 0 {
			bounds = fmt.Sprintf("%d violated: %s", n, res.BoundViolations[0])
		}
		o.progress("fleet %-28s failovers=%d p99=%.2fs outage=%.4f", v.label,
			res.Failovers, res.P99Reassign.Seconds(), res.OutageRatio)
		return []string{
			v.label,
			fmt.Sprintf("%d", res.Viewers),
			fmt.Sprintf("%d", res.Failovers),
			fmt.Sprintf("%d", res.Reassigned),
			fmt.Sprintf("%.2fs", res.P99Reassign.Seconds()),
			fmt.Sprintf("%.4f", res.OutageRatio),
			fmt.Sprintf("%d", res.DrainMigrations+res.Rebalanced),
			bounds,
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// figScale is the million-member experiment family's deterministic half: the
// Figure 4 headline metric (disruptions per node) re-run far beyond the
// paper's 2000-14000 sweep — by default up to ten times the paper's largest
// N — for the min-depth baseline and ROST, alongside the event counts that
// anchor the BENCH scale artifacts' ns/event figures. Every column is a pure
// function of the seed, so the table is byte-identical across worker counts
// like every other figure; machine-dependent observables (bytes/member,
// ns/event) are deliberately excluded and reported by internal/bench.RunScale
// instead.
func (r *Runner) figScale() (Table, error) {
	algs := []omcast.Algorithm{omcast.MinimumDepth, omcast.ROST}
	t := Table{
		Title:  "Scale sweep: Figure 4 metric beyond the paper's sizes (min-depth vs ROST)",
		Header: []string{"target M", "avg size", "events"},
		Notes: []string{
			"paper sweeps 2000-14000 members; the largest default size here is 10x the paper's N",
			"bytes/member and ns/event are machine observables: see BENCH scale artifacts (omcast bench)",
		},
	}
	for _, alg := range algs {
		t.Header = append(t.Header,
			alg.String()+" disruptions", alg.String()+" delay")
	}
	type cell struct {
		size int
		alg  omcast.Algorithm
	}
	cells := make([]cell, 0, len(r.opts.ScaleSizes)*len(algs))
	for _, size := range r.opts.ScaleSizes {
		for _, alg := range algs {
			cells = append(cells, cell{size, alg})
		}
	}
	results, err := runUnits(r, len(cells), func(o Options, i int) (omcast.ScaleResult, error) {
		c := cells[i]
		res, err := omcast.RunScale(o.baseConfig(o.Seed, c.alg, c.size))
		if err != nil {
			return omcast.ScaleResult{}, fmt.Errorf("scale %v at %d: %w", c.alg, c.size, err)
		}
		o.progress("fig-scale %-26s M=%-7d disruptions=%.2f events=%d", c.alg, c.size, res.AvgDisruptions, res.Events)
		return res, nil
	})
	if err != nil {
		return Table{}, err
	}
	i := 0
	for _, size := range r.opts.ScaleSizes {
		perAlg := results[i : i+len(algs)]
		row := []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", perAlg[0].AvgSize),
			fmt.Sprintf("%d", perAlg[0].Events+perAlg[1].Events),
		}
		for _, res := range perAlg {
			row = append(row,
				fmt.Sprintf("%.2f", res.AvgDisruptions),
				fmt.Sprintf("%.0fms", res.AvgServiceDelayMS))
		}
		t.Rows = append(t.Rows, row)
		i += len(algs)
	}
	return t, nil
}
