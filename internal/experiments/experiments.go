// Package experiments regenerates every figure of the paper's evaluation
// (Figures 4-14) plus the ablations DESIGN.md calls out. Each experiment
// produces a Table with exactly the series the paper plots, so `omcast sim`
// and the benchmarks can print paper-vs-measured comparisons.
//
// Every experiment is one entry of experimentTable, declared as data: a
// title, a header, notes, the simulation cells it reads and one function
// turning their outcomes into rows and progress lines. A cell names
// everything that determines one simulation's result, so equal cells are the
// same simulation. A Runner keeps one memo from cell to outcome and runs each
// distinct cell once, however many tables read it: Figures 4, 7, 8 and 10
// read one size sweep, Figure 5 reads the sweep's M = Size column, and
// Figure 13's 5 s row is Figure 12's own cells.
//
// The cells a Runner lacks run as independent seeded work units on a bounded
// worker pool (internal/parallel). Stream cells that differ only in recovery
// scheme, group size and buffer play over one churned tree, so a unit may
// hold several of them and simulate the tree once. Outcomes, metric
// registries and progress lines are then delivered in the experiment's
// canonical cell order, so tables, progress lines and metric snapshots are
// byte-identical for every worker count and whichever cells were memo hits.
// See DESIGN.md §12.
package experiments

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"time"

	"omcast"
	"omcast/internal/metrics"
	"omcast/internal/parallel"
	"omcast/internal/rost"
	"omcast/internal/stats"
	"omcast/internal/stream"
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
	// Workers bounds the worker pool simulating a table's missing cells;
	// zero means GOMAXPROCS, 1 forces sequential execution. Every setting
	// produces byte-identical output.
	Workers int
	// Quick shrinks everything (small topology, few hundred members, short
	// windows) for smoke tests and benchmarks. It fills only the fields the
	// caller left at their zero value, so tests can combine Quick's small
	// topology with custom sizes or windows.
	Quick bool
	// Paranoid schedules periodic full-scan tree audits in every run
	// (omcast.Config.Paranoid). The
	// audit events can shift same-time tie-breaks, so paranoid outputs are
	// only comparable to other paranoid runs — it is a debugging aid, not a
	// reporting mode.
	Paranoid bool
	// Progress, when non-nil, receives a table's progress lines once its
	// cells have run, in cell order regardless of Workers; the callback is
	// only ever invoked from the goroutine calling Run.
	Progress func(format string, args ...any)
	// Metrics, when non-nil, accumulates every run's instruments. Each cell's
	// session and stream model record into private registries that are
	// merged into this one in cell order (see metrics.Registry.Merge), which
	// mirrors sequential sessions sharing the registry and keeps snapshots
	// byte-identical across worker counts.
	Metrics *metrics.Registry
}

// withDefaults fills the fields left at their zero value from the paper's
// scale, or from the quick scale when Quick is set.
func (o Options) withDefaults() Options {
	d := Options{Sizes: []int{2000, 5000, 8000, 11000, 14000}, Size: 8000, Warmup: 3 * time.Hour,
		Measure: time.Hour, Replicas: 5, SweepSeeds: 3, ScaleSizes: []int{2000, 14000, 140000}}
	if o.Quick {
		d = Options{Sizes: []int{400, 800}, Size: 800, Warmup: 45 * time.Minute,
			Measure: 30 * time.Minute, Replicas: 2, SweepSeeds: 1, ScaleSizes: []int{250, 500}}
	}
	if o.Sizes == nil {
		o.Sizes = d.Sizes
	}
	if o.Size == 0 {
		o.Size = d.Size
	}
	if o.Warmup <= 0 {
		o.Warmup = d.Warmup
	}
	if o.Measure <= 0 {
		o.Measure = d.Measure
	}
	if o.Replicas <= 0 {
		o.Replicas = d.Replicas
	}
	if o.SweepSeeds <= 0 {
		o.SweepSeeds = d.SweepSeeds
	}
	if o.ScaleSizes == nil {
		o.ScaleSizes = d.ScaleSizes
	}
	return o
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
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i := range min(len(row), len(widths)) {
			widths[i] = max(widths[i], len(row[i]))
		}
	}
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	for _, row := range append([][]string{t.Header, rule}, t.Rows...) {
		for i, cell := range row {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", pad+2, cell)
		}
		b.WriteString("\n")
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

// kind is how a cell's simulation is driven.
type kind uint8

const (
	runTree    kind = iota // omcast.Run
	runTracked             // omcast.RunTracked with one typical member
	runStream              // omcast.RunStreamingGroup
	runPair                // Figure 14's ROST+CER run, then its min-depth single-source baseline
	runScale               // omcast.RunScale
)

// cell names everything that determines one simulation's result beyond the
// Runner-wide options (windows, topology, paranoia). The constructors spell
// every default out — ROST's switch interval, CER with K = 1, the playback
// buffer — so two tables asking for the same simulation build equal cells:
// Figure 12's cells carry stream.DefaultBuffer and equal Figure 13's 5 s row.
type cell struct {
	kind kind
	alg  omcast.Algorithm
	size int
	seed int64
	// ROST's switching interval and the three single-flag ablations.
	interval                                     time.Duration
	noAncestorRejoin, priority, noBandwidthGuard bool
	// The packet-level layer.
	recovery omcast.Recovery
	k        int
	buffer   time.Duration
}

// treeCell is the tree-level run of alg at size on the base seed.
func (o Options) treeCell(alg omcast.Algorithm, size int) cell {
	return cell{kind: runTree, alg: alg, size: size, seed: o.Seed, interval: rost.DefaultSwitchInterval,
		recovery: omcast.CER, k: 1, buffer: stream.DefaultBuffer}
}

// streamCell is the packet-level run of a min-depth tree at size with CER
// groups of k.
func (o Options) streamCell(size, k int) cell {
	c := o.treeCell(omcast.MinimumDepth, size)
	c.kind, c.k = runStream, k
	return c
}

// cellsOf lists one cell per element of xs.
func cellsOf[T any](xs []T, mk func(x T) cell) []cell {
	cells := make([]cell, len(xs))
	for i, x := range xs {
		cells[i] = mk(x)
	}
	return cells
}

// seeds lists the n consecutive seeds from the base seed up.
func (o Options) seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = o.Seed + int64(i)
	}
	return out
}

// grid lists one cell per (row, column) pair in row-major order; a table
// reads the outcomes back a row at a time with chunks(out, len(cols)).
func grid[R, C any](rows []R, cols []C, mk func(R, C) cell) []cell {
	cells := make([]cell, 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			cells = append(cells, mk(r, c))
		}
	}
	return cells
}

// chunks splits out into consecutive runs of n outcomes: the rows of a grid.
func chunks(out []outcome, n int) [][]outcome {
	var rows [][]outcome
	for ; len(out) > 0; out = out[n:] {
		rows = append(rows, out[:n])
	}
	return rows
}

// outcome is a cell's result; the cell's kind decides which fields are set.
// reg is the private registry the cell's churn sessions recorded into, shared
// by the cells that played over the same tree, and streamReg the one its
// stream models recorded into (both nil without Options.Metrics).
type outcome struct {
	cell
	tree      omcast.TreeResult // runTree and runScale
	events    uint64            // runScale
	series    omcast.TrackedSeries
	stream    omcast.StreamResult // runStream, and runPair's ROST+CER half
	base      omcast.StreamResult // runPair's baseline half
	reg       *metrics.Registry
	streamReg *metrics.Registry
}

// config is the session c names under o, recording into reg.
func (c cell) config(o Options, reg *metrics.Registry) omcast.Config {
	cfg := omcast.Config{
		Seed:                  c.seed,
		Algorithm:             c.alg,
		TargetSize:            c.size,
		SwitchInterval:        c.interval,
		ContributorPriority:   c.priority,
		DisableBandwidthGuard: c.noBandwidthGuard,
		DisableAncestorRejoin: c.noAncestorRejoin,
		Warmup:                o.Warmup,
		Measure:               o.Measure,
		Metrics:               reg,
		Paranoid:              o.Paranoid,
	}
	if o.Quick {
		cfg.Topology = omcast.SmallTopology()
	}
	return cfg
}

// sharesTree reports whether c plays its stream over a tree other cells may
// share: stream and pair cells that differ only in their packet-level fields
// (recovery, k, buffer) name one churn session.
func (c cell) sharesTree() bool { return c.kind == runStream || c.kind == runPair }

// treeKey is c without its packet-level fields: the session it plays over.
func (c cell) treeKey() cell {
	c.recovery, c.k, c.buffer = 0, 0, 0
	return c
}

// units splits the missing cells into work units. Each tree-level cell is a
// unit of its own. Cells sharing a tree are dealt round-robin into at most
// workers units, so a group still spreads over the pool, and each unit plays
// its cells over one session (two for pairs). Units run largest tree first,
// so the longest sessions do not start last.
func units(missing []cell, workers int) [][]cell {
	var out, groups [][]cell
	for _, c := range missing {
		if !c.sharesTree() {
			out = append(out, []cell{c})
			continue
		}
		i := slices.IndexFunc(groups, func(g []cell) bool { return g[0].treeKey() == c.treeKey() })
		if i < 0 {
			i = len(groups)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	for _, g := range groups {
		dealt := make([][]cell, min(len(g), workers))
		for i, c := range g {
			dealt[i%len(dealt)] = append(dealt[i%len(dealt)], c)
		}
		out = append(out, dealt...)
	}
	slices.SortStableFunc(out, func(a, b []cell) int { return cmp.Compare(b[0].size, a[0].size) })
	return out
}

// runUnit simulates one unit under o; with o.Metrics set, every session and
// stream model records into a fresh private registry.
func runUnit(cells []cell, o Options) ([]outcome, error) {
	fresh := func() *metrics.Registry {
		if o.Metrics == nil {
			return nil
		}
		return metrics.NewRegistry()
	}
	if c := cells[0]; !c.sharesTree() {
		out, err := c.run(o, fresh())
		return []outcome{out}, err
	}
	reg := fresh()
	cfg := cells[0].config(o, reg)
	scfgs := make([]omcast.StreamConfig, len(cells))
	regs := make([]*metrics.Registry, len(cells))
	for i, c := range cells {
		scfgs[i] = omcast.StreamConfig{Recovery: c.recovery, GroupSize: c.k, Buffer: c.buffer}
		regs[i] = fresh()
	}
	res, err := omcast.RunStreamingGroup(cfg, scfgs, regs)
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(cells))
	for i, c := range cells {
		outs[i] = outcome{cell: c, stream: res[i], reg: reg, streamReg: regs[i]}
	}
	if cells[0].kind != runPair {
		return outs, nil
	}
	// The min-depth single-source baselines play over a second session whose
	// registries start as copies of the first's, so each pair's registries
	// accumulate the two sessions in the order they ran, as one registry
	// shared by both would: merging afterwards would sum the histograms in
	// another order.
	cfg.Algorithm, cfg.Metrics = omcast.MinimumDepth, copyOf(reg)
	for i := range cells {
		scfgs[i].Recovery, regs[i] = omcast.SingleSource, copyOf(regs[i])
	}
	if res, err = omcast.RunStreamingGroup(cfg, scfgs, regs); err != nil {
		return nil, err
	}
	for i := range outs {
		outs[i].base, outs[i].reg, outs[i].streamReg = res[i], cfg.Metrics, regs[i]
	}
	return outs, nil
}

// copyOf is a new registry holding what reg holds; nil for a nil reg.
func copyOf(reg *metrics.Registry) *metrics.Registry {
	if reg == nil {
		return nil
	}
	c := metrics.NewRegistry()
	c.Merge(reg)
	return c
}

// run simulates the tree-level cell c under o, recording into reg.
func (c cell) run(o Options, reg *metrics.Registry) (outcome, error) {
	cfg := c.config(o, reg)
	out := outcome{cell: c, reg: reg}
	var err error
	switch c.kind {
	case runTree:
		out.tree, err = omcast.Run(cfg)
	case runTracked:
		observe := 300 * time.Minute
		if o.Quick {
			observe = 60 * time.Minute
		}
		out.series, _, err = omcast.RunTracked(cfg, 2, observe)
	case runScale:
		var res omcast.ScaleResult
		res, err = omcast.RunScale(cfg)
		out.tree, out.events = res.TreeResult, res.Events
	}
	return out, err
}

// logf is the progress callback's shape.
type logf = func(format string, args ...any)

// experiment is one table of the suite.
type experiment struct {
	id string
	// group names the tables that plot one data set (the size sweep, the
	// tracked members); empty means the table is a group of its own. A
	// group delivers its progress lines and registries once per Runner, by
	// whichever of its tables runs first.
	group         string
	title         string
	header, notes []string
	cells         []cell
	// rows turns the cells' outcomes, in cell order, into the table's rows,
	// reporting progress lines as it goes.
	rows func(out []outcome, progress logf) [][]string
}

// experimentTable declares every experiment once, in figure order, for the
// options o; IDs, NewRunner and Run all read it.
func experimentTable(o Options) []experiment {
	rostCell := func(set func(*cell)) cell {
		c := o.treeCell(omcast.ROST, o.Size)
		set(&c)
		return c
	}
	toggle := func(tag, off, on string, set func(*cell)) []variant {
		return []variant{
			{off, tag + "=false", rostCell(func(*cell) {})},
			{on, tag + "=true", rostCell(set)},
		}
	}
	intervals := []time.Duration{480 * time.Second, 960 * time.Second, 1200 * time.Second, 1800 * time.Second}
	buffers := []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second, 25 * time.Second, 30 * time.Second}
	if o.Quick {
		intervals = []time.Duration{240 * time.Second, 960 * time.Second}
		buffers = []time.Duration{5 * time.Second, 20 * time.Second}
	}
	var fig11 []variant
	for _, iv := range intervals {
		fig11 = append(fig11, variant{fmt.Sprintf("%.0fs", iv.Seconds()), fmt.Sprintf("interval=%v", iv),
			rostCell(func(c *cell) { c.interval = iv })})
	}
	scaleAlgs := []omcast.Algorithm{omcast.MinimumDepth, omcast.ROST}
	schemes := []omcast.Recovery{omcast.CER, omcast.CERRandomGroup, omcast.SingleSource}

	return []experiment{
		sweepTable(o, "fig4", "Avg streaming disruptions per node vs steady-state size", "",
			func(res omcast.TreeResult) float64 { return res.AvgDisruptions },
			"paper: ROST lowest everywhere; 36-57% below relaxed BO, up to 40% below relaxed TO;",
			"minimum-depth and longest-first worst and most size-sensitive"),
		{
			id:     "fig5",
			title:  fmt.Sprintf("CDF of per-node disruption counts (%d nodes)", o.Size),
			header: algHeader("disruptions <="),
			notes: []string{
				"cumulative percentage of nodes with at most X disruptions over the window",
				"paper: the ROST curve dominates (is leftmost/highest) at every threshold",
			},
			cells: grid(omcast.Algorithms, []int{o.Size}, o.treeCell),
			rows: func(out []outcome, progress logf) (rows [][]string) {
				for _, res := range out {
					progress("fig5 %-26s members=%d", res.alg, len(res.tree.DisruptionCounts))
				}
				for _, th := range []float64{1, 2, 4, 8, 16, 32, 64, 128} {
					row := []string{fmt.Sprintf("%.0f", th)}
					for _, res := range out {
						points := stats.CDFAt(res.tree.DisruptionCounts, []float64{th})
						row = append(row, fmt.Sprintf("%.1f%%", points[0].Fraction*100))
					}
					rows = append(rows, row)
				}
				return rows
			},
		},
		trackedTable(o, "fig6", "Cumulative disruptions of a typical member over time",
			func(s omcast.TrackedSeries, i int) string { return fmt.Sprintf("%d", s.Disruptions[i]) },
			"paper: under ROST the slope flattens as the member ages and ascends the tree"),
		sweepTable(o, "fig7", "Avg end-to-end service delay vs size", "ms",
			func(res omcast.TreeResult) float64 { return res.AvgServiceDelayMS },
			"paper: relaxed BO shortest (centralized); ROST best of the distributed algorithms;",
			"longest-first by far the tallest tree"),
		sweepTable(o, "fig8", "Avg network stretch vs size", "",
			func(res omcast.TreeResult) float64 { return res.AvgStretch },
			"paper: same ordering as Figure 7"),
		trackedTable(o, "fig9", "Service delay of a typical member over time",
			func(s omcast.TrackedSeries, i int) string { return fmt.Sprintf("%.0fms", s.ServiceDelayMS[i]) },
			"paper: ROST and relaxed TO delays shrink as the member climbs; the others fluctuate without converging",
			"0ms samples mean the member was between parents at the sampling instant"),
		sweepTable(o, "fig10", "Optimizer reconnections per node vs size (protocol overhead)", "",
			func(res omcast.TreeResult) float64 { return res.AvgReconnections },
			"paper: minimum-depth and longest-first impose none; relaxed TO highest, relaxed BO next;",
			"ROST far below one reconnection per node"),
		rostTable("fig11", fmt.Sprintf("Effect of the ROST switching interval (%d nodes)", o.Size),
			[]string{"interval", "disruptions/node", "service delay", "stretch", "reconnections/node"}, fig11,
			"paper: smaller intervals improve reliability, delay and stretch at a small overhead cost",
			"(0.15 reconnections per node at the smallest interval)"),
		{
			id:     "fig12",
			title:  "Avg starving-time ratio vs size for recovery group sizes 1-4 (min-depth tree, CER)",
			header: []string{"avg size", "K=1", "K=2", "K=3", "K=4"},
			notes:  []string{"paper: growing the group from 1 to 3 cuts the starving time by an order of magnitude (<0.2% everywhere)"},
			cells:  grid(o.Sizes, []int{1, 2, 3, 4}, o.streamCell),
			rows: func(out []outcome, progress logf) (rows [][]string) {
				for _, res := range out {
					progress("fig12 M=%-6d K=%d starving=%.3f%%", res.size, res.k, res.stream.AvgStarvingRatio*100)
				}
				for _, row := range chunks(out, 4) {
					rows = append(rows, starving(fmt.Sprintf("%.0f", row[0].stream.AvgSize), row))
				}
				return rows
			},
		},
		{
			id:     "fig13",
			title:  fmt.Sprintf("Avg starving-time ratio vs buffer size (%d nodes, min-depth tree, CER)", o.Size),
			header: []string{"buffer", "K=1", "K=2", "K=3"},
			notes:  []string{"paper: with one recovery node only a ~27s buffer reaches what two recovery nodes achieve at 5s"},
			cells: grid(buffers, []int{1, 2, 3}, func(b time.Duration, k int) cell {
				c := o.streamCell(o.Size, k)
				c.buffer = b
				return c
			}),
			rows: func(out []outcome, progress logf) (rows [][]string) {
				for _, res := range out {
					progress("fig13 B=%v K=%d starving=%.3f%%", res.buffer, res.k, res.stream.AvgStarvingRatio*100)
				}
				for _, row := range chunks(out, 3) {
					rows = append(rows, starving(fmt.Sprintf("%.0fs", row[0].buffer.Seconds()), row))
				}
				return rows
			},
		},
		{
			id:     "fig14",
			title:  fmt.Sprintf("ROST+CER vs minimum-depth + single-source (%d nodes, 95%% CI over %d seeds)", o.Size, o.Replicas),
			header: []string{"group size", "ROST+CER", "min-depth + single source", "improvement"},
			notes: []string{
				"paper: ROST+CER reduces the starving ratio 8-9x on average; even at group size 1 it beats",
				"the baseline with two recovery nodes",
			},
			cells: grid([]int{1, 2, 3}, o.seeds(o.Replicas), func(k int, seed int64) cell {
				c := o.streamCell(o.Size, k)
				c.kind, c.alg, c.seed = runPair, omcast.ROST, seed
				return c
			}),
			rows: func(out []outcome, progress logf) (rows [][]string) {
				for _, res := range out {
					progress("fig14 K=%d seed=%d rost=%.3f%% base=%.3f%%", res.k, res.seed,
						res.stream.AvgStarvingRatio*100, res.base.AvgStarvingRatio*100)
				}
				for _, reps := range chunks(out, o.Replicas) {
					var rost, base []float64
					for _, res := range reps {
						rost = append(rost, res.stream.AvgStarvingRatio*100)
						base = append(base, res.base.AvgStarvingRatio*100)
					}
					ra, ba := stats.ConfidenceInterval95(rost), stats.ConfidenceInterval95(base)
					improvement := "n/a"
					if ra.Mean > 0 {
						improvement = fmt.Sprintf("%.1fx", ba.Mean/ra.Mean)
					}
					rows = append(rows, []string{fmt.Sprintf("%d", reps[0].k),
						meanCI(ra), meanCI(ba), improvement})
				}
				return rows
			},
		},
		{
			id:     "ablation-recovery",
			title:  fmt.Sprintf("Ablation: recovery group selection and striping (%d nodes, min-depth tree, K=3)", o.Size),
			header: []string{"scheme", "starving ratio"},
			notes:  []string{"isolates the value of MLC selection (Algorithm 1) from the value of bandwidth striping"},
			cells: cellsOf(schemes, func(scheme omcast.Recovery) cell {
				c := o.streamCell(o.Size, 3)
				c.recovery = scheme
				return c
			}),
			rows: func(out []outcome, progress logf) (rows [][]string) {
				for i, res := range out {
					progress("ablation-recovery %s starving=%.3f%%", res.recovery, res.stream.AvgStarvingRatio*100)
					rows = append(rows, starving(res.recovery.String(), out[i:i+1]))
				}
				return rows
			},
		},
		rostTable("ablation-rejoin", fmt.Sprintf("Ablation: ancestor-first orphan rejoin (%d nodes, ROST)", o.Size),
			[]string{"orphan rejoin", "disruptions/node", "service delay"},
			toggle("disable", "ancestor-first", "full re-join", func(c *cell) { c.noAncestorRejoin = true }),
			"ancestor rejoin keeps freed interior positions inside the affected subtree"),
		rostTable("ablation-priority", fmt.Sprintf("Ablation: contributor-priority join (%d nodes, ROST)", o.Size),
			[]string{"join rule", "disruptions/node", "service delay", "stretch"},
			toggle("cp", "minimum-depth for all", "contributor priority", func(c *cell) { c.priority = true }),
			"parking free-riders deep keeps high slots for members switching can actually displace"),
		rostTable("ablation-guard", fmt.Sprintf("Ablation: ROST bandwidth guard on switching (%d nodes)", o.Size),
			[]string{"guard", "disruptions/node", "reconnections/node", "service delay"},
			toggle("disabled", "bandwidth >= parent required", "BTP comparison only", func(c *cell) { c.noBandwidthGuard = true }),
			"without the guard, lower-bandwidth children switch up only to be overtaken and demoted again"),
		{
			id:     "fig-scale",
			title:  "Scale sweep: Figure 4 metric beyond the paper's sizes (min-depth vs ROST)",
			header: []string{"target M", "avg size", "events", "Minimum-depth disruptions", "Minimum-depth delay", "ROST disruptions", "ROST delay"},
			notes: []string{
				"paper sweeps 2000-14000 members; the largest default size here is 10x the paper's N",
				"bytes/member and ns/event are machine observables: see BENCH scale artifacts (omcast bench)",
			},
			cells: grid(o.ScaleSizes, scaleAlgs, func(size int, alg omcast.Algorithm) cell {
				c := o.treeCell(alg, size)
				c.kind = runScale
				return c
			}),
			rows: func(out []outcome, progress logf) (rows [][]string) {
				for _, res := range out {
					progress("fig-scale %-26s M=%-7d disruptions=%.2f events=%d", res.alg, res.size, res.tree.AvgDisruptions, res.events)
				}
				for _, pair := range chunks(out, len(scaleAlgs)) {
					row := []string{fmt.Sprintf("%d", pair[0].size), fmt.Sprintf("%.0f", pair[0].tree.AvgSize),
						fmt.Sprintf("%d", pair[0].events+pair[1].events)}
					for _, res := range pair {
						row = append(row, fmt.Sprintf("%.2f", res.tree.AvgDisruptions), fmt.Sprintf("%.0fms", res.tree.AvgServiceDelayMS))
					}
					rows = append(rows, row)
				}
				return rows
			},
		},
	}
}

// algHeader is first followed by one column per algorithm.
func algHeader(first string) []string {
	header := []string{first}
	for _, alg := range omcast.Algorithms {
		header = append(header, alg.String())
	}
	return header
}

// sweepTable is one metric of the size sweep (Figures 4, 7, 8, 10) with a
// row per size and a column per algorithm. Seeds are averaged per
// (algorithm, size) in ascending seed order, so the means are bit-identical
// to a sequential sweep.
func sweepTable(o Options, id, title, unit string, metric func(omcast.TreeResult) float64, notes ...string) experiment {
	cells := grid(grid(omcast.Algorithms, o.Sizes, o.treeCell), o.seeds(o.SweepSeeds), func(c cell, seed int64) cell {
		c.seed = seed
		return c
	})
	return experiment{id: id, group: "sweep", title: title, header: algHeader("avg size"), notes: notes, cells: cells,
		rows: func(out []outcome, progress logf) (rows [][]string) {
			n := float64(o.SweepSeeds)
			var avgs []omcast.TreeResult // algorithm-major, like the cells
			for _, reps := range chunks(out, o.SweepSeeds) {
				var avg omcast.TreeResult
				for _, rep := range reps {
					avg.AvgDisruptions += rep.tree.AvgDisruptions / n
					avg.AvgReconnections += rep.tree.AvgReconnections / n
					avg.AvgServiceDelayMS += rep.tree.AvgServiceDelayMS / n
					avg.AvgStretch += rep.tree.AvgStretch / n
					avg.AvgSize += rep.tree.AvgSize / n
				}
				progress("sweep %-26s M=%-6d disruptions=%.2f delay=%.0fms (%d seeds)",
					reps[0].alg, reps[0].size, avg.AvgDisruptions, avg.AvgServiceDelayMS, o.SweepSeeds)
				avgs = append(avgs, avg)
			}
			for i := range o.Sizes {
				// The first algorithm, minimum-depth, names the row's size.
				row := []string{fmt.Sprintf("%.0f", avgs[i].AvgSize)}
				for a := range omcast.Algorithms {
					row = append(row, fmt.Sprintf("%.2f%s", metric(avgs[a*len(o.Sizes)+i]), unit))
				}
				rows = append(rows, row)
			}
			return rows
		}}
}

// trackedTable is one series of the typical members (Figures 6 and 9),
// sampled at the paper's 33-minute ticks up to the shortest series.
func trackedTable(o Options, id, title string, value func(omcast.TrackedSeries, int) string, notes ...string) experiment {
	return experiment{id: id, group: "tracked", title: title, header: algHeader("minute"), notes: notes,
		cells: grid(omcast.Algorithms, []int{o.Size}, func(alg omcast.Algorithm, size int) cell {
			c := o.treeCell(alg, size)
			c.kind = runTracked
			return c
		}),
		rows: func(out []outcome, progress logf) (rows [][]string) {
			n := len(out[0].series.Minutes)
			for _, res := range out {
				progress("tracked %-26s samples=%d", res.alg, len(res.series.Minutes))
				n = min(n, len(res.series.Minutes))
			}
			step := 33
			if o.Quick {
				step = 10
			}
			for i := 0; i < n; i += step {
				row := []string{fmt.Sprintf("%.0f", out[0].series.Minutes[i])}
				for _, res := range out {
					row = append(row, value(res.series, i))
				}
				rows = append(rows, row)
			}
			return rows
		}}
}

// variant is one labelled row of a table: its label, the key=value tag its
// progress line carries, and its cell.
type variant struct {
	label, tag string
	cell       cell
}

// treeColumns formats the tree-level metrics the ROST tables report, keyed
// by column header.
var treeColumns = map[string]func(omcast.TreeResult) string{
	"disruptions/node":   func(r omcast.TreeResult) string { return fmt.Sprintf("%.2f", r.AvgDisruptions) },
	"service delay":      func(r omcast.TreeResult) string { return fmt.Sprintf("%.0fms", r.AvgServiceDelayMS) },
	"stretch":            func(r omcast.TreeResult) string { return fmt.Sprintf("%.2f", r.AvgStretch) },
	"reconnections/node": func(r omcast.TreeResult) string { return fmt.Sprintf("%.2f", r.AvgReconnections) },
}

// rostTable is a single-size ROST table with one row per variant: Figure
// 11's switching intervals and the three single-flag ablations share it.
func rostTable(id, title string, header []string, variants []variant, notes ...string) experiment {
	return experiment{id: id, title: title, header: header, notes: notes,
		cells: cellsOf(variants, func(v variant) cell { return v.cell }),
		rows: func(out []outcome, progress logf) (rows [][]string) {
			for i, res := range out {
				progress("%s %s disruptions=%.2f", id, variants[i].tag, res.tree.AvgDisruptions)
				row := []string{variants[i].label}
				for _, col := range header[1:] {
					row = append(row, treeColumns[col](res.tree))
				}
				rows = append(rows, row)
			}
			return rows
		}}
}

// starving is a row labelled label with one starving-time ratio per outcome.
func starving(label string, outs []outcome) []string {
	row := []string{label}
	for _, res := range outs {
		row = append(row, fmt.Sprintf("%.3f%%", res.stream.AvgStarvingRatio*100))
	}
	return row
}

// meanCI renders a percentage with its 95% interval; a single replica has no
// interval to show.
func meanCI(iv stats.Interval) string {
	if iv.N < 2 {
		return fmt.Sprintf("%.3f%% +/- n/a", iv.Mean)
	}
	return fmt.Sprintf("%.3f%% +/- %.3f", iv.Mean, iv.Radius)
}

// IDs lists all experiment identifiers in figure order.
func IDs() []string {
	exps := experimentTable(Options{}.withDefaults())
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.id
	}
	return ids
}

// Runner executes experiments, simulating each distinct cell once.
type Runner struct {
	opts Options
	exps []experiment
	// memo maps every cell this Runner has simulated to its outcome.
	memo map[cell]outcome
	// readers counts, per cell, the groups yet to deliver it. A registry
	// keeps its finished session alive, so once no group is left to merge
	// it the memo drops it.
	readers map[cell]int
	// undelivered holds the groups yet to deliver their progress lines and
	// registries.
	undelivered map[string]bool
	// sims counts the simulations run, and sessions the churn sessions they
	// took: cells sharing a tree play over one.
	sims, sessions int
}

// NewRunner builds a Runner over the given options.
func NewRunner(opts Options) *Runner {
	r := &Runner{opts: opts.withDefaults(), memo: map[cell]outcome{}, readers: map[cell]int{}, undelivered: map[string]bool{}}
	r.exps = experimentTable(r.opts)
	for _, e := range r.exps {
		if group := cmp.Or(e.group, e.id); !r.undelivered[group] {
			r.undelivered[group] = true
			for _, c := range e.cells {
				r.readers[c]++
			}
		}
	}
	return r
}

// runCells simulates, on the worker pool, the cells the memo lacks. Each
// unit records into private registries and touches no Runner state; its
// seeds come from its cells alone, so an outcome never depends on which
// worker ran it, when, or which cells shared its tree.
func (r *Runner) runCells(cells []cell) error {
	var missing []cell
	for _, c := range cells {
		if _, ok := r.memo[c]; !ok && !slices.Contains(missing, c) {
			missing = append(missing, c)
		}
	}
	work := units(missing, parallel.Workers(r.opts.Workers))
	outs, err := parallel.Run(r.opts.Workers, len(work), func(i int) ([]outcome, error) {
		return runUnit(work[i], r.opts)
	})
	if err != nil {
		return err
	}
	for i, unit := range outs {
		r.sessions++
		if work[i][0].kind == runPair {
			r.sessions++ // and its baselines
		}
		for _, out := range unit {
			r.memo[out.cell] = out
			r.sims++
			if out.kind == runPair {
				r.sims++ // and its baseline
			}
		}
	}
	return nil
}

// Run executes one experiment by ID. It simulates the cells the memo lacks,
// then delivers the experiment's group once per Runner: each cell's tree
// registry and then its stream registry are merged into Options.Metrics in
// cell order and the progress lines are emitted. Memo hits are merged too, so a table's snapshot counts the
// sessions it reports whichever tables ran before it.
func (r *Runner) Run(id string) (Table, error) {
	i := slices.IndexFunc(r.exps, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	e := r.exps[i]
	//lint:ignore no-wallclock reason: Table.Elapsed is harness wall-clock cost, not simulation output
	start := time.Now()
	if err := r.runCells(e.cells); err != nil {
		return Table{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	group := cmp.Or(e.group, e.id)
	deliver := r.undelivered[group]
	delete(r.undelivered, group)
	progress := func(string, ...any) {}
	if deliver && r.opts.Progress != nil {
		progress = r.opts.Progress
	}
	out := make([]outcome, len(e.cells))
	for j, c := range e.cells {
		out[j] = r.memo[c]
		if !deliver {
			continue
		}
		for _, reg := range []*metrics.Registry{out[j].reg, out[j].streamReg} {
			if reg != nil {
				r.opts.Metrics.Merge(reg)
			}
		}
		if r.readers[c]--; r.readers[c] == 0 {
			kept := r.memo[c]
			kept.reg, kept.streamReg = nil, nil
			r.memo[c] = kept
		}
	}
	t := Table{ID: id, Title: e.title, Header: e.header, Rows: e.rows(out, progress), Notes: e.notes}
	//lint:ignore no-wallclock reason: Table.Elapsed is harness wall-clock cost, not simulation output
	t.Elapsed = time.Since(start)
	return t, nil
}
