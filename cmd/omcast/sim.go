package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"omcast/internal/experiments"
	"omcast/internal/metrics"
)

// cmdSim regenerates figures of the paper's evaluation (Figures 4-14) and
// the design ablations, printing each table as it completes.
//
//	omcast sim -fig fig4                 # full-scale run of Figure 4
//	omcast sim -fig fig14 -quick         # reduced-scale smoke run
//	omcast sim -fig fig11 -size 4000 -v  # single-size figure at custom M
//	omcast sim -fig all -o results.txt   # every experiment, also into a file
//	omcast sim -list                     # list experiment IDs
//
// -cpuprofile and -memprofile write pprof profiles; CPU samples carry an
// "experiment" label naming the figure being regenerated.
func cmdSim(args []string) int {
	fs := newFlags("sim")
	var (
		fig      = fs.String("fig", "", "experiment ID (fig4..fig14 or an ablation; see -list), or \"all\"")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		seed     = fs.Int64("seed", 1, "base random seed")
		size     = fs.Int("size", 0, "member count for single-size figures (default 8000)")
		sizes    = fs.String("sizes", "", "comma-separated member counts for size sweeps (default 2000,5000,8000,11000,14000)")
		scaleSz  = fs.String("scale-sizes", "", "comma-separated member counts for fig-scale (default 2000,14000,140000)")
		warmup   = fs.Duration("warmup", 0, "warm-up horizon (default 3h)")
		measure  = fs.Duration("measure", 0, "measurement window (default 1h)")
		replicas = fs.Int("replicas", 0, "seeds behind Figure 14's confidence intervals (default 5)")
		workers  = fs.Int("workers", 0, "worker pool size for independent runs (0 = GOMAXPROCS; output is identical for every setting)")
		quick    = fs.Bool("quick", false, "reduced scale for a fast smoke run")
		paranoid = fs.Bool("paranoid", false, "full-scan invariant audits during every run (debugging aid; output comparable only to other -paranoid runs)")
		asCSV    = fs.Bool("csv", false, "emit the table as CSV instead of aligned text")
		out      = fs.String("o", "", "also write the report to this file")
		verbose  = fs.Bool("v", false, "print per-run progress")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		metOut   = fs.String("metrics-out", "", "write accumulated metrics (Prometheus text format) to this file")
	)
	if !parseFlags(fs, args) {
		return 2
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	ids := []string{*fig}
	switch {
	case *fig == "":
		fs.Usage()
		return fail(2, "sim", "-fig is required (try -list)")
	case *size < 0 || *warmup < 0 || *measure < 0 || *replicas < 0 || *workers < 0:
		// Zero asks for the default; a negative value is a typo, not a default.
		return fail(2, "sim", "-size, -warmup, -measure, -replicas and -workers must not be negative")
	case *fig == "all" && *asCSV:
		return fail(2, "sim", "-csv needs a single -fig: a CSV stream has one header")
	case *fig == "all":
		ids = experiments.IDs()
	case !slices.Contains(experiments.IDs(), *fig):
		return fail(2, "sim", "unknown experiment %q (try -list)", *fig)
	}
	opts := experiments.Options{
		Seed:     *seed,
		Size:     *size,
		Warmup:   *warmup,
		Measure:  *measure,
		Replicas: *replicas,
		Workers:  *workers,
		Quick:    *quick,
		Paranoid: *paranoid,
	}
	var err error
	if *sizes != "" {
		if opts.Sizes, err = parseSizes(*sizes); err != nil {
			return fail(2, "sim", "%v", err)
		}
	}
	if *scaleSz != "" {
		if opts.ScaleSizes, err = parseSizes(*scaleSz); err != nil {
			return fail(2, "sim", "%v", err)
		}
	}
	if *verbose {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *metOut != "" {
		opts.Metrics = metrics.NewRegistry()
	}

	runner := experiments.NewRunner(opts)
	var report strings.Builder
	var total time.Duration
	figures := func() error {
		for _, id := range ids {
			var table experiments.Table
			var err error
			// The label attributes CPU samples taken inside kernel dispatch
			// to the experiment that scheduled them.
			pprof.Do(context.Background(), pprof.Labels("experiment", id), func(context.Context) {
				table, err = runner.Run(id)
			})
			if err != nil {
				return err
			}
			text := table.CSV()
			if !*asCSV {
				text = table.Format() + fmt.Sprintf("(completed in %.1fs)\n", table.Elapsed.Seconds())
				if len(ids) > 1 {
					text += "\n"
				}
			}
			fmt.Print(text)
			report.WriteString(text)
			total += table.Elapsed
		}
		if len(ids) > 1 {
			fmt.Printf("all experiments completed in %.1fs\n", total.Seconds())
		}
		return nil
	}
	if *cpuProf != "" {
		err = writeTo(*cpuProf, func(w io.Writer) error {
			if err := pprof.StartCPUProfile(w); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
			return figures()
		})
	} else {
		err = figures()
	}
	if err == nil && *memProf != "" {
		err = writeTo(*memProf, func(w io.Writer) error {
			runtime.GC() // settle the heap so the profile reflects live objects
			return pprof.WriteHeapProfile(w)
		})
	}
	if err == nil && *metOut != "" {
		// Timestamp-free, so same-seed runs are byte-identical.
		err = writeTo(*metOut, func(w io.Writer) error {
			return metrics.WriteProm(w, opts.Metrics.Snapshot(0))
		})
	}
	if err == nil && *out != "" {
		err = writeTo(*out, func(w io.Writer) error {
			_, err := io.WriteString(w, report.String())
			return err
		})
	}
	if err != nil {
		return fail(1, "sim", "%v", err)
	}
	return 0
}
