// Command benchmark is the repository's benchmark: five workloads, each
// measured end to end through the entry points a user calls and, in a
// separate traced pass, layer by layer from outside -- by timing calls into
// the layers' exported functions and decorating the interfaces they meet at.
// See README.md in this directory.
//
// The driver's form (BENCHMARK.json names run.sh, which builds this package
// and passes its arguments on):
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints progress on stderr and, as the last line of stdout, one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// document is what -all prints and -compare reads: every workload's plain and
// traced result from one machine.
type document struct {
	Machine machine     `json:"machine"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Results []docResult `json:"results"`
}

type machine struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

type docResult struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Digest    string               `json:"digest"`
	Metrics   map[string]metric    `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: figures, scale-rost, tree-evict, stream-cer or live-forward")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fs.Float64("seconds", 15, "measuring time; sets the number of repetitions")
		trace   = fs.Int("trace", 0, "0: plain pass, end-to-end metrics; 1: decorated pass, per-layer metrics")
		smoke   = fs.Bool("smoke", false, "shrink every workload to test size")
		timeout = fs.Duration("timeout", 120*time.Second, "hard deadline for one workload; exceeding it exits non-zero naming the phase")
		spans   = fs.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines")
		all     = fs.Bool("all", false, "run every workload, plain and traced, and print one document for -compare")
		compare = fs.Bool("compare", false, "compare two -all documents: benchmark -compare A.json B.json")
		bounds  = fs.String("bounds", "BENCHMARK.json", "with -compare: the file the metrics' bounds are read from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two files, got %d", fs.NArg()))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), *bounds, stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is %d, want 0 or 1", *trace))
	}
	if !(*seconds > 0) {
		return fail(fmt.Errorf("-seconds is %v, want a positive number", *seconds))
	}

	one := func(w *workload, traced bool) (report, error) {
		// The deadline covers one workload. It cannot unwind a simulation in
		// flight, so it reports where the process was and exits.
		deadline := time.AfterFunc(*timeout, func() {
			fmt.Fprintf(stderr, "benchmark: %s exceeded -timeout %v in phase %q\n", w.name, *timeout, phase.Load())
			os.Exit(3)
		})
		defer deadline.Stop()
		return runWorkload(w, runOptions{seed: *seed, seconds: *seconds, traced: traced, spans: *spans})
	}

	if *all {
		doc := document{
			Machine: machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
			Seed:    *seed,
			Seconds: *seconds,
		}
		ok := true
		for _, w := range workloads(*smoke) {
			for _, traced := range []bool{false, true} {
				rep, err := one(w, traced)
				if err != nil {
					return fail(err)
				}
				ok = ok && rep.Correct
				doc.Results = append(doc.Results, docResult{
					Workload: rep.workload, Traced: rep.traced, Correct: rep.Correct,
					Attempted: rep.Attempted, Failed: rep.Failed, Digest: rep.digest,
					Metrics: rep.Metrics, Samples: rep.samples,
				})
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	w := findWorkload(*name, *smoke)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	rep, err := one(w, *trace == 1)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}
