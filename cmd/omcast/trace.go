package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"omcast"
	"omcast/internal/tracing"
)

// cmdTrace produces and consumes the JSONL trace stream.
//
// With no nested subcommand it runs one simulated session and streams its
// spans (joins, departures, rejoin episodes, ROST switches — plus CER repair
// episodes with -stream) and, with -sample, periodic metric snapshots as JSON
// lines, deterministic in -seed.
//
//	omcast trace -alg min-depth -size 500 -measure 30m | jq -r .span.kind | sort | uniq -c
//	omcast trace -size 500 -small -stream -group 3 -sample 5m > session.jsonl
//
// `trace analyze` digests a span trace (from `omcast trace`, `omcast chaos
// -trace-out`, or a live node's /debug/trace) into episode statistics:
// per-kind counts and outcomes, duration percentiles and stage breakdowns.
// `trace convert` emits Chrome trace-event JSON (one track per member/node)
// loadable in https://ui.perfetto.dev or chrome://tracing.
//
//	omcast trace analyze session.jsonl
//	omcast trace convert session.jsonl > trace.json
func cmdTrace(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "analyze":
			return traceAnalyze(args[1:])
		case "convert":
			return traceConvert(args[1:])
		}
	}
	return traceSim(args)
}

// openInput resolves a nested subcommand's trace source: the sole positional
// argument as a file, or stdin when none is given.
func openInput(fs *flag.FlagSet) (io.ReadCloser, error) {
	switch fs.NArg() {
	case 0:
		return io.NopCloser(os.Stdin), nil
	case 1:
		return os.Open(fs.Arg(0))
	default:
		return nil, fmt.Errorf("at most one input file, got %d", fs.NArg())
	}
}

// traceAnalyze digests a span trace into episode statistics.
func traceAnalyze(args []string) int {
	fs := newFlags("trace analyze")
	if fs.Parse(args) != nil {
		return 2
	}
	in, err := openInput(fs)
	if err != nil {
		return fail(2, "trace", "%v", err)
	}
	defer in.Close()
	tr, err := tracing.Parse(bufio.NewReader(in))
	if err != nil {
		return fail(1, "trace", "%v", err)
	}
	a := tracing.Analyze(tr)
	if a.TotalSpans == 0 {
		fmt.Fprintln(os.Stderr, "omcast trace: no spans in input (produce them with omcast trace, chaos -trace-out or /debug/trace)")
	}
	if err := writeTo("-", a.WriteText); err != nil {
		return fail(1, "trace", "%v", err)
	}
	return 0
}

// traceConvert re-renders a span trace as Perfetto (Chrome trace-event JSON).
func traceConvert(args []string) int {
	fs := newFlags("trace convert")
	if fs.Parse(args) != nil {
		return 2
	}
	in, err := openInput(fs)
	if err != nil {
		return fail(2, "trace", "%v", err)
	}
	defer in.Close()
	spans, err := tracing.ReadSpans(bufio.NewReader(in))
	if err != nil {
		return fail(1, "trace", "%v", err)
	}
	if err := writeTo("-", func(w io.Writer) error { return tracing.WritePerfetto(w, spans) }); err != nil {
		return fail(1, "trace", "%v", err)
	}
	return 0
}

// traceSim runs one simulation and streams its trace.
func traceSim(args []string) int {
	fs := newFlags("trace")
	var (
		algName = fs.String("alg", "rost", "algorithm: min-depth, longest-first, relaxed-bo, relaxed-to, rost")
		seed    = fs.Int64("seed", 1, "random seed")
		size    = fs.Int("size", 1000, "steady-state member count")
		warmup  = fs.Duration("warmup", 30*time.Minute, "warm-up horizon")
		measure = fs.Duration("measure", time.Hour, "measurement window")
		small   = fs.Bool("small", false, "use the reduced underlay")
		sample  = fs.Duration("sample", 0, "emit a metrics snapshot every interval of virtual time (0 = off)")
		stream  = fs.Bool("stream", false, "run the packet-level CER layer too (adds repair spans)")
		group   = fs.Int("group", 3, "CER recovery group size (with -stream)")
	)
	if !parseFlags(fs, args) {
		return 2
	}
	if *warmup < 0 || *measure < 0 || *sample < 0 || *group < 0 {
		// A negative value is a typo, not a request for the default.
		return fail(2, "trace", "-warmup, -measure, -sample and -group must not be negative")
	}
	if *size <= 0 {
		return fail(2, "trace", "-size must be positive, got %d", *size)
	}
	if !*stream {
		groupSet := false
		fs.Visit(func(f *flag.Flag) { groupSet = groupSet || f.Name == "group" })
		if groupSet {
			return fail(2, "trace", "-group needs -stream: only the packet-level layer has recovery groups")
		}
	}
	alg, ok := map[string]omcast.Algorithm{
		"min-depth":     omcast.MinimumDepth,
		"longest-first": omcast.LongestFirst,
		"relaxed-bo":    omcast.RelaxedBandwidthOrdered,
		"relaxed-to":    omcast.RelaxedTimeOrdered,
		"rost":          omcast.ROST,
	}[*algName]
	if !ok {
		return fail(2, "trace", "unknown algorithm %q", *algName)
	}
	cfg := omcast.Config{
		Seed:       *seed,
		Algorithm:  alg,
		TargetSize: *size,
		Warmup:     *warmup,
		Measure:    *measure,
	}
	if *small {
		cfg.Topology = omcast.SmallTopology()
	}
	topts := omcast.TraceOptions{SampleEvery: *sample}
	var res omcast.TreeResult
	err := writeTo("-", func(w io.Writer) error {
		var err error
		if *stream {
			var sres omcast.StreamResult
			sres, err = omcast.RunStreamingWithTrace(cfg, omcast.StreamConfig{GroupSize: *group}, w, topts)
			res = sres.TreeResult
		} else {
			res, err = omcast.RunWithTrace(cfg, w, topts)
		}
		return err
	})
	if err != nil {
		return fail(1, "trace", "%v", err)
	}
	fmt.Fprintf(os.Stderr, "%s: %.2f disruptions/node, %.0fms delay, %d switches\n",
		res.Algorithm, res.AvgDisruptions, res.AvgServiceDelayMS, res.Switches)
	return 0
}
