package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"omcast/internal/bench"
)

// artifact is the BENCH_scale.json document.
type artifact struct {
	Date      string             `json:"date"`
	GoVersion string             `json:"go_version"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	MaxProcs  int                `json:"maxprocs"`
	Quick     bool               `json:"quick"`
	Scale     []bench.ScalePoint `json:"scale"`
}

// cmdBench runs the fig-scale sweep — one ROST run per member count,
// reporting events, ns/event, retained and allocated bytes — and writes it,
// with the host it ran on, to BENCH_scale.json.
//
//	GOMEMLIMIT=32GiB omcast bench                       # M = 10^3 … 10^6
//	omcast bench -quick -scale-sizes 300 -o scale.json  # smoke pass
func cmdBench(args []string) int {
	fs := newFlags("bench")
	var (
		out   = fs.String("o", "BENCH_scale.json", "output path")
		sizes = fs.String("scale-sizes", "1000,10000,100000,1000000", "comma-separated member counts")
		quick = fs.Bool("quick", false, "small underlay and 5 + 5 minute windows, for smoke passes")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	members, err := parseSizes(*sizes)
	if err != nil {
		return fail(2, "bench", "%v", err)
	}

	fmt.Printf("running fig-scale sweep %v (quick=%v)...\n", members, *quick)
	points, err := bench.RunScale(members, *quick, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		return fail(1, "bench", "%v", err)
	}
	doc := artifact{
		//lint:ignore no-wallclock reason: artifact metadata only; never feeds simulation state
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Quick:     *quick,
		Scale:     points,
	}
	err = writeTo(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
	if err != nil {
		return fail(1, "bench", "%v", err)
	}
	fmt.Printf("written to %s\n", *out)
	return 0
}
