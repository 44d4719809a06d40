// Command omcast-bench runs the fig-scale sweep — one ROST run per member
// count, reporting events, ns/event, retained and allocated bytes — and
// writes it, with the host it ran on, to BENCH_scale.json.
//
// Usage:
//
//	omcast-bench -memlimit 32GiB                        # M = 10^3 … 10^6
//	omcast-bench -quick -scale-sizes 300 -o scale.json  # smoke pass
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"omcast/internal/bench"
	"omcast/internal/runtimecfg"
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

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out      = flag.String("o", "BENCH_scale.json", "output path")
		sizes    = flag.String("scale-sizes", "1000,10000,100000,1000000", "comma-separated member counts")
		quick    = flag.Bool("quick", false, "small underlay and 5 + 5 minute windows, for smoke passes")
		memlimit = flag.String("memlimit", "", "soft Go runtime memory limit, e.g. 8GiB (default: no limit)")
		gcpct    = flag.Int("gcpercent", -1, "GOGC percentage (default -1: keep the runtime default of 100)")
	)
	flag.Parse()

	if _, err := runtimecfg.Apply(*memlimit, *gcpct); err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 2
	}
	members, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 2
	}

	fmt.Printf("running fig-scale sweep %v (quick=%v)...\n", members, *quick)
	points, err := bench.RunScale(members, *quick, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 1
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
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 1
	}
	fmt.Printf("written to %s\n", *out)
	return 0
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
