package main

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"omcast/internal/bench"
)

// probes maps a per-layer metric to the case of the repository's own tier-1
// suite that measures it; the bodies are reused through testing.Benchmark,
// not copied.
var probes = []struct{ metric, suiteCase string }{
	{"eventsim.schedule_fire_ns", "eventsim/schedule-fire"},
	{"overlay.sample100_ns", "overlay/sample-100"},
	{"overlay.attach_detach_ns", "overlay/attach-detach-dense"},
	{"stream.interval_account_ns", "stream/interval-account"},
	{"topology.delay_ns", "topology/delay"},
}

// probeBenchtime keeps the five probes together under two seconds; the
// default of one second each would cost more than the workload's own layers.
const probeBenchtime = "200ms"

// The probes do not depend on the workload, so one process measures them
// once (-all and the tests would otherwise pay for them ten times).
var (
	probeOnce   sync.Once
	probeValues map[string]float64
	probeErr    error
)

// runProbes measures the layer micro-costs: nanoseconds per operation of the
// named suite cases.
func runProbes() (map[string]float64, error) {
	probeOnce.Do(func() { probeValues, probeErr = measureProbes() })
	return probeValues, probeErr
}

func measureProbes() (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", probeBenchtime); err != nil {
		return nil, fmt.Errorf("setting the probe benchtime: %w", err)
	}
	cases := map[string]func(*testing.B){}
	for _, c := range bench.Suite(false) {
		cases[c.Name] = c.Bench
	}
	out := map[string]float64{}
	for _, p := range probes {
		body, ok := cases[p.suiteCase]
		if !ok {
			return nil, fmt.Errorf("bench.Suite has no case %q", p.suiteCase)
		}
		r := testing.Benchmark(body)
		if r.N == 0 {
			return nil, fmt.Errorf("probe %q did not run", p.suiteCase)
		}
		out[p.metric] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return out, nil
}
