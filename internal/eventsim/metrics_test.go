package eventsim

import (
	"testing"
	"time"

	"omcast/internal/metrics"
)

// findMetric returns the snapshot entry with the given name, or nil.
func findMetric(snap metrics.Snapshot, name string) *metrics.Metric {
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == name {
			return &snap.Metrics[i]
		}
	}
	return nil
}

func TestInstrumentCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	sim := New()
	sim.Instrument(reg)

	fired := 0
	handler := func(s *Simulator, _ int64) { fired++ }
	sim.Schedule(1*time.Second, handler, 0)
	sim.Schedule(2*time.Second, handler, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}

	snap := reg.Snapshot(sim.Now().Seconds())
	want := map[string]float64{
		"omcast_sim_events_scheduled_total": 2,
		"omcast_sim_events_fired_total":     2,
		"omcast_sim_queue_depth":            0,
		"omcast_sim_queue_depth_high_water": 2,
	}
	for name, w := range want {
		m := findMetric(snap, name)
		if m == nil {
			t.Fatalf("metric %s not in snapshot", name)
		}
		if m.Value != w {
			t.Errorf("%s = %v, want %v", name, m.Value, w)
		}
	}
	res := findMetric(snap, "omcast_sim_event_residence_seconds")
	if res == nil || res.Hist == nil {
		t.Fatal("residence histogram missing")
	}
	if res.Hist.Count != 2 {
		t.Fatalf("residence count = %d, want 2 (one per fired event)", res.Hist.Count)
	}
	// Residence is virtual (fire − schedule): 1s + 2s.
	if res.Hist.Sum != 3 {
		t.Fatalf("residence sum = %v, want 3", res.Hist.Sum)
	}
}

// TestUninstrumentedKernelUnchanged guards the nil-sink contract: a kernel
// without Instrument must behave identically and never panic on the metric
// paths.
func TestUninstrumentedKernelUnchanged(t *testing.T) {
	sim := New()
	fired := 0
	sim.Schedule(time.Second, func(s *Simulator, _ int64) { fired++ }, 0)
	sim.Lane(time.Second).Schedule(func(s *Simulator, _ int64) { fired++ }, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestQueueDepthCountsLanes pins that lane events are queue depth like heap
// events: Pending and both depth gauges, which a run's metrics snapshot
// reads, count the events in every lane.
func TestQueueDepthCountsLanes(t *testing.T) {
	reg := metrics.NewRegistry()
	sim := New()
	sim.Instrument(reg)
	noop := func(*Simulator, int64) {}
	depth := func() (pending int, gauge, high float64) {
		snap := reg.Snapshot(sim.Now().Seconds())
		return sim.Pending(), findMetric(snap, "omcast_sim_queue_depth").Value,
			findMetric(snap, "omcast_sim_queue_depth_high_water").Value
	}
	check := func(wantPending int, wantHigh float64) {
		t.Helper()
		if p, g, h := depth(); p != wantPending || g != float64(wantPending) || h != wantHigh {
			t.Fatalf("Pending %d, depth gauge %v, high water %v; want %d, %d, %v", p, g, h, wantPending, wantPending, wantHigh)
		}
	}
	sim.Schedule(3*time.Second, noop, 0)
	sim.Lane(time.Second).Schedule(noop, 0)
	sim.Lane(time.Second).Schedule(noop, 0)
	sim.Lane(2*time.Second).Schedule(noop, 0)
	check(4, 4)
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	check(2, 4) // the 1 s lane drained
	sim.Lane(time.Second).Schedule(noop, 0)
	sim.Lane(time.Second).Schedule(noop, 0)
	sim.Lane(time.Second).Schedule(noop, 0)
	check(5, 5)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	check(0, 5)
	if got := sim.Processed(); got != 7 {
		t.Fatalf("Processed = %d, want 7", got)
	}
}
