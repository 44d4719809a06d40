package metrics

import (
	"reflect"
	"testing"
)

// populate simulates one session's worth of writes against reg.
func populate(reg *Registry, runs int) {
	for s := 0; s < runs; s++ {
		reg.Counter("omcast_test_total", "h").Add(float64(s + 1))
		reg.Gauge("omcast_test_members", "h").Set(float64(100 * (s + 1)))
		h := reg.Histogram("omcast_test_latency_seconds", "h", LogBuckets(0.001, 10, 5))
		h.Observe(0.002 * float64(s+1))
		h.Observe(3)
		v := float64(s)
		reg.GaugeFunc("omcast_test_depth", "h", func() float64 { return v })
		reg.CounterFunc("omcast_test_fired_total", "h", func() float64 { return v + 1 })
	}
}

// TestMergeMatchesShared pins the contract the experiment engine depends on:
// per-session registries merged in session order snapshot identically to the
// sessions sharing one registry from the start.
func TestMergeMatchesShared(t *testing.T) {
	shared := NewRegistry()
	populate(shared, 1)
	populate(shared, 2)

	merged := NewRegistry()
	a := NewRegistry()
	populate(a, 1)
	b := NewRegistry()
	populate(b, 2)
	merged.Merge(a)
	merged.Merge(b)

	want := shared.Snapshot(7)
	got := merged.Snapshot(7)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("merged snapshot differs from shared-registry snapshot:\nshared: %+v\nmerged: %+v", want, got)
	}
}

func TestMergeIntoPopulated(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("omcast_test_total", "h").Add(5)
	src := NewRegistry()
	src.Counter("omcast_test_total", "h").Add(2)
	src.Counter("omcast_test_new_total", "h").Inc()
	dst.Merge(src)
	snap := dst.Snapshot(0)
	if len(snap.Metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(snap.Metrics))
	}
	if snap.Metrics[0].Name != "omcast_test_total" || snap.Metrics[0].Value != 7 {
		t.Fatalf("counter did not add: %+v", snap.Metrics[0])
	}
	if snap.Metrics[1].Name != "omcast_test_new_total" || snap.Metrics[1].Value != 1 {
		t.Fatalf("new counter not appended: %+v", snap.Metrics[1])
	}
}

// TestMergeAddsCounterFunc pins that merging a func counter adds the value
// its function reads at merge time, as a counter's would be added.
func TestMergeAddsCounterFunc(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("omcast_test_total", "h").Add(5)
	src := NewRegistry()
	fired := 2
	src.CounterFunc("omcast_test_total", "h", func() float64 { return float64(fired) })
	dst.Merge(src)
	fired = 40 // merged values are copies: src's later counts stay in src
	if got := dst.Snapshot(0).Metrics; len(got) != 1 || got[0].Value != 7 || got[0].Kind != KindCounter {
		t.Fatalf("merged counter snapshot %+v, want one counter at 7", got)
	}
}

func TestMergeLabelsKeptDistinct(t *testing.T) {
	dst := NewRegistry()
	src := NewRegistry()
	src.Counter("omcast_test_total", "h", Label{Key: "alg", Value: "rost"}).Inc()
	src.Counter("omcast_test_total", "h", Label{Key: "alg", Value: "mindepth"}).Add(3)
	dst.Merge(src)
	snap := dst.Snapshot(0)
	if len(snap.Metrics) != 2 {
		t.Fatalf("labelled series collapsed: %+v", snap.Metrics)
	}
	if snap.Metrics[0].Value != 1 || snap.Metrics[1].Value != 3 {
		t.Fatalf("labelled values wrong: %+v", snap.Metrics)
	}
}

func TestMergeHistogramBoundsMismatchPanics(t *testing.T) {
	dst := NewRegistry()
	dst.Histogram("omcast_test_latency_seconds", "h", LogBuckets(0.001, 10, 5))
	src := NewRegistry()
	src.Histogram("omcast_test_latency_seconds", "h", LogBuckets(0.001, 100, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("bounds mismatch did not panic")
		}
	}()
	dst.Merge(src)
}

func TestMergeSelfPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("self-merge did not panic")
		}
	}()
	reg.Merge(reg)
}
