package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var nilC *Counter
	nilC.Inc() // nil sink must not panic
	nilC.Add(3)
	c := &Counter{}
	c.Inc()
	c.Add(2.5)
	if got := c.v; got != 3.5 {
		t.Fatalf("counter value = %v, want 3.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var nilG *Gauge
	nilG.Set(5) // nil sink must not panic
	reg := NewRegistry()
	g := reg.Gauge("omcast_test_gauge", "")
	g.Set(4)
	g.Set(3) // a gauge moves down as well as up
	if got := reg.Snapshot(0).Metrics[0].Value; got != 3 {
		t.Fatalf("gauge value = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(1) // nil sink must not panic

	reg := NewRegistry()
	h := reg.Histogram("omcast_test_hist", "", []float64{1, 10, 100})
	// A value equal to a bound lands in that bound's bucket (le semantics).
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	snap := reg.Snapshot(0)
	hv := snap.Metrics[0].Hist
	if hv == nil {
		t.Fatal("histogram export missing")
	}
	want := []uint64{2, 2, 1, 1} // [<=1, <=10, <=100, +Inf]
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	if hv.Count != 6 {
		t.Fatalf("count = %d, want 6", hv.Count)
	}
	if hv.Sum != 0.5+1+5+10+99+1000 {
		t.Fatalf("sum = %v", hv.Sum)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(0.001, 1000, 13)
	if len(b) != 13 {
		t.Fatalf("len = %d, want 13", len(b))
	}
	if b[0] != 0.001 || b[12] != 1000 {
		t.Fatalf("endpoints = %v, %v", b[0], b[12])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
	// Log spacing: constant ratio between adjacent bounds.
	r0 := b[1] / b[0]
	for i := 2; i < len(b); i++ {
		if r := b[i] / b[i-1]; math.Abs(r-r0) > 1e-9 {
			t.Fatalf("ratio drift at %d: %v vs %v", i, r, r0)
		}
	}
	for _, bad := range []func(){
		func() { LogBuckets(0, 1, 3) },
		func() { LogBuckets(2, 1, 3) },
		func() { LogBuckets(1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid LogBuckets did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestRegistryDedup(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("omcast_test_total", "help", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	b := reg.Counter("omcast_test_total", "help", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	if a != b {
		t.Fatal("same name+labels (any order) must return the same counter")
	}
	a.Inc()
	if b.v != 1 {
		t.Fatal("deduped instruments do not share state")
	}
	other := reg.Counter("omcast_test_total", "help", Label{Key: "a", Value: "9"})
	if other == a {
		t.Fatal("different label values must be distinct instruments")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	reg.Gauge("omcast_test_total", "help", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	for name, fn := range map[string]func(){
		"bad metric name": func() { reg.Counter("2bad", "") },
		"bad label key":   func() { reg.Counter("omcast_ok_total", "", Label{Key: "bad-key", Value: "x"}) },
		"dup label key":   func() { reg.Counter("omcast_ok_total", "", Label{Key: "a", Value: "1"}, Label{Key: "a", Value: "2"}) },
		"bad bounds":      func() { reg.Histogram("omcast_ok", "", []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSnapshotOrderAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("omcast_z_total", "last registered, first if sorted by name... must stay first")
	reg.Gauge("omcast_a_gauge", "registered second")
	snap := reg.Snapshot(12.5)
	if snap.T != 12.5 {
		t.Fatalf("T = %v", snap.T)
	}
	if snap.Metrics[0].Name != "omcast_z_total" || snap.Metrics[1].Name != "omcast_a_gauge" {
		t.Fatalf("snapshot not in registration order: %v, %v", snap.Metrics[0].Name, snap.Metrics[1].Name)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if strings.Contains(s, "registered") {
		t.Fatalf("help text leaked into JSON: %s", s)
	}
	if !strings.Contains(s, `"t":12.5`) {
		t.Fatalf("timestamp missing: %s", s)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	depth := 3
	reg.GaugeFunc("omcast_test_depth", "", func() float64 { return float64(depth) })
	if got := reg.Snapshot(0).Metrics[0].Value; got != 3 {
		t.Fatalf("func gauge = %v, want 3", got)
	}
	depth = 9 // snapshot must observe the live state, not a copy
	if got := reg.Snapshot(0).Metrics[0].Value; got != 9 {
		t.Fatalf("func gauge after update = %v, want 9", got)
	}
	// Re-registration swaps the closure (sequential sessions on one registry).
	reg.GaugeFunc("omcast_test_depth", "", func() float64 { return 42 })
	if got := reg.Snapshot(0).Metrics[0].Value; got != 42 {
		t.Fatalf("func gauge after re-register = %v, want 42", got)
	}
	if len(reg.Snapshot(0).Metrics) != 1 {
		t.Fatal("re-registration duplicated the gauge")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("value/func gauge clash did not panic")
		}
	}()
	reg.Gauge("omcast_test_depth", "")
}

// TestCounterFuncAccumulatesLikeCounter pins the re-registration rule of a
// func counter: sequential sessions sharing a registry, each counting in a
// field of its own, snapshot exactly as the same sessions bumping a Counter.
func TestCounterFuncAccumulatesLikeCounter(t *testing.T) {
	funcs, counters := NewRegistry(), NewRegistry()
	for _, events := range []int{3, 4} {
		fired := 0
		funcs.CounterFunc("omcast_test_fired_total", "h", func() float64 { return float64(fired) })
		c := counters.Counter("omcast_test_fired_total", "h")
		for i := 0; i < events; i++ {
			fired++
			c.Inc()
			if got, want := funcs.Snapshot(1), counters.Snapshot(1); !reflect.DeepEqual(got, want) {
				t.Fatalf("func counter snapshot %+v, counter snapshot %+v", got, want)
			}
		}
	}
	if got := funcs.Snapshot(0).Metrics; len(got) != 1 || got[0].Value != 7 || got[0].Kind != KindCounter {
		t.Fatalf("two sessions of 3 and 4 events snapshot as %+v, want one counter at 7", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("counter/gauge clash did not panic")
		}
	}()
	funcs.Gauge("omcast_test_fired_total", "h")
}
