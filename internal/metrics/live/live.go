// Package live is the concurrent wall-clock backend of the instrumentation
// layer: the counterpart of internal/metrics for code that runs on real
// goroutines (internal/node and the live CLIs). Counters and gauges are
// single atomics, and snapshots reuse the shared serialisation model in internal/metrics, so the Prometheus text
// encoder and the JSONL schema are identical across both backends.
//
// This package is deliberately NOT simulation-safe (it reads the wall clock
// and uses sync primitives) and must never be imported by a package listed
// in the linter's simulation scope.
package live

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"omcast/internal/metrics"
)

// Counter is a monotonically increasing value, safe for concurrent use. The
// zero pointer is a valid no-op sink so uninstrumented nodes pay one nil
// check per update.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta; negative deltas panic (counters are monotone).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("live: counter decremented by %d", delta))
	}
	c.v.Add(delta)
}

// Value returns the current total (0 on the nil sink).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that can move both ways, safe for concurrent use.
// The zero pointer is a valid no-op sink.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on the nil sink).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// entry is one registered instrument.
type entry struct {
	desc metrics.Desc
	c    *Counter
	g    *Gauge
}

// Registry is the concurrent registry. Registration takes the registry
// lock; updates touch only the instrument's own atomics.
type Registry struct {
	start time.Time

	mu      sync.Mutex
	ordered []*entry          //guardedby:mu
	index   map[string]*entry //guardedby:mu
}

// NewRegistry returns an empty live registry; snapshot timestamps count
// uptime from this call.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), index: make(map[string]*entry)}
}

func (r *Registry) lookup(d metrics.Desc, mk func() *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[metrics.DescID(d)]; ok {
		if e.desc.Kind != d.Kind {
			panic(fmt.Sprintf("live: %s re-registered as %s (was %s)", d.Name, d.Kind, e.desc.Kind))
		}
		return e
	}
	e := mk()
	r.ordered = append(r.ordered, e)
	r.index[metrics.DescID(d)] = e
	return e
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string, labels ...metrics.Label) *Counter {
	d := metrics.NewDesc(name, help, metrics.KindCounter, labels)
	return r.lookup(d, func() *entry { return &entry{desc: d, c: &Counter{}} }).c
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string, labels ...metrics.Label) *Gauge {
	d := metrics.NewDesc(name, help, metrics.KindGauge, labels)
	return r.lookup(d, func() *entry { return &entry{desc: d, g: &Gauge{}} }).g
}

// Snapshot captures every instrument, keyed by seconds of registry uptime.
func (r *Registry) Snapshot() metrics.Snapshot {
	r.mu.Lock()
	ordered := append([]*entry(nil), r.ordered...)
	r.mu.Unlock()
	snap := metrics.Snapshot{
		T:       time.Since(r.start).Seconds(),
		Metrics: make([]metrics.Metric, 0, len(ordered)),
	}
	for _, e := range ordered {
		m := metrics.Metric{
			Name:   e.desc.Name,
			Kind:   e.desc.Kind,
			Help:   e.desc.Help,
			Labels: e.desc.Labels,
		}
		switch e.desc.Kind {
		case metrics.KindCounter:
			m.Value = float64(e.c.Value())
		case metrics.KindGauge:
			m.Value = e.g.Value()
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Handler serves the registry in the Prometheus text exposition format —
// mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WriteProm(w, r.Snapshot())
	})
}
