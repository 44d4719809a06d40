// Package live is the concurrent wall-clock backend of the instrumentation
// layer: the counterpart of internal/metrics for code that runs on real
// goroutines (internal/node and the live CLIs). Counters and gauges are
// single atomics, histograms are mutex-sharded, and snapshots reuse the
// shared serialisation model in internal/metrics, so the Prometheus text
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

// histShards spreads histogram contention across independently locked
// shards; snapshots merge them.
const histShards = 8

type histShard struct {
	mu     sync.Mutex
	counts []uint64 //guardedby:mu
	count  uint64   //guardedby:mu
	sum    float64  //guardedby:mu
	_      [24]byte // soften false sharing between adjacent shards
}

// Histogram counts observations into fixed buckets, safe for concurrent
// use. The zero pointer is a valid no-op sink.
type Histogram struct {
	bounds []float64
	shards [histShards]histShard
	next   atomic.Uint32 // round-robin shard spreader
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s := &h.shards[h.next.Add(1)%histShards]
	s.mu.Lock()
	s.counts[lo]++
	s.count++
	s.sum += v
	s.mu.Unlock()
}

func (h *Histogram) export() *metrics.HistValue {
	out := &metrics.HistValue{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for j, c := range s.counts {
			out.Counts[j] += c
		}
		out.Count += s.count
		out.Sum += s.sum
		s.mu.Unlock()
	}
	return out
}

// entry is one registered instrument.
type entry struct {
	desc metrics.Desc
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is the concurrent registry. Registration takes the registry
// lock; updates touch only the instrument's own atomics or shard locks.
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

// Histogram registers (or returns) a histogram with the given ascending
// bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...metrics.Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("live: %s: bucket bounds not ascending at %d", name, i))
		}
	}
	d := metrics.NewDesc(name, help, metrics.KindHistogram, labels)
	return r.lookup(d, func() *entry {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		for i := range h.shards {
			h.shards[i].counts = make([]uint64, len(bounds)+1)
		}
		return &entry{desc: d, h: h}
	}).h
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
		case metrics.KindHistogram:
			m.Hist = e.h.export()
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
