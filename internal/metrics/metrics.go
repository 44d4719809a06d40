// Package metrics is the repo's unified instrumentation layer: a
// stdlib-only, allocation-light registry of counters, gauges and histograms
// (fixed log-spaced buckets) shared by the deterministic simulation stack and
// — through the concurrent backend in internal/metrics/live — the live
// protocol runtime.
//
// This package itself is simulation-safe: it reads no wall clock, spawns no
// goroutines and uses no sync primitives, so it passes every omcast lint rule
// for deterministic code. Snapshots are keyed by a caller-supplied timestamp
// (virtual time in simulations, uptime in the live runtime) and serialise in
// registration order, which makes same-seed snapshot streams byte-identical.
//
// Metric naming follows the Prometheus conventions documented in DESIGN.md
// §9: `omcast_<subsystem>_<metric>[_total|_seconds|_bytes]`, with subsystems
// sim (kernel), churn, rost, cer and node.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Kind classifies a metric.
type Kind string

// The three metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name/value pair attached to a metric. Labels are sorted by
// key at registration time so identical label sets always serialise — and
// deduplicate — identically.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Counter is a monotonically increasing value. The zero pointer is a valid
// no-op sink, so uninstrumented code paths cost one nil check.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds delta; negative deltas panic (counters are monotone).
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("metrics: counter decremented by %v", delta))
	}
	c.v += delta
}

// Gauge is a value that can go up and down. The zero pointer is a valid
// no-op sink.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Histogram counts observations into fixed buckets. Bounds are upper bucket
// limits in ascending order; one implicit overflow bucket (+Inf) follows the
// last bound. The zero pointer is a valid no-op sink.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow bucket
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)]++
	h.count++
	h.sum += v
}

// bucketOf binary-searches the first bound >= v.
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LogBuckets returns n log-spaced upper bounds from lo to hi inclusive — the
// fixed-bucket scheme every histogram in the repo uses. lo and hi must be
// positive with lo < hi, and n >= 2.
func LogBuckets(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: LogBuckets(%v, %v, %d): want 0 < lo < hi and n >= 2", lo, hi, n))
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	out[n-1] = hi // exact despite float rounding
	return out
}

// LatencyBuckets is the default bound set for latency-style histograms:
// 1 ms to 1000 s, two buckets per decade.
func LatencyBuckets() []float64 { return LogBuckets(0.001, 1000, 13) }

// Desc describes one registered metric.
type Desc struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label // sorted by key
}

// id returns the registry key: name plus the sorted label pairs.
func (d Desc) id() string {
	s := d.Name
	for _, l := range d.Labels {
		s += "\x00" + l.Key + "\x01" + l.Value
	}
	return s
}

// NewDesc builds a validated descriptor with sorted labels. Simulation code
// registers through Registry directly; the live backend shares the
// descriptor model through this constructor.
func NewDesc(name, help string, kind Kind, labels []Label) Desc {
	d := Desc{Name: name, Help: help, Kind: kind, Labels: sortLabels(labels)}
	checkDesc(d)
	return d
}

// DescID returns the registry deduplication key: the metric name plus its
// sorted label pairs.
func DescID(d Desc) string { return d.id() }

// sortLabels returns a sorted copy, panicking on duplicate keys.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i := 1; i < len(out); i++ {
		if out[i].Key == out[i-1].Key {
			panic(fmt.Sprintf("metrics: duplicate label key %q", out[i].Key))
		}
	}
	return out
}

// validName reports whether s is a legal Prometheus metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// checkDesc panics on malformed names (a programming error caught in tests).
func checkDesc(d Desc) {
	if !validName(d.Name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", d.Name))
	}
	for _, l := range d.Labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %s", l.Key, d.Name))
		}
	}
}

// metric is one registered instrument. Gauges are either value-backed (g)
// or func-backed (fn, computed at snapshot time), never both. A counter
// always has its value c and may also have fn: it reads c plus fn().
type metric struct {
	desc Desc
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() float64
}

// Registry is the deterministic virtual-time backend: a flat set of
// instruments snapshotted in registration order. It is single-threaded by
// design, exactly like the simulation kernel it instruments; the live
// runtime uses internal/metrics/live instead.
type Registry struct {
	ordered []*metric
	index   map[string]*metric
}

// NewRegistry returns an empty deterministic registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// lookup returns the existing instrument for desc, or registers a new one
// built by mk. Re-registering the same name+labels returns the existing
// instrument (so sequential sessions sharing a registry accumulate); a kind
// clash panics.
func (r *Registry) lookup(d Desc, mk func() *metric) *metric {
	checkDesc(d)
	if m, ok := r.index[d.id()]; ok {
		if m.desc.Kind != d.Kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", d.Name, d.Kind, m.desc.Kind))
		}
		return m
	}
	m := mk()
	r.ordered = append(r.ordered, m)
	r.index[d.id()] = m
	return m
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	d := Desc{Name: name, Help: help, Kind: KindCounter, Labels: sortLabels(labels)}
	return r.lookup(d, func() *metric { return &metric{desc: d, c: &Counter{}} }).c
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time. Use it for a count the instrumented code already keeps in a field of
// its own (events fired, switches completed): the field is the count, and no
// second store is bumped beside it. fn must be monotone. Re-registering the
// same name+labels folds the old fn's current value into the counter before
// rebinding it to fn, so sequential sessions sharing a registry accumulate
// exactly as they do through Counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: CounterFunc %s registered with nil fn", name))
	}
	d := Desc{Name: name, Help: help, Kind: KindCounter, Labels: sortLabels(labels)}
	m := r.lookup(d, func() *metric { return &metric{desc: d, c: &Counter{}} })
	if m.fn != nil {
		m.c.Add(m.fn())
	}
	m.fn = fn
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	d := Desc{Name: name, Help: help, Kind: KindGauge, Labels: sortLabels(labels)}
	m := r.lookup(d, func() *metric { return &metric{desc: d, g: &Gauge{}} })
	if m.g == nil {
		panic(fmt.Sprintf("metrics: %s re-registered as a value gauge (was func-backed)", name))
	}
	return m.g
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time. Use it for state the instrumented code already tracks (queue depth,
// population size): sampling costs nothing on the hot path. Re-registering
// the same name+labels replaces fn, so sequential sessions sharing a
// registry read the live session's state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: GaugeFunc %s registered with nil fn", name))
	}
	d := Desc{Name: name, Help: help, Kind: KindGauge, Labels: sortLabels(labels)}
	m := r.lookup(d, func() *metric { return &metric{desc: d} })
	if m.g != nil {
		panic(fmt.Sprintf("metrics: %s re-registered as a func gauge (was value-backed)", name))
	}
	m.fn = fn
}

// Histogram registers (or returns) a histogram with the given bucket upper
// bounds (ascending; the +Inf overflow bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bucket bounds not ascending at %d", name, i))
		}
	}
	d := Desc{Name: name, Help: help, Kind: KindHistogram, Labels: sortLabels(labels)}
	return r.lookup(d, func() *metric {
		return &metric{desc: d, h: &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}}
	}).h
}

// Snapshot captures every instrument at timestamp t (seconds; virtual time
// in simulations). The metric order is the registration order, so same-seed
// runs produce byte-identical serialised snapshots.
func (r *Registry) Snapshot(t float64) Snapshot {
	snap := Snapshot{T: t, Metrics: make([]Metric, 0, len(r.ordered))}
	for _, m := range r.ordered {
		snap.Metrics = append(snap.Metrics, m.export())
	}
	return snap
}

func (m *metric) export() Metric {
	out := Metric{
		Name:   m.desc.Name,
		Kind:   m.desc.Kind,
		Help:   m.desc.Help,
		Labels: m.desc.Labels,
	}
	switch m.desc.Kind {
	case KindCounter:
		out.Value = m.c.v
		if m.fn != nil {
			out.Value += m.fn()
		}
	case KindGauge:
		if m.fn != nil {
			out.Value = m.fn()
		} else {
			out.Value = m.g.v
		}
	case KindHistogram:
		out.Hist = &HistValue{
			Bounds: m.h.bounds,
			Counts: append([]uint64(nil), m.h.counts...),
			Count:  m.h.count,
			Sum:    m.h.sum,
		}
	}
	return out
}

// Snapshot is a point-in-time capture of a whole registry — the unit of the
// JSONL time series (trace "sample" events) and the input to the Prometheus
// text encoder.
type Snapshot struct {
	// T is the capture timestamp in seconds (virtual time for the
	// deterministic backend, uptime for the live backend).
	T float64 `json:"t"`
	// Metrics lists every instrument in registration order.
	Metrics []Metric `json:"metrics"`
}

// Metric is one exported instrument value. Help is carried for the
// Prometheus encoder but excluded from JSON to keep sample lines compact.
type Metric struct {
	Name   string     `json:"name"`
	Kind   Kind       `json:"kind"`
	Help   string     `json:"-"`
	Labels []Label    `json:"labels,omitempty"`
	Value  float64    `json:"value"`
	Hist   *HistValue `json:"hist,omitempty"`
}

// HistValue is an exported histogram: per-bucket (non-cumulative) counts,
// with Counts[len(Bounds)] holding the +Inf overflow bucket.
type HistValue struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}
