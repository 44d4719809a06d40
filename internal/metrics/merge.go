package metrics

import "fmt"

// Merge folds every instrument of src into r, exactly as if the code that
// populated src had run against r directly: counters add their value (a
// func counter the value its function reads now), histograms add their
// bucket counts and sums, value gauges overwrite (a Set by the merged
// session), and func gauges rebind r's instrument to src's function —
// Registry's usual re-registration semantics. Instruments new to r are
// registered in src's registration order, so merging per-session registries
// in session order reproduces the registration order of those sessions
// sharing r from the start.
//
// The experiment engine relies on this: parallel work units each populate a
// private registry, and the engine merges them in canonical unit order, so
// snapshots are byte-identical for every worker count.
//
// Kind clashes and histogram bucket mismatches panic, like re-registration.
// src is not modified; merging a registry into itself panics.
func (r *Registry) Merge(src *Registry) {
	if r == src {
		panic("metrics: Merge of a registry into itself")
	}
	for _, m := range src.ordered {
		switch m.desc.Kind {
		case KindCounter:
			r.Counter(m.desc.Name, m.desc.Help, m.desc.Labels...).Add(m.export().Value)
		case KindGauge:
			if m.fn != nil {
				r.GaugeFunc(m.desc.Name, m.desc.Help, m.fn, m.desc.Labels...)
			} else {
				r.Gauge(m.desc.Name, m.desc.Help, m.desc.Labels...).Set(m.g.v)
			}
		case KindHistogram:
			dst := r.Histogram(m.desc.Name, m.desc.Help, m.h.bounds, m.desc.Labels...)
			if !equalBounds(dst.bounds, m.h.bounds) {
				panic(fmt.Sprintf("metrics: Merge: histogram %s bucket bounds differ", m.desc.Name))
			}
			for i, c := range m.h.counts {
				dst.counts[i] += c
			}
			dst.count += m.h.count
			dst.sum += m.h.sum
		}
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore float-accum reason: bucket bounds are configured constants, not accumulations; merging requires structural identity
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
