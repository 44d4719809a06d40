// Trace analysis: parse a JSONL trace stream (point events and span
// envelopes interleaved), reconstruct episode timelines, and summarise
// them as latency breakdowns — the consumer half of the span layer,
// surfaced by `omcast trace analyze`.
package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParsedTrace is everything recovered from one JSONL trace stream.
type ParsedTrace struct {
	Spans  []Span
	Events map[string]int // point-event counts by kind ("span" lines excluded)
	Lines  int
}

// Parse reads a JSONL trace. Unknown fields are ignored so older analyzers
// keep working against newer producers; lines that are not JSON objects
// are an error. A missing "v" (pre-span traces) parses as version 0 and is
// accepted.
func Parse(r io.Reader) (*ParsedTrace, error) {
	out := &ParsedTrace{Events: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		out.Lines++
		var ev Envelope
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("tracing: line %d: %w", out.Lines, err)
		}
		if ev.V > SchemaVersion {
			return nil, fmt.Errorf("tracing: line %d: schema v%d is newer than this analyzer (v%d)", out.Lines, ev.V, SchemaVersion)
		}
		if ev.Span != nil {
			out.Spans = append(out.Spans, *ev.Span)
			continue
		}
		if ev.Event != "" {
			out.Events[ev.Event]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracing: reading trace: %w", err)
	}
	return out, nil
}

// ReadSpans parses a trace and returns only its spans.
func ReadSpans(r io.Reader) ([]Span, error) {
	tr, err := Parse(r)
	if err != nil {
		return nil, err
	}
	return tr.Spans, nil
}

// StageStats summarises one child-span kind within a parent kind: the
// waterfall row. Offsets are child start minus episode start.
type StageStats struct {
	Kind      string
	Count     int
	Offsets   []float64 // sorted, seconds from episode start
	Durations []float64 // sorted, seconds
}

// KindStats summarises all root spans of one kind.
type KindStats struct {
	Kind      string
	Count     int
	Outcomes  map[string]int
	Durations []float64 // sorted, seconds
	Stages    []StageStats
}

// Analysis is the full summary of a parsed trace.
type Analysis struct {
	Events     map[string]int
	Kinds      []KindStats // sorted by kind name
	TotalSpans int
	// Failover, non-nil when the trace carries failover episodes, breaks
	// their reassignment latencies down by cause (source-down vs drain).
	Failover *FailoverStats
}

// FailoverStats summarises fleet failover episodes: the reassignment-latency
// distribution overall and per episode cause.
type FailoverStats struct {
	Count     int
	Durations []float64            // sorted, seconds
	ByCause   map[string][]float64 // cause -> sorted durations
}

// Analyze reconstructs episodes from spans: spans with a resolvable Parent
// become stages of that parent's kind; the rest are roots.
func Analyze(tr *ParsedTrace) *Analysis {
	byID := make(map[string]*Span, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].ID] = &tr.Spans[i]
	}
	kinds := make(map[string]*KindStats)
	stages := make(map[string]map[string]*StageStats) // parent kind -> child kind
	var failover *FailoverStats
	kindOf := func(k string) *KindStats {
		ks := kinds[k]
		if ks == nil {
			ks = &KindStats{Kind: k, Outcomes: make(map[string]int)}
			kinds[k] = ks
		}
		return ks
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		parent := (*Span)(nil)
		if sp.Parent != "" {
			parent = byID[sp.Parent]
		}
		if parent == nil {
			ks := kindOf(sp.Kind)
			ks.Count++
			ks.Outcomes[sp.Outcome]++
			ks.Durations = append(ks.Durations, sp.Duration())
			if sp.Kind == KindFailover {
				if failover == nil {
					failover = &FailoverStats{ByCause: make(map[string][]float64)}
				}
				failover.Count++
				failover.Durations = append(failover.Durations, sp.Duration())
				cause := "unknown"
				for _, a := range sp.Attrs {
					if a.K == "cause" {
						cause = a.V
						break
					}
				}
				failover.ByCause[cause] = append(failover.ByCause[cause], sp.Duration())
			}
			continue
		}
		m := stages[parent.Kind]
		if m == nil {
			m = make(map[string]*StageStats)
			stages[parent.Kind] = m
		}
		ss := m[sp.Kind]
		if ss == nil {
			ss = &StageStats{Kind: sp.Kind}
			m[sp.Kind] = ss
		}
		ss.Count++
		ss.Offsets = append(ss.Offsets, sp.Start-parent.Start)
		ss.Durations = append(ss.Durations, sp.Duration())
	}
	out := &Analysis{Events: tr.Events, TotalSpans: len(tr.Spans), Failover: failover}
	if failover != nil {
		sort.Float64s(failover.Durations)
		for _, ds := range failover.ByCause {
			sort.Float64s(ds)
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ks := kinds[k]
		sort.Float64s(ks.Durations)
		if m := stages[k]; m != nil {
			skinds := make([]string, 0, len(m))
			for sk := range m {
				skinds = append(skinds, sk)
			}
			sort.Strings(skinds)
			for _, sk := range skinds {
				ss := m[sk]
				sort.Float64s(ss.Offsets)
				sort.Float64s(ss.Durations)
				ks.Stages = append(ks.Stages, *ss)
			}
		}
		out.Kinds = append(out.Kinds, *ks)
	}
	return out
}

// Percentile returns the nearest-rank percentile (q in [0,1]) of an
// ascending-sorted slice; 0 when empty.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteText renders the analysis as the human-readable report printed by
// `omcast trace analyze`: per-kind episode percentiles plus a waterfall of
// mean stage offsets and durations.
func (a *Analysis) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "spans: %d\n", a.TotalSpans)
	if len(a.Events) > 0 {
		evs := make([]string, 0, len(a.Events))
		for k := range a.Events {
			evs = append(evs, k)
		}
		sort.Strings(evs)
		fmt.Fprintf(bw, "events:")
		for _, k := range evs {
			fmt.Fprintf(bw, " %s=%d", k, a.Events[k])
		}
		fmt.Fprintln(bw)
	}
	for _, ks := range a.Kinds {
		outs := make([]string, 0, len(ks.Outcomes))
		for o := range ks.Outcomes {
			outs = append(outs, o)
		}
		sort.Strings(outs)
		fmt.Fprintf(bw, "\nkind=%-8s count=%d", ks.Kind, ks.Count)
		for _, o := range outs {
			fmt.Fprintf(bw, " %s=%d", o, ks.Outcomes[o])
		}
		fmt.Fprintln(bw)
		fmt.Fprintf(bw, "  duration  p50=%.3fs p90=%.3fs p99=%.3fs max=%.3fs\n",
			Percentile(ks.Durations, 0.50), Percentile(ks.Durations, 0.90),
			Percentile(ks.Durations, 0.99), Percentile(ks.Durations, 1.0))
		for _, ss := range ks.Stages {
			fmt.Fprintf(bw, "  stage %-9s n=%-5d start p50=+%.3fs p90=+%.3fs  dur p50=%.3fs p90=%.3fs max=%.3fs\n",
				ss.Kind, ss.Count,
				Percentile(ss.Offsets, 0.50), Percentile(ss.Offsets, 0.90),
				Percentile(ss.Durations, 0.50), Percentile(ss.Durations, 0.90),
				Percentile(ss.Durations, 1.0))
		}
	}
	if f := a.Failover; f != nil {
		fmt.Fprintf(bw, "\nfailover latency  n=%d p50=%.3fs p99=%.3fs max=%.3fs\n",
			f.Count, Percentile(f.Durations, 0.50), Percentile(f.Durations, 0.99),
			Percentile(f.Durations, 1.0))
		causes := make([]string, 0, len(f.ByCause))
		for c := range f.ByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			ds := f.ByCause[c]
			fmt.Fprintf(bw, "  cause %-12s n=%-5d p50=%.3fs p99=%.3fs\n",
				c, len(ds), Percentile(ds, 0.50), Percentile(ds, 0.99))
		}
	}
	return bw.Flush()
}
