package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanKind names a layer boundary the benchmark times from outside.
type spanKind uint8

const (
	spanTopologyBuild spanKind = iota
	spanPrepopulate
	spanWarmup
	spanMeasure
	spanJoin
	spanRostStart
	spanEpisode
	spanSelect
	spanFinish
	spanAttach
	spanDatagram
	spanDatagramFan1
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanTopologyBuild: "topology.build",
	spanPrepopulate:   "churn.prepopulate",
	spanWarmup:        "churn.warmup",
	spanMeasure:       "churn.measure",
	spanJoin:          "construct.join",
	spanRostStart:     "rost.start",
	spanEpisode:       "stream.episode",
	spanSelect:        "cer.select",
	spanFinish:        "stream.finish",
	spanAttach:        "node.attach",
	spanDatagram:      "node.datagram",
	spanDatagramFan1:  "node.datagram.fan1",
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; parent is the index of the span that was open when this one
// began (-1 at the top), so a layer's self time is its duration minus its
// children's.
type span struct {
	kind       spanKind
	rep        int32
	parent     int32
	start, end int64
}

// tracer records spans in memory; nothing is written until the run is over.
// A nil *tracer is the disabled tracer: begin and end do nothing and read no
// clock, so the same assembly code serves the traced and the plain pass.
type tracer struct {
	epoch time.Time
	rep   int32
	// repStart is the index of the current repetition's first span.
	repStart int
	open     int32
	spans    []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: -1, spans: make([]span, 0, 1<<16)}
}

// startRep opens repetition i: spans recorded from here on belong to it.
func (t *tracer) startRep(i int) {
	t.rep = int32(i)
	t.repStart = len(t.spans)
}

// reserve makes room for n more spans, so that recording them allocates
// nothing inside a region whose allocations are being counted.
func (t *tracer) reserve(n int) {
	if need := len(t.spans) + n; need > cap(t.spans) {
		grown := make([]span, len(t.spans), need)
		copy(grown, t.spans)
		t.spans = grown
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	idx := int32(len(t.spans))
	//lint:ignore handler-purity reason: the strategy decorator is reached from churn's handlers by design; host time is read, never fed back into the simulation, and the traced digest is checked equal to the plain one
	t.spans = append(t.spans, span{kind: k, rep: t.rep, parent: t.open, start: int64(time.Since(t.epoch))})
	t.open = idx
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	s := &t.spans[idx]
	//lint:ignore handler-purity reason: as in begin -- an outside-in timing decorator, not simulation input
	s.end = int64(time.Since(t.epoch))
	t.open = s.parent
}

// kindStats summarises the spans of one kind within one repetition.
type kindStats struct {
	count     int
	total     time.Duration // sum of durations
	self      time.Duration // total minus the part direct children cover
	durations []float64     // microseconds, in recording order
}

// analyze folds the spans of the current repetition into per-kind statistics.
func (t *tracer) analyze() [numSpanKinds]kindStats {
	var out [numSpanKinds]kindStats
	for i := t.repStart; i < len(t.spans); i++ {
		s := &t.spans[i]
		d := time.Duration(s.end - s.start)
		ks := &out[s.kind]
		ks.count++
		ks.total += d
		ks.self += d
		ks.durations = append(ks.durations, float64(d)/float64(time.Microsecond))
		if s.parent >= 0 {
			out[t.spans[s.parent].kind].self -= d
		}
	}
	return out
}

// childTotal sums the durations of the current repetition's spans of kind
// child whose direct parent is of kind parent.
func (t *tracer) childTotal(parent, child spanKind) time.Duration {
	var sum time.Duration
	for i := t.repStart; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.kind == child && s.parent >= 0 && t.spans[s.parent].kind == parent {
			sum += time.Duration(s.end - s.start)
		}
	}
	return sum
}

// spanRecord is the JSONL form of one span.
type spanRecord struct {
	ID      int    `json:"id"`
	Rep     int32  `json:"rep"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
}

// writeSpans writes every recorded span to path as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			err = fmt.Errorf("writing spans: %w", err)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := spanRecord{ID: i, Rep: s.rep, Name: spanNames[s.kind], StartNs: s.start, EndNs: s.end, Parent: s.parent}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}
