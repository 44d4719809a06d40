// Package tracing owns the JSONL trace stream: one line type (Event), one
// encoder (Writer) and one reader (Parse), shared by simulated and live
// runs. Every event a trace records is a span: an *episode* — a rejoin from
// failure detection through per-attempt join requests to reattachment, a
// CER repair from gap detection through striped per-peer fetches to
// filled-or-abandoned, a ROST switch from initiation to commit, a
// starvation window from first missed playback slot to recovery — or an
// instantaneous one, Start == End, for a moment such as a member's first
// attach or its departure. The paper's headline resilience metrics (service
// interruption, starving-time ratio — §5 of TanJS06) are episode durations,
// so spans make them first-class timelines instead of artifacts of post-hoc
// scripting. Beside span lines a trace holds only "sample" lines, snapshots
// of a metrics registry.
//
// The package is deliberately sim-safe (it lives inside the lint tool's
// deterministic scope): no wall clock, no map iteration order leaks, no
// global counters. Span IDs derive from (seed, track, per-track sequence)
// via a splitmix64-style mix, so a trace is byte-identical across reruns
// and across `-workers` values — the worker pool never interleaves span
// emission because every span of a run is produced by that run's own
// single-threaded simulator.
//
// A Tracer is NOT safe for concurrent use; each owner (one simulation run,
// one live node) serialises access — the live node does so under its state
// mutex, mirroring how its metrics instruments are updated.
package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"omcast/internal/metrics"
)

// SchemaVersion is stamped into every trace line as "v" so downstream
// consumers can detect incompatible producers instead of misparsing them.
const SchemaVersion = 1

// Span kinds emitted by the instrumented layers. The analyzer and the
// Perfetto exporter treat kinds generically; these constants exist so the
// producers and the docs cannot drift apart silently.
const (
	KindJoin    = "join"    // first attach: a live node's boot episode, a simulated member's instant
	KindDepart  = "depart"  // a simulated member's abrupt departure (instantaneous)
	KindRejoin  = "rejoin"  // post-failure reattach episode
	KindAttempt = "attempt" // one join request within a join/rejoin episode
	KindRepair  = "repair"  // CER gap-recovery episode
	KindDetect  = "detect"  // failure/gap detection window within an episode
	KindFetch   = "fetch"   // one recovery server's striped share of a repair
	KindStall   = "stall"   // playback starvation window
	KindSwitch  = "switch"  // ROST tree-switch decision
	KindFault   = "fault"   // faultnet-injected fault window (annotation)
)

// Attr is one key/value annotation on a span. Values are strings so the
// wire shape stays closed; use the SpanBuilder helpers for numbers.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one completed episode (or stage of one). Start and End are
// seconds on the owner's clock: virtual time in the simulator, time since
// node start on a live node. Instantaneous decisions (a switch that backs
// off a locked neighbourhood) have Start == End.
type Span struct {
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Kind    string  `json:"kind"`
	Member  int64   `json:"member"`
	Node    string  `json:"node,omitempty"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Outcome string  `json:"outcome"`
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// Duration returns End-Start in seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Recorder receives completed spans. Implementations: Writer (spans as
// trace lines), the flight recorder ring, test collectors.
type Recorder interface {
	Record(Span)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Span)

// Record implements Recorder.
func (f RecorderFunc) Record(sp Span) { f(sp) }

// Tracer mints spans with deterministic IDs. A nil *Tracer is a valid
// disabled tracer: Start returns a nil builder and every builder method on
// nil is a no-op that allocates nothing, so instrumented hot paths pay one
// pointer check when tracing is off.
type Tracer struct {
	seed     int64
	node     string
	nodeMix  uint64
	sink     Recorder
	seqs     map[int64]uint64
	reusable SpanBuilder
	inUse    bool
}

// New returns a tracer whose span IDs derive from seed and whose completed
// spans go to sink. Returns nil (the disabled tracer) when sink is nil.
func New(seed int64, sink Recorder) *Tracer {
	return NewNode(seed, "", sink)
}

// NewNode is New for a live node: node (its address) is stamped on every
// span and mixed into the ID derivation so two nodes sharing a seed still
// mint distinct IDs.
func NewNode(seed int64, node string, sink Recorder) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{
		seed:    seed,
		node:    node,
		nodeMix: hashString(node),
		sink:    sink,
		seqs:    make(map[int64]uint64),
	}
}

// Start opens a root span. The returned builder must be finished with End
// (or dropped: unfinished spans are simply never recorded — the flight
// recorder semantics for episodes still open at dump time).
func (t *Tracer) Start(kind string, member int64, start time.Duration) *SpanBuilder {
	if t == nil {
		return nil
	}
	b := t.builder()
	b.sp = Span{
		ID:     t.nextID(member),
		Kind:   kind,
		Member: member,
		Node:   t.node,
		Start:  start.Seconds(),
	}
	return b
}

// builder reuses a single embedded SpanBuilder for the common
// non-overlapping case and allocates only when spans nest or interleave.
func (t *Tracer) builder() *SpanBuilder {
	if !t.inUse {
		t.inUse = true
		t.reusable = SpanBuilder{t: t}
		return &t.reusable
	}
	return &SpanBuilder{t: t}
}

// nextID derives the next span ID for member's track: a pure function of
// (seed, node, member, per-track sequence), so no cross-run or cross-worker
// state can leak into the trace.
func (t *Tracer) nextID(member int64) string {
	seq := t.seqs[member]
	t.seqs[member] = seq + 1
	return deriveID(t.seed, t.nodeMix^uint64(member)*0x9E3779B97F4A7C15, seq)
}

// SpanBuilder accumulates one span. All methods are nil-safe no-ops so
// call sites need no enabled-checks beyond the Start guard.
type SpanBuilder struct {
	t  *Tracer
	sp Span
}

// Attr annotates the span.
func (b *SpanBuilder) Attr(k, v string) *SpanBuilder {
	if b == nil {
		return nil
	}
	b.sp.Attrs = append(b.sp.Attrs, Attr{K: k, V: v})
	return b
}

// AttrInt annotates the span with an integer value.
func (b *SpanBuilder) AttrInt(k string, v int64) *SpanBuilder {
	if b == nil {
		return nil
	}
	return b.Attr(k, strconv.FormatInt(v, 10))
}

// AttrFloat annotates the span with a float value, in the shortest form
// that reads back exactly.
func (b *SpanBuilder) AttrFloat(k string, v float64) *SpanBuilder {
	if b == nil {
		return nil
	}
	return b.Attr(k, strconv.FormatFloat(v, 'g', -1, 64))
}

// Child opens a sub-span (a stage of the episode) on member's track.
func (b *SpanBuilder) Child(kind string, member int64, start time.Duration) *SpanBuilder {
	if b == nil {
		return nil
	}
	c := b.t.builder()
	c.sp = Span{
		ID:     b.t.nextID(member),
		Parent: b.sp.ID,
		Kind:   kind,
		Member: member,
		Node:   b.t.node,
		Start:  start.Seconds(),
	}
	return c
}

// End completes the span and hands it to the recorder. The builder must
// not be used afterwards.
func (b *SpanBuilder) End(end time.Duration, outcome string) {
	if b == nil {
		return
	}
	b.sp.End = end.Seconds()
	b.sp.Outcome = outcome
	b.t.sink.Record(b.sp)
	if b == &b.t.reusable {
		b.t.inUse = false
	}
}

// deriveID mixes (seed, track key, sequence) through the splitmix64
// finaliser and formats the result as 16 hex digits.
func deriveID(seed int64, track uint64, seq uint64) string {
	x := uint64(seed)*0xBF58476D1CE4E5B9 + track + seq*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	var buf [16]byte
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = hex[x&0xf]
		x >>= 4
	}
	return string(buf[:])
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Event is one line of the JSONL trace stream, simulated or live. "v", "t"
// (seconds on the producer's clock) and "event" are always present; there
// are two events:
//
//	sample — metrics (a full registry snapshot; no member)
//	span   — member, span (t is the span's end)
type Event struct {
	// V is the schema version (SchemaVersion), stamped by Writer.
	V     int     `json:"v"`
	T     float64 `json:"t"`
	Event string  `json:"event"`
	// Member is the span's member ID (absent on sample events and on the
	// spans of a live node, whose spans name their Node instead).
	Member  int64            `json:"member,omitempty"`
	Metrics []metrics.Metric `json:"metrics,omitempty"`
	Span    *Span            `json:"span,omitempty"`
}

// Writer is the one encoder of trace lines. It stamps every Event with
// SchemaVersion, keeps the first encoding error and drops every line after
// it. As a Recorder it writes each completed span as a "span" line. A nil
// *Writer is the untraced stream: every method is a no-op.
type Writer struct {
	enc *json.Encoder
	err error
}

// NewWriter returns a Writer over w, or nil when w is nil.
func NewWriter(w io.Writer) *Writer {
	if w == nil {
		return nil
	}
	return &Writer{enc: json.NewEncoder(w)}
}

// Emit writes ev as one line.
func (w *Writer) Emit(ev Event) {
	if w == nil || w.err != nil {
		return
	}
	ev.V = SchemaVersion
	w.err = w.enc.Encode(ev)
}

// Record implements Recorder.
func (w *Writer) Record(sp Span) {
	w.Emit(Event{T: sp.End, Event: "span", Member: sp.Member, Span: &sp})
}

// Err returns the first encoding error, if any.
func (w *Writer) Err() error {
	if w == nil || w.err == nil {
		return nil
	}
	return fmt.Errorf("tracing: writing trace: %w", w.err)
}

// WriteJSONL writes spans as "span" lines, one per span, in slice order.
func WriteJSONL(w io.Writer, spans []Span) error {
	tw := NewWriter(w)
	for _, sp := range spans {
		tw.Record(sp)
	}
	return tw.Err()
}
