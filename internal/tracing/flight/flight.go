// Package flight is the live-node flight recorder: a fixed-size ring
// buffer of completed spans, cheap enough to leave on in production and
// dumpable over HTTP at /debug/trace next to /metrics. Like a cockpit
// recorder it keeps the last N episodes; older spans are overwritten, and
// the dump reports how many were recorded in total so truncation is
// visible. Mirrors the internal/metrics (sim) vs internal/metrics/live
// split: the tracing core stays deterministic and lock-free, this
// subpackage owns the mutex.
package flight

import (
	"fmt"
	"net/http"
	"sync"

	"omcast/internal/tracing"
)

// DefaultSize is the ring capacity when the caller passes none.
const DefaultSize = 4096

// Ring is a fixed-capacity span recorder. The zero value is unusable; use
// NewRing. A nil *Ring is a valid disabled recorder (Record is a no-op),
// so callers can pass it straight into node configuration unconditionally.
type Ring struct {
	mu    sync.Mutex
	buf   []tracing.Span
	next  int
	full  bool
	total uint64
}

// NewRing returns a recorder keeping the most recent size spans
// (DefaultSize when size <= 0).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultSize
	}
	return &Ring{buf: make([]tracing.Span, size)}
}

// Record implements tracing.Recorder.
func (r *Ring) Record(sp tracing.Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = sp
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (r *Ring) Snapshot() []tracing.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]tracing.Span, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]tracing.Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many spans were recorded over the ring's lifetime
// (including ones already overwritten).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Handler serves the ring as a JSONL span dump: one "span" line per
// retained span, oldest first, preceded by a comment-free X-Trace-Total
// header carrying the lifetime count.
func Handler(r *Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		spans := r.Snapshot()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Trace-Total", fmt.Sprintf("%d", r.Total()))
		// An error means the connection died mid-dump; nothing to do.
		_ = tracing.WriteJSONL(w, spans)
	})
}
