package tracing

import (
	"testing"
	"time"
)

// BenchmarkSpanEmit is the tracing hot path: open an episode, annotate it,
// end a child stage and the episode itself — the per-repair cost the
// streaming layer pays when span tracing is enabled (the disabled path is
// pinned to zero allocations by this package's AllocsPerRun test).
func BenchmarkSpanEmit(b *testing.B) {
	sink := RecorderFunc(func(Span) {})
	tr := New(1, sink)
	at := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(KindRepair, int64(i%128), at).AttrInt("first", int64(i))
		sp.Child(KindFetch, int64(i%128), at).End(at+time.Second, "striped")
		sp.End(at+2*time.Second, "filled")
		at += time.Millisecond
	}
}
