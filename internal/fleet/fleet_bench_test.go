package fleet

import "testing"

// BenchmarkAssign is the federation control plane's hot path: one
// capacity-aware assignment plus the matching release against a 16-source,
// 64-tree fleet. The scan is pinned allocation-free by this package's
// AllocsPerRun test; this benchmark times it.
func BenchmarkAssign(b *testing.B) {
	ctrl := NewController(16, 4, 32)
	// Half-load the fleet so the best-headroom scan works against a
	// non-trivial load vector rather than an all-zero one.
	for i := 0; i < 16*4*16; i++ {
		if _, ok := ctrl.Assign(); !ok {
			b.Fatal("fleet full during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, ok := ctrl.Assign()
		if !ok {
			b.Fatal("fleet full")
		}
		ctrl.Release(ref)
	}
}
