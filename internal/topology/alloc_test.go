package topology

import (
	"runtime"
	"testing"

	"omcast/internal/xrand"
)

// TestDelayAllocCeiling pins the delay oracle at zero allocations per
// lookup: Delay is table arithmetic across domains and a search on stack
// scratch within one, and the simulation calls it on every packet path, so
// even one temporary per call would dominate the heap profile. Same-domain
// pairs are drawn on purpose: random pairs almost never share a domain.
func TestDelayAllocCeiling(t *testing.T) {
	small := DefaultConfig(1)
	small.TransitDomains, small.TransitNodesPerDomain = 3, 8
	small.StubDomainsPerTransit, small.StubNodesPerDomain = 4, 8
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"paper shape", DefaultConfig(1)}, {"SmallTopology shape", small}} {
		topo := mustNew(t, tc.cfg)
		rng := xrand.New(2)
		for _, kind := range []pairKind{pairSameDomain, pairCrossTransit, pairStubTransit, pairTransitTransit} {
			allocs := testing.AllocsPerRun(500, func() {
				u, v, _ := drawPair(tc.cfg, rng, kind)
				if d := topo.Delay(u, v); d < 0 {
					t.Fatalf("negative delay %v", d)
				}
			})
			if allocs > 0 {
				t.Errorf("%s, %v: Delay allocates %.1f times per lookup, want 0", tc.name, kind, allocs)
			}
		}
	}
}

// TestGenerateAllocCeiling pins the paper-scale build at a fixed handful of
// allocations — the tables, the adjacency rows, the wiring and search
// scratch — independent of the router count: wiring that appends to a slice
// per router and a table per stub domain was 51 862 of them and a quarter of
// the build's time. It bounds the bytes too, about 6 % above the 1.32 MB
// the int32-nanosecond tables and rows and the core searches' scratch take:
// int64 delays, a whole-graph link list or a table per stub domain would
// each break it. It pins the pool's sequential path: at GOMAXPROCS 1
// parallel.Run calls the wiring unit, then each core-search chunk, on the
// caller's goroutine, so what it counts is the build's own, not the
// goroutines and error slice of the concurrent path.
func TestGenerateAllocCeiling(t *testing.T) {
	cfg := DefaultConfig(1)
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := New(cfg); err != nil { // warm up, as AllocsPerRun does
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > 16 {
		t.Errorf("New(DefaultConfig) allocates %d times, want <= 16", allocs)
	}
	if bytes > 1_400_000 {
		t.Errorf("New(DefaultConfig) allocates %d bytes, want <= 1 400 000", bytes)
	}
}
