package topology

import (
	"testing"

	"omcast/internal/xrand"
)

// TestDelayAllocCeiling pins the delay oracle at zero allocations per
// lookup: Delay is pure table arithmetic (transit APSP plus per-domain
// intra-stub tables), and the simulation calls it on every packet path, so
// even one temporary per call would dominate the heap profile.
func TestDelayAllocCeiling(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TransitDomains = 2
	cfg.TransitNodesPerDomain = 4
	cfg.StubDomainsPerTransit = 2
	cfg.StubNodesPerDomain = 8
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	n := topo.Size()
	allocs := testing.AllocsPerRun(500, func() {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if d := topo.Delay(u, v); d < 0 {
			t.Fatalf("negative delay %v", d)
		}
	})
	if allocs > 0 {
		t.Fatalf("Delay allocates %.1f times per lookup, want 0", allocs)
	}
}

// TestGenerateAllocCeiling pins the paper-scale build at a fixed handful of
// allocations — the tables, the link list, the adjacency rows — independent
// of the router count: wiring that appends to a slice per router and a table
// per stub domain was 51 862 of them and a quarter of the build's time.
func TestGenerateAllocCeiling(t *testing.T) {
	cfg := DefaultConfig(1)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("New(DefaultConfig) allocates %.0f times, want <= 32", allocs)
	}
}
