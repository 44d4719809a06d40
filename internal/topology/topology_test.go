package topology

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"omcast/internal/xrand"
)

// connected reports whether every router is reachable from router 0.
func connected(t *Topology) bool {
	for _, d := range t.DijkstraFrom(0) {
		if d == inf {
			return false
		}
	}
	return true
}

// smallConfig returns a modest topology good for exhaustive checks.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.TransitDomains = 3
	cfg.TransitNodesPerDomain = 5
	cfg.StubDomainsPerTransit = 2
	cfg.StubNodesPerDomain = 6
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return topo
}

func TestValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no transit domains", func(c *Config) { c.TransitDomains = 0 }},
		{"negative transit routers", func(c *Config) { c.TransitNodesPerDomain = -1 }},
		{"negative stub domains", func(c *Config) { c.StubDomainsPerTransit = -2 }},
		{"empty stub domains", func(c *Config) { c.StubNodesPerDomain = 0 }},
		{"zero delay bound", func(c *Config) { c.TransitTransitDelay = [2]time.Duration{0, time.Millisecond} }},
		{"inverted delay range", func(c *Config) { c.StubStubDelay = [2]time.Duration{4 * time.Millisecond, 2 * time.Millisecond} }},
		{"transit chord probability > 1", func(c *Config) { c.TransitChordProbability = 1.5 }},
		{"stub chord probability < 0", func(c *Config) { c.StubChordProbability = -0.1 }},
		{"transit chord probability NaN", func(c *Config) { c.TransitChordProbability = math.NaN() }},
		{"stub chord probability NaN", func(c *Config) { c.StubChordProbability = math.NaN() }},
		{"stub chord probability +Inf", func(c *Config) { c.StubChordProbability = math.Inf(1) }},
		{"negative extra inter-domain edges", func(c *Config) { c.ExtraInterDomainEdges = -1 }},
	}
	for _, bad := range bads {
		cfg := DefaultConfig(1)
		bad.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: passed validation", bad.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New built it", bad.name)
		}
	}
	goods := []struct {
		name   string
		mutate func(*Config)
	}{
		{"probabilities at the bounds", func(c *Config) { c.TransitChordProbability, c.StubChordProbability = 0, 1 }},
		{"no extra inter-domain edges", func(c *Config) { c.ExtraInterDomainEdges = 0 }},
		{"no stub domains, no stub size", func(c *Config) { c.StubDomainsPerTransit, c.StubNodesPerDomain = 0, 0 }},
	}
	for _, ok := range goods {
		cfg := smallConfig(1)
		ok.mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", ok.name, err)
		}
		if key := cfg; key != cfg {
			t.Errorf("%s: a valid config does not equal its own copy, so it cannot key Shared", ok.name)
		}
	}
}

// TestDelayWidthBounds holds the build to the width it stores delays at,
// int32 nanoseconds: Validate refuses a link bound past it, and New refuses
// a transit-core distance or a stub router's way up to its transit router
// that would not fit, never narrowing one silently.
func TestDelayWidthBounds(t *testing.T) {
	tiers := []struct {
		name string
		tier func(*Config) *[2]time.Duration
	}{
		{"transit-transit", func(c *Config) *[2]time.Duration { return &c.TransitTransitDelay }},
		{"transit-stub", func(c *Config) *[2]time.Duration { return &c.TransitStubDelay }},
		{"stub-stub", func(c *Config) *[2]time.Duration { return &c.StubStubDelay }},
	}
	for _, tier := range tiers {
		cfg := DefaultConfig(1)
		tier.tier(&cfg)[1] = math.MaxInt32
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s bound of 2^31-1 ns: %v", tier.name, err)
		}
		tier.tier(&cfg)[1] = math.MaxInt32 + 1
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s bound of 2^31 ns passed validation", tier.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s bound of 2^31 ns: New built it", tier.name)
		}
	}

	// Links that fit but paths that do not: the SmallTopology shape, every
	// router at least two hops from some other.
	for _, tc := range []struct {
		name, want string
		tier       func(*Config) *[2]time.Duration
	}{
		{"transit core", "transit routers", tiers[0].tier},
		{"stub up", "stub router", tiers[2].tier},
	} {
		for seed := int64(0); seed < 5; seed++ {
			cfg := DefaultConfig(seed)
			cfg.TransitDomains, cfg.TransitNodesPerDomain = 3, 8
			cfg.StubDomainsPerTransit, cfg.StubNodesPerDomain = 4, 8
			*tc.tier(&cfg) = [2]time.Duration{1500 * time.Millisecond, 2 * time.Second}
			topo, err := New(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, seed %d: New = %v, %v; want an error naming %q", tc.name, seed, topo, err, tc.want)
			}
		}
	}
}

func TestCounts(t *testing.T) {
	cfg := smallConfig(7)
	topo := mustNew(t, cfg)
	wantTransit := 3 * 5
	wantStub := wantTransit * 2 * 6
	if topo.TransitCount() != wantTransit {
		t.Fatalf("TransitCount = %d, want %d", topo.TransitCount(), wantTransit)
	}
	if topo.StubCount() != wantStub {
		t.Fatalf("StubCount = %d, want %d", topo.StubCount(), wantStub)
	}
	if topo.Size() != wantTransit+wantStub {
		t.Fatalf("Size = %d, want %d", topo.Size(), wantTransit+wantStub)
	}
}

func TestPaperScaleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale topology in -short mode")
	}
	cfg := DefaultConfig(42)
	topo := mustNew(t, cfg)
	if topo.Size() != 15600 {
		t.Fatalf("paper topology has %d routers, want 15600", topo.Size())
	}
	if topo.TransitCount() != 240 {
		t.Fatalf("transit routers = %d, want 240", topo.TransitCount())
	}
	if topo.StubCount() != 15360 {
		t.Fatalf("stub routers = %d, want 15360", topo.StubCount())
	}
}

func TestKinds(t *testing.T) {
	topo := mustNew(t, smallConfig(3))
	for id := NodeID(0); id < NodeID(topo.Size()); id++ {
		want := Stub
		if int(id) < topo.TransitCount() {
			want = Transit
		}
		if got := topo.KindOf(id); got != want {
			t.Fatalf("KindOf(%d) = %v, want %v", id, got, want)
		}
	}
	if Transit.String() != "transit" || Stub.String() != "stub" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		topo := mustNew(t, smallConfig(seed))
		if !connected(topo) {
			t.Fatalf("topology with seed %d is disconnected", seed)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustNew(t, smallConfig(11))
	b := mustNew(t, smallConfig(11))
	rng := xrand.New(1)
	for i := 0; i < 500; i++ {
		u := NodeID(rng.Intn(a.Size()))
		v := NodeID(rng.Intn(a.Size()))
		if a.Delay(u, v) != b.Delay(u, v) {
			t.Fatalf("same seed produced different delays for (%d,%d)", u, v)
		}
	}
}

// TestBuildIndependentOfWorkers holds New to one result at any GOMAXPROCS:
// the stub wiring and the transit-core searches run as units of the worker
// pool, sequentially at 1 and side by side above it, and every table — ties
// in HomesByDelay's settle order included — and every error must be the
// same. The errors are the wiring's and the core's own, the wiring's first
// when both fail, never the pool's "unit i:" wrapping.
func TestBuildIndependentOfWorkers(t *testing.T) {
	small := func(c *Config) {
		c.TransitDomains, c.TransitNodesPerDomain = 3, 8
		c.StubDomainsPerTransit, c.StubNodesPerDomain = 4, 8
	}
	wide := [2]time.Duration{1500 * time.Millisecond, 2 * time.Second}
	for _, tc := range []struct {
		name, wantErr string
		mutate        func(*Config)
	}{
		{"paper shape", "", func(*Config) {}},
		{"equal delays", "", func(c *Config) {
			small(c)
			c.TransitTransitDelay = [2]time.Duration{20 * time.Millisecond, 20 * time.Millisecond}
			c.TransitStubDelay = [2]time.Duration{7 * time.Millisecond, 7 * time.Millisecond}
			c.StubStubDelay = [2]time.Duration{3 * time.Millisecond, 3 * time.Millisecond}
		}},
		{"core past maxDelay", "transit routers", func(c *Config) { small(c); c.TransitTransitDelay = wide }},
		{"up past maxDelay", "stub router", func(c *Config) { small(c); c.StubStubDelay = wide }},
		{"both past maxDelay", "stub router", func(c *Config) {
			small(c)
			c.TransitTransitDelay, c.StubStubDelay = wide, wide
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				cfg := DefaultConfig(seed)
				tc.mutate(&cfg)
				var first *Topology
				var firstErr string
				for _, procs := range []int{1, 2, 5} {
					prev := runtime.GOMAXPROCS(procs)
					topo, err := New(cfg)
					runtime.GOMAXPROCS(prev)
					if tc.wantErr != "" {
						if err == nil || !strings.Contains(err.Error(), tc.wantErr) || strings.Contains(err.Error(), "unit ") {
							t.Fatalf("seed %d, GOMAXPROCS %d: New = %v; want the build's own error naming %q", seed, procs, err, tc.wantErr)
						}
						if firstErr == "" {
							firstErr = err.Error()
						} else if err.Error() != firstErr {
							t.Errorf("seed %d, GOMAXPROCS %d: error %q, at 1: %q", seed, procs, err, firstErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("seed %d, GOMAXPROCS %d: %v", seed, procs, err)
					}
					if first == nil {
						first = topo
						continue
					}
					for _, diff := range []struct {
						table string
						equal bool
					}{
						{"edges", slices.Equal(topo.edges, first.edges)},
						{"adjStart", slices.Equal(topo.adjStart, first.adjStart)},
						{"routers", slices.Equal(topo.routers, first.routers)},
						{"transitDist", slices.Equal(topo.transitDist, first.transitDist)},
						{"homeOrder", slices.Equal(topo.homeOrder, first.homeOrder)},
					} {
						if !diff.equal {
							t.Errorf("seed %d, GOMAXPROCS %d: %s differs from GOMAXPROCS 1's", seed, procs, diff.table)
						}
					}
				}
			}
		})
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustNew(t, smallConfig(1))
	b := mustNew(t, smallConfig(2))
	diff := 0
	for u := NodeID(0); u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			if a.Delay(u, v) != b.Delay(u, v) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical delay structure")
	}
}

// TestOracleMatchesDijkstra is the key correctness property: the O(1)
// hierarchical oracle must agree exactly with full-graph Dijkstra.
func TestOracleMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		topo := mustNew(t, smallConfig(seed))
		for src := NodeID(0); src < NodeID(topo.Size()); src += 7 {
			dist := topo.DijkstraFrom(src)
			for v := NodeID(0); v < NodeID(topo.Size()); v++ {
				if got := topo.Delay(src, v); got != dist[v] {
					t.Fatalf("seed %d: Delay(%d,%d) = %v, Dijkstra says %v",
						seed, src, v, got, dist[v])
				}
			}
		}
	}
}

func TestDelaySymmetricAndZeroOnSelf(t *testing.T) {
	topo := mustNew(t, smallConfig(5))
	rng := xrand.New(2)
	for i := 0; i < 1000; i++ {
		u := NodeID(rng.Intn(topo.Size()))
		v := NodeID(rng.Intn(topo.Size()))
		if topo.Delay(u, u) != 0 {
			t.Fatalf("Delay(%d,%d) != 0", u, u)
		}
		if topo.Delay(u, v) != topo.Delay(v, u) {
			t.Fatalf("Delay not symmetric for (%d,%d)", u, v)
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	topo := mustNew(t, smallConfig(6))
	rng := xrand.New(3)
	for i := 0; i < 2000; i++ {
		u := NodeID(rng.Intn(topo.Size()))
		v := NodeID(rng.Intn(topo.Size()))
		w := NodeID(rng.Intn(topo.Size()))
		if topo.Delay(u, w) > topo.Delay(u, v)+topo.Delay(v, w) {
			t.Fatalf("triangle inequality violated for (%d,%d,%d)", u, v, w)
		}
	}
}

func TestDelayPositiveBetweenDistinct(t *testing.T) {
	topo := mustNew(t, smallConfig(8))
	rng := xrand.New(4)
	for i := 0; i < 1000; i++ {
		u := NodeID(rng.Intn(topo.Size()))
		v := NodeID(rng.Intn(topo.Size()))
		if u == v {
			continue
		}
		if topo.Delay(u, v) <= 0 {
			t.Fatalf("Delay(%d,%d) = %v, want > 0", u, v, topo.Delay(u, v))
		}
	}
}

// TestDelayRangesRespectConfig spot-checks that adjacent-router delays fall
// inside the configured uniform ranges (link-level property).
func TestDelayRangesRespectConfig(t *testing.T) {
	cfg := smallConfig(9)
	topo := mustNew(t, cfg)
	for u := 0; u < topo.Size(); u++ {
		for _, e := range topo.linksOf(NodeID(u)) {
			ku, kv := topo.KindOf(NodeID(u)), topo.KindOf(e.to)
			var lo, hi time.Duration
			switch {
			case ku == Transit && kv == Transit:
				lo, hi = cfg.TransitTransitDelay[0], cfg.TransitTransitDelay[1]
			case ku == Stub && kv == Stub:
				lo, hi = cfg.StubStubDelay[0], cfg.StubStubDelay[1]
			default:
				lo, hi = cfg.TransitStubDelay[0], cfg.TransitStubDelay[1]
			}
			if d := time.Duration(e.delay); d < lo || d >= hi {
				t.Fatalf("link %d(%v)-%d(%v) delay %v outside [%v,%v)",
					u, ku, e.to, kv, d, lo, hi)
			}
		}
	}
}

func TestStubDomainsSingleHomed(t *testing.T) {
	topo := mustNew(t, smallConfig(10))
	// Each stub domain must have exactly one edge leaving it.
	exits := make(map[int32]int)
	for u := 0; u < topo.Size(); u++ {
		dom := topo.routers[u].domain
		if dom < 0 {
			continue
		}
		for _, e := range topo.linksOf(NodeID(u)) {
			if topo.routers[e.to].domain != dom {
				exits[dom]++
			}
		}
	}
	if want := topo.StubCount() / topo.stubN; len(exits) != want {
		t.Fatalf("%d domains have exits, want %d", len(exits), want)
	}
	for dom, n := range exits {
		if n != 1 {
			t.Fatalf("stub domain %d has %d exit edges, want 1", dom, n)
		}
	}
}

func TestRandomStubIsStub(t *testing.T) {
	topo := mustNew(t, smallConfig(12))
	rng := xrand.New(5)
	for i := 0; i < 500; i++ {
		if s := topo.RandomStub(rng); topo.KindOf(s) != Stub {
			t.Fatalf("RandomStub returned non-stub %d", s)
		}
	}
}

func TestDegreePositive(t *testing.T) {
	topo := mustNew(t, smallConfig(13))
	for id := NodeID(0); id < NodeID(topo.Size()); id++ {
		if topo.Degree(id) == 0 {
			t.Fatalf("router %d has degree 0", id)
		}
	}
}

func TestSingleTransitDomain(t *testing.T) {
	cfg := smallConfig(14)
	cfg.TransitDomains = 1
	topo := mustNew(t, cfg)
	if !connected(topo) {
		t.Fatal("single-domain topology disconnected")
	}
	// Oracle still exact.
	dist := topo.DijkstraFrom(0)
	for v := NodeID(0); v < NodeID(topo.Size()); v++ {
		if topo.Delay(0, v) != dist[v] {
			t.Fatalf("oracle mismatch at %d", v)
		}
	}
}

func TestTinyStubDomains(t *testing.T) {
	cfg := smallConfig(15)
	cfg.StubNodesPerDomain = 1
	topo := mustNew(t, cfg)
	if !connected(topo) {
		t.Fatal("1-router stub domains disconnected")
	}
	dist := topo.DijkstraFrom(NodeID(topo.TransitCount())) // a stub router
	for v := NodeID(0); v < NodeID(topo.Size()); v++ {
		if topo.Delay(NodeID(topo.TransitCount()), v) != dist[v] {
			t.Fatalf("oracle mismatch at %d with singleton stub domains", v)
		}
	}
}

func TestNoStubDomains(t *testing.T) {
	cfg := smallConfig(16)
	cfg.StubDomainsPerTransit = 0
	topo := mustNew(t, cfg)
	if topo.StubCount() != 0 {
		t.Fatalf("StubCount = %d, want 0", topo.StubCount())
	}
	if !connected(topo) {
		t.Fatal("transit-only topology disconnected")
	}
}

func TestVisitLinks(t *testing.T) {
	topo := mustNew(t, smallConfig(17))
	count := 0
	degSum := 0
	topo.VisitLinks(func(a, b NodeID, delay time.Duration) {
		if a >= b {
			t.Fatalf("link (%d,%d) not canonically ordered", a, b)
		}
		if delay <= 0 {
			t.Fatalf("link (%d,%d) has delay %v", a, b, delay)
		}
		count++
	})
	for id := NodeID(0); int(id) < topo.Size(); id++ {
		degSum += topo.Degree(id)
	}
	if count != degSum/2 {
		t.Fatalf("VisitLinks saw %d links, degree sum says %d", count, degSum/2)
	}
}

// TestHomesByDelay holds each HomesByDelay row to its contract — it starts at
// h, is a permutation of the transit routers and never falls in Delay from h
// — and checks, against full-graph Dijkstra for every pair, the identity the
// relaxed joins prune by: routers with different homes are exactly as far
// apart as the first is from the second's home plus the second's way up to it.
func TestHomesByDelay(t *testing.T) {
	shapes := []func(*Config){
		func(*Config) {},
		func(c *Config) { c.TransitDomains, c.TransitNodesPerDomain = 1, 1 },
		func(c *Config) { c.TransitDomains, c.TransitNodesPerDomain = 4, 1 },
		func(c *Config) { c.StubDomainsPerTransit = 0 },
	}
	for i, shape := range shapes {
		cfg := smallConfig(int64(20 + i))
		shape(&cfg)
		topo := mustNew(t, cfg)
		n := topo.TransitCount()
		for h := NodeID(0); int(h) < n; h++ {
			row := topo.HomesByDelay(h)
			if len(row) != n || row[0] != h {
				t.Fatalf("shape %d: row %d has %d routers starting at %d, want %d starting at %d", i, h, len(row), row[0], n, h)
			}
			seen := make([]bool, n)
			for k, w := range row {
				if int(w) >= n || seen[w] {
					t.Fatalf("shape %d: row %d lists %d twice or a non-transit router", i, h, w)
				}
				seen[w] = true
				if k > 0 && topo.Delay(h, w) < topo.Delay(h, row[k-1]) {
					t.Fatalf("shape %d: row %d falls from %v to %v at position %d", i, h, topo.Delay(h, row[k-1]), topo.Delay(h, w), k)
				}
			}
		}
		dist := make([][]time.Duration, topo.Size())
		for u := range dist {
			dist[u] = topo.DijkstraFrom(NodeID(u))
		}
		for u := range dist {
			if hu := topo.Home(NodeID(u)); (int(hu) == u) != (topo.KindOf(NodeID(u)) == Transit) {
				t.Fatalf("shape %d: router %d is its own home: %v, a transit router: %v", i, u, int(hu) == u, topo.KindOf(NodeID(u)) == Transit)
			}
			for v := range dist {
				hv := topo.Home(NodeID(v))
				if topo.Home(NodeID(u)) == hv {
					continue
				}
				if got, want := dist[u][v], dist[u][hv]+dist[hv][v]; got != want || topo.Delay(NodeID(u), NodeID(v)) != want {
					t.Fatalf("shape %d: d(%d, %d) = %v (oracle %v), want d(%d, home %d) + d(home, %d) = %v",
						i, u, v, got, topo.Delay(NodeID(u), NodeID(v)), u, hv, v, want)
				}
			}
		}
	}
}
