package topology

import (
	"testing"
	"time"

	"omcast/internal/xrand"
)

// pairKind names the cases of the delay oracle a pair of routers can fall in.
type pairKind int

const (
	pairSelf pairKind = iota
	pairSameDomain
	pairSameTransit // two stub domains of one transit router
	pairCrossTransit
	pairStubTransit
	pairTransitStub
	pairTransitTransit
	pairKinds
)

func (k pairKind) String() string {
	return [...]string{"u == v", "stub/stub same domain", "stub/stub same transit router",
		"stub/stub cross transit", "stub/transit", "transit/stub", "transit/transit"}[k]
}

// drawPair draws a pair of the given kind, or reports that cfg's shape has
// none (no stub domains, a single transit router, ...).
func drawPair(cfg Config, rng *xrand.Source, kind pairKind) (u, v NodeID, ok bool) {
	tn, n, perTransit := cfg.TransitCount(), cfg.StubNodesPerDomain, cfg.StubDomainsPerTransit
	domains := tn * perTransit
	stubIn := func(domain int) NodeID { return NodeID(tn + domain*n + rng.Intn(n)) }
	transit := func() NodeID { return NodeID(rng.Intn(tn)) }
	switch kind {
	case pairSelf:
		u = NodeID(rng.Intn(tn + cfg.StubCount()))
		return u, u, true
	case pairSameDomain:
		if domains == 0 || n < 2 {
			return 0, 0, false
		}
		d := rng.Intn(domains)
		u, v = stubIn(d), stubIn(d)
		return u, v, u != v
	case pairSameTransit:
		if perTransit < 2 {
			return 0, 0, false
		}
		tr := rng.Intn(tn)
		a, b := rng.Intn(perTransit), rng.Intn(perTransit)
		return stubIn(tr*perTransit + a), stubIn(tr*perTransit + b), a != b
	case pairCrossTransit:
		if domains == 0 || tn < 2 {
			return 0, 0, false
		}
		a, b := rng.Intn(tn), rng.Intn(tn)
		return stubIn(a*perTransit + rng.Intn(perTransit)), stubIn(b*perTransit + rng.Intn(perTransit)), a != b
	case pairStubTransit:
		if domains == 0 {
			return 0, 0, false
		}
		return stubIn(rng.Intn(domains)), transit(), true
	case pairTransitStub:
		if domains == 0 {
			return 0, 0, false
		}
		return transit(), stubIn(rng.Intn(domains)), true
	default: // pairTransitTransit
		u, v = transit(), transit()
		return u, v, u != v
	}
}

// wholeDomains is how many seeded stub domains a sampled comparison checks
// pair by pair.
const wholeDomains = 24

// checkLayoutMatchesReference builds cfg both ways and requires the same
// graph in the same order, the same HomesByDelay rows and the same delay for
// every pair asked about: all of them when sampled is 0, otherwise that many
// seeded pairs spread evenly over the pair kinds plus every pair inside
// wholeDomains seeded stub domains. It returns how many pairs of each kind
// it compared.
func checkLayoutMatchesReference(t *testing.T, cfg Config, sampled int) (seen [pairKinds]int) {
	t.Helper()
	ref, err := newReference(cfg)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	topo := mustNew(t, cfg)
	if topo.Size() != len(ref.adj) {
		t.Fatalf("Size = %d, reference has %d routers", topo.Size(), len(ref.adj))
	}

	// Same links, every router's row in the same (insertion) order.
	for u := range ref.adj {
		id := NodeID(u)
		if topo.Degree(id) != ref.Degree(id) {
			t.Fatalf("Degree(%d) = %d, reference %d", u, topo.Degree(id), ref.Degree(id))
		}
		for i, e := range topo.linksOf(id) {
			if (refEdge{e.to, time.Duration(e.delay)}) != ref.adj[u][i] {
				t.Fatalf("router %d link %d = %+v, reference %+v", u, i, e, ref.adj[u][i])
			}
		}
	}
	type visit struct {
		a, b NodeID
		d    time.Duration
	}
	var want []visit
	ref.VisitLinks(func(a, b NodeID, d time.Duration) { want = append(want, visit{a, b, d}) })
	i := 0
	topo.VisitLinks(func(a, b NodeID, d time.Duration) {
		if i >= len(want) || want[i] != (visit{a, b, d}) {
			t.Fatalf("VisitLinks call %d = (%d,%d,%v), reference sequence differs", i, a, b, d)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("VisitLinks made %d calls, reference %d", i, len(want))
	}

	// Every transit router's homes in the reference Dijkstra's settle order,
	// ties included.
	tn := ref.transitN
	for h := NodeID(0); int(h) < tn; h++ {
		row, want := topo.HomesByDelay(h), ref.homeOrder[int(h)*tn:int(h+1)*tn]
		if len(row) != len(want) {
			t.Fatalf("HomesByDelay(%d) has %d routers, reference %d", h, len(row), len(want))
		}
		for k, w := range row {
			if w != want[k] {
				t.Fatalf("HomesByDelay(%d)[%d] = %d, reference settled %d", h, k, w, want[k])
			}
		}
	}

	compare := func(u, v NodeID) {
		if got, want := topo.Delay(u, v), ref.Delay(u, v); got != want {
			t.Fatalf("Delay(%d,%d) = %v, reference %v", u, v, got, want)
		}
	}
	if sampled == 0 {
		for u := NodeID(0); int(u) < topo.Size(); u++ {
			for v := NodeID(0); int(v) < topo.Size(); v++ {
				compare(u, v)
			}
		}
	} else {
		rng := xrand.NewNamed(cfg.Seed, "layout.pairs")
		for i := 0; i < sampled; i++ {
			kind := pairKind(i % int(pairKinds))
			if u, v, ok := drawPair(cfg, rng, kind); ok {
				compare(u, v)
				seen[kind]++
			}
		}
		// Each same-domain Delay is a search of its own, so compare every
		// pair inside some whole domains as well.
		n, domains := cfg.StubNodesPerDomain, tn*cfg.StubDomainsPerTransit
		for i := 0; i < wholeDomains && domains > 0; i++ {
			first := NodeID(tn + rng.Intn(domains)*n)
			for a := first; a < first+NodeID(n); a++ {
				for b := first; b < first+NodeID(n); b++ {
					compare(a, b)
					seen[pairSameDomain]++
				}
			}
		}
	}

	// And both still agree with shortest paths over the whole graph.
	step := 1
	if topo.Size() > 200 {
		step = topo.Size()/8 + 1
	}
	for src := NodeID(0); int(src) < topo.Size(); src += NodeID(step) {
		for v, d := range topo.DijkstraFrom(src) {
			if got := topo.Delay(src, NodeID(v)); got != d {
				t.Fatalf("Delay(%d,%d) = %v, Dijkstra says %v", src, v, got, d)
			}
		}
	}
	return seen
}

// TestLayoutMatchesReference holds the flat build, the three-read Delay and
// its on-demand stub searches to the per-router-append build, Floyd-Warshall
// tables and five-case Delay they replaced (reference_test.go): same RNG
// draws, so the same links in the same order, the same transit settle order,
// and the same integer-nanosecond delay for every pair.
func TestLayoutMatchesReference(t *testing.T) {
	shape := func(transitDomains, transitNodes, stubDomains, stubNodes int) func(*Config) {
		return func(c *Config) {
			c.TransitDomains, c.TransitNodesPerDomain = transitDomains, transitNodes
			c.StubDomainsPerTransit, c.StubNodesPerDomain = stubDomains, stubNodes
		}
	}
	small := []struct {
		name  string
		shape func(*Config)
	}{
		{"SmallTopology", shape(3, 8, 4, 8)},
		{"test shape", shape(3, 5, 2, 6)},
		{"one transit domain", shape(1, 5, 2, 6)},
		{"one router per transit domain", shape(4, 1, 2, 5)},
		{"two transit domains of two", shape(2, 2, 1, 3)},
		{"a single transit router", shape(1, 1, 3, 4)},
		{"2-router stub domains", shape(3, 4, 3, 2)},
		{"1-router stub domains", shape(3, 4, 3, 1)},
		{"no stub domains", shape(3, 6, 0, 6)},
		{"no stub domains, no stub size", shape(2, 3, 0, 0)},
		{"dense chords", func(c *Config) {
			shape(2, 6, 2, 7)(c)
			c.TransitChordProbability, c.StubChordProbability, c.ExtraInterDomainEdges = 1, 1, 40
		}},
		{"no chords", func(c *Config) {
			shape(3, 5, 2, 6)(c)
			c.TransitChordProbability, c.StubChordProbability, c.ExtraInterDomainEdges = 0, 0, 0
		}},
		// One delay per tier ties most paths, so the settle order of equal
		// delays and the stub searches' ties are pinned too.
		{"equal delays", func(c *Config) {
			shape(3, 8, 4, 8)(c)
			c.TransitTransitDelay = [2]time.Duration{20 * time.Millisecond, 20 * time.Millisecond}
			c.TransitStubDelay = [2]time.Duration{7 * time.Millisecond, 7 * time.Millisecond}
			c.StubStubDelay = [2]time.Duration{3 * time.Millisecond, 3 * time.Millisecond}
		}},
	}
	const seeds = 20
	for _, tc := range small {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				cfg := DefaultConfig(seed)
				tc.shape(&cfg)
				checkLayoutMatchesReference(t, cfg, 0)
			}
		})
	}
	t.Run("paper scale", func(t *testing.T) {
		n := int64(seeds)
		if testing.Short() {
			n = 2
		}
		var seen [pairKinds]int
		for seed := int64(0); seed < n; seed++ {
			for k, c := range checkLayoutMatchesReference(t, DefaultConfig(seed), 100_000) {
				seen[k] += c
			}
		}
		for k, c := range seen {
			if c < 10_000 {
				t.Errorf("%v: only %d pairs compared", pairKind(k), c)
			}
		}
	})
}
