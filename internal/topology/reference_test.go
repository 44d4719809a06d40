package topology

import (
	"time"

	"omcast/internal/xrand"
)

// This file is the underlay as it was built and queried before the flat
// layout and the on-demand stub searches: per-router append wiring, the
// branching Floyd-Warshall over one table allocation per stub domain, the
// transit Dijkstra that walks past every gateway edge and records its settle
// order on its own copy of the binary heap, so a production queue that broke
// ties differently would show, and the five-case Delay that walks the
// stubDomain structs. It is kept verbatim (types renamed ref*, delays still
// int64 nanoseconds) as the oracle TestLayoutMatchesReference compares the
// production build against.

// refEdge is one undirected adjacency entry.
type refEdge struct {
	to    NodeID
	delay time.Duration
}

// refStubDomain holds the hierarchical routing state of one stub domain.
type refStubDomain struct {
	first NodeID // first router ID in the domain; routers are contiguous
	size  int
	// gatewayStub is the stub router carrying the edge to the transit core.
	gatewayStub NodeID
	// transit is the transit router the domain attaches to.
	transit NodeID
	// gatewayDelay is the delay of the gateway edge.
	gatewayDelay time.Duration
	// dist is the intra-domain all-pairs delay table, indexed by local
	// offsets (id - first).
	dist []time.Duration // size x size, row-major
}

func (d *refStubDomain) intra(u, v NodeID) time.Duration {
	return d.dist[int(u-d.first)*d.size+int(v-d.first)]
}

type refTopology struct {
	cfg     Config
	adj     [][]refEdge
	kinds   []Kind
	domain  []int32 // stub router -> stub domain index; -1 for transit
	domains []refStubDomain
	// transitDist is the all-pairs delay table over transit routers.
	transitDist []time.Duration // T x T, row-major
	// homeOrder's row h lists every transit router in the order the
	// Dijkstra from h settled it.
	homeOrder []NodeID // T x T, row-major
	transitN  int
}

func newReference(cfg Config) (*refTopology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.NewNamed(cfg.Seed, "topology")
	tn := cfg.TransitCount()
	total := tn + cfg.StubCount()

	t := &refTopology{
		cfg:      cfg,
		adj:      make([][]refEdge, total),
		kinds:    make([]Kind, total),
		domain:   make([]int32, total),
		transitN: tn,
	}
	for i := 0; i < total; i++ {
		if i < tn {
			t.kinds[i] = Transit
		} else {
			t.kinds[i] = Stub
		}
		t.domain[i] = -1
	}

	t.wireTransitCore(rng)
	t.wireStubDomains(rng)
	t.buildTransitAPSP()
	t.buildStubAPSP()
	return t, nil
}

// addEdge inserts an undirected link.
func (t *refTopology) addEdge(u, v NodeID, delay time.Duration) {
	t.adj[u] = append(t.adj[u], refEdge{to: v, delay: delay})
	t.adj[v] = append(t.adj[v], refEdge{to: u, delay: delay})
}

func (t *refTopology) wireTransitCore(rng *xrand.Source) {
	c := t.cfg
	ttDelay := func() time.Duration {
		return rng.UniformDuration(c.TransitTransitDelay[0], c.TransitTransitDelay[1])
	}
	// Intra-domain: a ring guarantees connectivity, random chords add mesh.
	for d := 0; d < c.TransitDomains; d++ {
		base := d * c.TransitNodesPerDomain
		n := c.TransitNodesPerDomain
		if n > 1 {
			for i := 0; i < n; i++ {
				t.addEdge(NodeID(base+i), NodeID(base+(i+1)%n), ttDelay())
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // ring edge already present
				}
				if rng.Float64() < c.TransitChordProbability {
					t.addEdge(NodeID(base+i), NodeID(base+j), ttDelay())
				}
			}
		}
	}
	// Inter-domain: ring over domains plus extra random cross links.
	if c.TransitDomains > 1 {
		for d := 0; d < c.TransitDomains; d++ {
			u := NodeID(d*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
			next := (d + 1) % c.TransitDomains
			v := NodeID(next*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
			t.addEdge(u, v, ttDelay())
		}
		for i := 0; i < c.ExtraInterDomainEdges; i++ {
			d1 := rng.Intn(c.TransitDomains)
			d2 := rng.Intn(c.TransitDomains)
			if d1 == d2 {
				continue
			}
			u := NodeID(d1*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
			v := NodeID(d2*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
			t.addEdge(u, v, ttDelay())
		}
	}
}

func (t *refTopology) wireStubDomains(rng *xrand.Source) {
	c := t.cfg
	next := NodeID(t.transitN)
	nDomains := t.transitN * c.StubDomainsPerTransit
	t.domains = make([]refStubDomain, 0, nDomains)
	for tr := 0; tr < t.transitN; tr++ {
		for s := 0; s < c.StubDomainsPerTransit; s++ {
			n := c.StubNodesPerDomain
			dom := refStubDomain{
				first:        next,
				size:         n,
				transit:      NodeID(tr),
				gatewayStub:  next + NodeID(rng.Intn(n)),
				gatewayDelay: rng.UniformDuration(c.TransitStubDelay[0], c.TransitStubDelay[1]),
			}
			idx := int32(len(t.domains))
			// Intra-domain ring + chords with stub-stub delays.
			ssDelay := func() time.Duration {
				return rng.UniformDuration(c.StubStubDelay[0], c.StubStubDelay[1])
			}
			if n > 1 {
				for i := 0; i < n; i++ {
					t.addEdge(next+NodeID(i), next+NodeID((i+1)%n), ssDelay())
				}
			}
			for i := 0; i < n; i++ {
				t.domain[next+NodeID(i)] = idx
				for j := i + 2; j < n; j++ {
					if i == 0 && j == n-1 {
						continue
					}
					if rng.Float64() < c.StubChordProbability {
						t.addEdge(next+NodeID(i), next+NodeID(j), ssDelay())
					}
				}
			}
			// Single gateway edge keeps the domain single-homed, which is
			// what makes the hierarchical oracle exact.
			t.addEdge(dom.gatewayStub, dom.transit, dom.gatewayDelay)
			t.domains = append(t.domains, dom)
			next += NodeID(n)
		}
	}
}

// buildTransitAPSP runs Dijkstra from every transit router over the transit
// core only (stub domains cannot carry through traffic).
func (t *refTopology) buildTransitAPSP() {
	n := t.transitN
	t.transitDist = make([]time.Duration, n*n)
	t.homeOrder = make([]NodeID, n*n)
	pq := newRefDelayHeap(n)
	for src := 0; src < n; src++ {
		t.dijkstraTransit(NodeID(src), t.transitDist[src*n:(src+1)*n], t.homeOrder[src*n:(src+1)*n], pq)
	}
}

// linksOf returns router u's adjacency row.
func (t *refTopology) linksOf(u NodeID) []refEdge { return t.adj[u] }

// dijkstraTransit fills dist (length transitN) with shortest delays from src
// using only transit-transit edges, and order with the routers in the order
// they settle. The transit core is connected by construction (a ring per
// domain, a ring over domains), so every router settles exactly once: an
// entry is pushed only on a strict improvement, so only a router's last entry
// is not stale. pq must be empty and is left empty.
func (t *refTopology) dijkstraTransit(src NodeID, dist []time.Duration, order []NodeID, pq *refDelayHeap) {
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	pq.push(src, 0)
	settled := 0
	for pq.len() > 0 {
		u, du := pq.pop()
		if du > dist[u] {
			continue
		}
		order[settled] = u
		settled++
		for _, e := range t.linksOf(u) {
			if int(e.to) >= t.transitN {
				continue // skip stub edges
			}
			if nd := du + e.delay; nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(e.to, nd)
			}
		}
	}
}

// buildStubAPSP computes per-domain all-pairs tables with Floyd-Warshall
// (domains are small, typically 16 routers).
func (t *refTopology) buildStubAPSP() {
	for di := range t.domains {
		dom := &t.domains[di]
		n := dom.size
		dist := make([]time.Duration, n*n)
		for i := range dist {
			dist[i] = inf
		}
		for i := 0; i < n; i++ {
			dist[i*n+i] = 0
			u := dom.first + NodeID(i)
			for _, e := range t.adj[u] {
				if t.domain[e.to] != int32(di) {
					continue // the gateway edge leaves the domain
				}
				j := int(e.to - dom.first)
				if e.delay < dist[i*n+j] {
					dist[i*n+j] = e.delay
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				dik := dist[i*n+k]
				if dik == inf {
					continue
				}
				for j := 0; j < n; j++ {
					if nd := dik + dist[k*n+j]; nd < dist[i*n+j] {
						dist[i*n+j] = nd
					}
				}
			}
		}
		dom.dist = dist
	}
}

// Degree returns the number of links incident to id.
func (t *refTopology) Degree(id NodeID) int { return len(t.adj[id]) }

// VisitLinks calls fn once per undirected link (a < b), in ascending order
// of a. Used by exporters and structural tests.
func (t *refTopology) VisitLinks(fn func(a, b NodeID, delay time.Duration)) {
	for u := range t.adj {
		for _, e := range t.adj[u] {
			if NodeID(u) < e.to {
				fn(NodeID(u), e.to, e.delay)
			}
		}
	}
}

// Delay returns the shortest-path delay between two routers using the
// hierarchical oracle. It is exact for the generated single-homed topologies
// (verified against full-graph Dijkstra in tests).
func (t *refTopology) Delay(u, v NodeID) time.Duration {
	if u == v {
		return 0
	}
	du, dv := t.domain[u], t.domain[v]
	switch {
	case du < 0 && dv < 0: // transit <-> transit
		return t.transitDist[int(u)*t.transitN+int(v)]
	case du < 0: // transit -> stub
		return t.stubToTransit(v, u)
	case dv < 0: // stub -> transit
		return t.stubToTransit(u, v)
	case du == dv: // same stub domain
		return t.domains[du].intra(u, v)
	default: // stub -> stub across domains
		su, sv := &t.domains[du], &t.domains[dv]
		return su.intra(u, su.gatewayStub) + su.gatewayDelay +
			t.transitDist[int(su.transit)*t.transitN+int(sv.transit)] +
			sv.gatewayDelay + sv.intra(sv.gatewayStub, v)
	}
}

// stubToTransit returns the delay from stub router s to transit router tr.
func (t *refTopology) stubToTransit(s, tr NodeID) time.Duration {
	dom := &t.domains[t.domain[s]]
	return dom.intra(s, dom.gatewayStub) + dom.gatewayDelay +
		t.transitDist[int(dom.transit)*t.transitN+int(tr)]
}

// refDelayHeap is a minimal binary heap specialised to (NodeID, delay) pairs;
// it avoids container/heap interface overhead in the hot APSP loops. Both
// sifts move a hole instead of swapping, one write per level.
type refDelayHeap struct {
	items []refHeapItem
}

type refHeapItem struct {
	delay time.Duration
	id    NodeID
}

func newRefDelayHeap(capacity int) *refDelayHeap {
	return &refDelayHeap{items: make([]refHeapItem, 0, capacity)}
}

func (h *refDelayHeap) len() int { return len(h.items) }

func (h *refDelayHeap) push(id NodeID, d time.Duration) {
	h.items = append(h.items, refHeapItem{})
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if items[parent].delay <= d {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = refHeapItem{delay: d, id: id}
}

func (h *refDelayHeap) pop() (NodeID, time.Duration) {
	top := h.items[0]
	last := len(h.items) - 1
	moved := h.items[last]
	h.items = h.items[:last]
	items := h.items
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && items[r].delay < items[child].delay {
			child = r
		}
		if items[child].delay >= moved.delay {
			break
		}
		items[i] = items[child]
		i = child
	}
	if last > 0 {
		items[i] = moved
	}
	return top.id, top.delay
}
