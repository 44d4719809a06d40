// Package topology implements the underlying network used by the evaluation:
// a GT-ITM-style transit-stub internetwork. The paper generates a 15600-node
// topology (240 transit routers + 15360 stub routers) with link delays drawn
// uniformly from [15,25] ms between transit nodes, [5,9] ms between transit
// and stub nodes and [2,4] ms between stub nodes; multicast members are
// placed on randomly chosen stub routers.
//
// Instead of materialising an all-pairs matrix over 15600 nodes (~2 GB), the
// package exploits the transit-stub structure for an exact O(1) distance
// oracle: every stub domain is single-homed (one gateway edge to its transit
// router), so no shortest path can cut through a stub domain, and
//
//	d(u,v) = d_stub(u -> gw_u) + w(gw edge) + d_transit(t_u, t_v)
//	       + w(gw edge) + d_stub(gw_v -> v)
//
// with each stub router's delay up to its gateway (one search of its domain)
// and one all-pairs table over the 240-node transit core. Two routers of one
// stub domain, a fraction of a percent of queries, are answered by searching
// that domain on demand. Exactness against full-graph Dijkstra is verified in
// the tests.
//
// A Topology is immutable once built, generation is deterministic in its
// Config, and a build costs milliseconds where a query costs nanoseconds.
// Shared therefore hands every session that asks for one Config the same
// Topology; New is the uncached build underneath it. Everything is laid out
// flat at the width the delays have, int32 nanoseconds — one adjacency array
// of 8-byte entries, one 12-byte record per router, the transit tables — so a
// build makes a dozen allocations whatever the router count and Delay across
// domains is three reads (DESIGN.md §17, "Underlay: built once, read flat").
//
// A build wires the transit core, then runs two phases side by side as units
// of internal/parallel's worker pool: one unit wires the stub domains on the
// build's single RNG stream, the others search the core, each from its own
// range of sources into its own rows of the tables. Neither phase reads what
// the other writes, so every table is the same at any GOMAXPROCS.
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"omcast/internal/parallel"
	"omcast/internal/xrand"
)

// NodeID identifies a router in the underlying network. IDs are dense:
// transit routers come first (0 .. TransitCount-1), stub routers follow.
type NodeID int32

// None is the sentinel for "no node".
const None NodeID = -1

// Kind distinguishes transit routers from stub routers.
type Kind int

// Router kinds.
const (
	Transit Kind = iota + 1
	Stub
)

// String names the router kind.
func (k Kind) String() string {
	switch k {
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes the shape of a transit-stub topology. The zero value is
// not valid; start from DefaultConfig.
type Config struct {
	// Seed drives all random choices (wiring and delays).
	Seed int64

	// TransitDomains is the number of transit domains.
	TransitDomains int
	// TransitNodesPerDomain is the number of routers per transit domain.
	TransitNodesPerDomain int
	// StubDomainsPerTransit is the number of stub domains hanging off each
	// transit router.
	StubDomainsPerTransit int
	// StubNodesPerDomain is the number of routers per stub domain.
	StubNodesPerDomain int

	// TransitTransitDelay bounds the uniform delay of transit-transit links.
	TransitTransitDelay [2]time.Duration
	// TransitStubDelay bounds the uniform delay of gateway (transit-stub)
	// links.
	TransitStubDelay [2]time.Duration
	// StubStubDelay bounds the uniform delay of intra-stub-domain links.
	StubStubDelay [2]time.Duration

	// TransitChordProbability adds random intra-domain transit links on top
	// of the connectivity ring, per node pair.
	TransitChordProbability float64
	// StubChordProbability likewise for stub domains.
	StubChordProbability float64
	// ExtraInterDomainEdges adds random transit links between distinct
	// transit domains on top of the inter-domain ring.
	ExtraInterDomainEdges int
}

// DefaultConfig reproduces the paper's 15600-router topology: 6 transit
// domains x 40 routers = 240 transit routers, each transit router hosting 4
// stub domains of 16 routers = 15360 stub routers.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                    seed,
		TransitDomains:          6,
		TransitNodesPerDomain:   40,
		StubDomainsPerTransit:   4,
		StubNodesPerDomain:      16,
		TransitTransitDelay:     [2]time.Duration{15 * time.Millisecond, 25 * time.Millisecond},
		TransitStubDelay:        [2]time.Duration{5 * time.Millisecond, 9 * time.Millisecond},
		StubStubDelay:           [2]time.Duration{2 * time.Millisecond, 4 * time.Millisecond},
		TransitChordProbability: 0.05,
		StubChordProbability:    0.15,
		ExtraInterDomainEdges:   6,
	}
}

// Validate reports whether the configuration describes a buildable topology.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains <= 0:
		return fmt.Errorf("topology: TransitDomains = %d, want > 0", c.TransitDomains)
	case c.TransitNodesPerDomain <= 0:
		return fmt.Errorf("topology: TransitNodesPerDomain = %d, want > 0", c.TransitNodesPerDomain)
	case c.StubDomainsPerTransit < 0:
		return fmt.Errorf("topology: StubDomainsPerTransit = %d, want >= 0", c.StubDomainsPerTransit)
	case c.StubNodesPerDomain <= 0 && c.StubDomainsPerTransit > 0:
		return fmt.Errorf("topology: StubNodesPerDomain = %d, want > 0", c.StubNodesPerDomain)
	}
	for _, r := range [][2]time.Duration{c.TransitTransitDelay, c.TransitStubDelay, c.StubStubDelay} {
		if r[0] <= 0 || r[1] < r[0] {
			return fmt.Errorf("topology: delay range %v invalid", r)
		}
		if r[1] > maxDelay {
			return fmt.Errorf("topology: delay range %v exceeds %v, the widest delay the tables hold", r, maxDelay)
		}
	}
	// Written so that NaN fails: a NaN probability would wire no chords
	// silently and make the Config unequal to itself as a Shared key.
	for _, p := range [2]float64{c.TransitChordProbability, c.StubChordProbability} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("topology: chord probability %v outside [0,1]", p)
		}
	}
	if c.ExtraInterDomainEdges < 0 {
		return fmt.Errorf("topology: ExtraInterDomainEdges = %d, want >= 0", c.ExtraInterDomainEdges)
	}
	return nil
}

// TransitCount returns the number of transit routers the config implies.
func (c Config) TransitCount() int { return c.TransitDomains * c.TransitNodesPerDomain }

// StubCount returns the number of stub routers the config implies.
func (c Config) StubCount() int {
	return c.TransitCount() * c.StubDomainsPerTransit * c.StubNodesPerDomain
}

// maxDelay is the widest delay the build stores: links, transit-core
// distances and up delays are int32 nanoseconds, up to about 2.1 s, seven
// times the widest transit path (308 ms) of paper-scale seeds 0-19.
const maxDelay = time.Duration(math.MaxInt32)

// ringAndChords returns the mean and variance of the number of links in
// domains domains of n routers each: a ring, then a chord with probability p
// per pair at least two apart that is not the ring's closing pair.
func ringAndChords(domains, n int, p float64) (mean, variance float64) {
	if n < 2 {
		return 0, 0
	}
	pairs := max(0, float64(n-1)*float64(n-2)/2-1)
	return float64(domains) * (float64(n) + p*pairs), float64(domains) * p * (1 - p) * pairs
}

// coreLinkEstimate is the expected number of transit-core links plus four
// standard deviations of the chord draws, and halfEdgeEstimate the same for
// the whole graph's adjacency entries: the build appends to both without
// regrowing them on all but freak draws.
func (c Config) coreLinkEstimate() int {
	mean, variance := ringAndChords(c.TransitDomains, c.TransitNodesPerDomain, c.TransitChordProbability)
	return int(mean+4*math.Sqrt(variance)) + c.TransitDomains + c.ExtraInterDomainEdges + 16
}

func (c Config) halfEdgeEstimate() int {
	domains := c.TransitCount() * c.StubDomainsPerTransit
	mean, variance := ringAndChords(domains, c.StubNodesPerDomain, c.StubChordProbability)
	return 2 * (c.coreLinkEstimate() + int(mean+4*math.Sqrt(variance)) + domains)
}

// link is one undirected link of the wiring's scratch, in the order it was
// drawn.
type link struct {
	u, v  NodeID
	delay int32 // nanoseconds
}

// edge is one adjacency entry.
type edge struct {
	to    NodeID
	delay int32 // nanoseconds
}

// router is everything Delay needs to know about one endpoint, packed into
// 12 bytes so a query touches one record per router.
type router struct {
	// up is the delay to home in nanoseconds: the intra-domain path to the
	// gateway plus the gateway edge for a stub router, 0 for a transit
	// router.
	up int32
	// home is the router's own transit router: the one its stub domain
	// hangs off, or the router itself.
	home int32
	// domain is the stub domain index, -1 for a transit router.
	domain int32
}

// Topology is an immutable generated network. Safe for concurrent reads.
type Topology struct {
	cfg      Config
	transitN int
	stubN    int // routers per stub domain
	routers  []router
	// Adjacency in compressed rows: router u's links are
	// edges[adjStart[u]:adjStart[u+1]], in the order the wiring drew them.
	// The transit rows come first, each ending in one slot per stub domain
	// it hosts; each stub domain's rows follow in router order.
	adjStart []int32
	edges    []edge
	// transitDist is the all-pairs delay table over transit routers, in
	// nanoseconds.
	transitDist []int32 // T x T, row-major
	// homeOrder's row h lists every transit router in the order the
	// Dijkstra from h settled it: nondecreasing delay from h, h first.
	homeOrder []NodeID // T x T, row-major
}

// New generates a topology from cfg. Generation is deterministic in
// cfg.Seed. It fails if cfg is invalid or if a transit-core distance or a
// stub router's delay up to its transit router exceeds the int32
// nanoseconds the tables store.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.NewNamed(cfg.Seed, "topology")
	tn := cfg.TransitCount()
	t := &Topology{
		cfg:      cfg,
		transitN: tn,
		stubN:    cfg.StubNodesPerDomain,
		routers:  make([]router, tn+cfg.StubCount()),
		adjStart: make([]int32, tn+cfg.StubCount()+1),
		edges:    make([]edge, 0, cfg.halfEdgeEstimate()),
	}
	for i := 0; i < tn; i++ {
		t.routers[i] = router{home: int32(i), domain: -1}
	}

	core := wireTransitCore(cfg, rng, make([]link, 0, cfg.coreLinkEstimate()))
	t.appendRows(0, tn, cfg.StubDomainsPerTransit, core)
	t.transitDist = make([]int32, tn*tn)
	t.homeOrder = make([]NodeID, tn*tn)

	// The core is complete: only its rows' reserved gateway slots are left,
	// and only the stub wiring writes them. So unit 0 wires the stub domains
	// on the one RNG stream while the other units search the core, each over
	// a contiguous range of sources into its own rows of the tables, through
	// a view of the core taken now.
	g := t.coreRows()
	chunks, n := min(coreChunks, tn), t.stubN
	// Every unit's distances in one array, the wiring's first; every
	// chunk's heap in another.
	dist, items := make([]time.Duration, n+chunks*tn), make([]heapItem, chunks*tn)
	_, err := parallel.Run(0, 1+chunks, func(i int) (struct{}, error) {
		if i == 0 {
			return struct{}{}, t.wireStubDomains(rng, core[:0], dist[:n:n])
		}
		c := i - 1
		pq := delayHeap{items: items[c*tn : c*tn : (c+1)*tn]}
		own := dist[n+c*tn : n+(c+1)*tn]
		return struct{}{}, t.searchCore(g, c*tn/chunks, (c+1)*tn/chunks, own, &pq)
	})
	if err != nil {
		// The lowest failing unit's own error, without Run's "unit i:": the
		// wiring's first, then the first source in order, as sequentially.
		return nil, errors.Unwrap(err)
	}
	return t, nil
}

// coreChunks is how many units the transit-core searches are split into, so
// that a few workers balance them against the stub wiring, a third of the
// build's CPU. Every table is the same whatever the split and worker count.
const coreChunks = 8

// sharedCapacity is how many underlays Shared retains: enough for every seed
// of a replicated figure (experiments' default Replicas is 5) to stay
// resident while its units interleave, small enough that a long seed sweep
// holds about ten megabytes at paper scale and no more.
const sharedCapacity = 8

var shared = parallel.NewMemo(sharedCapacity, New)

// Shared returns the topology New(cfg) generates, generating it once per
// cfg for as long as cfg stays among the sharedCapacity most recently
// requested configs: sessions that run on the same underlay — every
// algorithm, size and recovery scheme of a figure — hold the same pointer.
// That is safe because a Topology is never written after New returns, and
// invisible in results because New is deterministic in cfg. Concurrent
// callers asking for one cfg wait for a single build; the lock that makes
// them wait lives in internal/parallel, outside the single-threaded
// simulation scope. Errors are not retained.
func Shared(cfg Config) (*Topology, error) {
	return shared.Get(cfg)
}

// wireTransitCore appends the transit-transit links to links.
func wireTransitCore(c Config, rng *xrand.Source, links []link) []link {
	ttDelay := func() int32 {
		return int32(rng.UniformDuration(c.TransitTransitDelay[0], c.TransitTransitDelay[1]))
	}
	// Intra-domain: a ring guarantees connectivity, random chords add mesh.
	for d := 0; d < c.TransitDomains; d++ {
		base := d * c.TransitNodesPerDomain
		n := c.TransitNodesPerDomain
		if n > 1 {
			for i := 0; i < n; i++ {
				links = append(links, link{NodeID(base + i), NodeID(base + (i+1)%n), ttDelay()})
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // ring edge already present
				}
				if rng.Float64() < c.TransitChordProbability {
					links = append(links, link{NodeID(base + i), NodeID(base + j), ttDelay()})
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
			links = append(links, link{u, v, ttDelay()})
		}
		for i := 0; i < c.ExtraInterDomainEdges; i++ {
			d1 := rng.Intn(c.TransitDomains)
			d2 := rng.Intn(c.TransitDomains)
			if d1 == d2 {
				continue
			}
			u := NodeID(d1*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
			v := NodeID(d2*c.TransitNodesPerDomain + rng.Intn(c.TransitNodesPerDomain))
			links = append(links, link{u, v, ttDelay()})
		}
	}
	return links
}

// wireStubDomains wires one stub domain after another through links and
// dist (one entry per router of a domain), scratch reused by each: it draws
// the domain's gateway and links, appends the domain's rows, puts the
// gateway's transit half-edge in its reserved slot of the transit router's
// row, and fills each router's record with the delay up from the domain's
// search. It fails if an up delay exceeds maxDelay.
func (t *Topology) wireStubDomains(rng *xrand.Source, links []link, dist []time.Duration) error {
	c := t.cfg
	n, perTransit := t.stubN, c.StubDomainsPerTransit
	ssDelay := func() int32 {
		return int32(rng.UniformDuration(c.StubStubDelay[0], c.StubStubDelay[1]))
	}
	open := make([]uint64, (n+63)/64)
	first := NodeID(t.transitN)
	for tr := 0; tr < t.transitN; tr++ {
		for s := 0; s < perTransit; s++ {
			gateway := link{
				u:     first + NodeID(rng.Intn(n)),
				v:     NodeID(tr),
				delay: int32(rng.UniformDuration(c.TransitStubDelay[0], c.TransitStubDelay[1])),
			}
			// Intra-domain ring + chords with stub-stub delays.
			links = links[:0]
			if n > 1 {
				for i := 0; i < n; i++ {
					links = append(links, link{first + NodeID(i), first + NodeID((i+1)%n), ssDelay()})
				}
			}
			for i := 0; i < n; i++ {
				for j := i + 2; j < n; j++ {
					if i == 0 && j == n-1 {
						continue
					}
					if rng.Float64() < c.StubChordProbability {
						links = append(links, link{first + NodeID(i), first + NodeID(j), ssDelay()})
					}
				}
			}
			// Single gateway edge keeps the domain single-homed, which is
			// what makes the hierarchical oracle exact. Its transit end
			// lies outside the domain's rows.
			links = append(links, gateway)
			t.appendRows(first, n, 0, links)
			t.edges[t.adjStart[tr+1]-int32(perTransit-s)] = edge{to: gateway.u, delay: gateway.delay}

			// Delays are symmetric: the search from the gateway is every
			// router's way up to it.
			t.domainSearch(gateway.u, None, dist, open)
			domain := int32(tr*perTransit + s)
			for i, d := range dist {
				up := d + time.Duration(gateway.delay)
				if up > maxDelay {
					return fmt.Errorf("topology: stub router %d is %v from its transit router, beyond the %v a delay table holds",
						first+NodeID(i), up, maxDelay)
				}
				t.routers[first+NodeID(i)] = router{up: int32(up), home: int32(tr), domain: domain}
			}
			first += NodeID(n)
		}
	}
	return nil
}

// appendRows appends the adjacency rows of the n routers from first on to
// edges and sets their adjStart entries: each router's half-edges of links,
// in list order, then reserve empty slots. A link end outside the n routers
// is the caller's to place. adjStart[first] must equal len(edges).
func (t *Topology) appendRows(first NodeID, n, reserve int, links []link) {
	start := t.adjStart[first : int(first)+n+1]
	base := start[0]
	for i := 1; i <= n; i++ {
		start[i] = int32(reserve)
	}
	for _, l := range links {
		if i := int(l.u - first); uint(i) < uint(n) {
			start[i+1]++
		}
		if i := int(l.v - first); uint(i) < uint(n) {
			start[i+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	t.edges = slices.Grow(t.edges, int(start[n]-base))[:start[n]]
	// start[i] serves as router i's cursor; afterwards it stands reserve
	// slots short of row i+1, and shifting the entries back up restores
	// the row starts.
	for _, l := range links {
		if i := int(l.u - first); uint(i) < uint(n) {
			t.edges[start[i]] = edge{to: l.v, delay: l.delay}
			start[i]++
		}
		if i := int(l.v - first); uint(i) < uint(n) {
			t.edges[start[i]] = edge{to: l.u, delay: l.delay}
			start[i]++
		}
	}
	for i := n; i > 0; i-- {
		start[i] = start[i-1] + int32(reserve)
	}
	start[0] = base
}

// linksOf returns router u's adjacency row.
func (t *Topology) linksOf(u NodeID) []edge {
	return t.edges[t.adjStart[u]:t.adjStart[u+1]]
}

// rows views adjacency rows 0..len(start)-1 for a search: row u is
// edges[start[u] : next-trim], next being start[u+1], or end for the last row.
type rows struct {
	edges     []edge
	start     []int32
	end, trim int32
}

func (g *rows) of(u NodeID) []edge {
	next := g.end
	if int(u)+1 < len(g.start) {
		next = g.start[u+1]
	}
	return g.edges[g.start[u] : next-g.trim]
}

// coreRows views the transit rows without their reserved gateway slots. Taken
// before the stub wiring starts, it holds its own copies of the edges header,
// which the wiring may regrow, and of the last row's end, adjStart[transitN],
// which the wiring's first domain rewrites; a search through it reads
// neither, nor any slot the wiring fills.
func (t *Topology) coreRows() rows {
	return rows{
		edges: t.edges,
		start: t.adjStart[:t.transitN],
		end:   t.adjStart[t.transitN],
		trim:  int32(t.cfg.StubDomainsPerTransit),
	}
}

// inf is an unreachable-distance sentinel; inf+inf does not overflow.
const inf = time.Duration(1) << 60

// searchCore fills rows lo..hi-1 of transitDist and homeOrder with one
// Dijkstra from each source over the transit core g (stub domains cannot
// carry through traffic), summing in int64 scratch. It fails if a distance
// exceeds maxDelay.
func (t *Topology) searchCore(g rows, lo, hi int, dist []time.Duration, pq *delayHeap) error {
	n := t.transitN
	for src := lo; src < hi; src++ {
		g.dijkstra(NodeID(src), dist, t.homeOrder[src*n:(src+1)*n], pq)
		for v, d := range dist {
			if d > maxDelay {
				return fmt.Errorf("topology: transit routers %d and %d are %v apart, beyond the %v a delay table holds",
					src, v, d, maxDelay)
			}
			t.transitDist[src*n+v] = int32(d)
		}
	}
	return nil
}

// dijkstra fills dist with shortest delays from src over g's rows — the
// transit core, or the whole graph — and order, unless nil, with the routers
// in the order they settle. Every router g reaches must be below len(dist).
// The graph is connected by construction (a ring per domain, a ring over
// domains, a gateway per stub domain), so every router settles exactly once:
// an entry is pushed only on a strict improvement, so only a router's last
// entry is not stale. pq must be empty and is left empty.
func (g *rows) dijkstra(src NodeID, dist []time.Duration, order []NodeID, pq *delayHeap) {
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
		if order != nil {
			order[settled] = u
			settled++
		}
		for _, e := range g.of(u) {
			if nd := du + time.Duration(e.delay); nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(e.to, nd)
			}
		}
	}
}

// domainScratch is the largest stub domain Delay searches on stack scratch:
// the paper's domains have 16 routers, SmallTopology's 8.
const domainScratch = 16

// intraDomain returns the delay between two routers of one stub domain,
// searching the domain on demand: such pairs are a fraction of a percent of
// Delay calls, too few to pay for a table per domain at every build.
func (t *Topology) intraDomain(u, v NodeID) time.Duration {
	var distBuf [domainScratch]time.Duration
	var openBuf [(domainScratch + 63) / 64]uint64
	dist, open := distBuf[:], openBuf[:]
	if t.stubN > domainScratch {
		dist, open = make([]time.Duration, t.stubN), make([]uint64, (t.stubN+63)/64)
	}
	t.domainSearch(u, v, dist[:t.stubN], open)
	return dist[v-t.domainFirst(u)]
}

// domainFirst returns the first router of stub router u's domain.
func (t *Topology) domainFirst(u NodeID) NodeID {
	return u - (u-NodeID(t.transitN))%NodeID(t.stubN)
}

// domainSearch runs Dijkstra from stub router src over its domain's own
// links into dist, indexed by offset in the domain, until router stop
// settles (None: until all have). The gateway edge leaves the domain and is
// skipped. Domains are a handful of routers, so the next to settle is found
// by scanning open, a bit per reached, unsettled router, not by a heap.
// Delays are positive integer nanoseconds, so no settled router reopens and
// every settled delay equals Floyd-Warshall's bit for bit.
func (t *Topology) domainSearch(src, stop NodeID, dist []time.Duration, open []uint64) {
	first := t.domainFirst(src)
	for i := range dist {
		dist[i] = inf
	}
	clear(open)
	s := int(src - first)
	dist[s], open[s/64] = 0, 1<<(s%64)
	for {
		next, dn := -1, inf
		for w, word := range open {
			for ; word != 0; word &= word - 1 {
				if i := w*64 + bits.TrailingZeros64(word); dist[i] < dn {
					next, dn = i, dist[i]
				}
			}
		}
		if next < 0 || first+NodeID(next) == stop {
			return
		}
		open[next/64] &^= 1 << (next % 64)
		for _, e := range t.linksOf(first + NodeID(next)) {
			j := int(e.to - first)
			if uint(j) >= uint(len(dist)) {
				continue // the gateway edge leaves the domain
			}
			if d := dn + time.Duration(e.delay); d < dist[j] {
				dist[j] = d
				open[j/64] |= 1 << (j % 64)
			}
		}
	}
}

// Size returns the total number of routers.
func (t *Topology) Size() int { return len(t.routers) }

// TransitCount returns the number of transit routers.
func (t *Topology) TransitCount() int { return t.transitN }

// StubCount returns the number of stub routers.
func (t *Topology) StubCount() int { return len(t.routers) - t.transitN }

// KindOf returns the router kind of id.
func (t *Topology) KindOf(id NodeID) Kind {
	if int(id) < t.transitN {
		return Transit
	}
	return Stub
}

// RandomStub returns a uniformly random stub router drawn from rng.
func (t *Topology) RandomStub(rng *xrand.Source) NodeID {
	return NodeID(t.transitN + rng.Intn(t.StubCount()))
}

// Degree returns the number of links incident to id.
func (t *Topology) Degree(id NodeID) int { return len(t.linksOf(id)) }

// VisitLinks calls fn once per undirected link (a < b), in ascending order
// of a. Used by exporters and structural tests.
func (t *Topology) VisitLinks(fn func(a, b NodeID, delay time.Duration)) {
	for u := range t.routers {
		for _, e := range t.linksOf(NodeID(u)) {
			if NodeID(u) < e.to {
				fn(NodeID(u), e.to, time.Duration(e.delay))
			}
		}
	}
}

// Delay returns the shortest-path delay between two routers, exact for the
// generated single-homed topologies (verified against full-graph Dijkstra in
// tests). Two routers of one stub domain search that domain; every other
// pair routes through both routers' home transit routers, so the answer is
// up[u] + transitDist[home u][home v] + up[v]; a transit router is its own
// home at up = 0, which folds the stub-transit and transit-transit cases
// into the same three reads. Delays are integer nanoseconds, so regrouping
// the sum changes no bit.
func (t *Topology) Delay(u, v NodeID) time.Duration {
	if u == v {
		return 0
	}
	ru, rv := t.routers[u], t.routers[v]
	if ru.domain == rv.domain && ru.domain >= 0 {
		return t.intraDomain(u, v)
	}
	return time.Duration(ru.up) + time.Duration(t.transitDist[int(ru.home)*t.transitN+int(rv.home)]) + time.Duration(rv.up)
}

// Home returns the transit router v's stub domain hangs off, or v itself when
// v is a transit router.
func (t *Topology) Home(v NodeID) NodeID { return NodeID(t.routers[v].home) }

// HomesByDelay lists every transit router in nondecreasing delay from transit
// router h, h first. The slice is the topology's own and must not be written.
//
// Stub domains are single-homed, so a path between routers with different
// homes leaves one domain through its gateway and enters the other through
// its own: when Home(u) != Home(v),
//
//	Delay(u, v) = Delay(u, Home(v)) + Delay(Home(v), v) >= Delay(u, Home(v)).
//
// Walking this row from Home(u) therefore meets every other router's home in
// nondecreasing lower bound on its delay from u, and Delay(u, w) for a
// transit router w is that bound itself, met with equality.
func (t *Topology) HomesByDelay(h NodeID) []NodeID {
	n := int(h) * t.transitN
	return t.homeOrder[n : n+t.transitN : n+t.transitN]
}

// DijkstraFrom computes exact shortest-path delays from src over the full
// graph. It exists for validation and for the distance-oracle ablation bench;
// hot paths use Delay.
func (t *Topology) DijkstraFrom(src NodeID) []time.Duration {
	n := len(t.routers)
	g := rows{edges: t.edges, start: t.adjStart[:n], end: t.adjStart[n]}
	dist := make([]time.Duration, n)
	g.dijkstra(src, dist, nil, &delayHeap{items: make([]heapItem, 0, n)})
	return dist
}

// delayHeap is a minimal binary heap specialised to (NodeID, delay) pairs;
// it avoids container/heap interface overhead in the hot APSP loops. Both
// sifts move a hole instead of swapping, one write per level.
type delayHeap struct {
	items []heapItem
}

type heapItem struct {
	delay time.Duration
	id    NodeID
}

func (h *delayHeap) len() int { return len(h.items) }

func (h *delayHeap) push(id NodeID, d time.Duration) {
	h.items = append(h.items, heapItem{})
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
	items[i] = heapItem{delay: d, id: id}
}

func (h *delayHeap) pop() (NodeID, time.Duration) {
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
