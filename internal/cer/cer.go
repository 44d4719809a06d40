// Package cer implements the paper's second contribution: the Cooperative
// Error Recovery protocol (Section 4).
//
// When a member's parent fails, rejoining the tree takes tens of seconds
// (failure detection plus parent re-finding). During that window the member
// retrieves the lost stream from a recovery group. CER's two ideas are:
//
//   - Minimum-loss-correlation (MLC) groups: recovery nodes are chosen from
//     different subtrees so that one overlay failure is unlikely to take out
//     several of them at once (Algorithm 1, run on the partial tree a node
//     can reconstruct from its bounded membership knowledge).
//
//   - Multi-source striped recovery: a single recovery node usually lacks
//     the residual bandwidth to re-supply a full-rate stream, so the missing
//     sequence space is partitioned across the group: the first node with
//     residual bandwidth e1 takes packets with (n mod 100) < 100*e1, the
//     second the next slice, and so on until the slices cover the full rate
//     or the group is exhausted.
//
// Planning is one path: AppendServers turns a selected group into an
// episode's server list, layoutStripes divides the missing sequence space
// among those servers, and PlanRecoveryInto turns that into per-packet repair
// arrival times, which the stream package folds into playback accounting. A
// traced run also asks ServerPlans how the same arrivals split by server.
// The single-source baseline of Figure 14 (recovery list used one node at a
// time, no striping) is planned by the same code with Striped=false.
package cer

import (
	"math"
	"slices"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// DefaultKnowledge is how many members a node is assumed to know about when
// reconstructing the partial tree ("each node will know about a medium-sized
// (e.g., 100) subset of other nodes").
const DefaultKnowledge = 100

// Selector picks recovery groups for a member.
type Selector interface {
	// Select returns up to k recovery members for self, best candidates
	// first (callers contact them in the returned order). The group may be
	// the selector's own buffer, valid until its next Select.
	Select(self *overlay.Member, k int) []*overlay.Member
}

// MLCSelector implements Algorithm 1 over the partial tree built from a
// bounded random sample of the membership. The zero value of the unexported
// scratch is ready to use: it is sized on the first Select, not at assembly.
type MLCSelector struct {
	Tree *overlay.Tree
	Rng  *xrand.Source
	// Delay orders the resulting group by network distance.
	Delay func(a, b topology.NodeID) time.Duration

	mlc    MLC
	sample []int32
	delays []time.Duration
	group  []*overlay.Member
}

var _ Selector = (*MLCSelector)(nil)

// Select implements Selector: MLC.Group over the tree's slot arrays for one
// membership sample, drawn first. Warm, it allocates nothing: the group is
// the selector's buffer.
func (s *MLCSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	s.sample = s.Tree.SampleSlots(s.Rng, DefaultKnowledge, self.Slot(), s.sample[:0])
	if len(s.sample) == 0 {
		return nil
	}
	s.mlc.excl.onTree(s.Tree, self)
	s.mlc.pt.root = s.Tree.Root().Slot()
	v := s.Tree.SlotView()
	group := s.group[:0]
	for _, c := range s.mlc.Group(s.sample, k, s.Rng) {
		group = append(group, v.Member(c))
	}
	s.group = group
	s.delays = orderByDistance(self, group, s.Delay, s.delays)
	return group
}

// RandomSelector picks recovery nodes uniformly from the sampled membership
// with the same exclusions but no loss-correlation awareness. It is the
// selection baseline (ablation) and the Figure 14 baseline's recovery list.
type RandomSelector struct {
	Tree  *overlay.Tree
	Rng   *xrand.Source
	Delay func(a, b topology.NodeID) time.Duration

	excl   exclusion
	sample []int32
	delays []time.Duration
	group  []*overlay.Member
}

var _ Selector = (*RandomSelector)(nil)

// Select implements Selector: the first k usable members of one sample, in
// sample order.
func (s *RandomSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	s.excl.onTree(s.Tree, self)
	s.sample = s.Tree.SampleSlots(s.Rng, DefaultKnowledge, self.Slot(), s.sample[:0])
	v := s.Tree.SlotView()
	group := s.group[:0]
	for _, c := range s.sample {
		if !s.excl.usable(c) {
			continue
		}
		group = append(group, v.Member(c))
		if len(group) == k {
			break
		}
	}
	s.group = group
	s.delays = orderByDistance(self, group, s.Delay, s.delays)
	return group
}

// orderByDistance sorts group by network distance from self, nearest first,
// keeping the selection order among equals. Each delay is evaluated once into
// keys (returned for reuse); groups are a handful of members, so a stable
// insertion sort beats a general one.
func orderByDistance(self *overlay.Member, group []*overlay.Member, delay func(a, b topology.NodeID) time.Duration, keys []time.Duration) []time.Duration {
	if delay == nil || len(group) < 2 {
		return keys
	}
	keys = keys[:0]
	for _, g := range group {
		keys = append(keys, delay(self.Attach(), g.Attach()))
	}
	for i := 1; i < len(group); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			group[j], group[j-1] = group[j-1], group[j]
		}
	}
	return keys
}

// MLC is Algorithm 1 (§4.1) over a tree held as dense per-index arrays:
// parent[i] (-1 at the root and when detached) and depth[i] (root 0, -1 when
// detached). MLCSelector passes the tree's slot arrays, the live node the tree
// its view's ancestor paths describe. The zero value is ready to use.
type MLC struct {
	excl exclusion
	pt   partialTree
}

// Reset readies a selection for self (-1 for none) under root over the
// arrays, which must hold still until Group returns.
func (a *MLC) Reset(parent, depth []int32, root, self int32) {
	a.excl.reset(parent, depth, self, cap(parent))
	a.pt.root = root
}

// Ban excludes index i from this selection's group.
func (a *MLC) Ban(i int32) { a.excl.ban(i) }

// Group returns up to k indices, in Algorithm 1's order and valid until the
// next call: build the partial tree T from the root paths of self and the
// sample, find the first level Li with |Li| < K <= |Li+1|, collect K subtree
// roots G0 by repeatedly picking random children of Li nodes, then derive G
// by picking one random known descendant per subtree root, topped up from T
// if that falls short. Self's path and subtree and banned indices are never
// picked: their losses are maximally correlated with self's. The RNG is
// drawn in a fixed order every figure depends on: one Shuffle per Li node (or
// one over the widest level), one Intn per subtree root with a usable
// descendant, one Shuffle for the top-up.
func (a *MLC) Group(sample []int32, k int, rng *xrand.Source) []int32 {
	pt, x := &a.pt, &a.excl
	pt.build(x, sample)
	pt.picked = pt.picked[:0]
	for _, r := range pt.subtreeRoots(rng, k) {
		if cands := pt.usableUnder(x, r, nil); len(cands) > 0 {
			pt.picked = append(pt.picked, cands[rng.Intn(len(cands))])
		}
	}
	if len(pt.picked) < k {
		cands := pt.usableUnder(x, pt.root, pt.picked)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		pt.picked = append(pt.picked, cands[:min(len(cands), k-len(pt.picked))]...)
	}
	return pt.picked
}

// advance readies an epoch-stamped scratch over n dense indices for a new
// call: it returns the scratch covering every index and the epoch that means
// "touched this call". A stale stamp never equals the new epoch, so nothing
// is cleared between calls. The scratch is sized to reserve — for the
// simulator's tree, its reservation (Tree.Reserved) — so a run that reserved
// its slots makes it once, and one whose tree outgrows that follows the
// tree's own growth.
func advance[T any](scratch []T, epoch uint32, n, reserve int) ([]T, uint32) {
	if len(scratch) < n {
		return make([]T, reserve), 1
	}
	if epoch+1 == 0 { // wrapped: stale stamps could collide
		clear(scratch)
		return scratch, 1
	}
	return scratch, epoch + 1
}

// exclusion is the recovery-node filter MLC and RandomSelector share. It
// rejects candidates whose losses are inherently correlated with self: self's
// ancestors (they fail with self's path) and self's descendants (they receive
// the stream through self), plus banned indices. Self's root path and the
// bans are one set of epoch stamps.
type exclusion struct {
	parent, depth []int32
	reserve       int      // what scratch over the indices is sized to
	self          int32    // self's index; -1 when self has none
	selfDepth     int32    // -1 while self is detached
	out           []uint32 // index is self, an ancestor of self or banned iff == epoch
	epoch         uint32
}

func (x *exclusion) reset(parent, depth []int32, self int32, reserve int) {
	x.parent, x.depth, x.reserve, x.self, x.selfDepth = parent, depth, reserve, self, -1
	x.out, x.epoch = advance(x.out, x.epoch, len(parent), reserve)
	if self >= 0 {
		x.selfDepth = depth[self]
	}
	for i := self; i >= 0; i = parent[i] {
		x.out[i] = x.epoch
	}
}

func (x *exclusion) ban(i int32) { x.out[i] = x.epoch }

// onTree readies x for self over tree's slot arrays.
func (x *exclusion) onTree(tree *overlay.Tree, self *overlay.Member) {
	parent, depth := tree.Shape()
	x.reset(parent, depth, self.Slot(), tree.Reserved())
}

// usable reports whether index c may serve self. Self is on its own path, so
// the path stamp rejects it too.
func (x *exclusion) usable(c int32) bool {
	if x.depth[c] < 0 || x.out[c] == x.epoch {
		return false
	}
	if x.selfDepth < 0 {
		return true // nothing attached descends from a detached self
	}
	// c descends from self iff its ancestor at self's depth is self.
	for d := x.depth[c]; d > x.selfDepth; d-- {
		c = x.parent[c]
	}
	return c != x.self
}

// none is the "no node" link of the partial tree's child lists.
const none int32 = -1

// ptNode is one dense index of the partial tree: its intrusive child list,
// valid iff stamp equals the tree's epoch.
type ptNode struct {
	stamp       uint32
	first, last int32 // T-children in first-seen-edge order
	next        int32 // next sibling in the parent's list
}

// partialTree is the tree a node reconstructs from the ancestor paths of the
// members it knows about. Node identity is the real member (the ancestor
// lists carry addresses), but edges reflect only sampled paths. It lives in
// caller-owned scratch indexed like the view's arrays, so building it costs
// the nodes it touches and no garbage.
type partialTree struct {
	nodes []ptNode
	epoch uint32
	root  int32
	// width[d] counts T's nodes at depth d. Root paths enter T whole, so a
	// node's depth in T is its depth in the view.
	width []int32
	// bfs is T's levels concatenated, listed only as deep as one call reads.
	bfs    []int32
	spans  []kidSpan
	roots  []int32
	stack  []int32
	cands  []int32
	picked []int32
}

// kidSpan is one Li node's not-yet-chosen children: a stretch [next, end) of
// level Li+1.
type kidSpan struct{ next, end int32 }

// build assembles T from the root paths of self (the node knows its own path
// as well) and of the sampled indices.
func (pt *partialTree) build(x *exclusion, sample []int32) {
	pt.nodes, pt.epoch = advance(pt.nodes, pt.epoch, len(x.parent), x.reserve)
	pt.width = append(pt.width[:0], 0)
	pt.enter(pt.root, 0)
	pt.addPath(x, x.self)
	for _, c := range sample {
		pt.addPath(x, c)
	}
}

// enter puts index i, at depth d, into T if it is not there yet and reports
// whether it was.
func (pt *partialTree) enter(i, d int32) (known bool) {
	n := &pt.nodes[i]
	if n.stamp == pt.epoch {
		return true
	}
	*n = ptNode{stamp: pt.epoch, first: none, last: none, next: none}
	pt.width[d]++
	return false
}

// addPath adds the root path of index cur to T. The climb stops at the first
// node already in T: its own path was added with it, so every edge above is
// in T too. The root is entered up front, so an attached index's climb always
// ends. A self with no place has index -1 and no path.
func (pt *partialTree) addPath(x *exclusion, cur int32) {
	if cur < 0 || x.depth[cur] < 0 {
		return
	}
	d := x.depth[cur]
	for int32(len(pt.width)) <= d {
		pt.width = append(pt.width, 0)
	}
	known := pt.enter(cur, d)
	for !known {
		parent := x.parent[cur]
		d--
		known = pt.enter(parent, d)
		p := &pt.nodes[parent]
		if p.last == none {
			p.first = cur
		} else {
			pt.nodes[p.last].next = cur
		}
		p.last = cur
		cur = parent
	}
}

// listLevel lists T breadth-first down to depth d and returns level d, the
// tail of bfs; level d-1 sits right before it.
func (pt *partialTree) listLevel(d int) []int32 {
	pt.bfs = append(pt.bfs[:0], pt.root)
	lo := 0
	for ; d > 0; d-- {
		hi := len(pt.bfs)
		for _, v := range pt.bfs[lo:hi] {
			for c := pt.nodes[v].first; c != none; c = pt.nodes[c].next {
				pt.bfs = append(pt.bfs, c)
			}
		}
		lo = hi
	}
	return pt.bfs[lo:]
}

// subtreeRoots implements steps 2-3 of Algorithm 1: find the first level Li
// with |Li| < K <= |Li+1| and gather K distinct subtree roots from the
// children of Li. It shuffles inside bfs, which is not read as levels again.
func (pt *partialTree) subtreeRoots(rng *xrand.Source, k int) []int32 {
	w := pt.width
	li := -1
	for i := 0; i+1 < len(w); i++ {
		if int(w[i]) < k && k <= int(w[i+1]) {
			li = i
			break
		}
	}
	if li == -1 {
		// No level pair brackets K (narrow or shallow partial tree): use the
		// widest level as the root set directly.
		widest := 0
		for i := range w {
			if w[i] > w[widest] {
				widest = i
			}
		}
		roots := pt.listLevel(widest)
		rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
		return roots[:min(len(roots), k)]
	}
	// Level li+1 is the children of Li's nodes, concatenated in Li order:
	// shuffle each node's stretch (empty and single-child ones too — the
	// call is part of the draw sequence), then deal round-robin, one
	// not-yet-chosen child per Li node, until K roots are gathered.
	kids := pt.listLevel(li + 1)
	lvl := pt.bfs[len(pt.bfs)-len(kids)-int(w[li]) : len(pt.bfs)-len(kids)]
	off := int32(0)
	pt.spans = pt.spans[:0]
	for _, v := range lvl {
		end := off
		for c := pt.nodes[v].first; c != none; c = pt.nodes[c].next {
			end++
		}
		cs := kids[off:end]
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		pt.spans = append(pt.spans, kidSpan{next: off, end: end})
		off = end
	}
	pt.roots = pt.roots[:0]
	for len(pt.roots) < k { // ends: the spans hold |Li+1| >= K children
		for i := range pt.spans {
			sp := &pt.spans[i]
			if sp.next == sp.end {
				continue
			}
			pt.roots = append(pt.roots, kids[sp.next])
			sp.next++
			if len(pt.roots) == k {
				break
			}
		}
	}
	return pt.roots
}

// usableUnder lists, in pre-order, the slots of top's partial subtree (top
// included) whose members can serve as recovery nodes and are not in skip.
// The result is scratch, valid until the next call.
func (pt *partialTree) usableUnder(x *exclusion, top int32, skip []int32) []int32 {
	pt.cands = pt.cands[:0]
	pt.stack = append(pt.stack[:0], top)
	for len(pt.stack) > 0 {
		i := pt.stack[len(pt.stack)-1]
		pt.stack = pt.stack[:len(pt.stack)-1]
		n := &pt.nodes[i]
		if x.usable(i) && !slices.Contains(skip, i) {
			pt.cands = append(pt.cands, i)
		}
		// The sibling waits under the first child, so n's subtree comes first.
		if i != top && n.next != none {
			pt.stack = append(pt.stack, n.next)
		}
		if n.first != none {
			pt.stack = append(pt.stack, n.first)
		}
	}
	return pt.cands
}

// LossCorrelation returns w(a, b): the number of shared overlay edges on the
// root paths of a and b (the paper's loss-correlation function). Exported
// for tests and the MLC-vs-random ablation.
func LossCorrelation(a, b *overlay.Member) int {
	// Walk both up to equal depth, then in lockstep until the paths merge;
	// every step after the merge point is a shared edge.
	da, db := a.Depth(), b.Depth()
	x, y := a, b
	for da > db {
		x = x.Parent()
		da--
	}
	for db > da {
		y = y.Parent()
		db--
	}
	for x != y {
		x, y = x.Parent(), y.Parent()
		da--
	}
	// x == y is the lowest common ancestor at depth da; the shared edges are
	// those from the LCA up to the root.
	return da
}

// GroupLossCorrelation sums pairwise loss correlations over a group.
//
//lint:ignore test-only-export reason: cer's tests score MLC groups against random ones with it; the planned measured-loss-correlation report is its production reader
func GroupLossCorrelation(group []*overlay.Member) int {
	total := 0
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			total += LossCorrelation(group[i], group[j])
		}
	}
	return total
}

// Server is one usable recovery node in an episode.
type Server struct {
	Member *overlay.Member
	// Epsilon is the node's residual bandwidth as a fraction of the stream
	// rate (the paper draws residual bandwidth uniformly from 0-9 packets
	// per second against a 10 packet-per-second stream).
	Epsilon float64
	// ChainDelay is the accumulated request-forwarding latency until this
	// server sees the request (the NACK chain of Section 4.2).
	ChainDelay time.Duration
	// Transfer is the server-to-requester delivery delay.
	Transfer time.Duration
}

// Episode describes one outage to plan recovery for.
type Episode struct {
	// FirstMissing and LastMissing bound the missing sequence numbers
	// (inclusive).
	FirstMissing, LastMissing int64
	// RequestAt is when the repair request goes out (failure time plus
	// detection delay).
	RequestAt time.Duration
	// ResumeAt is when the live feed resumes (failure time plus detection
	// plus rejoin) — from this point the group's residual bandwidth serves
	// the uncovered backlog.
	ResumeAt time.Duration
	// Rate is the stream rate in packets per second; packet n is generated
	// at n/Rate seconds.
	Rate float64
	// Striped selects CER's multi-source striping; false plans the
	// single-source baseline (only the first server's residual bandwidth is
	// used, as in PRM-style recovery).
	Striped bool
}

// ServerPlan is one recovery server's share of a planned episode: the
// per-peer fetch detail behind a repair span. Phase is "striped" for the
// sequence-space slice a server supplies directly and "backlog" for the
// group's post-resume catch-up (attributed to the lead server, whose
// transfer path the backlog packets take).
type ServerPlan struct {
	Server  Server
	Phase   string
	Packets int
	// First and Last bound the arrival times of this share's packets.
	First, Last time.Duration
}

// gen returns the generation time of packet n.
func (ep *Episode) gen(n int64) time.Duration {
	return time.Duration(float64(n) / ep.Rate * float64(time.Second))
}

// Lost marks a packet with no repair arrival in a PlanRecoveryInto result.
const Lost time.Duration = -1

// AppendServers walks a recovery group in NACK-chain order (requester ->
// g1 -> g2 -> ..., Section 4.2) and appends the members that can serve to
// dst. The chain delay accumulates over every hop: a member whose own feed
// is down still forwards the request. residual reports a member's residual
// bandwidth as a fraction of the stream rate, or false if it cannot help.
func AppendServers(dst []Server, self *overlay.Member, group []*overlay.Member, delay func(a, b topology.NodeID) time.Duration, residual func(g *overlay.Member) (epsilon float64, ok bool)) []Server {
	chain := time.Duration(0)
	prev := self
	for _, g := range group {
		chain += delay(prev.Attach(), g.Attach())
		prev = g
		if eps, ok := residual(g); ok {
			dst = append(dst, Server{
				Member:     g,
				Epsilon:    eps,
				ChainDelay: chain,
				Transfer:   delay(g.Attach(), self.Attach()),
			})
		}
	}
	return dst
}

// stripeSlice is one server's share [lo, hi) of the (n mod 100)/100 space.
type stripeSlice struct {
	lo, hi float64
	srv    Server
}

// stripeLayout divides an episode's missing sequence space among its
// servers: the striped slices in server order, then the lead server and
// aggregate residual rate (packets per second) that drain what the slices
// leave uncovered once the live feed resumes. A zero rate means nobody has
// bandwidth to spare: every packet is lost.
type stripeLayout struct {
	slices []stripeSlice
	lead   Server
	rate   float64
}

// layoutStripes lays out an episode, appending its striped slices to dst[:0].
// PlanRecoveryInto passes a stack array that holds the slices of any recovery
// group the figures run (K <= 4 servers, so at most four slices), so planning
// an episode allocates no layout; a larger group spills to the heap.
// ServerPlans, which only tracing calls, passes nil.
func layoutStripes(dst []stripeSlice, ep Episode, servers []Server) stripeLayout {
	l := stripeLayout{slices: dst[:0]}
	if ep.Rate <= 0 {
		return l
	}
	usable := servers
	if !ep.Striped {
		// Single-source baseline: the request walks the list until a node
		// with spare bandwidth answers; only that node's residual bandwidth
		// is used.
		usable = nil
		for i, s := range servers {
			if s.Epsilon > 0 {
				usable = servers[i : i+1]
				break
			}
		}
	}
	cum, aggregate := 0.0, 0.0
	for _, s := range usable {
		if s.Epsilon <= 0 {
			continue
		}
		aggregate += s.Epsilon
		if cum < 1 {
			hi := math.Min(1, cum+s.Epsilon)
			l.slices = append(l.slices, stripeSlice{lo: cum, hi: hi, srv: s})
			cum = hi
		}
	}
	if aggregate > 0 {
		l.lead = usable[0]
		l.rate = aggregate * ep.Rate
	}
	return l
}

// InStripe reports whether packet n falls in the stripe [lo, hi) of the
// (n mod 100)/100 sequence space (§4.2): the one slice test, which the
// planner's sliceOf and the live node's repair server both evaluate.
func InStripe(n int64, lo, hi float64) bool {
	frac := float64(n%100) / 100
	return frac >= lo && frac < hi
}

// sliceOf returns the index of the striped slice that supplies packet n, or
// -1 when n is left to the backlog phase.
func (l *stripeLayout) sliceOf(n int64) int {
	for i := range l.slices {
		if InStripe(n, l.slices[i].lo, l.slices[i].hi) {
			return i
		}
	}
	return -1
}

// PlanRecoveryInto computes repair arrivals for an episode: element i of the
// returned slice holds the repair arrival time of packet FirstMissing+i, or
// Lost for packets the group cannot supply. buf is reused when large enough.
//
// Striped phase: the missing-sequence space is partitioned by (n mod 100)
// slices proportional to each server's epsilon, in server order. A covered
// packet arrives at max(request reaching the server, the packet reaching the
// server) plus the transfer delay.
//
// Backlog phase: packets left uncovered (total epsilon below one, or the
// single-source baseline) are served in sequence order after the live feed
// resumes, at the group's aggregate residual rate; their arrival times grow
// linearly with queue position. Whether they beat their playback deadlines
// is the buffer-size trade-off of Figure 13.
func PlanRecoveryInto(ep Episode, servers []Server, buf []time.Duration) []time.Duration {
	count := ep.LastMissing - ep.FirstMissing + 1
	if count <= 0 {
		return buf[:0]
	}
	if int64(cap(buf)) < count {
		buf = make([]time.Duration, count)
	} else {
		buf = buf[:count]
	}
	for i := range buf {
		buf[i] = Lost
	}
	var scratch [8]stripeSlice
	l := layoutStripes(scratch[:0], ep, servers)
	if l.rate <= 0 {
		return buf
	}
	backlog := int64(0)
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		if i := l.sliceOf(n); i >= 0 {
			srv := &l.slices[i].srv
			at := ep.RequestAt + srv.ChainDelay
			at = max(at, ep.gen(n)) // live forwarding of not-yet-generated packets
			buf[n-ep.FirstMissing] = at + srv.Transfer
			continue
		}
		service := time.Duration(float64(backlog+1) / l.rate * float64(time.Second))
		buf[n-ep.FirstMissing] = ep.ResumeAt + service + l.lead.Transfer
		backlog++
	}
	return buf
}

// ServerPlans breaks the arrivals PlanRecoveryInto produced for (ep,
// servers) down by supplying server: the striped shares in server order,
// then the backlog share, omitting shares with no packet (an episode can be
// narrower than the stripe layout). Tracing only.
func ServerPlans(ep Episode, servers []Server, arrivals []time.Duration) []ServerPlan {
	l := layoutStripes(nil, ep, servers)
	if l.rate <= 0 {
		return nil
	}
	backlog := len(l.slices)
	shares := make([]ServerPlan, backlog+1)
	for i := range l.slices {
		shares[i] = ServerPlan{Server: l.slices[i].srv, Phase: "striped"}
	}
	shares[backlog] = ServerPlan{Server: l.lead, Phase: "backlog"}
	for k, at := range arrivals {
		i := l.sliceOf(ep.FirstMissing + int64(k))
		if i < 0 {
			i = backlog
		}
		sp := &shares[i]
		if sp.Packets == 0 || at < sp.First {
			sp.First = at
		}
		if at > sp.Last {
			sp.Last = at
		}
		sp.Packets++
	}
	out := shares[:0]
	for _, sp := range shares {
		if sp.Packets > 0 {
			out = append(out, sp)
		}
	}
	return out
}
