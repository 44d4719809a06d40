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
// arrival times, which the stream and multitree packages fold into playback
// accounting. A traced run also asks ServerPlans how the same arrivals split
// by server. The single-source baseline of Figure 14 (recovery list used one
// node at a time, no striping) is planned by the same code with
// Striped=false.
package cer

import (
	"math"
	"sort"
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
	// first (callers contact them in the returned order).
	Select(self *overlay.Member, k int) []*overlay.Member
}

// MLCSelector implements Algorithm 1 over the partial tree built from a
// bounded random sample of the membership.
type MLCSelector struct {
	Tree *overlay.Tree
	Rng  *xrand.Source
	// Delay orders the resulting group by network distance.
	Delay func(a, b topology.NodeID) time.Duration
	// Knowledge bounds the membership sample; 0 means DefaultKnowledge.
	Knowledge int
	// Banned excludes members from recovery groups regardless of tree
	// position — the simulation analogue of the live node's quarantine list
	// (peers convicted of misbehavior must not become repair sources).
	Banned map[overlay.MemberID]bool
}

var _ Selector = (*MLCSelector)(nil)

// Select implements Selector.
//
// Following Algorithm 1: build the partial tree T from the sampled members
// and their ancestor paths, find the first level Li with |Li| < K <= |Li+1|,
// collect K subtree roots G0 by repeatedly picking random children of Li
// nodes, then derive G by picking one random known descendant per subtree
// root. Members of the caller's own root path (and its own subtree) are
// excluded — their losses are maximally correlated with the caller's.
func (s *MLCSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	know := s.Knowledge
	if know <= 0 {
		know = DefaultKnowledge
	}
	pt := buildPartialTree(s.Tree, s.Rng, self, know, s.Banned)
	if pt == nil {
		return nil
	}
	roots := pt.subtreeRoots(s.Rng, k)
	group := make([]*overlay.Member, 0, k)
	for _, r := range roots {
		if d := pt.randomUsableDescendant(s.Rng, r); d != nil {
			group = append(group, d)
		}
		if len(group) == k {
			break
		}
	}
	// Top up from any usable known member if the tree was too narrow.
	if len(group) < k {
		for _, n := range pt.usableFallback(s.Rng, k-len(group), group) {
			group = append(group, n)
		}
	}
	s.orderByDistance(self, group)
	return group
}

func (s *MLCSelector) orderByDistance(self *overlay.Member, group []*overlay.Member) {
	if s.Delay == nil {
		return
	}
	sort.SliceStable(group, func(i, j int) bool {
		return s.Delay(self.Attach, group[i].Attach) < s.Delay(self.Attach, group[j].Attach)
	})
}

// RandomSelector picks recovery nodes uniformly from the sampled membership
// with the same exclusions but no loss-correlation awareness. It is the
// selection baseline (ablation) and the Figure 14 baseline's recovery list.
type RandomSelector struct {
	Tree      *overlay.Tree
	Rng       *xrand.Source
	Delay     func(a, b topology.NodeID) time.Duration
	Knowledge int
	// Banned mirrors MLCSelector.Banned: the quarantine-analogue exclusion.
	Banned map[overlay.MemberID]bool
}

var _ Selector = (*RandomSelector)(nil)

// Select implements Selector.
func (s *RandomSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	know := s.Knowledge
	if know <= 0 {
		know = DefaultKnowledge
	}
	banned := rootPathSet(self, s.Banned)
	sample := s.Tree.Sample(s.Rng, know, self)
	group := make([]*overlay.Member, 0, k)
	for _, c := range sample {
		if !usableRecoveryNode(c, self, banned) {
			continue
		}
		group = append(group, c)
		if len(group) == k {
			break
		}
	}
	if s.Delay != nil {
		sort.SliceStable(group, func(i, j int) bool {
			return s.Delay(self.Attach, group[i].Attach) < s.Delay(self.Attach, group[j].Attach)
		})
	}
	return group
}

// rootPathSet returns self's strict ancestors plus self, merged with any
// extra exclusions (the selector's Banned set).
func rootPathSet(self *overlay.Member, extra map[overlay.MemberID]bool) map[overlay.MemberID]bool {
	banned := map[overlay.MemberID]bool{self.ID: true}
	for p := self.Parent(); p != nil; p = p.Parent() {
		banned[p.ID] = true
	}
	//lint:ignore map-order reason: set union; insertion order cannot matter
	for id := range extra {
		banned[id] = true
	}
	return banned
}

// usableRecoveryNode rejects candidates whose losses are inherently
// correlated with self: self's ancestors (they fail with self's path) and
// self's descendants (they receive the stream through self).
func usableRecoveryNode(c, self *overlay.Member, bannedPath map[overlay.MemberID]bool) bool {
	if c == nil || c == self || !c.Attached() {
		return false
	}
	if bannedPath[c.ID] {
		return false
	}
	for p := c.Parent(); p != nil; p = p.Parent() {
		if p == self {
			return false // descendant of self
		}
	}
	return true
}

// partialTree is the tree a node reconstructs from the ancestor paths of the
// members it knows about. Node identity is the real member pointer (the
// ancestor lists carry addresses), but edges reflect only sampled paths.
type partialTree struct {
	self     *overlay.Member
	banned   map[overlay.MemberID]bool
	root     *overlay.Member
	children map[overlay.MemberID][]*overlay.Member
	known    map[overlay.MemberID]bool // members that appear in T
	levels   [][]*overlay.Member
}

// buildPartialTree samples `know` members and assembles their root paths.
func buildPartialTree(tree *overlay.Tree, rng *xrand.Source, self *overlay.Member, know int, extraBanned map[overlay.MemberID]bool) *partialTree {
	sample := tree.Sample(rng, know, self)
	if len(sample) == 0 {
		return nil
	}
	pt := &partialTree{
		self:     self,
		banned:   rootPathSet(self, extraBanned),
		root:     tree.Root(),
		children: make(map[overlay.MemberID][]*overlay.Member),
		known:    make(map[overlay.MemberID]bool),
	}
	seenEdge := make(map[[2]overlay.MemberID]bool)
	addPath := func(m *overlay.Member) {
		if !m.Attached() {
			return
		}
		for cur := m; cur != nil; {
			pt.known[cur.ID] = true
			p := cur.Parent()
			if p == nil {
				break
			}
			edge := [2]overlay.MemberID{p.ID, cur.ID}
			if !seenEdge[edge] {
				seenEdge[edge] = true
				pt.children[p.ID] = append(pt.children[p.ID], cur)
			}
			cur = p
		}
	}
	// The node knows its own path as well.
	addPath(self)
	for _, m := range sample {
		addPath(m)
	}
	pt.buildLevels()
	return pt
}

func (pt *partialTree) buildLevels() {
	level := []*overlay.Member{pt.root}
	for len(level) > 0 {
		pt.levels = append(pt.levels, level)
		var next []*overlay.Member
		for _, n := range level {
			next = append(next, pt.children[n.ID]...)
		}
		level = next
	}
}

// subtreeRoots implements steps 2-3 of Algorithm 1: find the first level Li
// with |Li| < K <= |Li+1| and gather K distinct subtree roots from the
// children of Li.
func (pt *partialTree) subtreeRoots(rng *xrand.Source, k int) []*overlay.Member {
	li := -1
	for i := 0; i+1 < len(pt.levels); i++ {
		if len(pt.levels[i]) < k && k <= len(pt.levels[i+1]) {
			li = i
			break
		}
	}
	if li == -1 {
		// No level pair brackets K (narrow or shallow partial tree): use the
		// widest level as the root set directly.
		widest := 0
		for i, lv := range pt.levels {
			if len(lv) > len(pt.levels[widest]) {
				widest = i
			}
		}
		roots := append([]*overlay.Member(nil), pt.levels[widest]...)
		rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
		if len(roots) > k {
			roots = roots[:k]
		}
		return roots
	}
	// Round-robin: pick one random not-yet-chosen child per Li node until K
	// roots are gathered.
	remaining := make(map[overlay.MemberID][]*overlay.Member, len(pt.levels[li]))
	for _, v := range pt.levels[li] {
		cs := append([]*overlay.Member(nil), pt.children[v.ID]...)
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		remaining[v.ID] = cs
	}
	var roots []*overlay.Member
	for len(roots) < k {
		progressed := false
		for _, v := range pt.levels[li] {
			cs := remaining[v.ID]
			if len(cs) == 0 {
				continue
			}
			roots = append(roots, cs[0])
			remaining[v.ID] = cs[1:]
			progressed = true
			if len(roots) == k {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return roots
}

// randomUsableDescendant picks a random known member in root's partial
// subtree (including root itself) that can serve as a recovery node for
// self.
func (pt *partialTree) randomUsableDescendant(rng *xrand.Source, root *overlay.Member) *overlay.Member {
	var cands []*overlay.Member
	var walk func(n *overlay.Member)
	walk = func(n *overlay.Member) {
		if usableRecoveryNode(n, pt.self, pt.banned) {
			cands = append(cands, n)
		}
		for _, c := range pt.children[n.ID] {
			walk(c)
		}
	}
	walk(root)
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

// usableFallback returns up to n usable known members not already chosen.
func (pt *partialTree) usableFallback(rng *xrand.Source, n int, chosen []*overlay.Member) []*overlay.Member {
	taken := make(map[overlay.MemberID]bool, len(chosen))
	for _, c := range chosen {
		taken[c.ID] = true
	}
	var cands []*overlay.Member
	var walk func(m *overlay.Member)
	walk = func(m *overlay.Member) {
		if !taken[m.ID] && usableRecoveryNode(m, pt.self, pt.banned) {
			cands = append(cands, m)
		}
		for _, c := range pt.children[m.ID] {
			walk(c)
		}
	}
	walk(pt.root)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
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
	// Rate is the stream rate in packets per second.
	Rate float64
	// Gen returns the generation time of packet n.
	Gen func(n int64) time.Duration
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
		chain += delay(prev.Attach, g.Attach)
		prev = g
		if eps, ok := residual(g); ok {
			dst = append(dst, Server{
				Member:     g,
				Epsilon:    eps,
				ChainDelay: chain,
				Transfer:   delay(g.Attach, self.Attach),
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

func layoutStripes(ep Episode, servers []Server) stripeLayout {
	var l stripeLayout
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

// sliceOf returns the index of the striped slice that supplies packet n, or
// -1 when n is left to the backlog phase.
func (l *stripeLayout) sliceOf(n int64) int {
	frac := float64(n%100) / 100
	for i := range l.slices {
		if frac >= l.slices[i].lo && frac < l.slices[i].hi {
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
	l := layoutStripes(ep, servers)
	if l.rate <= 0 {
		return buf
	}
	backlog := int64(0)
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		if i := l.sliceOf(n); i >= 0 {
			srv := &l.slices[i].srv
			at := ep.RequestAt + srv.ChainDelay
			if g := ep.Gen(n); g > at {
				at = g // live forwarding of not-yet-generated packets
			}
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
	l := layoutStripes(ep, servers)
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
