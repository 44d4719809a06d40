// Package construct implements the overlay tree-construction algorithms the
// paper evaluates against ROST (Section 5):
//
//   - Minimum-depth: a joining member samples up to 100 known members and
//     picks the spare-capacity parent highest in the tree, tie-broken by
//     network delay. Distributed, no optimization overhead.
//   - Longest-first: as above, but picks the oldest spare-capacity parent.
//   - Relaxed bandwidth-ordered (BO): a centralized variant of the
//     high-bandwidth-first algorithm. A joining member scans layers from the
//     top; if a weaker node occupies a high position the new member replaces
//     it and the evicted node rejoins. Produces bandwidth ordering between
//     parents and children.
//   - Relaxed time-ordered (TO): the same eviction scan keyed on age; an
//     evicted node's excess children (the replacement may have less capacity)
//     also rejoin.
//
// ROST's join step is the minimum-depth rule (Section 3.3), so the rost
// package reuses MinDepth from here.
package construct

import (
	"errors"
	"fmt"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// ErrNoParent is returned when no reachable member has spare capacity (and,
// for the ordered algorithms, nobody can be evicted either). The caller is
// expected to retry the join later.
var ErrNoParent = errors.New("construct: no parent with spare capacity found")

// DefaultRejoinRetry is how long a member whose join returned ErrNoParent
// waits before trying again: a churn arrival or orphan, or a member a ROST
// switch displaced.
const DefaultRejoinRetry = 5 * time.Second

// DefaultCandidateCount is the membership-discovery bound from the paper: a
// joining node learns about up to 100 existing members.
const DefaultCandidateCount = 100

// Env carries the shared machinery every strategy needs.
type Env struct {
	// Rng drives candidate sampling and random tie-breaks.
	Rng *xrand.Source
	// Delay returns the unicast delay between two underlay routers.
	Delay func(a, b topology.NodeID) time.Duration
	// Underlay, when set, is the network Delay measures: the relaxed joins
	// then visit a layer's spare members by home transit router, near to
	// far, and stop where no farther one can win. Nil visits them all.
	Underlay *topology.Topology
	// CandidateCount bounds membership discovery for the distributed
	// algorithms; 0 means DefaultCandidateCount.
	CandidateCount int

	// cands is the reusable candidate list candidates returns; keys holds
	// pickParent's key per usable candidate.
	cands []int32
	keys  []int64
}

func (e *Env) candidateCount() int {
	if e.CandidateCount <= 0 {
		return DefaultCandidateCount
	}
	return e.CandidateCount
}

// Strategy attaches joining (or rejoining) members to the tree.
type Strategy interface {
	// Name returns the algorithm's display name as used in the paper's
	// figures.
	Name() string
	// Join finds a parent for m and attaches it, possibly restructuring the
	// tree (evictions). m must be live and detached. Join returns
	// ErrNoParent when the overlay is saturated.
	Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error
}

// parentKey names what a distributed strategy ranks usable candidates by;
// the least key wins and the nearest in the underlay breaks ties.
type parentKey uint8

const (
	shallowest parentKey = iota // minimum-depth: highest in the tree
	oldest                      // longest-first: earliest join time
	deepest                     // contributor priority's free-rider parking
)

func (k parentKey) of(v *overlay.SlotView, c int32) int64 {
	switch k {
	case shallowest:
		return int64(v.Depth(c))
	case deepest:
		return -int64(v.Depth(c))
	}
	return int64(v.JoinTime(c))
}

// candidates samples the joining member's partial view of the overlay, as
// slots, and always includes the source (the bootstrap mechanism guarantees
// at least one active contact, and the source is every session's first),
// mirroring the paper's join procedure. m is the joining member's slot. The
// list is built in an Env-owned buffer and is valid until the next call or
// tree mutation.
func (e *Env) candidates(tree *overlay.Tree, m int32) []int32 {
	e.cands = tree.SampleSlots(e.Rng, e.candidateCount(), m, e.cands[:0])
	e.cands = append(e.cands, tree.Root().Slot())
	return e.cands
}

// pickParent runs the paper's distributed join step over the candidates of
// the member in slot m: the usable one — attached, with spare degree — of
// least key; among those, the first nearest to m. It returns that parent's
// slot, or -1 when none is usable. m itself is never a candidate: the sample
// excludes it, and a detached m is not the source.
//
// The first pass keeps the usable candidates and their keys in place, in
// sample order; the second asks Delay only about those at the least key. That
// is the parent a single pass keeping the first strictly better (key, delay)
// would pick, because the first candidate at the least key always displaces
// whatever came before it, but with no Delay call for a candidate that is
// later outranked.
func (e *Env) pickParent(tree *overlay.Tree, m int32, key parentKey) int32 {
	cands, v := e.candidates(tree, m), tree.SlotView()
	usable, keys := cands[:0], e.keys[:0]
	var least int64
	for _, c := range cands {
		if !v.Attached(c) || !v.HasSpare(c) {
			continue
		}
		k := key.of(&v, c)
		if len(usable) == 0 || k < least {
			least = k
		}
		usable, keys = append(usable, c), append(keys, k)
	}
	e.keys = keys
	best := int32(-1)
	var bestDelay time.Duration
	for i, c := range usable {
		if keys[i] != least {
			continue
		}
		if d := e.Delay(v.Attach(m), v.Attach(c)); best < 0 || d < bestDelay {
			best, bestDelay = c, d
		}
	}
	return best
}

// join attaches m under pickParent's choice, or returns ErrNoParent.
func (e *Env) join(tree *overlay.Tree, m *overlay.Member, key parentKey) error {
	parent := e.pickParent(tree, m.Slot(), key)
	if parent < 0 {
		return ErrNoParent
	}
	return tree.Attach(m.Slot(), parent)
}

// MinDepth is the minimum-depth algorithm.
type MinDepth struct {
	Env *Env
}

var _ Strategy = (*MinDepth)(nil)

// Name implements Strategy.
func (a *MinDepth) Name() string { return "Minimum-depth" }

// Join implements Strategy: pick the spare-capacity candidate highest in the
// tree; among equals, the one nearest to m in the underlay.
func (a *MinDepth) Join(tree *overlay.Tree, m *overlay.Member, _ time.Duration) error {
	return a.Env.join(tree, m, shallowest)
}

// LongestFirst is the longest-first algorithm.
type LongestFirst struct {
	Env *Env
}

var _ Strategy = (*LongestFirst)(nil)

// Name implements Strategy.
func (a *LongestFirst) Name() string { return "Longest-first" }

// Join implements Strategy: pick the oldest spare-capacity candidate
// (smallest join time); among equals, the nearest.
func (a *LongestFirst) Join(tree *overlay.Tree, m *overlay.Member, _ time.Duration) error {
	return a.Env.join(tree, m, oldest)
}

// ContributorPriority wraps an inner strategy with the incentive rule of
// Section 3.2 ("a node can be encouraged to contribute more bandwidth
// resource or longer service time as a trade for service quality"): members
// that contribute no forwarding bandwidth (free-riders, out-degree zero) are
// parked at the deepest spare position instead of competing for the high
// slots. Free-riders are permanent leaves — they can never be displaced by
// BTP switching, so letting them claim high slots starves the tree's fanout;
// contributors join through the inner strategy unchanged.
type ContributorPriority struct {
	Env   *Env
	Inner Strategy
}

var _ Strategy = (*ContributorPriority)(nil)

// Name implements Strategy.
func (a *ContributorPriority) Name() string { return a.Inner.Name() + " (contributor priority)" }

// Join implements Strategy.
func (a *ContributorPriority) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	if m.OutDegree() > 0 {
		return a.Inner.Join(tree, m, now)
	}
	return a.Env.join(tree, m, deepest)
}

// relaxedOrdered is the shared top-down eviction scan behind the relaxed BO
// and relaxed TO algorithms. Both assume a central administrator with global
// topological knowledge, which is exactly how the paper frames them; the
// administrator's per-layer knowledge is the tree's level index.
type relaxedOrdered struct {
	env  *Env
	name string
	// order ranks members: bigger bandwidth for BO, older age for TO.
	order overlay.LevelOrder
	// adoptAll reports whether a replacement is guaranteed to fit all the
	// evictee's children (true for BO: bandwidth ordering implies capacity
	// ordering; false for TO).
	adoptAll bool
	// depth guard against pathological eviction chains.
	evicting int
	// kids is a stack of the children lists of the evictions in progress: a
	// cascade re-enters Join while its caller still walks its own segment.
	kids []*overlay.Member
}

// Name implements Strategy.
func (a *relaxedOrdered) Name() string { return a.name }

// Join implements Strategy.
func (a *relaxedOrdered) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	lx := tree.LevelIndex(a.order, a.env.Underlay)
	maxDepth := tree.MaxDepth()
	for d := 1; d <= maxDepth+1; d++ {
		// The paper's relaxed ordering "always searches from the high to low
		// layers to see if there is a smaller-bandwidth or younger node, and
		// if so, the located node is replaced with the new one": taking over
		// an outranked layer-d occupant is preferred over a free slot at the
		// same layer — that strictness is what keeps the tree ordered, and
		// it is why these centralized algorithms pay the protocol overhead
		// Figure 10 reports. The rank is a strict weak order, so if m outranks
		// anyone at layer d it outranks the layer's weakest.
		if victim := lx.Weakest(d); victim != nil && a.evicting < maxEvictionCascade && a.order.Outranks(m, victim) {
			return a.replace(tree, m, victim, now)
		}
		if parent := nearestSpare(a.env, lx, d-1, m); parent != nil {
			return tree.Attach(m.Slot(), parent.Slot())
		}
	}
	return ErrNoParent
}

// maxEvictionCascade bounds how deep one join's evictions may nest; past it
// the evicted member just attaches at the first free slot.
const maxEvictionCascade = 1000

// replace puts m into victim's tree position. m adopts as many of victim's
// children as its out-degree allows (all of them under bandwidth ordering);
// the victim and any leftover children rejoin through the same algorithm.
// Every forced reconnection is charged to the protocol-overhead metric.
func (a *relaxedOrdered) replace(tree *overlay.Tree, m, victim *overlay.Member, now time.Duration) error {
	base := len(a.kids)
	a.kids = victim.AppendChildren(a.kids)
	a.evicting++
	err := a.replaceWith(tree, m, victim, a.kids[base:], now)
	a.evicting--
	a.kids = a.kids[:base]
	return err
}

// replaceWith is replace with the victim's children, in child order, in hand.
func (a *relaxedOrdered) replaceWith(tree *overlay.Tree, m, victim *overlay.Member, children []*overlay.Member, now time.Duration) error {
	parent := victim.Parent()
	for _, c := range children {
		if err := tree.Detach(c.Slot()); err != nil {
			return fmt.Errorf("construct: detaching child %d of victim: %w", c.ID, err)
		}
	}
	if err := tree.Detach(victim.Slot()); err != nil {
		return fmt.Errorf("construct: detaching victim %d: %w", victim.ID, err)
	}
	if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
		return fmt.Errorf("construct: attaching replacement %d: %w", m.ID, err)
	}
	// Keep the strongest children in place; the order matters only when m
	// cannot adopt everyone (TO case).
	if !a.adoptAll {
		sortByRank(children, a.order)
	}
	adopted := 0
	for ; adopted < len(children) && m.HasSpare(); adopted++ {
		if err := tree.Attach(children[adopted].Slot(), m.Slot()); err != nil {
			return fmt.Errorf("construct: re-adopting child %d: %w", children[adopted].ID, err)
		}
	}
	// The victim (now childless) rejoins, then leftover children with their
	// subtrees. Rejoin failures leave them detached; the churn driver will
	// retry them like any other orphan, so saturation here is not fatal.
	tree.RecordReconnection(victim.Slot())
	if err := a.Join(tree, victim, now); err != nil && !errors.Is(err, ErrNoParent) {
		return fmt.Errorf("construct: rejoining victim %d: %w", victim.ID, err)
	}
	for _, c := range children[adopted:] {
		tree.RecordReconnection(c.Slot())
		if err := a.Join(tree, c, now); err != nil && !errors.Is(err, ErrNoParent) {
			return fmt.Errorf("construct: rejoining leftover child %d: %w", c.ID, err)
		}
	}
	return nil
}

// NewRelaxedBandwidthOrdered returns the centralized relaxed-BO strategy.
func NewRelaxedBandwidthOrdered(env *Env) Strategy {
	return &relaxedOrdered{env: env, name: "Relaxed bandwidth-ordered", order: overlay.ByBandwidth, adoptAll: true}
}

// NewRelaxedTimeOrdered returns the centralized relaxed-TO strategy.
func NewRelaxedTimeOrdered(env *Env) Strategy {
	return &relaxedOrdered{env: env, name: "Relaxed time-ordered", order: overlay.ByJoinTime}
}

// wholeLevel is the walk over a level index built without an underlay: its
// one bucket, and no bound.
var wholeLevel = []topology.NodeID{0}

// nearestSpare returns the member of layer d with spare capacity nearest to m
// in the underlay; among equally near ones the first in level order.
//
// It walks the layer's home buckets in HomesByDelay order from m's home. The
// home bucket is evaluated whole: a member of m's own stub domain can be
// nearer than any bound. Every later member c has Delay(m, c) >= Delay(m, h)
// for its home h (topology.HomesByDelay), and that bound never falls along the
// row, so the walk stops at the first bucket whose bound exceeds the best delay
// so far. It must exceed it strictly: a member on the transit router h itself
// is at exactly the bound and may tie the best with an earlier level position.
// The bound is asked through Env.Delay, so any monotone rescaling of it keeps
// the walk exact, and only once there is a best to beat and more than one
// member left to skip. Without an underlay the walk is the one bucket, whole.
func nearestSpare(env *Env, lx *overlay.LevelIndex, d int, m *overlay.Member) *overlay.Member {
	left := lx.SpareCount(d)
	if left == 0 {
		return nil
	}
	homes := wholeLevel
	if u := env.Underlay; u != nil {
		homes = u.HomesByDelay(u.Home(m.Attach()))
	}
	var best *overlay.Member
	var bestDelay time.Duration
	for _, h := range homes {
		spare := lx.Spare(d, h)
		if len(spare) == 0 {
			continue
		}
		if best != nil && left > 1 && env.Delay(m.Attach(), h) > bestDelay {
			break
		}
		for _, c := range spare {
			dc := env.Delay(m.Attach(), c.Attach())
			if best == nil || dc < bestDelay || dc == bestDelay && c.LevelPos() < best.LevelPos() {
				best, bestDelay = c, dc
			}
		}
		if left -= len(spare); left == 0 {
			break
		}
	}
	return best
}

// sortByRank orders members best-ranked first (insertion sort; eviction
// child lists are tiny).
func sortByRank(ms []*overlay.Member, order overlay.LevelOrder) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && order.Outranks(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}
