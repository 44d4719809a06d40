// Package overlay implements the single-tree overlay multicast substrate the
// paper's algorithms operate on: members with out-degree constraints derived
// from their outbound bandwidths, parent/child links, per-layer indexing (the
// centralized relaxed-BO/TO algorithms work through the layers top-down; see
// LevelIndex — the per-depth level lists exist only on a tree whose level
// index has been asked for), overlay path delays, and the
// disruption/reconnection accounting the evaluation reports.
//
// The package is purely structural: which parent a member picks, when nodes
// switch positions, and how losses are repaired live in the construct, rost
// and cer packages.
//
// # Memory layout
//
// Member state is stored struct-of-arrays: Tree keeps parallel slices
// (parent, first-child/next-sibling links, depth (-1 when detached), degree,
// path delay, underlay router, rank keys, counters, lock owners) indexed by a
// dense int32 slot allocated from a free list. The slot is the name every
// mutator and SlotView takes. Slots are reused, so each one also carries a
// generation that Remove bumps: Ref packs (slot, generation) into the int64 a
// timer carries, and Resolve gives the slot back only while that same member
// lives, one load. The exported *Member is a 24-byte handle (ID, underlay
// router, tree, slot) that NewMember and Root return and the strategy,
// selector and churn-hook seams pass; SlotView.Member is the one way from a
// slot to it. Tree.Grow reserves every array once, and per-member tables kept
// outside the tree size themselves from the same reservation (Tree.Reserved).
// A member's state is ~100 contiguous bytes with no per-member children
// slice, which is what lets a single run hold 10^6 members.
//
// The child lists are intrusive doubly linked lists (firstKid/lastKid,
// prevSib/nextSib). Their mutation rules replicate the previous
// children-slice semantics exactly — append at the tail, removal moves the
// former tail into the removed slot — because child order is
// determinism-bearing: it drives orphan ordering, level-list order and
// pre-order traversal, and therefore the RNG streams of every experiment.
package overlay

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// MemberID identifies an overlay member for the lifetime of a simulation.
// IDs are never reused. The zero value is not a valid ID.
type MemberID int64

// none is the sentinel slot ("no member").
const none int32 = -1

// Common structural errors.
var (
	ErrFull        = errors.New("overlay: parent has no spare out-degree")
	ErrNotMember   = errors.New("overlay: not a current member")
	ErrHasParent   = errors.New("overlay: member already has a parent")
	ErrRootLeave   = errors.New("overlay: the source cannot leave")
	ErrSelfAttach  = errors.New("overlay: cannot attach a member to itself")
	ErrNotAttached = errors.New("overlay: member is not attached to the tree")
)

// Member is one overlay node's handle into the tree's struct-of-arrays
// state, holding only identity. Everything else — structure (parent,
// children, depth, ...), the rank keys (bandwidth, join time) and the
// evaluation's counters (disruptions, reconnections) — lives in the Tree's
// parallel slices, read by slot through a SlotView; the few structural
// accessors below serve the callers that hold a handle. The keys are fixed
// by NewMember and nothing can write them afterwards. After the member is
// removed from the tree every accessor but Attach returns a zero value (nil
// parent, no children, depth -1, no degree).
type Member struct {
	ID MemberID
	// tree/idx locate the member's state. idx is -1 once the member has been
	// removed from the tree.
	tree *Tree
	// attach is the stub router the member sits on, fixed at NewMember.
	attach topology.NodeID
	idx    int32
}

// Attach returns the stub router the member sits on.
func (m *Member) Attach() topology.NodeID { return m.attach }

// Parent returns the current parent, or nil for the root (and for detached
// members).
func (m *Member) Parent() *Member {
	if m.tree == nil || m.idx < 0 {
		return nil
	}
	p := m.tree.parent[m.idx]
	if p < 0 {
		return nil
	}
	return m.tree.handle[p]
}

// AppendChildren appends the member's children to dst in child-list order and
// returns the extended slice.
func (m *Member) AppendChildren(dst []*Member) []*Member {
	if t := m.tree; t != nil && m.idx >= 0 {
		for c := t.firstKid[m.idx]; c != none; c = t.nextSib[c] {
			dst = append(dst, t.handle[c])
		}
	}
	return dst
}

// NumChildren returns the member's current child count without allocating.
func (m *Member) NumChildren() int {
	if m.tree == nil || m.idx < 0 {
		return 0
	}
	return int(m.tree.kidCount[m.idx])
}

// Depth returns the member's layer (root = 0), or -1 when detached.
func (m *Member) Depth() int {
	if m.tree == nil || m.idx < 0 {
		return -1
	}
	return int(m.tree.depth[m.idx])
}

// OutDegree returns the member's out-degree constraint: the number of
// full-rate children its outbound bandwidth supports, or 0 once removed.
func (m *Member) OutDegree() int {
	if m.tree == nil || m.idx < 0 {
		return 0
	}
	return int(m.tree.outDeg[m.idx])
}

// outDegree is floor(bandwidth), the degree a member of that bandwidth gets.
func outDegree(bandwidth float64) int32 {
	if bandwidth < 0 {
		return 0
	}
	return int32(bandwidth)
}

// SpareDegree returns how many more children the member can accept: the
// degree the tree cached at NewMember less its children, which is the bound
// Attach enforces. A removed member accepts none.
func (m *Member) SpareDegree() int {
	if m.tree == nil || m.idx < 0 {
		return 0
	}
	return int(m.tree.outDeg[m.idx] - m.tree.kidCount[m.idx])
}

// HasSpare reports whether the member can accept one more child.
func (m *Member) HasSpare() bool { return m.SpareDegree() > 0 }

// age is a member's age at now given its join time: never negative.
func age(joined, now time.Duration) time.Duration {
	if now < joined {
		return 0
	}
	return now - joined
}

// Slot returns the member's slot, the index of its state in the tree's
// arrays and the name every mutator takes, or -1 once the member has been
// removed. Slots are reused: a caller that keeps a member across mutations
// keeps Tree.Ref of its slot instead.
func (m *Member) Slot() int32 {
	if m.tree == nil {
		return -1
	}
	return m.idx
}

// Tree is the overlay multicast tree. It is single-threaded by design (the
// simulation kernel is sequential); no internal locking.
type Tree struct {
	root *Member
	// delayFn gives the unicast delay between two underlay routers.
	delayFn func(a, b topology.NodeID) time.Duration
	nextID  MemberID

	// Struct-of-arrays member state, all indexed by slot. A slot is live iff
	// handle[i] != nil; a member is attached iff depth[i] >= 0. gen[i] counts
	// the members Remove has taken out of slot i: with the slot, it names
	// the member in it (Ref).
	handle    []*Member
	gen       []uint32
	parent    []int32
	firstKid  []int32
	lastKid   []int32
	prevSib   []int32
	nextSib   []int32
	kidCount  []int32
	outDeg    []int32 // floor(Bandwidth), cached for the degree invariant
	depth     []int32 // -1 when detached
	pathDelay []time.Duration
	attach    []topology.NodeID // Member.Attach, fixed at NewMember
	// bandwidth and joinTime are the rank keys, fixed at NewMember;
	// disruptions and reconnections are the evaluation's counters. Remove
	// zeroes all four, so a free slot holds nothing a recycled one inherits.
	bandwidth     []float64
	joinTime      []time.Duration
	disruptions   []int32
	reconnections []int32
	// lockOwner is the ID of the in-flight switching operation holding the
	// member, or zero when unlocked (ROST locking protocol).
	lockOwner []int64
	orderIdx  []int32
	levelIdx  []int32 // nil until LevelIndex first builds the level lists

	// free lists the slots Remove has freed, for NewMember to reuse.
	free []int32

	// order lists the slots of attached and detached live members for O(1)
	// sampling (the root excluded), one sampling position per record;
	// levels[d] lists attached members at depth d, and levelIdx gives a
	// slot's position in its list.
	order  []sampleRec
	levels [][]*Member
	// lx is the per-level summary the relaxed BO/TO joins read instead of
	// scanning levels; nil until LevelIndex first builds it. The level lists,
	// levelIdx and levelCount are kept only while it is non-nil.
	lx *LevelIndex

	// liveCount counts live members including the root. attachedCount and
	// levelCount both track the number of attached members but are
	// maintained at different mutation sites (depth set or reset vs level
	// insert/remove), so the invariant check can compare them.
	liveCount     int
	attachedCount int
	levelCount    int

	// sampleEpoch is SampleSlots' current call: a position is "drawn this
	// call" iff its record's stamp equals it, so bumping it clears every
	// stamp at once. sampleDraws holds one batch of drawn positions.
	sampleEpoch uint32
	sampleDraws []int
	// orphans is the buffer Remove returns a departed member's children in.
	orphans []int32

	// invSeen/invEpoch is the full checker's reachability scratch (the
	// former per-call seen map).
	invSeen  []uint32
	invEpoch uint32
}

// NewTree creates a tree rooted at a source member placed on rootAttach with
// the given outbound bandwidth (the paper uses 100, i.e. 100 full-rate
// children). delayFn supplies underlay delays; it must be non-nil.
func NewTree(rootAttach topology.NodeID, rootBandwidth float64, delayFn func(a, b topology.NodeID) time.Duration) (*Tree, error) {
	if delayFn == nil {
		return nil, errors.New("overlay: nil delay function")
	}
	if rootBandwidth < 1 {
		return nil, fmt.Errorf("overlay: root bandwidth %g cannot feed any child", rootBandwidth)
	}
	t := &Tree{delayFn: delayFn, nextID: 1}
	root := t.newMemberAt(rootAttach, rootBandwidth, 0)
	i := root.idx
	t.attachedCount++
	t.orderIdx[i] = none // the root is not sampleable as a rejoin candidate owner
	t.depth[i] = 0
	t.root = root
	return t, nil
}

// newMemberAt allocates a slot (recycling from the free list when possible)
// and resets all of its per-slot state but the generation, which Remove
// bumped when it freed the slot.
func (t *Tree) newMemberAt(attach topology.NodeID, bandwidth float64, now time.Duration) *Member {
	m := &Member{ID: t.nextID, tree: t, attach: attach}
	t.nextID++
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
		t.handle[i] = m
		t.parent[i] = none
		t.firstKid[i] = none
		t.lastKid[i] = none
		t.prevSib[i] = none
		t.nextSib[i] = none
		t.kidCount[i] = 0
		t.outDeg[i] = outDegree(bandwidth)
		t.depth[i] = -1
		t.pathDelay[i] = 0
		t.attach[i] = attach
		t.bandwidth[i] = bandwidth
		t.joinTime[i] = now
		t.lockOwner[i] = 0
		t.orderIdx[i] = none
	} else {
		i = int32(len(t.handle))
		t.handle = append(t.handle, m)
		t.gen = append(t.gen, 0)
		t.parent = append(t.parent, none)
		t.firstKid = append(t.firstKid, none)
		t.lastKid = append(t.lastKid, none)
		t.prevSib = append(t.prevSib, none)
		t.nextSib = append(t.nextSib, none)
		t.kidCount = append(t.kidCount, 0)
		t.outDeg = append(t.outDeg, outDegree(bandwidth))
		t.depth = append(t.depth, -1)
		t.pathDelay = append(t.pathDelay, 0)
		t.attach = append(t.attach, attach)
		t.bandwidth = append(t.bandwidth, bandwidth)
		t.joinTime = append(t.joinTime, now)
		t.disruptions = append(t.disruptions, 0)
		t.reconnections = append(t.reconnections, 0)
		t.lockOwner = append(t.lockOwner, 0)
		t.orderIdx = append(t.orderIdx, none)
		if t.lx != nil {
			t.levelIdx = append(t.levelIdx, none)
		}
	}
	m.idx = i
	t.liveCount++
	return m
}

// Grow reserves room for n slots, so a tree expected to hold up to n live
// members fills its per-slot arrays and its sampling order without
// regrowing them as members arrive. It changes no member, slot or draw; a
// tree that outgrows n grows as before.
func (t *Tree) Grow(n int) {
	if n <= len(t.handle) {
		return
	}
	k := n - len(t.handle)
	t.handle = slices.Grow(t.handle, k)
	t.gen = slices.Grow(t.gen, k)
	t.parent = slices.Grow(t.parent, k)
	t.firstKid = slices.Grow(t.firstKid, k)
	t.lastKid = slices.Grow(t.lastKid, k)
	t.prevSib = slices.Grow(t.prevSib, k)
	t.nextSib = slices.Grow(t.nextSib, k)
	t.kidCount = slices.Grow(t.kidCount, k)
	t.outDeg = slices.Grow(t.outDeg, k)
	t.depth = slices.Grow(t.depth, k)
	t.pathDelay = slices.Grow(t.pathDelay, k)
	t.attach = slices.Grow(t.attach, k)
	t.bandwidth = slices.Grow(t.bandwidth, k)
	t.joinTime = slices.Grow(t.joinTime, k)
	t.disruptions = slices.Grow(t.disruptions, k)
	t.reconnections = slices.Grow(t.reconnections, k)
	t.lockOwner = slices.Grow(t.lockOwner, k)
	t.orderIdx = slices.Grow(t.orderIdx, k)
	if t.lx != nil {
		t.levelIdx = slices.Grow(t.levelIdx, k)
	}
	t.order = slices.Grow(t.order, n-len(t.order))
}

// Reserved returns how many slots the tree holds without regrowing its
// arrays: Grow's reservation, or the capacity the arrays have grown to since.
// Per-member tables kept outside the tree size themselves from it, so one
// reservation covers every such table of a run.
func (t *Tree) Reserved() int { return cap(t.handle) }

// Root returns the source member.
func (t *Tree) Root() *Member { return t.root }

// Size returns the number of live members including the source.
func (t *Tree) Size() int { return t.liveCount }

// Created returns how many members NewMember has made, the source excluded.
func (t *Tree) Created() int { return int(t.nextID) - 2 }

// SlotView is a read-only window onto the tree's per-slot arrays: how the
// simulator's cores read a member they name by slot. It sees every later
// Attach, Detach, Remove and counter update, and is valid until the tree's
// next NewMember or Grow, the calls that may regrow the arrays; fetch a
// fresh one per call instead of keeping it.
type SlotView struct {
	parent    []int32
	firstKid  []int32
	nextSib   []int32
	depth     []int32
	kidCount  []int32
	outDeg    []int32
	pathDelay []time.Duration
	attach    []topology.NodeID
	bandwidth []float64
	joinTime  []time.Duration
	disrupt   []int32
	reconnect []int32
	handle    []*Member
}

// SlotView returns a view of the tree's current slot arrays.
func (t *Tree) SlotView() SlotView {
	return SlotView{parent: t.parent, firstKid: t.firstKid, nextSib: t.nextSib, depth: t.depth,
		kidCount: t.kidCount, outDeg: t.outDeg, pathDelay: t.pathDelay, attach: t.attach,
		bandwidth: t.bandwidth, joinTime: t.joinTime, disrupt: t.disruptions, reconnect: t.reconnections,
		handle: t.handle}
}

// Shape returns the slot arrays SlotView.Parent and SlotView.Depth read: per
// slot, the parent's slot (-1 at the root and when detached) and the depth
// (-1 when detached). Like a SlotView, they are valid until the next NewMember
// or Grow, and their capacity is the tree's reservation of them. Callers
// read them and never write: cer's Algorithm 1 runs on them as it runs on the
// live node's view.
func (t *Tree) Shape() (parent, depth []int32) { return t.parent, t.depth }

// Parent returns the slot of i's parent, or -1 for the root and detached
// members.
func (v *SlotView) Parent(i int32) int32 { return v.parent[i] }

// Depth returns slot i's layer (root = 0), or -1 when detached.
func (v *SlotView) Depth(i int32) int32 { return v.depth[i] }

// Attached reports whether slot i has a position in the tree.
func (v *SlotView) Attached(i int32) bool { return v.depth[i] >= 0 }

// PathDelay returns the accumulated delay of slot i's overlay path from the
// source (its last attached value while detached).
func (v *SlotView) PathDelay(i int32) time.Duration { return v.pathDelay[i] }

// Attach returns the stub router slot i sits on, fixed at NewMember.
func (v *SlotView) Attach(i int32) topology.NodeID { return v.attach[i] }

// Bandwidth returns slot i's outbound access bandwidth in units of the
// stream rate: the member can feed floor(Bandwidth) children. It is fixed at
// NewMember, because the tree caches the degree and a level index ranks
// attached members by it. A free slot reads 0.
func (v *SlotView) Bandwidth(i int32) float64 { return v.bandwidth[i] }

// JoinTime returns the virtual time slot i's member entered the overlay,
// fixed at NewMember (churn's pre-population passes a back-dated one). Like
// the bandwidth it is a level-index key.
func (v *SlotView) JoinTime(i int32) time.Duration { return v.joinTime[i] }

// BTP returns slot i's bandwidth-time product at now: outbound bandwidth x
// age in seconds (the ROST switching metric), where the age is never
// negative.
func (v *SlotView) BTP(i int32, now time.Duration) float64 {
	return v.bandwidth[i] * age(v.joinTime[i], now).Seconds()
}

// Disruptions returns the streaming disruptions slot i's member has
// experienced: one per failed ancestor (Tree.RecordFailure), the paper's
// reliability metric.
func (v *SlotView) Disruptions(i int32) int { return int(v.disrupt[i]) }

// Reconnections returns the optimizer-induced parent changes charged to slot
// i's member (Tree.RecordReconnection: switch operations and evictions);
// failure rejoins are not counted, matching the paper's protocol-overhead
// metric.
func (v *SlotView) Reconnections(i int32) int { return int(v.reconnect[i]) }

// Next returns the slot after n in the pre-order walk of top's subtree, the
// order VisitSubtree visits, or -1 once the walk is done. The walk starts at
// top itself: for n := top; n >= 0; n = v.Next(n, top).
func (v *SlotView) Next(n, top int32) int32 {
	return preOrderNext(v.firstKid, v.nextSib, v.parent, n, top)
}

// next is SlotView.Next on the tree's own arrays.
func (t *Tree) next(n, top int32) int32 { return preOrderNext(t.firstKid, t.nextSib, t.parent, n, top) }

// preOrderNext returns the slot after n in the pre-order walk of top's
// subtree — first child, else the next sibling of the nearest ancestor below
// top that has one — or none once the walk is done.
func preOrderNext(firstKid, nextSib, parent []int32, n, top int32) int32 {
	if fc := firstKid[n]; fc != none {
		return fc
	}
	for n != top && nextSib[n] == none {
		n = parent[n]
	}
	if n == top {
		return none
	}
	return nextSib[n]
}

// HasSpare reports whether slot i can accept one more child: the degree the
// tree cached at NewMember exceeds its children, the bound Attach enforces.
func (v *SlotView) HasSpare(i int32) bool { return v.kidCount[i] < v.outDeg[i] }

// AppendChildren appends slot i's children to dst in child-list order and
// returns the extended slice.
func (v *SlotView) AppendChildren(dst []int32, i int32) []int32 {
	for c := v.firstKid[i]; c != none; c = v.nextSib[c] {
		dst = append(dst, c)
	}
	return dst
}

// Member returns the member occupying slot i, or nil for a free slot: the way
// from a slot to the handle the strategy, selector and churn-hook seams take.
func (v *SlotView) Member(i int32) *Member { return v.handle[i] }

// Ref returns a reference to the member in live slot i, its slot and
// generation packed into the int64 a timer carries. Resolve turns it back
// into the slot while that member lives.
func (t *Tree) Ref(i int32) int64 { return int64(t.gen[i])<<32 | int64(uint32(i)) }

// Resolve returns the slot of the member ref (Ref) names, or -1 once that
// member has been removed, even after a new member has taken its slot.
func (t *Tree) Resolve(ref int64) int32 {
	i := int32(uint32(ref))
	if t.gen[i] != uint32(ref>>32) {
		return none
	}
	return i
}

// live reports whether a current member occupies slot i.
func (t *Tree) live(i int32) bool { return i >= 0 && int(i) < len(t.handle) && t.handle[i] != nil }

// NewMember registers a live member without attaching it to the tree. The
// caller attaches it with Attach once a parent is chosen.
func (t *Tree) NewMember(attach topology.NodeID, bandwidth float64, now time.Duration) *Member {
	m := t.newMemberAt(attach, bandwidth, now)
	t.orderIdx[m.idx] = int32(len(t.order))
	t.order = append(t.order, sampleRec{slot: m.idx})
	return m
}

// Attach links the member in slot child under the one in slot parent. The
// child must be live, detached and parentless; the parent must be live,
// attached and have spare degree.
func (t *Tree) Attach(child, parent int32) error {
	switch {
	case !t.live(child) || !t.live(parent):
		return ErrNotMember
	case child == parent:
		return ErrSelfAttach
	case t.parent[child] != none || t.depth[child] >= 0:
		return ErrHasParent
	case t.depth[parent] < 0:
		return ErrNotAttached
	case t.kidCount[parent] >= t.outDeg[parent]:
		return ErrFull
	}
	t.childAppend(parent, child)
	t.placeSubtree(child)
	return nil
}

// placeSubtree recomputes depth, path delay and level indexing for the
// detached member in slot m and all its descendants, which Detach left
// detached, in pre-order (children of a rejoining member keep their subtrees,
// so a re-attach moves whole subtrees). Only m's edge is new, so only it asks
// delayFn: every descendant keeps the edge to its parent, and with it the path
// delay it had relative to m (Detach leaves a subtree's path delays in place),
// so each path delay moves by exactly m's change. Delays are integer
// nanoseconds: the shift is exact.
func (t *Tree) placeSubtree(m int32) {
	p := t.parent[m]
	shift := t.pathDelay[p] + t.delayFn(t.attach[p], t.attach[m]) - t.pathDelay[m]
	for n := m; n != none; n = t.next(n, m) {
		t.depth[n] = t.depth[t.parent[n]] + 1
		t.pathDelay[n] += shift
		t.attachedCount++
		if t.lx != nil {
			t.levelInsert(n)
			t.lx.insert(n)
		}
	}
}

// Detach unlinks the member in slot m from its parent, leaving its own
// subtree intact but marking every node in it unattached (no live path from
// the source).
func (t *Tree) Detach(m int32) error {
	if !t.live(m) {
		return ErrNotMember
	}
	if m == t.root.idx {
		return ErrRootLeave
	}
	if t.parent[m] == none {
		return ErrNotAttached
	}
	t.childRemove(t.parent[m], m)
	t.parent[m] = none
	// Unplace the whole subtree: depth resets to -1, path delay keeps its
	// last attached value (callers gate on Attached), which placeSubtree
	// shifts when the subtree is attached again.
	for n := m; n != none; n = t.next(n, m) {
		if t.depth[n] >= 0 {
			if t.lx != nil {
				t.lx.remove(n)
				t.levelRemove(n)
			}
			t.attachedCount--
			t.depth[n] = -1
		}
	}
	return nil
}

// Remove deletes the member in slot i from the overlay entirely (departure or
// failure) and returns the slots of its now-orphaned children, each of which
// keeps its own subtree and must rejoin. The children are returned detached,
// in child-list order, in a buffer the tree owns: it is valid until the next
// Remove. The slot's generation moves on, so every Ref to the member stops
// resolving.
func (t *Tree) Remove(i int32) ([]int32, error) {
	if !t.live(i) {
		return nil, ErrNotMember
	}
	if i == t.root.idx {
		return nil, ErrRootLeave
	}
	orphans := t.orphans[:0]
	for c := t.firstKid[i]; c != none; c = t.nextSib[c] {
		orphans = append(orphans, c)
	}
	t.orphans = orphans
	for _, c := range orphans {
		if err := t.Detach(c); err != nil {
			return nil, fmt.Errorf("overlay: detaching orphan %d: %w", t.handle[c].ID, err)
		}
	}
	m := t.handle[i]
	if t.parent[i] != none {
		if err := t.Detach(i); err != nil {
			return nil, fmt.Errorf("overlay: detaching leaver %d: %w", m.ID, err)
		}
	}
	t.orderRemove(i)
	t.handle[i] = nil
	t.gen[i]++
	t.lockOwner[i] = 0
	t.bandwidth[i], t.joinTime[i] = 0, 0
	t.disruptions[i], t.reconnections[i] = 0, 0
	t.free = append(t.free, i)
	t.liveCount--
	m.idx = -1
	return orphans, nil
}

// VisitMembers calls fn for every live member, attached or not, in
// unspecified order (the source included).
//
//lint:ignore test-only-export reason: construct's reference test compares two trees member by member through it, and churn's alloc test picks its victims with it
func (t *Tree) VisitMembers(fn func(*Member)) {
	fn(t.root)
	for _, r := range t.order {
		fn(t.handle[r.slot])
	}
}

// VisitSubtree calls fn for every member in m's subtree including m itself,
// in pre-order. fn must not mutate the tree structure.
func (t *Tree) VisitSubtree(m *Member, fn func(*Member)) {
	if m == nil || m.idx < 0 || m.tree != t {
		return
	}
	for n := m.idx; n != none; n = t.next(n, m.idx) {
		fn(t.handle[n])
	}
}

// AppendAncestors appends to dst a Ref for each member on the path from slot
// i's parent up to the root, nearest first, and returns the extended slice. A
// caller that mutates the tree before it reads the path resolves each one to
// tell whether that ancestor is still the member it was.
func (t *Tree) AppendAncestors(dst []int64, i int32) []int64 {
	if !t.live(i) {
		return dst
	}
	for p := t.parent[i]; p != none; p = t.parent[p] {
		dst = append(dst, t.Ref(p))
	}
	return dst
}

// MaxDepth returns the current tree height (deepest attached layer): read off
// the level lists when the tree has a level index, else a scan of every slot.
func (t *Tree) MaxDepth() int {
	if t.lx == nil {
		return int(slices.Max(t.depth))
	}
	for d := len(t.levels) - 1; d >= 0; d-- {
		if len(t.levels[d]) > 0 {
			return d
		}
	}
	return 0
}

// Level returns the attached members at depth d, or nil on a tree whose level
// index has not been asked for: the lists come with the index. The returned
// slice is owned by the tree; callers must not mutate it.
//
//lint:ignore test-only-export reason: construct's reference test scans whole levels through it
func (t *Tree) Level(d int) []*Member {
	if d < 0 || d >= len(t.levels) {
		return nil
	}
	return t.levels[d]
}

// sampleRec is one sampling position: the slot of the member it lists and
// the SampleSlots call that last drew it, side by side so a draw touches one
// cache line.
type sampleRec struct {
	slot  int32
	stamp uint32
}

// SampleSlots appends to dst the slots of up to n distinct live members
// drawn uniformly at random, excluding the root and the member in slot
// exclude (-1 excludes nobody), and returns the extended slice. This models a
// joining node's bounded membership discovery ("until it obtains a certain
// number, say 100, of known members"). A slot names its member until that
// member is removed (Tree.Ref outlives it).
//
// When n covers the whole membership every member is listed in order, with no
// draw. Otherwise positions are drawn with rejection: a partial Fisher-Yates
// over a scratch index space would disturb the order list, and rejection is
// cheap because n << len(order) in the overlay regime (100 out of thousands).
// A position drawn twice in one call is skipped, which keeps the
// accept/reject sequence of a dedup map, and the draw gives up after 20n
// attempts, so the run of the stream a call consumes is bounded.
//
// The draws come in batches, each drawn before any is read: a batch is as
// many positions as are still missing (capped by the attempts left), and
// since one draw lists at most one member, the one-at-a-time loop would have
// drawn every one of them before it could stop. So the batches consume the
// stream exactly as that loop did and list the same members.
func (t *Tree) SampleSlots(rng *xrand.Source, n int, exclude int32, dst []int32) []int32 {
	if n <= 0 || len(t.order) == 0 {
		return dst
	}
	if n >= len(t.order) {
		for _, r := range t.order {
			if r.slot != exclude {
				dst = append(dst, r.slot)
			}
		}
		return dst
	}
	t.sampleEpoch++
	if t.sampleEpoch == 0 { // epoch wrapped: stale stamps could collide
		for k := range t.order {
			t.order[k].stamp = 0
		}
		t.sampleEpoch = 1
	}
	want := len(dst) + n
	for attempts := 0; len(dst) < want && attempts < 20*n; {
		batch := min(want-len(dst), 20*n-attempts)
		attempts += batch
		t.sampleDraws = rng.AppendIntn(t.sampleDraws[:0], len(t.order), batch)
		for _, k := range t.sampleDraws {
			r := &t.order[k]
			if r.stamp == t.sampleEpoch {
				continue
			}
			r.stamp = t.sampleEpoch
			if r.slot != exclude {
				dst = append(dst, r.slot)
			}
		}
	}
	return dst
}

// RecordFailure increments the disruption counter of every descendant of the
// failed member (the member itself is excluded: it departed) and returns how
// many it charged. Per the paper's metric, an abrupt departure disrupts each
// descendant once. The failed member need not be attached: when it departs
// while detached (an orphan still retrying a saturated rejoin), its detached
// subtree is charged again, though that subtree's outage has not ended.
// failed is the departing member's slot.
func (t *Tree) RecordFailure(failed int32) int {
	if !t.live(failed) {
		return 0
	}
	count := 0
	for n := t.next(failed, failed); n != none; n = t.next(n, failed) {
		t.disruptions[n]++
		count++
	}
	return count
}

// RecordReconnection charges one optimizer-induced parent change (a switch
// or an eviction) to the live member in slot i.
func (t *Tree) RecordReconnection(i int32) {
	if t.live(i) {
		t.reconnections[i]++
	}
}

// ResetCounters zeroes every member's disruption and reconnection counts.
func (t *Tree) ResetCounters() {
	clear(t.disruptions)
	clear(t.reconnections)
}

// Lock attempts to acquire the ROST switching lock on the members in the
// given slots on behalf of operation op (non-zero). It either locks all of
// them and returns true, or locks none and returns false (a member already
// held by a different operation blocks the whole set). Free slots are
// skipped.
func (t *Tree) Lock(op int64, slots ...int32) bool {
	if op == 0 {
		return false
	}
	for _, i := range slots {
		if t.live(i) && t.lockOwner[i] != 0 && t.lockOwner[i] != op {
			return false
		}
	}
	for _, i := range slots {
		if t.live(i) {
			t.lockOwner[i] = op
		}
	}
	return true
}

// Unlock releases the lock operation op holds on the members in the given
// slots. A slot whose member left since Lock holds a member op never locked.
func (t *Tree) Unlock(op int64, slots ...int32) {
	for _, i := range slots {
		if t.live(i) && t.lockOwner[i] == op {
			t.lockOwner[i] = 0
		}
	}
}

// childAppend links c as the new tail of p's child list.
func (t *Tree) childAppend(p, c int32) {
	t.parent[c] = p
	t.prevSib[c] = t.lastKid[p]
	t.nextSib[c] = none
	if t.lastKid[p] == none {
		t.firstKid[p] = c
	} else {
		t.nextSib[t.lastKid[p]] = c
	}
	t.lastKid[p] = c
	t.kidCount[p]++
	if t.lx != nil && t.kidCount[p] >= t.outDeg[p] {
		t.lx.spareSync(p, false)
	}
}

// childRemove unlinks c from p's child list, replicating the historical
// children-slice semantics: the former tail child moves into c's position
// (swap-remove), so sibling order changes exactly as it did with the slice.
// This matters for determinism — child order feeds orphan ordering, level
// order and pre-order traversal.
func (t *Tree) childRemove(p, c int32) {
	tail := t.lastKid[p]
	if tail == c {
		// c is the tail: plain pop.
		pr := t.prevSib[c]
		if pr == none {
			t.firstKid[p] = none
		} else {
			t.nextSib[pr] = none
		}
		t.lastKid[p] = pr
	} else {
		// Snapshot c's neighbors, then unlink the tail and splice it into
		// c's slot.
		pr, nx := t.prevSib[c], t.nextSib[c]
		pl := t.prevSib[tail]
		t.nextSib[pl] = none
		t.lastKid[p] = pl
		if nx == tail {
			// c was immediately before the tail: the tail simply takes
			// c's place as the new last child.
			if pr == none {
				t.firstKid[p] = tail
			} else {
				t.nextSib[pr] = tail
			}
			t.prevSib[tail] = pr
			t.nextSib[tail] = none
			t.lastKid[p] = tail
		} else {
			if pr == none {
				t.firstKid[p] = tail
			} else {
				t.nextSib[pr] = tail
			}
			t.prevSib[tail] = pr
			t.nextSib[tail] = nx
			t.prevSib[nx] = tail
		}
	}
	t.prevSib[c] = none
	t.nextSib[c] = none
	t.kidCount[p]--
	if t.lx != nil && t.depth[p] >= 0 {
		t.lx.spareSync(p, true)
	}
}

// levelInsert and levelRemove keep the level lists, which exist only while
// the level index (lx) does. They stay small enough to inline into the
// subtree walks; their callers, not they, guard on lx and keep it in step.
func (t *Tree) levelInsert(n int32) {
	d := int(t.depth[n])
	for len(t.levels) <= d {
		t.levels = append(t.levels, nil)
	}
	t.levelIdx[n] = int32(len(t.levels[d]))
	t.levels[d] = append(t.levels[d], t.handle[n])
	t.levelCount++
}

func (t *Tree) levelRemove(n int32) {
	d := int(t.depth[n])
	level := t.levels[d]
	last := len(level) - 1
	moved := level[last]
	level[t.levelIdx[n]] = moved
	t.levelIdx[moved.idx] = t.levelIdx[n]
	level[last] = nil
	t.levels[d] = level[:last]
	t.levelIdx[n] = none
	t.levelCount--
}

func (t *Tree) orderRemove(n int32) {
	if t.orderIdx[n] < 0 {
		return
	}
	last := len(t.order) - 1
	moved := t.order[last]
	t.order[t.orderIdx[n]] = moved
	t.orderIdx[moved.slot] = t.orderIdx[n]
	t.order = t.order[:last]
	t.orderIdx[n] = none
}
