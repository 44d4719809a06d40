// Package overlay implements the single-tree overlay multicast substrate the
// paper's algorithms operate on: members with out-degree constraints derived
// from their outbound bandwidths, parent/child links, per-layer indexing (the
// centralized relaxed-BO/TO algorithms work through the layers top-down; see
// LevelIndex), overlay path delays, and the disruption/reconnection accounting
// the evaluation reports.
//
// The package is purely structural: which parent a member picks, when nodes
// switch positions, and how losses are repaired live in the construct, rost
// and cer packages.
//
// # Memory layout
//
// Member state is stored struct-of-arrays: Tree keeps parallel slices
// (parent, first-child/next-sibling links, depth, degree, path delay,
// attached flags, lock owners) indexed by a dense int32 index allocated from
// a free list. The exported *Member is a small stable handle carrying only
// identity and statistics fields plus the dense index; all structural
// accessors delegate to the arrays. MemberID remains the stable external
// name, mapped through one dense idToIdx table (IDs are sequential and never
// reused, so the table is a flat slice, not a map). This keeps a member's
// hot structural state at ~100 contiguous bytes and removes per-member
// children slices, which is what lets a single run hold 10^6 members.
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

// none is the sentinel dense index ("no member").
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

// Member is one overlay node: a stable handle into the tree's
// struct-of-arrays state. The exported identity and statistics fields live on
// the handle; structural state (parent, children, depth, ...) lives in the
// Tree's parallel slices and is reached through the accessor methods. After
// the member is removed from the tree the structural accessors return
// zero values (nil parent, no children, depth -1, not attached).
type Member struct {
	ID MemberID
	// Attach is the stub router the member sits on.
	Attach topology.NodeID
	// Bandwidth is the outbound access bandwidth in units of the stream
	// rate. The member can feed floor(Bandwidth) children. It must not change
	// once the member exists: the tree caches the degree at NewMember and a
	// level index ranks attached members by it.
	Bandwidth float64
	// JoinTime is the virtual time the member entered the overlay. Like
	// Bandwidth it is a level-index key, so it may be assigned only while the
	// member is unattached (churn's pre-population back-dates it between
	// NewMember and the first join).
	JoinTime time.Duration

	// Disruptions counts streaming disruptions experienced (one per failed
	// ancestor, per the paper's reliability metric).
	Disruptions int
	// Reconnections counts optimizer-induced parent changes (switch
	// operations and evictions); failure rejoins are not counted, matching
	// the paper's protocol-overhead metric.
	Reconnections int

	// tree/idx locate the member's structural state. idx is -1 once the
	// member has been removed from the tree.
	tree *Tree
	idx  int32
}

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

// Children returns the member's children as a freshly allocated slice the
// caller may keep. Hot paths should prefer NumChildren/VisitChildren, which
// do not allocate.
func (m *Member) Children() []*Member {
	t := m.tree
	if t == nil || m.idx < 0 || t.kidCount[m.idx] == 0 {
		return nil
	}
	return m.AppendChildren(make([]*Member, 0, t.kidCount[m.idx]))
}

// AppendChildren appends the member's children to dst in child-list order and
// returns the extended slice: Children into a caller-owned buffer.
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

// VisitChildren calls fn for each child in child-list order without
// allocating. fn must not mutate the tree.
func (m *Member) VisitChildren(fn func(*Member)) {
	t := m.tree
	if t == nil || m.idx < 0 {
		return
	}
	for c := t.firstKid[m.idx]; c != none; c = t.nextSib[c] {
		fn(t.handle[c])
	}
}

// Depth returns the member's layer (root = 0), or -1 when detached.
func (m *Member) Depth() int {
	if m.tree == nil || m.idx < 0 {
		return -1
	}
	return int(m.tree.depth[m.idx])
}

// PathDelay returns the accumulated delay of the overlay path from the source.
func (m *Member) PathDelay() time.Duration {
	if m.tree == nil || m.idx < 0 {
		return 0
	}
	return m.tree.pathDelay[m.idx]
}

// Attached reports whether the member currently has a position in the tree
// (the root is always attached).
func (m *Member) Attached() bool {
	if m.tree == nil || m.idx < 0 {
		return false
	}
	return m.tree.attached[m.idx]
}

// OutDegree returns the member's out-degree constraint: the number of
// full-rate children its outbound bandwidth supports.
func (m *Member) OutDegree() int {
	if m.Bandwidth < 0 {
		return 0
	}
	return int(m.Bandwidth)
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

// Age returns the member's age at virtual time now.
func (m *Member) Age(now time.Duration) time.Duration {
	if now < m.JoinTime {
		return 0
	}
	return now - m.JoinTime
}

// BTP returns the member's bandwidth-time product at virtual time now:
// outbound bandwidth x age in seconds (the ROST switching metric).
func (m *Member) BTP(now time.Duration) float64 {
	return m.Bandwidth * m.Age(now).Seconds()
}

// Slot returns the member's dense index in its tree's slot space, or -1 once
// the member has been removed. Slots are recycled: a slot identifies a member
// only while the tree is not mutated, which is what lets callers keep
// per-member scratch in flat slices of length Tree.Slots instead of maps.
func (m *Member) Slot() int {
	if m.tree == nil {
		return -1
	}
	return int(m.idx)
}

// Locked reports whether the member is held by a switching operation.
//
//lint:ignore test-only-export reason: rost's tests read a member's switch lock through it
func (m *Member) Locked() bool {
	if m.tree == nil || m.idx < 0 {
		return false
	}
	return m.tree.lockOwner[m.idx] != 0
}

// Tree is the overlay multicast tree. It is single-threaded by design (the
// simulation kernel is sequential); no internal locking.
type Tree struct {
	root *Member
	// delayFn gives the unicast delay between two underlay routers.
	delayFn func(a, b topology.NodeID) time.Duration
	nextID  MemberID

	// Struct-of-arrays member state, all indexed by the dense index. A slot
	// is live iff handle[i] != nil.
	handle    []*Member
	parent    []int32
	firstKid  []int32
	lastKid   []int32
	prevSib   []int32
	nextSib   []int32
	kidCount  []int32
	outDeg    []int32 // floor(Bandwidth), cached for the degree invariant
	depth     []int32 // -1 when detached
	pathDelay []time.Duration
	attached  []bool
	// lockOwner is the ID of the in-flight switching operation holding the
	// member, or zero when unlocked (ROST locking protocol).
	lockOwner []int64
	orderIdx  []int32
	levelIdx  []int32

	// free lists recycled dense indexes; idToIdx maps MemberID (sequential,
	// never reused) to the member's dense index, or -1 once removed.
	free    []int32
	idToIdx []int32

	// order lists the slots of attached and detached live members for O(1)
	// sampling (the root excluded); levels[d] lists attached members at
	// depth d.
	order  []int32
	levels [][]*Member
	// lx is the per-level summary the relaxed BO/TO joins read instead of
	// scanning levels; nil until LevelIndex first builds it.
	lx *LevelIndex

	// liveCount counts live members including the root. attachedCount and
	// levelCount both track the number of attached members but are
	// maintained at different mutation sites (attached-flag flips vs level
	// insert/remove), so the invariant check can compare them.
	liveCount     int
	attachedCount int
	levelCount    int

	// sampleSeen/sampleEpoch replace SampleSlots' per-call dedup map: an
	// index is "drawn this call" iff sampleSeen[i] == sampleEpoch. Bumping
	// the epoch clears every stamp at once, so the buffer is reused across
	// calls without touching its contents. It grows geometrically: members
	// arrive one at a time, so sizing it to exactly len(order) would re-make
	// it on every join. sampleSlots and sampleOut are Sample's reusable
	// buffers (it returns a full-capacity slice of sampleOut).
	sampleSeen  []uint32
	sampleEpoch uint32
	sampleSlots []int32
	sampleOut   []*Member

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
	t := &Tree{
		delayFn: delayFn,
		nextID:  1,
		idToIdx: []int32{none}, // MemberID zero is invalid
	}
	root := t.newMemberAt(rootAttach, rootBandwidth, 0)
	i := root.idx
	t.attached[i] = true
	t.attachedCount++
	t.orderIdx[i] = none // the root is not sampleable as a rejoin candidate owner
	t.levelIdx[i] = 0
	t.depth[i] = 0
	t.root = root
	t.levels = append(t.levels, []*Member{root})
	t.levelCount++
	return t, nil
}

// newMemberAt allocates a dense slot (recycling from the free list when
// possible), resets all of its per-slot state and registers the ID mapping.
func (t *Tree) newMemberAt(attach topology.NodeID, bandwidth float64, now time.Duration) *Member {
	m := &Member{
		ID:        t.nextID,
		Attach:    attach,
		Bandwidth: bandwidth,
		JoinTime:  now,
		tree:      t,
	}
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
		t.outDeg[i] = int32(m.OutDegree())
		t.depth[i] = -1
		t.pathDelay[i] = 0
		t.attached[i] = false
		t.lockOwner[i] = 0
		t.orderIdx[i] = none
		t.levelIdx[i] = none
	} else {
		i = int32(len(t.handle))
		t.handle = append(t.handle, m)
		t.parent = append(t.parent, none)
		t.firstKid = append(t.firstKid, none)
		t.lastKid = append(t.lastKid, none)
		t.prevSib = append(t.prevSib, none)
		t.nextSib = append(t.nextSib, none)
		t.kidCount = append(t.kidCount, 0)
		t.outDeg = append(t.outDeg, int32(m.OutDegree()))
		t.depth = append(t.depth, -1)
		t.pathDelay = append(t.pathDelay, 0)
		t.attached = append(t.attached, false)
		t.lockOwner = append(t.lockOwner, 0)
		t.orderIdx = append(t.orderIdx, none)
		t.levelIdx = append(t.levelIdx, none)
	}
	m.idx = i
	t.idToIdx = append(t.idToIdx, i)
	t.liveCount++
	return m
}

// Grow reserves room for n slots, so a tree expected to hold up to n live
// members fills its per-slot arrays, its sampling order and SampleSlots'
// dedup scratch without regrowing them as members arrive. It changes no
// member, slot or draw; a tree that outgrows n grows as before.
func (t *Tree) Grow(n int) {
	if n <= len(t.handle) {
		return
	}
	k := n - len(t.handle)
	t.handle = slices.Grow(t.handle, k)
	t.parent = slices.Grow(t.parent, k)
	t.firstKid = slices.Grow(t.firstKid, k)
	t.lastKid = slices.Grow(t.lastKid, k)
	t.prevSib = slices.Grow(t.prevSib, k)
	t.nextSib = slices.Grow(t.nextSib, k)
	t.kidCount = slices.Grow(t.kidCount, k)
	t.outDeg = slices.Grow(t.outDeg, k)
	t.depth = slices.Grow(t.depth, k)
	t.pathDelay = slices.Grow(t.pathDelay, k)
	t.attached = slices.Grow(t.attached, k)
	t.lockOwner = slices.Grow(t.lockOwner, k)
	t.orderIdx = slices.Grow(t.orderIdx, k)
	t.levelIdx = slices.Grow(t.levelIdx, k)
	t.order = slices.Grow(t.order, n-len(t.order))
	if len(t.sampleSeen) < n {
		t.sampleSeen = make([]uint32, n)
		t.sampleEpoch = 0
	}
}

// Root returns the source member.
func (t *Tree) Root() *Member { return t.root }

// Size returns the number of live members including the source.
func (t *Tree) Size() int { return t.liveCount }

// Slots returns the size of the dense slot space: every live member's Slot is
// below it. It only grows, by one per member that finds no recycled slot.
func (t *Tree) Slots() int { return len(t.handle) }

// SlotView is a read-only window onto the tree's structural arrays, indexed
// by slot (Member.Slot), for callers that walk many members per call and
// would otherwise chase a *Member handle at every step. It is valid until the
// tree's next mutation, which may grow or recycle the arrays; fetch a fresh
// one with Tree.SlotView per call instead of keeping it.
type SlotView struct {
	parent   []int32
	depth    []int32
	kidCount []int32
	outDeg   []int32
	attached []bool
	handle   []*Member
}

// SlotView returns a view of the tree's current slot arrays.
func (t *Tree) SlotView() SlotView {
	return SlotView{parent: t.parent, depth: t.depth, kidCount: t.kidCount, outDeg: t.outDeg, attached: t.attached, handle: t.handle}
}

// Parent returns the slot of i's parent, or -1 for the root and detached
// members.
func (v *SlotView) Parent(i int32) int32 { return v.parent[i] }

// Depth returns slot i's layer (root = 0), or -1 when detached.
func (v *SlotView) Depth(i int32) int32 { return v.depth[i] }

// Attached reports whether slot i has a position in the tree.
func (v *SlotView) Attached(i int32) bool { return v.attached[i] }

// HasSpare reports whether slot i can accept one more child: Member.HasSpare
// without the handle.
func (v *SlotView) HasSpare(i int32) bool { return v.kidCount[i] < v.outDeg[i] }

// Member returns the member occupying slot i, or nil for a free slot.
func (v *SlotView) Member(i int32) *Member { return v.handle[i] }

// Member returns the live member with the given ID, or nil.
func (t *Tree) Member(id MemberID) *Member {
	if id <= 0 || int64(id) >= int64(len(t.idToIdx)) {
		return nil
	}
	i := t.idToIdx[id]
	if i < 0 {
		return nil
	}
	return t.handle[i]
}

// byHandle reports whether m is a live member of this tree.
func (t *Tree) byHandle(m *Member) bool {
	return m != nil && m.tree == t && m.idx >= 0 && t.handle[m.idx] == m
}

// NewMember registers a live member without attaching it to the tree. The
// caller attaches it with Attach once a parent is chosen.
func (t *Tree) NewMember(attach topology.NodeID, bandwidth float64, now time.Duration) *Member {
	m := t.newMemberAt(attach, bandwidth, now)
	t.orderIdx[m.idx] = int32(len(t.order))
	t.order = append(t.order, m.idx)
	return m
}

// Attach links child under parent. The child must be live, detached and
// parentless; the parent must be live, attached and have spare degree.
func (t *Tree) Attach(child, parent *Member) error {
	switch {
	case child == nil || parent == nil:
		return ErrNotMember
	case !t.byHandle(child) || !t.byHandle(parent):
		return ErrNotMember
	case child == parent:
		return ErrSelfAttach
	case t.parent[child.idx] != none || t.attached[child.idx]:
		return ErrHasParent
	case !t.attached[parent.idx]:
		return ErrNotAttached
	case t.kidCount[parent.idx] >= t.outDeg[parent.idx]:
		return ErrFull
	}
	t.childAppend(parent.idx, child.idx)
	t.placeSubtree(child.idx)
	return nil
}

// placeSubtree recomputes depth, path delay and level indexing for the member
// at dense index m and all its descendants, in pre-order (children of a
// rejoining member keep their subtrees, so a re-attach moves whole subtrees).
func (t *Tree) placeSubtree(m int32) {
	n := m
	for {
		p := t.parent[n]
		t.depth[n] = t.depth[p] + 1
		t.pathDelay[n] = t.pathDelay[p] + t.delayFn(t.handle[p].Attach, t.handle[n].Attach)
		if !t.attached[n] {
			t.attached[n] = true
			t.attachedCount++
		}
		t.levelInsert(n)
		if t.lx != nil {
			t.lx.insert(n)
		}
		if fc := t.firstKid[n]; fc != none {
			n = fc
			continue
		}
		for n != m && t.nextSib[n] == none {
			n = t.parent[n]
		}
		if n == m {
			return
		}
		n = t.nextSib[n]
	}
}

// Detach unlinks m from its parent, leaving m's own subtree intact but
// marking every node in it unattached (no live path from the source).
func (t *Tree) Detach(m *Member) error {
	if m == nil || !t.byHandle(m) {
		return ErrNotMember
	}
	if m == t.root {
		return ErrRootLeave
	}
	if t.parent[m.idx] == none {
		return ErrNotAttached
	}
	t.childRemove(t.parent[m.idx], m.idx)
	t.parent[m.idx] = none
	// Unplace the whole subtree: depth resets to -1, path delay keeps its
	// last attached value (historical behavior; callers gate on Attached).
	n := m.idx
	for {
		if t.attached[n] {
			if t.lx != nil {
				t.lx.remove(n)
			}
			t.levelRemove(n)
			t.attached[n] = false
			t.attachedCount--
			t.depth[n] = -1
		}
		if fc := t.firstKid[n]; fc != none {
			n = fc
			continue
		}
		for n != m.idx && t.nextSib[n] == none {
			n = t.parent[n]
		}
		if n == m.idx {
			return nil
		}
		n = t.nextSib[n]
	}
}

// Remove deletes a member from the overlay entirely (departure or failure)
// and returns its now-orphaned children, each of which keeps its own subtree
// and must rejoin. The children are returned detached.
func (t *Tree) Remove(m *Member) ([]*Member, error) {
	if m == nil || !t.byHandle(m) {
		return nil, ErrNotMember
	}
	if m == t.root {
		return nil, ErrRootLeave
	}
	orphans := m.Children()
	for _, c := range orphans {
		if err := t.Detach(c); err != nil {
			return nil, fmt.Errorf("overlay: detaching orphan %d: %w", c.ID, err)
		}
	}
	if t.parent[m.idx] != none {
		if err := t.Detach(m); err != nil {
			return nil, fmt.Errorf("overlay: detaching leaver %d: %w", m.ID, err)
		}
	}
	t.orderRemove(m.idx)
	i := m.idx
	t.idToIdx[m.ID] = none
	t.handle[i] = nil
	t.lockOwner[i] = 0
	t.free = append(t.free, i)
	t.liveCount--
	m.idx = -1
	return orphans, nil
}

// VisitMembers calls fn for every live member, attached or not, in
// unspecified order (the source included).
func (t *Tree) VisitMembers(fn func(*Member)) {
	fn(t.root)
	for _, i := range t.order {
		fn(t.handle[i])
	}
}

// VisitSubtree calls fn for every member in m's subtree including m itself,
// in pre-order. fn must not mutate the tree structure.
func (t *Tree) VisitSubtree(m *Member, fn func(*Member)) {
	if m == nil || m.idx < 0 || m.tree != t {
		return
	}
	n := m.idx
	for {
		fn(t.handle[n])
		if fc := t.firstKid[n]; fc != none {
			n = fc
			continue
		}
		for n != m.idx && t.nextSib[n] == none {
			n = t.parent[n]
		}
		if n == m.idx {
			return
		}
		n = t.nextSib[n]
	}
}

// SubtreeSize returns the number of members in m's subtree including m.
func (t *Tree) SubtreeSize(m *Member) int {
	if m == nil || m.idx < 0 || m.tree != t {
		return 0
	}
	count := 0
	n := m.idx
	for {
		count++
		if fc := t.firstKid[n]; fc != none {
			n = fc
			continue
		}
		for n != m.idx && t.nextSib[n] == none {
			n = t.parent[n]
		}
		if n == m.idx {
			return count
		}
		n = t.nextSib[n]
	}
}

// AppendAncestors appends to dst the path from m's parent up to the root,
// nearest first, and returns the extended slice.
func (t *Tree) AppendAncestors(dst []*Member, m *Member) []*Member {
	if m == nil || m.idx < 0 {
		return dst
	}
	for p := t.parent[m.idx]; p != none; p = t.parent[p] {
		dst = append(dst, t.handle[p])
	}
	return dst
}

// MaxDepth returns the current tree height (deepest attached layer).
func (t *Tree) MaxDepth() int {
	for d := len(t.levels) - 1; d >= 0; d-- {
		if len(t.levels[d]) > 0 {
			return d
		}
	}
	return 0
}

// Level returns the attached members at depth d. The returned slice is owned
// by the tree; callers must not mutate it.
//
//lint:ignore test-only-export reason: construct's reference test scans whole levels through it
func (t *Tree) Level(d int) []*Member {
	if d < 0 || d >= len(t.levels) {
		return nil
	}
	return t.levels[d]
}

// SampleSlots appends to dst the slots of up to n distinct live members
// drawn uniformly at random, excluding the root and the member in slot
// exclude (-1 excludes nobody), and returns the extended slice. This models a
// joining node's bounded membership discovery ("until it obtains a certain
// number, say 100, of known members"). The slots are valid until the tree's
// next mutation, like a SlotView.
//
// When n covers the whole membership every member is listed in order, with no
// draw. Otherwise members are drawn with rejection: a partial Fisher-Yates
// over a scratch index space would disturb the order list, and rejection is
// cheap because n << len(order) in the overlay regime (100 out of thousands).
// Duplicates are detected with the tree's epoch-stamped scratch, which keeps
// the accept/reject sequence of a dedup map, and the draw gives up after 20n
// attempts, so the run of the stream a call consumes is bounded.
func (t *Tree) SampleSlots(rng *xrand.Source, n int, exclude int32, dst []int32) []int32 {
	if n <= 0 || len(t.order) == 0 {
		return dst
	}
	if n >= len(t.order) {
		for _, i := range t.order {
			if i != exclude {
				dst = append(dst, i)
			}
		}
		return dst
	}
	if len(t.sampleSeen) < len(t.order) {
		t.sampleSeen = make([]uint32, max(len(t.order), 2*len(t.sampleSeen)))
		t.sampleEpoch = 0
	}
	t.sampleEpoch++
	if t.sampleEpoch == 0 { // epoch wrapped: stale stamps could collide
		clear(t.sampleSeen)
		t.sampleEpoch = 1
	}
	want := len(dst) + n
	for attempts := 0; len(dst) < want && attempts < 20*n; attempts++ {
		k := rng.Intn(len(t.order))
		if t.sampleSeen[k] == t.sampleEpoch {
			continue
		}
		t.sampleSeen[k] = t.sampleEpoch
		if i := t.order[k]; i != exclude {
			dst = append(dst, i)
		}
	}
	return dst
}

// Sample is SampleSlots for callers that want handles and exclude by one: it
// draws exactly the same members and returns nil when SampleSlots would draw
// nothing at all (n <= 0 or no member but the source).
//
// The returned slice is backed by a tree-owned scratch buffer and is valid
// only until the next Sample call; its capacity equals its length, so a
// caller that appends cannot scribble into the scratch — it pays an
// allocation instead.
func (t *Tree) Sample(rng *xrand.Source, n int, exclude *Member) []*Member {
	if n <= 0 || len(t.order) == 0 {
		return nil
	}
	ex := none
	if t.byHandle(exclude) {
		ex = exclude.idx
	}
	t.sampleSlots = t.SampleSlots(rng, n, ex, t.sampleSlots[:0])
	out := t.sampleOut[:0]
	for _, i := range t.sampleSlots {
		out = append(out, t.handle[i])
	}
	t.sampleOut = out
	return out[:len(out):len(out)]
}

// RecordFailure increments the disruption counter of every attached member
// in the subtrees below the failed member (the member itself is excluded: it
// departed). It returns how many members were disrupted. Per the paper's
// metric, an abrupt departure disrupts each descendant once.
func (t *Tree) RecordFailure(failed *Member) int {
	if failed == nil || failed.idx < 0 {
		return 0
	}
	count := 0
	for c := t.firstKid[failed.idx]; c != none; c = t.nextSib[c] {
		n := c
		for {
			t.handle[n].Disruptions++
			count++
			if fc := t.firstKid[n]; fc != none {
				n = fc
				continue
			}
			for n != c && t.nextSib[n] == none {
				n = t.parent[n]
			}
			if n == c {
				break
			}
			n = t.nextSib[n]
		}
	}
	return count
}

// Lock attempts to acquire the ROST switching lock on all given members on
// behalf of operation op (non-zero). It either locks all of them and returns
// true, or locks none and returns false (a member already held by a
// different operation blocks the whole set).
func (t *Tree) Lock(op int64, members ...*Member) bool {
	if op == 0 {
		return false
	}
	for _, m := range members {
		if m.idx >= 0 && t.lockOwner[m.idx] != 0 && t.lockOwner[m.idx] != op {
			return false
		}
	}
	for _, m := range members {
		if m.idx >= 0 {
			t.lockOwner[m.idx] = op
		}
	}
	return true
}

// Unlock releases the lock on all members held by operation op.
func (t *Tree) Unlock(op int64, members ...*Member) {
	for _, m := range members {
		if m.idx >= 0 && t.lockOwner[m.idx] == op {
			t.lockOwner[m.idx] = 0
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
	if t.lx != nil && t.attached[p] {
		t.lx.spareSync(p, true)
	}
}

// levelInsert and levelRemove stay small enough to inline into the subtree
// walks; their callers, not they, keep the level index (lx) in step.
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
	t.orderIdx[moved] = t.orderIdx[n]
	t.order = t.order[:last]
	t.orderIdx[n] = none
}
