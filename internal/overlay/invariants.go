package overlay

import "fmt"

// checkLocal validates the member in slot i against its immediate
// neighborhood: degree bound, child-link integrity (parent pointers, sibling
// back-links, count), its children's depth and path delay, and its own slots
// in the level and order indexes.
func (t *Tree) checkLocal(i int32) error {
	m := t.handle[i]
	if want := outDegree(t.bandwidth[i]); t.outDeg[i] != want {
		return fmt.Errorf("overlay: member %d degree %d disagrees with its bandwidth %g (degree %d)", m.ID, t.outDeg[i], t.bandwidth[i], want)
	}
	if t.attach[i] != m.attach {
		return fmt.Errorf("overlay: member %d router %d disagrees with its slot's copy %d", m.ID, m.attach, t.attach[i])
	}
	if t.kidCount[i] > t.outDeg[i] {
		return fmt.Errorf("overlay: member %d has %d children, degree %d", m.ID, t.kidCount[i], t.outDeg[i])
	}
	var n int32
	prev := none
	for c := t.firstKid[i]; c != none; c = t.nextSib[c] {
		n++
		if n > t.kidCount[i] {
			return fmt.Errorf("overlay: member %d child list longer than its count %d", m.ID, t.kidCount[i])
		}
		if t.handle[c] == nil {
			return fmt.Errorf("overlay: member %d links freed child slot %d", m.ID, c)
		}
		if t.parent[c] != i {
			return fmt.Errorf("overlay: member %d's child %d has wrong parent", m.ID, t.handle[c].ID)
		}
		if t.prevSib[c] != prev {
			return fmt.Errorf("overlay: member %d's child %d has broken sibling back-link", m.ID, t.handle[c].ID)
		}
		depth := t.depth[i] + 1
		if t.depth[i] < 0 {
			depth = -1 // a detached member's whole subtree is detached
		}
		if t.depth[c] != depth {
			return fmt.Errorf("overlay: member %d depth %d, parent depth %d", t.handle[c].ID, t.depth[c], t.depth[i])
		}
		// Attached or not, a child's path delay is its parent's plus their
		// edge: Detach leaves a subtree's delays in place and placeSubtree
		// shifts them all by one amount.
		want := t.pathDelay[i] + t.delayFn(t.attach[i], t.attach[c])
		if t.pathDelay[c] != want {
			return fmt.Errorf("overlay: member %d pathDelay %v, want %v", t.handle[c].ID, t.pathDelay[c], want)
		}
		prev = c
	}
	if n != t.kidCount[i] {
		return fmt.Errorf("overlay: member %d child list holds %d, count says %d", m.ID, n, t.kidCount[i])
	}
	if t.lastKid[i] != prev {
		return fmt.Errorf("overlay: member %d lastKid does not terminate its child list", m.ID)
	}
	attached := t.depth[i] >= 0
	if attached {
		if d := int(t.depth[i]); t.lx != nil && (d >= len(t.levels) || !holds(t.levels[d], t.levelIdx[i], m)) {
			return fmt.Errorf("overlay: level index corrupt at depth %d slot %d (member %d)", d, t.levelIdx[i], m.ID)
		}
		if p := t.parent[i]; p != none && t.depth[p] < 0 {
			return fmt.Errorf("overlay: member %d attached under detached parent %d", m.ID, t.handle[p].ID)
		}
		if t.parent[i] == none && m != t.root {
			return fmt.Errorf("overlay: member %d attached with no parent", m.ID)
		}
	} else if t.depth[i] != -1 {
		return fmt.Errorf("overlay: detached member %d has depth %d", m.ID, t.depth[i])
	}
	if !attached && t.lx != nil && t.levelIdx[i] != none {
		return fmt.Errorf("overlay: detached member %d still holds level slot %d", m.ID, t.levelIdx[i])
	}
	if x := t.lx; x != nil && int(i) < len(x.heapPos) {
		hp, sp := x.heapPos[i], x.sparePos[i]
		inHeap, inSpare := attached && t.parent[i] != none, attached && t.kidCount[i] < t.outDeg[i]
		if (hp != none) != inHeap || inHeap && !holds(x.heaps[t.depth[i]], hp, i) {
			return fmt.Errorf("overlay: level index heap slot %d wrong for member %d", hp, m.ID)
		}
		if (sp != none) != inSpare || inSpare && !holds(x.spare[x.bucket(i)], sp, m) {
			return fmt.Errorf("overlay: level index spare slot %d wrong for member %d", sp, m.ID)
		}
	}
	if m != t.root {
		if oi := t.orderIdx[i]; oi < 0 || int(oi) >= len(t.order) || t.order[oi].slot != i {
			return fmt.Errorf("overlay: member %d missing from the order index", m.ID)
		}
	}
	return nil
}

// holds reports whether list records e at position pos.
func holds[E comparable](list []E, pos int32, e E) bool {
	return pos >= 0 && int(pos) < len(list) && list[pos] == e
}

// CheckInvariantsFull verifies every structural invariant with a complete
// O(n) scan: pre-order walks from the source and from the top of every
// detached subtree (degree bounds, link integrity, depths, path delays
// relative to the walk's top, level and order slots, double-reachability),
// the every-live-member-was-walked audit in slot order, the free-list count,
// and, on a tree that keeps level lists, the full level-list and level-index
// sweep.
// Allocation-free: reachability is tracked in an epoch-stamped scratch
// buffer. It is the tree's one checker: the -paranoid audit and the tests
// call it, and mutations pay nothing for it.
func (t *Tree) CheckInvariantsFull() error {
	if len(t.invSeen) < len(t.handle) {
		t.invSeen = make([]uint32, len(t.handle))
		t.invEpoch = 0
	}
	t.invEpoch++
	if t.invEpoch == 0 { // epoch wrapped: stale stamps could collide
		clear(t.invSeen)
		t.invEpoch = 1
	}
	if t.lx != nil && len(t.levelIdx) != len(t.handle) {
		return fmt.Errorf("overlay: %d level slots for %d member slots", len(t.levelIdx), len(t.handle))
	}
	if err := t.invWalk(t.root.idx); err != nil {
		return err
	}
	// Every other member with no parent tops a detached subtree: walk those
	// too, then require that the walks saw every live member (each walk
	// rejects a second visit). Both scans run in slot order, so the violation
	// reported first is the same on every run.
	for i, m := range t.handle {
		if m != nil && int32(i) != t.root.idx && t.parent[i] == none {
			if err := t.invWalk(int32(i)); err != nil {
				return err
			}
		}
	}
	for i, m := range t.handle {
		if m != nil && t.invSeen[i] != t.invEpoch {
			return fmt.Errorf("overlay: member %d reachable from neither the source nor a detached subtree's top", m.ID)
		}
	}
	attachedCount, live := 0, 0
	for i, m := range t.handle {
		if m == nil {
			// A free slot holds nothing its next member could inherit.
			if t.bandwidth[i] != 0 || t.joinTime[i] != 0 || t.disruptions[i] != 0 || t.reconnections[i] != 0 || t.lockOwner[i] != 0 {
				return fmt.Errorf("overlay: free slot %d holds stale member state", i)
			}
			continue
		}
		live++
		if t.depth[i] >= 0 {
			attachedCount++
		}
	}
	if len(t.free)+live != len(t.handle) {
		return fmt.Errorf("overlay: %d free slots and %d live members fill %d slots", len(t.free), live, len(t.handle))
	}
	if attachedCount != t.attachedCount {
		return fmt.Errorf("overlay: maintained attached counter %d disagrees with scan (%d attached)", t.attachedCount, attachedCount)
	}
	if err := t.checkLevels(attachedCount); err != nil {
		return err
	}
	if t.liveCount != len(t.order)+1 {
		return fmt.Errorf("overlay: %d live members, order list holds %d (+root)", t.liveCount, len(t.order))
	}
	return nil
}

// checkLevels verifies that a tree without a level index keeps no level
// lists, and otherwise that the lists hold exactly the attached members at
// their depths and positions, that every level's heap, spare buckets and spare
// count hold exactly the occupants checkLocal expects there (the slots and
// buckets themselves are checkLocal's), that the heap order holds at every
// node, and that the top is the weakest occupant a linear scan of the level
// finds. A Bandwidth or JoinTime changed under an attached member fails here.
func (t *Tree) checkLevels(attachedCount int) error {
	x := t.lx
	if x == nil {
		if t.levels != nil || t.levelIdx != nil || t.levelCount != 0 {
			return fmt.Errorf("overlay: %d level lists holding %d members kept without a level index", len(t.levels), t.levelCount)
		}
		return nil
	}

	counted := 0
	for d, level := range t.levels {
		for li, m := range level {
			if m.idx < 0 || int(t.depth[m.idx]) != d || int(t.levelIdx[m.idx]) != li {
				return fmt.Errorf("overlay: level index corrupt at depth %d slot %d (member %d)", d, li, m.ID)
			}
			counted++
		}
	}
	if counted != attachedCount || counted != t.levelCount {
		return fmt.Errorf("overlay: level lists hold %d members, counter says %d, %d attached", counted, t.levelCount, attachedCount)
	}
	for d, level := range t.levels {
		var weakest *Member
		ranked, spare := 0, 0
		for _, m := range level {
			if t.kidCount[m.idx] < t.outDeg[m.idx] {
				spare++
			}
			if t.parent[m.idx] == none {
				continue
			}
			ranked++
			if weakest == nil || x.order.outranks(t, weakest.idx, m.idx) {
				weakest = m
			}
		}
		filed := 0
		for _, s := range x.spare[d*x.buckets : (d+1)*x.buckets] {
			filed += len(s)
		}
		if len(x.heaps[d]) != ranked || x.spareN[d] != spare || filed != spare {
			return fmt.Errorf("overlay: level index at depth %d does not hold the level's %d ranked, %d spare occupants", d, ranked, spare)
		}
		if x.Weakest(d) != weakest {
			return fmt.Errorf("overlay: level index weakest at depth %d is not the scan's", d)
		}
		for k, n := range x.heaps[d] {
			if k > 0 && x.weaker(n, x.heaps[d][(k-1)/2]) {
				return fmt.Errorf("overlay: level index heap order broken at depth %d (slot %d)", d, n)
			}
		}
	}
	return nil
}

// invWalk is CheckInvariantsFull's pre-order walk over the subtree at slot
// i, stamping reachability and checking the per-member invariants.
func (t *Tree) invWalk(i int32) error {
	if t.invSeen[i] == t.invEpoch {
		return fmt.Errorf("overlay: member %d reachable twice", t.handle[i].ID)
	}
	t.invSeen[i] = t.invEpoch
	if err := t.checkLocal(i); err != nil {
		return err
	}
	for c := t.firstKid[i]; c != none; c = t.nextSib[c] {
		if err := t.invWalk(c); err != nil {
			return err
		}
	}
	return nil
}
