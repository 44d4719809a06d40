package overlay

import "fmt"

// checkLocal validates the member at dense index i against its immediate
// neighborhood: degree bound, child-link integrity (parent pointers, sibling
// back-links, count), attached children's depth and path delay, and its own
// slots in the level and order indexes.
func (t *Tree) checkLocal(i int32) error {
	m := t.handle[i]
	if t.outDeg[i] != int32(m.OutDegree()) {
		return fmt.Errorf("overlay: member %d Bandwidth changed after NewMember (degree %d, cached %d)", m.ID, m.OutDegree(), t.outDeg[i])
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
		if t.attached[c] {
			if t.depth[c] != t.depth[i]+1 {
				return fmt.Errorf("overlay: member %d depth %d, parent depth %d", t.handle[c].ID, t.depth[c], t.depth[i])
			}
			want := t.pathDelay[i] + t.delayFn(m.Attach, t.handle[c].Attach)
			if t.pathDelay[c] != want {
				return fmt.Errorf("overlay: member %d pathDelay %v, want %v", t.handle[c].ID, t.pathDelay[c], want)
			}
		}
		prev = c
	}
	if n != t.kidCount[i] {
		return fmt.Errorf("overlay: member %d child list holds %d, count says %d", m.ID, n, t.kidCount[i])
	}
	if t.lastKid[i] != prev {
		return fmt.Errorf("overlay: member %d lastKid does not terminate its child list", m.ID)
	}
	if t.attached[i] {
		d := int(t.depth[i])
		li := t.levelIdx[i]
		if d < 0 || d >= len(t.levels) || !holds(t.levels[d], li, m) {
			return fmt.Errorf("overlay: level index corrupt at depth %d slot %d (member %d)", d, li, m.ID)
		}
		if p := t.parent[i]; p != none && !t.attached[p] {
			return fmt.Errorf("overlay: member %d attached under detached parent %d", m.ID, t.handle[p].ID)
		}
		if t.parent[i] == none && m != t.root {
			return fmt.Errorf("overlay: member %d attached with no parent", m.ID)
		}
	} else {
		if t.levelIdx[i] != none {
			return fmt.Errorf("overlay: detached member %d still in the level index", m.ID)
		}
		if t.depth[i] != -1 && t.parent[i] == none {
			return fmt.Errorf("overlay: detached parentless member %d has depth %d", m.ID, t.depth[i])
		}
	}
	if x := t.lx; x != nil && int(i) < len(x.heapPos) {
		hp, sp := x.heapPos[i], x.sparePos[i]
		inHeap, inSpare := t.attached[i] && t.parent[i] != none, t.attached[i] && t.kidCount[i] < t.outDeg[i]
		if (hp != none) != inHeap || inHeap && !holds(x.heaps[t.depth[i]], hp, m) {
			return fmt.Errorf("overlay: level index heap slot %d wrong for member %d", hp, m.ID)
		}
		if (sp != none) != inSpare || inSpare && !holds(x.spare[x.bucket(i)], sp, m) {
			return fmt.Errorf("overlay: level index spare slot %d wrong for member %d", sp, m.ID)
		}
	}
	if m != t.root {
		if oi := t.orderIdx[i]; oi < 0 || int(oi) >= len(t.order) || t.order[oi] != i {
			return fmt.Errorf("overlay: member %d missing from the order index", m.ID)
		}
	}
	return nil
}

// holds reports whether list records m at position pos.
func holds(list []*Member, pos int32, m *Member) bool {
	return pos >= 0 && int(pos) < len(list) && list[pos] == m
}

// CheckInvariantsFull verifies every structural invariant with a complete
// O(n) scan: the pre-order walk from the source (degree bounds, link
// integrity, depths, path delays, double-reachability), the
// every-attached-member-is-reachable audit in ID order, and the full
// level-index sweep. Allocation-free: reachability is tracked in an
// epoch-stamped scratch buffer. It is the tree's one checker: the -paranoid
// audit and the tests call it, and mutations pay nothing for it.
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
	if err := t.invWalk(t.root.idx); err != nil {
		return err
	}
	// Every attached member must be reachable from the root. Scan in ID
	// order (idToIdx is ID-ordered by construction) so the violation
	// reported first is the same on every run.
	for id := 1; id < len(t.idToIdx); id++ {
		i := t.idToIdx[id]
		if i >= 0 && t.attached[i] && t.invSeen[i] != t.invEpoch {
			return fmt.Errorf("overlay: attached member %d unreachable from source", id)
		}
	}
	// Level index must agree with member depths.
	counted := 0
	for d, level := range t.levels {
		for li, m := range level {
			if m.idx < 0 || int(t.depth[m.idx]) != d || int(t.levelIdx[m.idx]) != li || !t.attached[m.idx] {
				return fmt.Errorf("overlay: level index corrupt at depth %d slot %d (member %d)", d, li, m.ID)
			}
			counted++
		}
	}
	attachedCount := 0
	for _, m := range t.handle {
		if m != nil && t.attached[m.idx] {
			attachedCount++
		}
	}
	if counted != attachedCount {
		return fmt.Errorf("overlay: level index holds %d members, %d attached", counted, attachedCount)
	}
	if attachedCount != t.attachedCount || counted != t.levelCount {
		return fmt.Errorf("overlay: maintained counters (%d attached, %d level) disagree with scan (%d attached)",
			t.attachedCount, t.levelCount, attachedCount)
	}
	if err := t.checkLevelIndex(); err != nil {
		return err
	}
	if t.liveCount != len(t.order)+1 {
		return fmt.Errorf("overlay: %d live members, order list holds %d (+root)", t.liveCount, len(t.order))
	}
	return nil
}

// checkLevelIndex verifies, when the level index is on, that every level's
// heap, spare buckets and spare count hold exactly the occupants checkLocal
// expects there (the slots and buckets themselves are checkLocal's), that the
// heap order holds at every node, and that the top is the weakest occupant a
// linear scan of the level finds. A Bandwidth or JoinTime changed under an
// attached member fails here.
func (t *Tree) checkLevelIndex() error {
	x := t.lx
	if x == nil {
		return nil
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
			if weakest == nil || x.order.Outranks(weakest, m) {
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
		for k, m := range x.heaps[d] {
			if k > 0 && x.weaker(m, x.heaps[d][(k-1)/2]) {
				return fmt.Errorf("overlay: level index heap order broken at depth %d (member %d)", d, m.ID)
			}
		}
	}
	return nil
}

// invWalk is CheckInvariantsFull's pre-order walk over the subtree at dense
// index i, stamping reachability and checking the per-member invariants.
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
