package overlay

import (
	"testing"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

func testDelay(a, b topology.NodeID) time.Duration {
	return time.Duration(int(a)+int(b)+1) * time.Millisecond
}

// churnTree drives a random attach/detach/move/remove workload and returns
// the tree plus its live non-root members.
func churnTree(t *testing.T, seed int64, steps int, check func(*Tree)) *Tree {
	t.Helper()
	tree, err := NewTree(0, 100, testDelay)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	var live []*Member
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // join
			m := tree.NewMember(topology.NodeID(rng.Intn(1000)), float64(rng.Intn(5)), time.Duration(i)*time.Second)
			parent := tree.Root()
			if len(live) > 0 && rng.Intn(2) == 0 {
				parent = live[rng.Intn(len(live))]
			}
			if err := tree.Attach(m, parent); err != nil {
				// Full or detached parent: fall back to the root.
				_ = tree.Attach(m, tree.Root())
			}
			live = append(live, m)
		case op < 6: // detach + re-attach elsewhere (rejoin)
			m := live[rng.Intn(len(live))]
			if m.Attached() {
				if err := tree.Detach(m); err != nil {
					t.Fatalf("detach: %v", err)
				}
				_ = tree.Attach(m, tree.Root())
			}
		case op < 8: // move
			m := live[rng.Intn(len(live))]
			np := tree.Root()
			if rng.Intn(2) == 0 {
				np = live[rng.Intn(len(live))]
			}
			if m.Attached() && np.Attached() {
				_ = moveSubtree(tree, m, np) // cycle/full errors are fine
			}
		default: // remove
			k := rng.Intn(len(live))
			m := live[k]
			orphans, err := tree.Remove(m)
			if err != nil {
				t.Fatalf("remove: %v", err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			for _, o := range orphans {
				_ = tree.Attach(o, tree.Root())
			}
		}
		if check != nil {
			check(tree)
		}
	}
	return tree
}

// TestIncrementalMatchesFull is the delta-protocol equivalence test: across
// a random mutation workload, the incremental checker and the full scan must
// agree (both nil on valid trees), at every cadence — per-op incremental
// checks and batched checks.
func TestIncrementalMatchesFull(t *testing.T) {
	step := 0
	churnTree(t, 11, 800, func(tree *Tree) {
		step++
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("incremental check failed on valid tree: %v", err)
		}
		if step%50 == 0 {
			if err := tree.CheckInvariantsFull(); err != nil {
				t.Fatalf("full check failed on valid tree: %v", err)
			}
		}
	})
	// Batched: many mutations between incremental checks.
	step = 0
	churnTree(t, 12, 800, func(tree *Tree) {
		step++
		if step%97 == 0 {
			if err := tree.checkInvariants(); err != nil {
				t.Fatalf("batched incremental check failed: %v", err)
			}
			if err := tree.CheckInvariantsFull(); err != nil {
				t.Fatalf("batched full check failed: %v", err)
			}
		}
	})
}

// TestInvariantCheckersCatchCorruption injects corruption directly into the
// struct-of-arrays state and requires BOTH checkers to report it: the full
// scan unconditionally, the incremental one once the touched member is in
// the dirty set (as it would be after any real mutation). Cases that name a
// LevelOrder run with the level index built under it; the heap's order is a
// property of a whole level, so the cases that break only that are the full
// scan's alone.
func TestInvariantCheckersCatchCorruption(t *testing.T) {
	build := func(order LevelOrder) (*Tree, *Member, *Member) {
		tree, err := NewTree(0, 100, testDelay)
		if err != nil {
			t.Fatal(err)
		}
		a := tree.NewMember(1, 4, 0)
		b := tree.NewMember(2, 4, 0)
		c := tree.NewMember(3, 4, 0)
		e := tree.NewMember(4, 4.5, 0) // a's sibling: level 1's heap is [a, e] under either order
		for _, pair := range [][2]*Member{{a, tree.Root()}, {b, a}, {c, b}, {e, tree.Root()}} {
			if err := tree.Attach(pair[0], pair[1]); err != nil {
				t.Fatal(err)
			}
		}
		if order != 0 {
			tree.LevelIndex(order, nil)
		}
		// Start from a clean dirty set so each case controls its own.
		if err := tree.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		return tree, a, b
	}
	cases := []struct {
		name     string
		order    LevelOrder
		fullOnly bool
		corrupt  func(tree *Tree, a, b *Member) int32 // returns the idx to dirty
	}{
		{name: "bandwidth-changed", corrupt: func(tree *Tree, a, b *Member) int32 {
			b.Bandwidth = 0.5
			return b.idx
		}},
		{name: "index-heap-slot", order: ByBandwidth, corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.lx.heapPos[b.idx] = none
			return b.idx
		}},
		{name: "index-heap-stale-occupant", order: ByBandwidth, corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.lx.heaps[2][0] = a
			return b.idx
		}},
		{name: "index-spare-missing", order: ByBandwidth, corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.lx.spare[2], tree.lx.sparePos[b.idx] = nil, none
			return b.idx
		}},
		{name: "index-spare-full-member", order: ByJoinTime, corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.outDeg[b.idx], b.Bandwidth = 1, 1 // b has one child: full now, yet still listed
			return b.idx
		}},
		{name: "index-heap-order", order: ByBandwidth, fullOnly: true, corrupt: func(tree *Tree, a, b *Member) int32 {
			x := tree.lx
			h := x.heaps[1]
			h[0], h[1] = h[1], h[0]
			x.heapPos[h[0].idx], x.heapPos[h[1].idx] = 0, 1
			return a.idx
		}},
		{name: "join-time-changed-while-attached", order: ByJoinTime, fullOnly: true, corrupt: func(tree *Tree, a, b *Member) int32 {
			a.JoinTime = -time.Second // older than its sibling now, but still the heap's "weakest"
			return a.idx
		}},
		{name: "bandwidth-changed-within-degree", order: ByBandwidth, fullOnly: true, corrupt: func(tree *Tree, a, b *Member) int32 {
			a.Bandwidth = 4.9 // same degree, but now outranks its sibling
			return a.idx
		}},
		{name: "depth", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.depth[b.idx] += 3
			return a.idx // the parent-side walk sees the bad child depth
		}},
		{name: "path-delay", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.pathDelay[b.idx] += time.Second
			return a.idx
		}},
		{name: "kid-count", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.kidCount[a.idx]++
			return a.idx
		}},
		{name: "parent-link", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.parent[b.idx] = tree.root.idx
			return a.idx
		}},
		{name: "sibling-back-link", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.prevSib[b.idx] = b.idx
			return a.idx
		}},
		{name: "level-slot", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.levelIdx[b.idx] = none
			return b.idx
		}},
		{name: "order-slot", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.orderIdx[b.idx] = tree.orderIdx[a.idx]
			return b.idx
		}},
		{name: "attached-counter", corrupt: func(tree *Tree, a, b *Member) int32 {
			tree.attachedCount++
			return b.idx
		}},
	}
	for _, tc := range cases {
		tree, a, b := build(tc.order)
		dirty := tc.corrupt(tree, a, b)
		if err := tree.CheckInvariantsFull(); err == nil {
			t.Errorf("%s: full check missed the corruption", tc.name)
		}
		tree, a, b = build(tc.order)
		dirty = tc.corrupt(tree, a, b)
		tree.markDirty(dirty)
		if err := tree.checkInvariants(); err == nil && !tc.fullOnly {
			t.Errorf("%s: incremental check missed the corruption on a dirty member", tc.name)
		}
	}
}

// refChildren mirrors the historical children-slice semantics: append on
// attach, swap-remove (last child moves into the vacated slot) on detach.
type refChildren map[MemberID][]MemberID

func (r refChildren) attach(p, c MemberID) { r[p] = append(r[p], c) }

func (r refChildren) detach(p, c MemberID) {
	kids := r[p]
	for i, id := range kids {
		if id == c {
			last := len(kids) - 1
			kids[i] = kids[last]
			r[p] = kids[:last]
			return
		}
	}
}

// TestChildOrderMatchesSliceSemantics is the differential test behind the
// determinism guarantee: the intrusive sibling links must reproduce the
// removed children-slice ordering (append at tail, swap-remove) exactly,
// because child order feeds orphan ordering, level order and pre-order
// traversal — and through them every experiment's RNG stream.
func TestChildOrderMatchesSliceSemantics(t *testing.T) {
	tree, err := NewTree(0, 100, testDelay)
	if err != nil {
		t.Fatal(err)
	}
	ref := refChildren{}
	rng := xrand.New(99)
	var live []*Member
	parentOf := map[MemberID]MemberID{}
	compare := func(step int) {
		t.Helper()
		check := func(m *Member) {
			got := m.Children()
			want := ref[m.ID]
			if len(got) != len(want) {
				t.Fatalf("step %d: member %d has %d children, reference %d", step, m.ID, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i] {
					t.Fatalf("step %d: member %d child %d = %d, reference %d", step, m.ID, i, got[i].ID, want[i])
				}
			}
		}
		check(tree.Root())
		for _, m := range live {
			check(m)
		}
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // join
			m := tree.NewMember(topology.NodeID(rng.Intn(1000)), float64(1+rng.Intn(4)), 0)
			parent := tree.Root()
			if len(live) > 0 && rng.Intn(3) > 0 {
				parent = live[rng.Intn(len(live))]
			}
			if err := tree.Attach(m, parent); err != nil {
				parent = tree.Root()
				if err := tree.Attach(m, parent); err != nil {
					parent = nil // tree is full here; member stays detached
				}
			}
			if parent != nil {
				ref.attach(parent.ID, m.ID)
				parentOf[m.ID] = parent.ID
			}
			live = append(live, m)
		case op < 7: // move
			m := live[rng.Intn(len(live))]
			np := tree.Root()
			if rng.Intn(2) == 0 {
				np = live[rng.Intn(len(live))]
			}
			if !m.Attached() || !np.Attached() {
				continue
			}
			if err := moveSubtree(tree, m, np); err == nil {
				ref.detach(parentOf[m.ID], m.ID)
				ref.attach(np.ID, m.ID)
				parentOf[m.ID] = np.ID
			}
		default: // remove, orphans rejoin at the root
			k := rng.Intn(len(live))
			m := live[k]
			orphans, err := tree.Remove(m)
			if err != nil {
				t.Fatalf("remove: %v", err)
			}
			if p, ok := parentOf[m.ID]; ok {
				ref.detach(p, m.ID)
			}
			for _, o := range orphans {
				ref.detach(m.ID, o.ID)
			}
			delete(ref, m.ID)
			delete(parentOf, m.ID)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			for _, o := range orphans {
				delete(parentOf, o.ID)
				if err := tree.Attach(o, tree.Root()); err == nil {
					ref.attach(tree.Root().ID, o.ID)
					parentOf[o.ID] = tree.Root().ID
				}
			}
		}
		compare(step)
		if err := tree.CheckInvariantsFull(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Pre-order traversal must follow the same child order.
	var gotOrder []MemberID
	tree.VisitSubtree(tree.Root(), func(m *Member) { gotOrder = append(gotOrder, m.ID) })
	var wantOrder []MemberID
	var walk func(id MemberID)
	walk = func(id MemberID) {
		wantOrder = append(wantOrder, id)
		for _, c := range ref[id] {
			walk(c)
		}
	}
	walk(tree.Root().ID)
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("pre-order visits %d members, reference %d", len(gotOrder), len(wantOrder))
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("pre-order position %d = member %d, reference %d", i, gotOrder[i], wantOrder[i])
		}
	}
}
