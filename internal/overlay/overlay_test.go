package overlay

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// errCycle refuses a move under the mover's own subtree.
var errCycle = errors.New("overlay test: move would create a cycle")

// moveSubtree re-parents m, with its subtree, under p the way switching does:
// Detach, then Attach. It refuses a p inside m's subtree or without a spare
// slot before touching the tree.
func moveSubtree(tree *Tree, m, p *Member) error {
	for a := p; a != nil; a = a.Parent() {
		if a == m {
			return errCycle
		}
	}
	if !p.HasSpare() {
		return ErrFull
	}
	if err := tree.Detach(m); err != nil {
		return err
	}
	return tree.Attach(m, p)
}

// constDelay is a trivial underlay: 1 ms between any two distinct routers.
func constDelay(a, b topology.NodeID) time.Duration {
	if a == b {
		return 0
	}
	return time.Millisecond
}

func newTestTree(t *testing.T) *Tree {
	t.Helper()
	tree, err := NewTree(0, 100, constDelay)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tree
}

// mustJoin creates a member and attaches it under parent.
func mustJoin(t *testing.T, tree *Tree, parent *Member, attach topology.NodeID, bw float64, now time.Duration) *Member {
	t.Helper()
	m := tree.NewMember(attach, bw, now)
	if err := tree.Attach(m, parent); err != nil {
		t.Fatalf("Attach member %d under %d: %v", m.ID, parent.ID, err)
	}
	return m
}

func checkInv(t *testing.T, tree *Tree) {
	t.Helper()
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestNewTree(t *testing.T) {
	tree := newTestTree(t)
	root := tree.Root()
	if root == nil || root.Depth() != 0 || !root.Attached() {
		t.Fatal("root malformed")
	}
	if root.OutDegree() != 100 {
		t.Fatalf("root degree = %d, want 100", root.OutDegree())
	}
	if tree.Size() != 1 {
		t.Fatalf("Size = %d, want 1", tree.Size())
	}
	checkInv(t, tree)
}

func TestNewTreeErrors(t *testing.T) {
	if _, err := NewTree(0, 100, nil); err == nil {
		t.Fatal("nil delayFn accepted")
	}
	if _, err := NewTree(0, 0.5, constDelay); err == nil {
		t.Fatal("free-rider root accepted")
	}
}

func TestAttachBasics(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 3, time.Second)
	if a.Depth() != 1 || b.Depth() != 2 {
		t.Fatalf("depths = %d,%d want 1,2", a.Depth(), b.Depth())
	}
	if b.Parent() != a || a.Parent() != tree.Root() {
		t.Fatal("parent links wrong")
	}
	if got := b.PathDelay(); got != 2*time.Millisecond {
		t.Fatalf("path delay = %v, want 2ms", got)
	}
	if len(tree.Root().Children()) != 1 {
		t.Fatal("root children wrong")
	}
	checkInv(t, tree)
}

func TestOutDegreeFromBandwidth(t *testing.T) {
	cases := []struct {
		bw   float64
		want int
	}{
		{0.5, 0}, {0.99, 0}, {1, 1}, {2.7, 2}, {100, 100}, {-1, 0},
	}
	for _, c := range cases {
		m := &Member{Bandwidth: c.bw}
		if got := m.OutDegree(); got != c.want {
			t.Errorf("OutDegree(bw=%g) = %d, want %d", c.bw, got, c.want)
		}
	}
}

func TestAttachRespectsDegree(t *testing.T) {
	tree := newTestTree(t)
	p := mustJoin(t, tree, tree.Root(), 1, 2, 0) // degree 2
	mustJoin(t, tree, p, 2, 0.5, 0)
	mustJoin(t, tree, p, 3, 0.5, 0)
	extra := tree.NewMember(4, 0.5, 0)
	if err := tree.Attach(extra, p); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull attach error = %v, want ErrFull", err)
	}
	checkInv(t, tree)
}

func TestFreeRiderCannotParent(t *testing.T) {
	tree := newTestTree(t)
	fr := mustJoin(t, tree, tree.Root(), 1, 0.7, 0)
	kid := tree.NewMember(2, 1, 0)
	if err := tree.Attach(kid, fr); !errors.Is(err, ErrFull) {
		t.Fatalf("attach under free-rider = %v, want ErrFull", err)
	}
}

func TestAttachErrors(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	if err := tree.Attach(a, tree.Root()); !errors.Is(err, ErrHasParent) {
		t.Fatalf("double attach = %v, want ErrHasParent", err)
	}
	if err := tree.Attach(nil, a); !errors.Is(err, ErrNotMember) {
		t.Fatalf("nil attach = %v, want ErrNotMember", err)
	}
	m := tree.NewMember(2, 1, 0)
	if err := tree.Attach(m, m); !errors.Is(err, ErrSelfAttach) {
		t.Fatalf("self attach = %v, want ErrSelfAttach", err)
	}
	// Attaching under a detached parent must fail.
	b := mustJoin(t, tree, a, 3, 2, 0)
	if err := tree.Detach(b); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if err := tree.Attach(m, b); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("attach under detached = %v, want ErrNotAttached", err)
	}
}

func TestDetachKeepsSubtree(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	if err := tree.Detach(b); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if b.Attached() || c.Attached() {
		t.Fatal("detached subtree still marked attached")
	}
	if b.Parent() != nil {
		t.Fatal("detached member keeps parent")
	}
	if c.Parent() != b {
		t.Fatal("detach broke internal subtree links")
	}
	checkInv(t, tree)
	// Re-attach elsewhere: subtree placed with fresh depths.
	if err := tree.Attach(b, tree.Root()); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if b.Depth() != 1 || c.Depth() != 2 || !c.Attached() {
		t.Fatal("re-attach did not recompute subtree placement")
	}
	checkInv(t, tree)
}

func TestRemoveReturnsOrphans(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, a, 3, 2, 0)
	d := mustJoin(t, tree, b, 4, 1, 0)
	orphans, err := tree.Remove(a)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if len(orphans) != 2 {
		t.Fatalf("orphans = %d, want 2", len(orphans))
	}
	for _, o := range orphans {
		if o != b && o != c {
			t.Fatalf("unexpected orphan %d", o.ID)
		}
		if o.Attached() || o.Parent() != nil {
			t.Fatal("orphan still attached")
		}
	}
	if d.Parent() != b {
		t.Fatal("orphan lost its own subtree")
	}
	if tree.Member(a.ID) != nil {
		t.Fatal("removed member still live")
	}
	if tree.Size() != 4 { // root, b, c, d
		t.Fatalf("Size = %d, want 4", tree.Size())
	}
	checkInv(t, tree)
}

func TestRemoveRootRefused(t *testing.T) {
	tree := newTestTree(t)
	if _, err := tree.Remove(tree.Root()); !errors.Is(err, ErrRootLeave) {
		t.Fatalf("Remove(root) = %v, want ErrRootLeave", err)
	}
	if err := tree.Detach(tree.Root()); !errors.Is(err, ErrRootLeave) {
		t.Fatalf("Detach(root) = %v, want ErrRootLeave", err)
	}
}

func TestRemoveDetachedMember(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 1, 0)
	if err := tree.Detach(b); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if _, err := tree.Remove(b); err != nil {
		t.Fatalf("Remove of detached member: %v", err)
	}
	if tree.Member(b.ID) != nil {
		t.Fatal("member still live after removal")
	}
	checkInv(t, tree)
}

func TestVisitSubtreeAndSize(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	mustJoin(t, tree, a, 2, 0.5, 0)
	b := mustJoin(t, tree, a, 3, 2, 0)
	mustJoin(t, tree, b, 4, 0.5, 0)
	if got := tree.SubtreeSize(a); got != 4 {
		t.Fatalf("SubtreeSize = %d, want 4", got)
	}
	if got := tree.SubtreeSize(tree.Root()); got != 5 {
		t.Fatalf("root SubtreeSize = %d, want 5", got)
	}
}

func TestAncestors(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	buf := make([]*Member, 0, 4)
	anc := tree.AppendAncestors(buf, c)
	if len(anc) != 3 || anc[0] != b || anc[1] != a || anc[2] != tree.Root() {
		t.Fatalf("AppendAncestors wrong: %v", anc)
	}
	if &anc[0] != &buf[:1][0] {
		t.Fatal("AppendAncestors did not append into the buffer it was given")
	}
	if got := tree.AppendAncestors(anc, tree.Root()); len(got) != 3 {
		t.Fatal("root has ancestors")
	}
}

func TestLevelsAndMaxDepth(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	mustJoin(t, tree, b, 3, 1, 0)
	if tree.MaxDepth() != 3 {
		t.Fatalf("MaxDepth = %d, want 3", tree.MaxDepth())
	}
	if len(tree.Level(0)) != 1 || len(tree.Level(1)) != 1 || len(tree.Level(3)) != 1 {
		t.Fatal("level sizes wrong")
	}
	if tree.Level(-1) != nil || tree.Level(99) != nil {
		t.Fatal("out-of-range levels should be nil")
	}
	// Remove the chain; MaxDepth shrinks.
	if _, err := tree.Remove(b); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if tree.MaxDepth() != 1 {
		t.Fatalf("MaxDepth after removal = %d, want 1", tree.MaxDepth())
	}
}

func TestBTPAndAge(t *testing.T) {
	m := &Member{Bandwidth: 4, JoinTime: 10 * time.Second}
	if got := m.Age(30 * time.Second); got != 20*time.Second {
		t.Fatalf("Age = %v", got)
	}
	if got := m.Age(5 * time.Second); got != 0 {
		t.Fatalf("Age before join = %v, want 0", got)
	}
	if got := m.BTP(30 * time.Second); got != 80 {
		t.Fatalf("BTP = %g, want 80", got)
	}
}

func TestRecordFailure(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	d := mustJoin(t, tree, a, 4, 1, 0)
	if got := tree.RecordFailure(a); got != 3 {
		t.Fatalf("RecordFailure = %d, want 3", got)
	}
	for _, m := range []*Member{b, c, d} {
		if m.Disruptions != 1 {
			t.Fatalf("member %d disruptions = %d, want 1", m.ID, m.Disruptions)
		}
	}
	if a.Disruptions != 0 {
		t.Fatal("failed member counted as disrupted")
	}
}

func TestSample(t *testing.T) {
	tree := newTestTree(t)
	var members []*Member
	for i := 0; i < 50; i++ {
		members = append(members, mustJoin(t, tree, tree.Root(), topology.NodeID(i), 0.5, 0))
	}
	rng := xrand.New(1)
	got := tree.Sample(rng, 10, nil)
	if len(got) != 10 {
		t.Fatalf("Sample returned %d, want 10", len(got))
	}
	seen := make(map[MemberID]bool)
	for _, m := range got {
		if seen[m.ID] {
			t.Fatal("Sample returned duplicates")
		}
		seen[m.ID] = true
		if m == tree.Root() {
			t.Fatal("Sample returned the root")
		}
	}
	// Excluding a member works.
	for i := 0; i < 20; i++ {
		for _, m := range tree.Sample(rng, 49, members[0]) {
			if m == members[0] {
				t.Fatal("Sample returned excluded member")
			}
		}
	}
	// Asking for more than available returns all.
	all := tree.Sample(rng, 1000, nil)
	if len(all) != 50 {
		t.Fatalf("oversized Sample returned %d, want 50", len(all))
	}
	if tree.Sample(rng, 0, nil) != nil {
		t.Fatal("Sample(0) should be nil")
	}
}

func TestLocking(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	if !tree.Lock(1, a, b) {
		t.Fatal("initial lock failed")
	}
	if !a.Locked() || !b.Locked() {
		t.Fatal("members not marked locked")
	}
	if tree.Lock(2, b) {
		t.Fatal("conflicting lock succeeded")
	}
	// Re-locking by the same op succeeds (idempotent).
	if !tree.Lock(1, a) {
		t.Fatal("re-lock by holder failed")
	}
	tree.Unlock(1, a, b)
	if a.Locked() || b.Locked() {
		t.Fatal("unlock did not release")
	}
	if tree.Lock(0, a) {
		t.Fatal("op 0 must not lock")
	}
}

func TestLockAllOrNothing(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	if !tree.Lock(7, b) {
		t.Fatal("lock b failed")
	}
	if tree.Lock(8, a, b, c) {
		t.Fatal("partial-conflict lock succeeded")
	}
	if a.Locked() || c.Locked() {
		t.Fatal("failed lock left residue")
	}
}

// TestChurnInvariants drives a random sequence of joins, leaves, and moves
// and checks structural invariants after every step.
func TestChurnInvariants(t *testing.T) { churnInvariants(t, 0, nil) }

// TestChurnInvariantsIndexed is the same workload with the level index
// maintained under it from the first mutation.
func TestChurnInvariantsIndexed(t *testing.T) { churnInvariants(t, ByJoinTime, nil) }

// TestChurnInvariantsIndexedByHome files the index's spare members by their
// home transit router in testUnderlay, which every attach point of the
// workload falls in: 8 buckets per level, each member's fixed by its Attach
// through every move.
func TestChurnInvariantsIndexedByHome(t *testing.T) {
	churnInvariants(t, ByBandwidth, testUnderlay(t))
}

// testUnderlay is a 1 032-router transit-stub network with 8 transit routers.
func testUnderlay(t *testing.T) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultConfig(3)
	cfg.TransitDomains, cfg.TransitNodesPerDomain = 2, 4
	cfg.StubDomainsPerTransit, cfg.StubNodesPerDomain = 4, 32
	underlay, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return underlay
}

func churnInvariants(t *testing.T, order LevelOrder, underlay *topology.Topology) {
	tree := newTestTree(t)
	if order != 0 {
		tree.LevelIndex(order, underlay)
	}
	rng := xrand.New(77)
	live := []*Member{}
	for step := 0; step < 3000; step++ {
		op := rng.Float64()
		switch {
		case op < 0.5 || len(live) == 0: // join
			bw := 0.5 + rng.Float64()*5
			// Join times come in runs of 64 equal values, so the indexed variant
			// ranks mostly ties and leans on level position to break them.
			m := tree.NewMember(topology.NodeID(rng.Intn(1000)), bw, time.Duration(step/64)*time.Minute)
			// Find any parent with spare degree.
			parent := tree.Root()
			cands := tree.Sample(rng, 20, m)
			for _, c := range cands {
				if c.Attached() && c.HasSpare() {
					parent = c
					break
				}
			}
			if !parent.HasSpare() {
				// Root full and no candidate: drop the member again.
				if _, err := tree.Remove(m); err != nil {
					t.Fatalf("step %d: removing unattachable member: %v", step, err)
				}
				continue
			}
			if err := tree.Attach(m, parent); err != nil {
				t.Fatalf("step %d: attach: %v", step, err)
			}
			live = append(live, m)
		case op < 0.8: // leave
			i := rng.Intn(len(live))
			m := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			tree.RecordFailure(m)
			orphans, err := tree.Remove(m)
			if err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			// Rejoin orphans under the root (always has capacity 100...
			// unless full, then under any member with spare degree).
			for _, o := range orphans {
				target := tree.Root()
				if !target.HasSpare() {
					for _, c := range tree.Sample(rng, 50, o) {
						if c.Attached() && c.HasSpare() {
							target = c
							break
						}
					}
				}
				if target.HasSpare() {
					if err := tree.Attach(o, target); err != nil {
						t.Fatalf("step %d: orphan rejoin: %v", step, err)
					}
				}
			}
		default: // move a random subtree
			if len(live) < 2 {
				continue
			}
			m := live[rng.Intn(len(live))]
			p := live[rng.Intn(len(live))]
			if m == p || !m.Attached() || !p.Attached() || !p.HasSpare() {
				continue
			}
			err := moveSubtree(tree, m, p)
			if err != nil && !errors.Is(err, errCycle) {
				t.Fatalf("step %d: move: %v", step, err)
			}
		}
		if step%50 == 0 {
			checkInv(t, tree)
		}
	}
	checkInv(t, tree)
}

// TestQuickRandomOpSequences drives arbitrary operation programs generated
// by testing/quick against the tree and checks the full invariant suite
// after each program: whatever the interleaving of joins, removals and
// subtree moves, the structure stays consistent.
func TestQuickRandomOpSequences(t *testing.T) { quickRandomOpSequences(t, 0) }

// TestQuickRandomOpSequencesIndexed runs the same programs with the level
// index on and holds the index to the full scan.
func TestQuickRandomOpSequencesIndexed(t *testing.T) { quickRandomOpSequences(t, ByBandwidth) }

func quickRandomOpSequences(t *testing.T, order LevelOrder) {
	f := func(ops []uint32) bool {
		tree, err := NewTree(0, 10, constDelay)
		if err != nil {
			return false
		}
		if order != 0 {
			tree.LevelIndex(order, nil)
		}
		var live []*Member
		for step, op := range ops {
			kind := op % 3
			pick := func(salt uint32) *Member {
				if len(live) == 0 {
					return nil
				}
				return live[int((op/7+salt))%len(live)]
			}
			switch kind {
			case 0: // join
				bw := 0.5 + float64(op%40)/8
				m := tree.NewMember(topology.NodeID(op%500), bw, time.Duration(step)*time.Second)
				parent := tree.Root()
				if p := pick(1); p != nil && p.Attached() && p.HasSpare() {
					parent = p
				}
				if !parent.HasSpare() {
					if _, err := tree.Remove(m); err != nil {
						return false
					}
					continue
				}
				if err := tree.Attach(m, parent); err != nil {
					return false
				}
				live = append(live, m)
			case 1: // remove + rejoin orphans anywhere possible
				m := pick(2)
				if m == nil {
					continue
				}
				for i, x := range live {
					if x == m {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
				orphans, err := tree.Remove(m)
				if err != nil {
					return false
				}
				for _, o := range orphans {
					target := tree.Root()
					if p := pick(3); p != nil && p != o && p.Attached() && p.HasSpare() {
						target = p
					}
					if target.HasSpare() {
						// Guard against attaching under o's own subtree.
						under := false
						for a := target; a != nil; a = a.Parent() {
							if a == o {
								under = true
								break
							}
						}
						if !under {
							if err := tree.Attach(o, target); err != nil {
								return false
							}
						}
					}
				}
			case 2: // move
				m, p := pick(4), pick(5)
				if m == nil || p == nil || m == p || !m.Attached() || !p.Attached() || !p.HasSpare() {
					continue
				}
				if err := moveSubtree(tree, m, p); err != nil && !errors.Is(err, errCycle) {
					return false
				}
			}
		}
		return tree.CheckInvariantsFull() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
