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
	if err := tree.Detach(m.Slot()); err != nil {
		return err
	}
	return tree.Attach(m.Slot(), p.Slot())
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
	if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
		t.Fatalf("Attach member %d under %d: %v", m.ID, parent.ID, err)
	}
	return m
}

// view returns a fresh SlotView of tree: the tests read member state by slot
// through it, as the simulator's cores do.
func view(tree *Tree) *SlotView {
	v := tree.SlotView()
	return &v
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
	if root == nil || root.Depth() != 0 || !view(tree).Attached(root.Slot()) {
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
	if got := view(tree).PathDelay(b.Slot()); got != 2*time.Millisecond {
		t.Fatalf("path delay = %v, want 2ms", got)
	}
	if len(tree.Root().AppendChildren(nil)) != 1 {
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
	tree := newTestTree(t)
	for _, c := range cases {
		m := tree.NewMember(1, c.bw, 0)
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
	if err := tree.Attach(extra.Slot(), p.Slot()); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull attach error = %v, want ErrFull", err)
	}
	checkInv(t, tree)
}

func TestFreeRiderCannotParent(t *testing.T) {
	tree := newTestTree(t)
	fr := mustJoin(t, tree, tree.Root(), 1, 0.7, 0)
	kid := tree.NewMember(2, 1, 0)
	if err := tree.Attach(kid.Slot(), fr.Slot()); !errors.Is(err, ErrFull) {
		t.Fatalf("attach under free-rider = %v, want ErrFull", err)
	}
}

func TestAttachErrors(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	if err := tree.Attach(a.Slot(), tree.Root().Slot()); !errors.Is(err, ErrHasParent) {
		t.Fatalf("double attach = %v, want ErrHasParent", err)
	}
	// A freed slot, -1 and a slot past the arrays name no member.
	gone := mustJoin(t, tree, tree.Root(), 9, 1, 0)
	free := gone.Slot()
	if _, err := tree.Remove(free); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int32{free, -1, 1 << 20} {
		if err := tree.Attach(bad, a.Slot()); !errors.Is(err, ErrNotMember) {
			t.Fatalf("attach of slot %d = %v, want ErrNotMember", bad, err)
		}
		if err := tree.Attach(a.Slot(), bad); !errors.Is(err, ErrNotMember) {
			t.Fatalf("attach under slot %d = %v, want ErrNotMember", bad, err)
		}
		if err := tree.Detach(bad); !errors.Is(err, ErrNotMember) {
			t.Fatalf("detach of slot %d = %v, want ErrNotMember", bad, err)
		}
		if _, err := tree.Remove(bad); !errors.Is(err, ErrNotMember) {
			t.Fatalf("remove of slot %d = %v, want ErrNotMember", bad, err)
		}
		if n := tree.RecordFailure(bad); n != 0 {
			t.Fatalf("failure of slot %d charged %d members", bad, n)
		}
		tree.RecordReconnection(bad)
		if !tree.Lock(5, bad) {
			t.Fatalf("locking slot %d blocked", bad)
		}
		tree.Unlock(5, bad)
	}
	checkInv(t, tree) // the free slot took no counter and no lock
	m := tree.NewMember(2, 1, 0)
	if err := tree.Attach(m.Slot(), m.Slot()); !errors.Is(err, ErrSelfAttach) {
		t.Fatalf("self attach = %v, want ErrSelfAttach", err)
	}
	// Attaching under a detached parent must fail.
	b := mustJoin(t, tree, a, 3, 2, 0)
	if err := tree.Detach(b.Slot()); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if err := tree.Attach(m.Slot(), b.Slot()); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("attach under detached = %v, want ErrNotAttached", err)
	}
}

func TestDetachKeepsSubtree(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	if err := tree.Detach(b.Slot()); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if view(tree).Attached(b.Slot()) || view(tree).Attached(c.Slot()) {
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
	if err := tree.Attach(b.Slot(), tree.Root().Slot()); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if b.Depth() != 1 || c.Depth() != 2 || !view(tree).Attached(c.Slot()) {
		t.Fatal("re-attach did not recompute subtree placement")
	}
	checkInv(t, tree)
}

// TestAttachAsksDelayOnce: re-attaching a subtree asks the underlay about
// the one new edge only, and every member below it still gets the exact path
// delay of its new route.
func TestAttachAsksDelayOnce(t *testing.T) {
	calls := 0
	delay := func(a, b topology.NodeID) time.Duration {
		calls++
		return time.Duration(max(a, b)-min(a, b)) * time.Millisecond
	}
	tree, err := NewTree(0, 100, delay)
	if err != nil {
		t.Fatal(err)
	}
	a := mustJoin(t, tree, tree.Root(), 10, 3, 0)
	b := mustJoin(t, tree, a, 25, 3, 0)
	c := mustJoin(t, tree, b, 30, 1, 0)
	d := mustJoin(t, tree, b, 60, 2, 0)
	e := mustJoin(t, tree, d, 55, 1, 0)
	if err := tree.Detach(b.Slot()); err != nil {
		t.Fatal(err)
	}
	calls = 0
	if err := tree.Attach(b.Slot(), tree.Root().Slot()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("re-attaching a 4-member subtree asked Delay %d times, want 1", calls)
	}
	for _, tc := range []struct {
		m    *Member
		want time.Duration
	}{{b, 25}, {c, 30}, {d, 60}, {e, 65}} {
		if got := view(tree).PathDelay(tc.m.Slot()); got != tc.want*time.Millisecond {
			t.Errorf("member on router %d: path delay %v, want %v", tc.m.Attach(), got, tc.want*time.Millisecond)
		}
	}
	checkInv(t, tree)
}

func TestRemoveReturnsOrphans(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, a, 3, 2, 0)
	d := mustJoin(t, tree, b, 4, 1, 0)
	slotA, refA := a.Slot(), tree.Ref(a.Slot())
	orphans, err := tree.Remove(slotA)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if len(orphans) != 2 {
		t.Fatalf("orphans = %d, want 2", len(orphans))
	}
	v := view(tree)
	for _, o := range orphans {
		if o != b.Slot() && o != c.Slot() {
			t.Fatalf("unexpected orphan in slot %d", o)
		}
		if v.Attached(o) || v.Parent(o) >= 0 {
			t.Fatal("orphan still attached")
		}
	}
	if d.Parent() != b {
		t.Fatal("orphan lost its own subtree")
	}
	if a.Slot() != -1 || v.Member(slotA) != nil || tree.Resolve(refA) >= 0 {
		t.Fatal("removed member still live")
	}
	if tree.Size() != 4 { // root, b, c, d
		t.Fatalf("Size = %d, want 4", tree.Size())
	}
	if tree.Created() != 4 { // a removed member stays created
		t.Fatalf("Created = %d, want 4", tree.Created())
	}
	checkInv(t, tree)
}

func TestRemoveRootRefused(t *testing.T) {
	tree := newTestTree(t)
	if _, err := tree.Remove(tree.Root().Slot()); !errors.Is(err, ErrRootLeave) {
		t.Fatalf("Remove(root) = %v, want ErrRootLeave", err)
	}
	if err := tree.Detach(tree.Root().Slot()); !errors.Is(err, ErrRootLeave) {
		t.Fatalf("Detach(root) = %v, want ErrRootLeave", err)
	}
}

func TestRemoveDetachedMember(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 1, 0)
	if err := tree.Detach(b.Slot()); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	slot := b.Slot()
	if _, err := tree.Remove(slot); err != nil {
		t.Fatalf("Remove of detached member: %v", err)
	}
	if view(tree).Member(slot) != nil {
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
	size := func(m *Member) int {
		n := 0
		tree.VisitSubtree(m, func(*Member) { n++ })
		return n
	}
	if got := size(a); got != 4 {
		t.Fatalf("subtree of a visits %d members, want 4", got)
	}
	if got := size(tree.Root()); got != 5 {
		t.Fatalf("subtree of the root visits %d members, want 5", got)
	}
}

func TestAncestors(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	buf := make([]int64, 0, 4)
	anc := tree.AppendAncestors(buf, c.Slot())
	if len(anc) != 3 || tree.Resolve(anc[0]) != b.Slot() || tree.Resolve(anc[1]) != a.Slot() || tree.Resolve(anc[2]) != tree.Root().Slot() {
		t.Fatalf("AppendAncestors wrong: %v", anc)
	}
	if &anc[0] != &buf[:1][0] {
		t.Fatal("AppendAncestors did not append into the buffer it was given")
	}
	if got := tree.AppendAncestors(anc, tree.Root().Slot()); len(got) != 3 {
		t.Fatal("root has ancestors")
	}
}

// TestLevelsAndMaxDepth reads MaxDepth off a tree without a level index (a
// scan of the depths) and off one indexed at creation (the level lists), and
// the level lists only where they exist.
func TestLevelsAndMaxDepth(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		tree := newTestTree(t)
		if indexed {
			tree.LevelIndex(ByBandwidth, nil)
		}
		a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
		b := mustJoin(t, tree, a, 2, 2, 0)
		mustJoin(t, tree, b, 3, 1, 0)
		if tree.MaxDepth() != 3 {
			t.Fatalf("indexed %v: MaxDepth = %d, want 3", indexed, tree.MaxDepth())
		}
		if indexed && (len(tree.Level(0)) != 1 || len(tree.Level(1)) != 1 || len(tree.Level(3)) != 1) {
			t.Fatal("level sizes wrong")
		}
		if !indexed && (tree.Level(0) != nil || a.LevelPos() != -1) {
			t.Fatal("a tree without a level index lists levels")
		}
		if tree.Level(-1) != nil || tree.Level(99) != nil {
			t.Fatal("out-of-range levels should be nil")
		}
		// Remove the chain; MaxDepth shrinks.
		if _, err := tree.Remove(b.Slot()); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if tree.MaxDepth() != 1 {
			t.Fatalf("indexed %v: MaxDepth after removal = %d, want 1", indexed, tree.MaxDepth())
		}
	}
}

func TestBTPAndAge(t *testing.T) {
	if got := age(10*time.Second, 30*time.Second); got != 20*time.Second {
		t.Fatalf("age = %v", got)
	}
	if got := age(10*time.Second, 5*time.Second); got != 0 {
		t.Fatalf("age before join = %v, want 0", got)
	}
	tree := newTestTree(t)
	m := tree.NewMember(1, 4, 10*time.Second)
	if got := view(tree).BTP(m.Slot(), 30*time.Second); got != 80 {
		t.Fatalf("BTP = %g, want 80", got)
	}
	if got := view(tree).BTP(m.Slot(), 5*time.Second); got != 0 {
		t.Fatalf("BTP before join = %g, want 0", got)
	}
}

func TestRecordFailure(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	d := mustJoin(t, tree, a, 4, 1, 0)
	if got := tree.RecordFailure(a.Slot()); got != 3 {
		t.Fatalf("RecordFailure = %d, want 3", got)
	}
	for _, m := range []*Member{b, c, d} {
		if view(tree).Disruptions(m.Slot()) != 1 {
			t.Fatalf("member %d disruptions = %d, want 1", m.ID, view(tree).Disruptions(m.Slot()))
		}
	}
	if view(tree).Disruptions(a.Slot()) != 0 {
		t.Fatal("failed member counted as disrupted")
	}
}

// TestRecordFailureChargesDetachedSubtree pins what a departure charges when
// the departing member is itself detached (an orphan still retrying a
// saturated rejoin): every descendant, though their outage has not ended.
func TestRecordFailureChargesDetachedSubtree(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 3, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	if err := tree.Detach(a.Slot()); err != nil {
		t.Fatal(err)
	}
	tree.disruptions[b.idx], tree.disruptions[c.idx] = 4, 0
	if got := tree.RecordFailure(a.Slot()); got != 2 {
		t.Fatalf("RecordFailure of a detached member = %d, want 2", got)
	}
	if view(tree).Disruptions(b.Slot()) != 5 || view(tree).Disruptions(c.Slot()) != 1 {
		t.Fatalf("descendant disruptions = %d, %d; want 5, 1 (one more each)", view(tree).Disruptions(b.Slot()), view(tree).Disruptions(c.Slot()))
	}
}

func TestSample(t *testing.T) {
	tree := newTestTree(t)
	var members []*Member
	for i := 0; i < 50; i++ {
		members = append(members, mustJoin(t, tree, tree.Root(), topology.NodeID(i), 0.5, 0))
	}
	rng := xrand.New(1)
	got := tree.SampleSlots(rng, 10, -1, nil)
	if len(got) != 10 {
		t.Fatalf("SampleSlots returned %d, want 10", len(got))
	}
	seen := make(map[int32]bool)
	for _, i := range got {
		if seen[i] {
			t.Fatal("SampleSlots returned duplicates")
		}
		seen[i] = true
		if i == tree.Root().Slot() {
			t.Fatal("SampleSlots returned the root")
		}
	}
	// Excluding a member works.
	for i := 0; i < 20; i++ {
		for _, s := range tree.SampleSlots(rng, 49, members[0].Slot(), got[:0]) {
			if s == members[0].Slot() {
				t.Fatal("SampleSlots returned the excluded member")
			}
		}
	}
	// Asking for more than available returns all.
	all := tree.SampleSlots(rng, 1000, -1, nil)
	if len(all) != 50 {
		t.Fatalf("oversized SampleSlots returned %d, want 50", len(all))
	}
	if got := tree.SampleSlots(rng, 0, -1, all[:3]); len(got) != 3 {
		t.Fatalf("SampleSlots(0) appended %d slots", len(got)-3)
	}
}

func TestLocking(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	locked := func(m *Member) bool { return tree.lockOwner[m.idx] != 0 }
	if !tree.Lock(1, a.Slot(), b.Slot()) {
		t.Fatal("initial lock failed")
	}
	if !locked(a) || !locked(b) {
		t.Fatal("members not marked locked")
	}
	if tree.Lock(2, b.Slot()) {
		t.Fatal("conflicting lock succeeded")
	}
	// Re-locking by the same op succeeds (idempotent).
	if !tree.Lock(1, a.Slot()) {
		t.Fatal("re-lock by holder failed")
	}
	tree.Unlock(1, a.Slot(), b.Slot())
	if locked(a) || locked(b) {
		t.Fatal("unlock did not release")
	}
	if tree.Lock(0, a.Slot()) {
		t.Fatal("op 0 must not lock")
	}
}

func TestLockAllOrNothing(t *testing.T) {
	tree := newTestTree(t)
	a := mustJoin(t, tree, tree.Root(), 1, 2, 0)
	b := mustJoin(t, tree, a, 2, 2, 0)
	c := mustJoin(t, tree, b, 3, 1, 0)
	if !tree.Lock(7, b.Slot()) {
		t.Fatal("lock b failed")
	}
	if tree.Lock(8, a.Slot(), b.Slot(), c.Slot()) {
		t.Fatal("partial-conflict lock succeeded")
	}
	if tree.lockOwner[a.idx] != 0 || tree.lockOwner[c.idx] != 0 {
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
			v, parent := view(tree), tree.Root().Slot()
			for _, c := range tree.SampleSlots(rng, 20, m.Slot(), nil) {
				if v.Attached(c) && v.HasSpare(c) {
					parent = c
					break
				}
			}
			if !v.HasSpare(parent) {
				// Root full and no candidate: drop the member again.
				if _, err := tree.Remove(m.Slot()); err != nil {
					t.Fatalf("step %d: removing unattachable member: %v", step, err)
				}
				continue
			}
			if err := tree.Attach(m.Slot(), parent); err != nil {
				t.Fatalf("step %d: attach: %v", step, err)
			}
			live = append(live, m)
		case op < 0.8: // leave
			i := rng.Intn(len(live))
			m := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			tree.RecordFailure(m.Slot())
			orphans, err := tree.Remove(m.Slot())
			if err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			// Rejoin orphans under the root (always has capacity 100...
			// unless full, then under any member with spare degree).
			v := view(tree)
			for _, o := range orphans {
				target := tree.Root().Slot()
				if !v.HasSpare(target) {
					for _, c := range tree.SampleSlots(rng, 50, o, nil) {
						if v.Attached(c) && v.HasSpare(c) {
							target = c
							break
						}
					}
				}
				if v.HasSpare(target) {
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
			if m == p || !view(tree).Attached(m.Slot()) || !view(tree).Attached(p.Slot()) || !p.HasSpare() {
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
				if p := pick(1); p != nil && view(tree).Attached(p.Slot()) && p.HasSpare() {
					parent = p
				}
				if !parent.HasSpare() {
					if _, err := tree.Remove(m.Slot()); err != nil {
						return false
					}
					continue
				}
				if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
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
				orphans, err := tree.Remove(m.Slot())
				if err != nil {
					return false
				}
				for _, o := range orphans {
					target := tree.Root()
					if p := pick(3); p != nil && p.Slot() != o && view(tree).Attached(p.Slot()) && p.HasSpare() {
						target = p
					}
					if target.HasSpare() {
						// Guard against attaching under o's own subtree.
						under := false
						for a := target; a != nil; a = a.Parent() {
							if a.Slot() == o {
								under = true
								break
							}
						}
						if !under {
							if err := tree.Attach(o, target.Slot()); err != nil {
								return false
							}
						}
					}
				}
			case 2: // move
				m, p := pick(4), pick(5)
				if m == nil || p == nil || m == p || !view(tree).Attached(m.Slot()) || !view(tree).Attached(p.Slot()) || !p.HasSpare() {
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
