package overlay

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// TestSampleAllocCeiling pins SampleSlots' allocation budget on a tree that
// is not growing: zero. The dedup stamps live in the order records, the batch
// of draws is a tree-owned reusable buffer, and the slots go into the
// caller's. The growing-tree budget, which this test cannot see, is
// TestSampleGrowingTreeAmortised's.
func TestSampleAllocCeiling(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(1)
	// One warm call sizes the scratch buffers.
	got := tree.SampleSlots(rng, 100, -1, nil)
	if len(got) != 100 {
		t.Fatalf("warm sample returned %d members", len(got))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got = tree.SampleSlots(rng, 100, -1, got[:0]); len(got) != 100 {
			t.Fatal("short sample")
		}
	})
	if allocs > 0 {
		t.Fatalf("SampleSlots allocates %.1f times per call, want 0", allocs)
	}
}

// TestSampleGrowingTreeAmortised pins what a join pays while the tree grows:
// one SampleSlots after every new member, as pre-population does. Every byte
// the growth allocates must be O(M) in total — the member handles, the
// per-slot arrays and the sampling order, each grown geometrically. Scratch
// sized to exactly the membership and re-made on every join (as the dedup
// stamps once were, 4 bytes x M per join) is quadratic over a seeding phase:
// ~800 MB for these 20 000 members, ~2 TB for 10^6.
func TestSampleGrowingTreeAmortised(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rng := xrand.New(3)
	var slots []int32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m := tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
		slots = tree.SampleSlots(rng, 100, m.Slot(), slots[:0])
	}
	runtime.ReadMemStats(&after)
	if perMember := (after.TotalAlloc - before.TotalAlloc) / n; perMember > 1024 {
		t.Fatalf("growing to %d members one SampleSlots at a time allocated %d bytes per member, want O(1)", n, perMember)
	}
}

// TestSampleResultAppendSafe pins the ownership contract: SampleSlots writes
// only into the dst it is given, past its length, so a caller's earlier
// result survives later calls into other buffers.
func TestSampleResultAppendSafe(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(2)
	got := tree.SampleSlots(rng, 50, -1, make([]int32, 0, 64))
	kept := slices.Clone(got)
	extended := append(got, tree.Root().Slot())
	tree.SampleSlots(rng, 50, -1, nil)
	tree.SampleSlots(rng, 50, -1, extended[:len(extended):len(extended)])
	if !slices.Equal(got, kept) || extended[len(extended)-1] != tree.Root().Slot() {
		t.Fatal("a later SampleSlots call wrote into an earlier result")
	}
}

// TestCheckInvariantsAllocCeiling pins the invariant checker at zero
// steady-state allocations: its reachability scratch is epoch-stamped.
func TestCheckInvariantsAllocCeiling(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	parents := []*Member{tree.Root()}
	for i := 0; i < 2000; i++ {
		m := tree.NewMember(topology.NodeID(i), 2, time.Duration(i))
		if err := tree.Attach(m.Slot(), parents[i%len(parents)].Slot()); err == nil {
			parents = append(parents, m)
		}
	}
	// Warm the scratch buffer.
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := tree.CheckInvariantsFull(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("CheckInvariantsFull allocates %.1f times per call, want 0", allocs)
	}
}

// TestMemberHandleIsIdentity pins the member handle at identity only: ID,
// router, tree and slot, 24 bytes, so a member's arrival on a tree whose
// arrays Grow reserved costs one allocation of one handle. The statistics
// live in slot arrays that Remove resets, so a member recycling a departed
// one's slot starts from zero.
func TestMemberHandleIsIdentity(t *testing.T) {
	if size := unsafe.Sizeof(Member{}); size > 24 {
		t.Fatalf("Member is %d bytes, want at most 24", size)
	}
	tree, err := NewTree(0, 100, testDelay)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	tree.Grow(n)
	i := 0
	newMember := func() {
		i++
		tree.NewMember(topology.NodeID(i%7), 2.5, time.Duration(i))
	}
	if got := testing.AllocsPerRun(n/2, newMember); got != 1 {
		t.Fatalf("NewMember on a grown tree allocates %v times, want 1", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n / 4 {
		newMember()
	}
	runtime.ReadMemStats(&after)
	if perMember := (after.TotalAlloc - before.TotalAlloc) / (n / 4); perMember > 24 {
		t.Fatalf("NewMember on a grown tree allocates %d bytes per member, want at most 24", perMember)
	}

	// A departed member's counters do not pass to the next one in its slot.
	a := tree.NewMember(1, 3, 0)
	b := tree.NewMember(2, 1, 0)
	if err := tree.Attach(a.Slot(), tree.Root().Slot()); err != nil {
		t.Fatal(err)
	}
	if err := tree.Attach(b.Slot(), a.Slot()); err != nil {
		t.Fatal(err)
	}
	tree.RecordFailure(a.Slot())
	tree.RecordReconnection(b.Slot())
	slot := b.Slot()
	if _, err := tree.Remove(slot); err != nil {
		t.Fatal(err)
	}
	v := view(tree)
	if v.Disruptions(slot) != 0 || v.Reconnections(slot) != 0 || v.Bandwidth(slot) != 0 || b.Attach() != 2 {
		t.Fatalf("freed slot reads disruptions %d, reconnections %d, bandwidth %g, and the removed handle router %d; want zeros and its router",
			v.Disruptions(slot), v.Reconnections(slot), v.Bandwidth(slot), b.Attach())
	}
	c := tree.NewMember(3, 0.5, time.Minute)
	if c.Slot() != slot {
		t.Fatalf("new member in slot %d, want the recycled slot %d", c.Slot(), slot)
	}
	if v.Disruptions(slot) != 0 || v.Reconnections(slot) != 0 || v.Bandwidth(slot) != 0.5 || v.JoinTime(slot) != time.Minute {
		t.Fatalf("recycled slot reads disruptions %d, reconnections %d, bandwidth %g, join %v; want 0, 0, 0.5, 1m0s",
			v.Disruptions(slot), v.Reconnections(slot), v.Bandwidth(slot), v.JoinTime(slot))
	}
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
}
