package overlay

import (
	"testing"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// TestSampleAllocCeiling pins Sample's allocation budget on a tree that is
// not growing: zero. The dedup set is the tree's epoch-stamped scratch and the
// result slice a tree-owned reusable buffer. The growing-tree budget, which
// this test cannot see, is TestSampleGrowingTreeAmortised's.
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
	if got := tree.Sample(rng, 100, nil); len(got) != 100 {
		t.Fatalf("warm sample returned %d members", len(got))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got := tree.Sample(rng, 100, nil); len(got) != 100 {
			t.Fatal("short sample")
		}
	})
	if allocs > 0 {
		t.Fatalf("Sample allocates %.1f times per call, want 0", allocs)
	}
}

// TestSampleGrowingTreeAmortised pins what a join pays while the tree grows:
// one Sample after every new member, as pre-population does. The dedup
// scratch must grow geometrically — sized to exactly len(order) it is re-made
// (4 bytes x M, allocated and zeroed) on every join, which is quadratic over a
// seeding phase: ~800 MB for these 20 000 members, ~2 TB for 10^6.
func TestSampleGrowingTreeAmortised(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rng := xrand.New(3)
	remade, scratchCap := 0, 0
	for i := 0; i < n; i++ {
		m := tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
		tree.Sample(rng, 100, m)
		if c := cap(tree.sampleSeen); c != scratchCap {
			remade++
			scratchCap = c
		}
	}
	// Doubling from the first partial draw (102 members) to n takes 8 steps.
	if remade > 16 {
		t.Fatalf("sample scratch re-made %d times while adding %d members one at a time, want O(log n)", remade, n)
	}
	if scratchCap < n || scratchCap > 4*n {
		t.Fatalf("sample scratch holds %d entries for %d members", scratchCap, n)
	}
}

// TestSampleResultAppendSafe pins the scratch-buffer contract: the returned
// slice has capacity == length, so a caller appending to it gets a private
// copy instead of scribbling into the tree's scratch.
func TestSampleResultAppendSafe(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(2)
	got := tree.Sample(rng, 50, nil)
	if cap(got) != len(got) {
		t.Fatalf("Sample returned cap %d != len %d; caller appends would alias the scratch", cap(got), len(got))
	}
	extended := append(got, tree.Root())
	again := tree.Sample(rng, 50, nil)
	if extended[len(extended)-1] != tree.Root() {
		t.Fatal("append result clobbered by the next Sample call")
	}
	_ = again
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
		if err := tree.Attach(m, parents[i%len(parents)]); err == nil {
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
