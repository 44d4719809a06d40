package overlay

import (
	"testing"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// BenchmarkAttachDetach measures the core structural operation pair.
func BenchmarkAttachDetach(b *testing.B) {
	tree, err := NewTree(0, 100, constDelay)
	if err != nil {
		b.Fatal(err)
	}
	parent := tree.NewMember(1, 50, 0)
	if err := tree.Attach(parent, tree.Root()); err != nil {
		b.Fatal(err)
	}
	m := tree.NewMember(2, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Attach(m, parent); err != nil {
			b.Fatal(err)
		}
		if err := tree.Detach(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMoveSubtree measures re-parenting a 64-member subtree (the switch
// operation's cost driver).
func BenchmarkMoveSubtree(b *testing.B) {
	tree, err := NewTree(0, 100, constDelay)
	if err != nil {
		b.Fatal(err)
	}
	a := tree.NewMember(1, 100, 0)
	c := tree.NewMember(2, 100, 0)
	if err := tree.Attach(a, tree.Root()); err != nil {
		b.Fatal(err)
	}
	if err := tree.Attach(c, tree.Root()); err != nil {
		b.Fatal(err)
	}
	// A 3-level subtree of 64 members under `sub`.
	sub := tree.NewMember(3, 4, 0)
	if err := tree.Attach(sub, a); err != nil {
		b.Fatal(err)
	}
	frontier := []*Member{sub}
	id := topology.NodeID(10)
	for len(frontier) > 0 && tree.SubtreeSize(sub) < 64 {
		next := frontier[0]
		frontier = frontier[1:]
		for i := 0; i < 4 && tree.SubtreeSize(sub) < 64; i++ {
			child := tree.NewMember(id, 4, 0)
			id++
			if err := tree.Attach(child, next); err != nil {
				b.Fatal(err)
			}
			frontier = append(frontier, child)
		}
	}
	b.ResetTimer()
	targets := [2]*Member{a, c}
	for i := 0; i < b.N; i++ {
		if err := tree.MoveSubtree(sub, targets[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSample measures bounded membership discovery over a 10k overlay.
func BenchmarkSample(b *testing.B) {
	tree, err := NewTree(0, 100, constDelay)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		m := tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
		_ = m
	}
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tree.Sample(rng, 100, nil); len(got) != 100 {
			b.Fatal("short sample")
		}
	}
}

// BenchmarkSampleGrowing is the seeding regime BenchmarkSample cannot see:
// the tree grows by one member between Sample calls, as it does while a run
// pre-populates, so any scratch sized to the exact membership is re-made on
// every join. One op seeds 10 000 members.
func BenchmarkSampleGrowing(b *testing.B) {
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, err := NewTree(0, 100, func(a, c topology.NodeID) time.Duration { return time.Millisecond })
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10000; j++ {
			m := tree.NewMember(topology.NodeID(j), 0.5, time.Duration(j))
			if got := tree.Sample(rng, 100, m); j > 100 && len(got) != 100 {
				b.Fatal("short sample")
			}
		}
	}
}

// BenchmarkRecordFailure measures disruption accounting over a 1000-member
// subtree.
func BenchmarkRecordFailure(b *testing.B) {
	tree, err := NewTree(0, 100, constDelay)
	if err != nil {
		b.Fatal(err)
	}
	top := tree.NewMember(1, 100, 0)
	if err := tree.Attach(top, tree.Root()); err != nil {
		b.Fatal(err)
	}
	frontier := []*Member{top}
	id := topology.NodeID(10)
	total := 1
	for total < 1000 {
		next := frontier[0]
		frontier = frontier[1:]
		for i := 0; i < 10 && total < 1000; i++ {
			child := tree.NewMember(id, 10, 0)
			id++
			if err := tree.Attach(child, next); err != nil {
				b.Fatal(err)
			}
			frontier = append(frontier, child)
			total++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := tree.RecordFailure(top); n == 0 {
			b.Fatal("no descendants")
		}
	}
}
