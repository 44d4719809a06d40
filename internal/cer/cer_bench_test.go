package cer

import (
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// benchTree builds a 2000-member tree with mixed fanout.
func benchTree(b testing.TB) (*overlay.Tree, *overlay.Member) {
	b.Helper()
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	var last *overlay.Member
	for i := 0; i < 2000; i++ {
		m := tree.NewMember(topology.NodeID(i+1), bw.Sample(rng), time.Duration(i)*time.Second)
		// Attach under any sampled member with spare, else the root.
		parent := tree.Root()
		for _, c := range tree.Sample(rng, 30, m) {
			if c.Attached() && c.HasSpare() {
				parent = c
				break
			}
		}
		if !parent.HasSpare() {
			continue
		}
		if err := tree.Attach(m, parent); err != nil {
			b.Fatal(err)
		}
		last = m
	}
	return tree, last
}

// BenchmarkMLCSelect measures Algorithm 1 (partial-tree build + level scan +
// descendant picks) at the default knowledge bound.
func BenchmarkMLCSelect(b *testing.B) {
	tree, self := benchTree(b)
	sel := &MLCSelector{Tree: tree, Rng: xrand.New(2), Delay: delayFn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := sel.Select(self, 3); len(g) == 0 {
			b.Fatal("empty group")
		}
	}
}

// BenchmarkRandomSelect is the non-MLC baseline selection.
func BenchmarkRandomSelect(b *testing.B) {
	tree, self := benchTree(b)
	sel := &RandomSelector{Tree: tree, Rng: xrand.New(2), Delay: delayFn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := sel.Select(self, 3); len(g) == 0 {
			b.Fatal("empty group")
		}
	}
}

// BenchmarkPlanRecovery measures planning one 150-packet episode.
func BenchmarkPlanRecovery(b *testing.B) {
	ep := testEpisode(true)
	servers := []Server{
		mkServer(0.3, 10*time.Millisecond, 10*time.Millisecond),
		mkServer(0.4, 20*time.Millisecond, 15*time.Millisecond),
		mkServer(0.2, 30*time.Millisecond, 20*time.Millisecond),
	}
	var buf []time.Duration // reused across episodes, as stream.Model does
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = PlanRecoveryInto(ep, servers, buf)
		if len(buf) == 0 {
			b.Fatal("empty plan")
		}
	}
}
