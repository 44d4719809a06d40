package cer

import (
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// benchTree builds a 2000-member tree with mixed fanout: each member joins
// the first member with spare degree among 30 sampled.
func benchTree(tb testing.TB) (*overlay.Tree, *overlay.Member) {
	return buildBenchTree(tb, 2000, false)
}

// deepBenchTree builds an 8000-member tree at stream-cer's shape: each member
// joins the shallowest member with spare degree among 30 sampled, as a
// minimum-depth join does. It is 21 levels deep, and a Select's partial tree
// averages 17 levels and 400 nodes. Over seeds 1-3, stream-cer's selects see
// partial trees of 18-24 levels and 377-414 nodes.
func deepBenchTree(tb testing.TB) (*overlay.Tree, *overlay.Member) {
	return buildBenchTree(tb, 8000, true)
}

// buildBenchTree adds n members with bounded-Pareto bandwidths, attaching each
// under a sampled member with spare degree (the first one, or the shallowest
// when shallowest is set), else the root; members nobody can feed stay
// detached. It returns the tree and the last member attached.
func buildBenchTree(tb testing.TB, n int, shallowest bool) (*overlay.Tree, *overlay.Member) {
	tb.Helper()
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		tb.Fatal(err)
	}
	rng := xrand.New(1)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	var last *overlay.Member
	for i := 0; i < n; i++ {
		m := tree.NewMember(topology.NodeID(i+1), bw.Sample(rng), time.Duration(i)*time.Second)
		v, parent := tree.SlotView(), tree.Root().Slot()
		for _, c := range tree.SampleSlots(rng, 30, m.Slot(), nil) {
			if !v.Attached(c) || !v.HasSpare(c) {
				continue
			}
			if !shallowest {
				parent = c
				break
			}
			if !v.HasSpare(parent) || v.Depth(c) < v.Depth(parent) {
				parent = c
			}
		}
		if !v.HasSpare(parent) {
			continue
		}
		if err := tree.Attach(m.Slot(), parent); err != nil {
			tb.Fatal(err)
		}
		last = m
	}
	return tree, last
}

// BenchmarkMLCSelect measures Algorithm 1 (partial-tree build + level scan +
// descendant picks) at the default knowledge bound.
func BenchmarkMLCSelect(b *testing.B) {
	benchMLCSelect(b, benchTree)
}

// BenchmarkMLCSelectDeep is BenchmarkMLCSelect on the tree stream-cer's
// selects see.
func BenchmarkMLCSelectDeep(b *testing.B) {
	benchMLCSelect(b, deepBenchTree)
}

func benchMLCSelect(b *testing.B, build func(testing.TB) (*overlay.Tree, *overlay.Member)) {
	tree, self := build(b)
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
