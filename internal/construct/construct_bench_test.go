package construct

import (
	"fmt"
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// BenchmarkRelaxedJoin is the relaxed bandwidth-ordered algorithm in steady
// state on a 5 000-member tree: one op is an arrival, whose join evicts its
// way down the layers, and the departure of the longest-standing member with
// its orphans rejoining. It is the per-event cost of the centralized
// baselines, read off the tree's level index.
//
// "xor" runs on a fake delay with no underlay behind it. The two "paper"
// cases run on the 15 600-router underlay the figures use: "exhaustive"
// without Env.Underlay, asking Delay about every spare member of the landing
// layer, and "pruned" with it, walking the layer's spare set near to far.
// Every case reports its Delay calls per op.
func BenchmarkRelaxedJoin(b *testing.B) {
	xor := func(a, c topology.NodeID) time.Duration { return time.Duration(a^c) * time.Microsecond }
	b.Run("xor", func(b *testing.B) {
		benchRelaxedJoin(b, 0, xor, nil, func(rng *xrand.Source) topology.NodeID {
			return topology.NodeID(1 + rng.Intn(4096))
		})
	})
	underlay, err := topology.Shared(topology.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		underlay *topology.Topology
	}{{"paper/exhaustive", nil}, {"paper/pruned", underlay}} {
		b.Run(tc.name, func(b *testing.B) {
			root := underlay.RandomStub(xrand.New(2))
			benchRelaxedJoin(b, root, underlay.Delay, tc.underlay, underlay.RandomStub)
		})
	}
}

// benchRelaxedJoin runs BenchmarkRelaxedJoin's loop on delay, the source on
// root and every member on a router attach draws.
func benchRelaxedJoin(b *testing.B, root topology.NodeID, delay func(a, c topology.NodeID) time.Duration, underlay *topology.Topology, attach func(*xrand.Source) topology.NodeID) {
	tree, err := overlay.NewTree(root, 100, delay)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	calls := 0
	counted := func(a, c topology.NodeID) time.Duration {
		calls++
		return delay(a, c)
	}
	s := NewRelaxedBandwidthOrdered(&Env{Rng: rng, Delay: counted, Underlay: underlay})
	const members = 5000
	var now time.Duration
	arrive := func() *overlay.Member {
		now += time.Second
		m := tree.NewMember(attach(rng), bw.Sample(rng), now)
		if err := s.Join(tree, m, now); err != nil {
			b.Fatal(err)
		}
		return m
	}
	ring := make([]*overlay.Member, members) // ring[i%members] is the oldest
	for i := range ring {
		ring[i] = arrive()
	}
	calls = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oldest := ring[i%members]
		ring[i%members] = arrive()
		orphans, err := tree.Remove(oldest.Slot())
		if err != nil {
			b.Fatal(err)
		}
		v := tree.SlotView()
		for _, o := range orphans {
			if err := s.Join(tree, v.Member(o), now); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(calls)/float64(b.N), "delays/op")
}

// ladderSizes are the memberships the join benches step through, from the
// figures' scale to BENCH_scale.json's largest point.
var ladderSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// ladderTree builds a size-member tree fast, without a construction
// strategy, plus one detached joiner: paper bandwidths, each member attached
// under a random member with spare degree, and every tenth left detached, as
// an orphan between rejoin attempts is. The fill leaves the tree near
// saturation, as the paper's free-riders do, so a sample holds a few usable
// candidates or none. Every build draws the same tree.
func ladderTree(b *testing.B, size int) (*overlay.Tree, *overlay.Member) {
	tree, err := overlay.NewTree(0, 100, ladderDelay)
	if err != nil {
		b.Fatal(err)
	}
	tree.Grow(size + 2)
	rng := xrand.New(7)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	open := []*overlay.Member{tree.Root()}
	for i := 0; i < size; i++ {
		m := tree.NewMember(topology.NodeID(i), bw.Sample(rng), time.Duration(i))
		if i%10 == 9 {
			continue
		}
		k := rng.Intn(len(open))
		if err := tree.Attach(m.Slot(), open[k].Slot()); err != nil {
			b.Fatal(err)
		}
		if !open[k].HasSpare() {
			open[k] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		if m.HasSpare() {
			open = append(open, m)
		}
	}
	return tree, tree.NewMember(topology.NodeID(size), 2, time.Duration(size))
}

// ladderDelay is the ladder's delay: a fake one, with no underlay behind it.
func ladderDelay(a, c topology.NodeID) time.Duration { return time.Duration(a^c) * time.Microsecond }

// benchLadder runs op at each ladder size on that size's tree and joiner.
// Each tree is built inside its size's b.Run, once, so a -bench filter that
// skips a size skips its build too.
func benchLadder(b *testing.B, op func(b *testing.B, tree *overlay.Tree, joiner *overlay.Member)) {
	for _, size := range ladderSizes {
		var tree *overlay.Tree
		var joiner *overlay.Member
		b.Run(fmt.Sprintf("M=%d", size), func(b *testing.B) {
			if tree == nil {
				tree, joiner = ladderTree(b, size)
			}
			b.ReportAllocs()
			b.ResetTimer()
			op(b, tree, joiner)
		})
	}
}

// BenchmarkSampleSlots is the join's membership discovery, 100 slots, on the
// ladder's trees, where the growth of its cost with M shows. Every size
// draws the same positions.
func BenchmarkSampleSlots(b *testing.B) {
	benchLadder(b, func(b *testing.B, tree *overlay.Tree, _ *overlay.Member) {
		rng := xrand.New(1)
		var dst []int32
		for i := 0; i < b.N; i++ {
			if dst = tree.SampleSlots(rng, 100, -1, dst[:0]); len(dst) != 100 {
				b.Fatal("short sample")
			}
		}
	})
}

// pickedParent keeps BenchmarkPickParent's result live.
var pickedParent int32

// BenchmarkPickParent is the distributed join step, sample and choice, for
// the ladder's detached joiner. The joiner is not attached, so every op ranks
// a fresh sample of the same tree, and every size draws the same samples.
func BenchmarkPickParent(b *testing.B) {
	benchLadder(b, func(b *testing.B, tree *overlay.Tree, joiner *overlay.Member) {
		env := &Env{Rng: xrand.New(1), Delay: ladderDelay}
		for i := 0; i < b.N; i++ {
			pickedParent = env.pickParent(tree, joiner.Slot(), shallowest)
		}
	})
}
