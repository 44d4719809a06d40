package construct

import (
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
		orphans, err := tree.Remove(oldest)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range orphans {
			if err := s.Join(tree, o, now); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(calls)/float64(b.N), "delays/op")
}
