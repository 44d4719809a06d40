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
func BenchmarkRelaxedJoin(b *testing.B) {
	delay := func(a, c topology.NodeID) time.Duration { return time.Duration(a^c) * time.Microsecond }
	tree, err := overlay.NewTree(0, 100, delay)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	bw := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	s := NewRelaxedBandwidthOrdered(&Env{Rng: rng, Delay: delay})
	const members = 5000
	var now time.Duration
	arrive := func() *overlay.Member {
		now += time.Second
		m := tree.NewMember(topology.NodeID(1+rng.Intn(4096)), bw.Sample(rng), now)
		if err := s.Join(tree, m, now); err != nil {
			b.Fatal(err)
		}
		return m
	}
	ring := make([]*overlay.Member, members) // ring[i%members] is the oldest
	for i := range ring {
		ring[i] = arrive()
	}
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
}
