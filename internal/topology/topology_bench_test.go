package topology

import (
	"testing"
	"time"

	"omcast/internal/xrand"
)

// benchTopo builds the paper-scale topology once per benchmark binary.
var benchTopo *Topology

// delaySink keeps the compiler from dropping a measured Delay call.
var delaySink time.Duration

func getBenchTopo(b *testing.B) *Topology {
	b.Helper()
	if benchTopo == nil {
		topo, err := New(DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		benchTopo = topo
	}
	return benchTopo
}

// BenchmarkGenerate measures building the 15600-router topology (including
// the transit APSP and one search per stub domain).
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(DefaultConfig(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayOracle measures the hierarchical distance query — the hot
// path of every join tie-break and stretch sample — on random stub pairs
// (three reads) and on pairs inside one stub domain (a search of the domain).
func BenchmarkDelayOracle(b *testing.B) {
	topo := getBenchTopo(b)
	for _, bc := range []struct {
		name string
		draw func(rng *xrand.Source) (u, v NodeID, ok bool)
	}{
		{"random stub pairs", func(rng *xrand.Source) (NodeID, NodeID, bool) {
			return topo.RandomStub(rng), topo.RandomStub(rng), true
		}},
		{"same domain", func(rng *xrand.Source) (NodeID, NodeID, bool) {
			return drawPair(topo.cfg, rng, pairSameDomain)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := xrand.New(2)
			pairs := make([][2]NodeID, 1024)
			for i := range pairs {
				for ok := false; !ok; {
					pairs[i][0], pairs[i][1], ok = bc.draw(rng)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				delaySink = topo.Delay(p[0], p[1])
			}
		})
	}
}

// BenchmarkDijkstraFull is the alternative the oracle replaces: one
// full-graph single-source shortest path over 15600 routers.
func BenchmarkDijkstraFull(b *testing.B) {
	topo := getBenchTopo(b)
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topo.DijkstraFrom(topo.RandomStub(rng))
	}
}
