package omcast

import (
	"reflect"
	"testing"
	"time"

	"omcast/internal/churn"
	"omcast/internal/parallel"
)

func shareConfig(seed int64, alg Algorithm) Config {
	return Config{
		Seed:       seed,
		Algorithm:  alg,
		TargetSize: 200,
		Topology:   SmallTopology(),
		Warmup:     600 * time.Second,
		Measure:    900 * time.Second,
	}
}

// TestShareUnderlayAcrossSessions: sessions whose underlay config is equal
// hold one Topology; a different seed or shape gets its own.
func TestShareUnderlayAcrossSessions(t *testing.T) {
	open := func(cfg Config) *session {
		t.Helper()
		s, err := newSession(cfg, churn.Hooks{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := open(shareConfig(31, MinimumDepth))
	b := open(shareConfig(31, ROST))
	if a.topo != b.topo {
		t.Fatal("two sessions with the same seed and underlay options built two topologies")
	}
	if c := open(shareConfig(32, MinimumDepth)); c.topo == a.topo {
		t.Fatal("sessions with different seeds share a topology")
	}
	reshaped := shareConfig(31, MinimumDepth)
	reshaped.Topology.StubNodesPerDomain++
	if c := open(reshaped); c.topo == a.topo {
		t.Fatal("sessions with different TopologyOptions share a topology")
	}
	// The paper-scale default is a config like any other.
	paper := shareConfig(31, MinimumDepth)
	paper.Topology = TopologyOptions{}
	if c, d := open(paper), open(paper); c.topo != d.topo || c.topo == a.topo {
		t.Fatal("paper-scale sessions of one seed must share their own topology")
	}
}

// TestShareUnderlayConcurrentRuns: runs that share an underlay from several
// goroutines (as the experiment engine's work units do) read it without
// racing and produce what they produce one after another.
func TestShareUnderlayConcurrentRuns(t *testing.T) {
	algs := []Algorithm{MinimumDepth, RelaxedBandwidthOrdered, LongestFirst, ROST}
	run := func(i int) (TreeResult, error) { return Run(shareConfig(33, algs[i])) }
	// Concurrent first, so the four units meet at a cold underlay build.
	concurrent, err := parallel.Run(len(algs), len(algs), run)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := parallel.Run(1, len(algs), run)
	if err != nil {
		t.Fatal(err)
	}
	for i, alg := range algs {
		if !reflect.DeepEqual(sequential[i], concurrent[i]) {
			t.Errorf("%v: concurrent run differs from the sequential one\n%+v\n%+v", alg, concurrent[i], sequential[i])
		}
	}
}
