// Package bench holds the layer micro-cost cases the benchmark module's probes
// resolve by name (benchmark/probes.go runs them through testing.Benchmark)
// and the fig-scale sweep `omcast bench` writes to BENCH_scale.json.
//
// It is not where costs are measured in general: a performance claim is
// proven by `bash benchmark/run.sh -compare`, a layer's micro-costs by its
// own in-package `go test -bench` benchmarks, and its allocation contracts by
// ceiling tests. The five cases stay here only because the frozen benchmark
// module names them.
package bench

import (
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/stream"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// Case is one named benchmark of the suite.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Suite returns the cases benchmark/probes.go resolves by name. quick is
// unused: it stays only for that frozen caller and goes in the benchmark PR
// of ROADMAP item 1(d).
func Suite(quick bool) []Case {
	return []Case{
		{Name: "eventsim/schedule-fire", Bench: benchScheduleFire},
		{Name: "overlay/sample-100", Bench: benchSample},
		{Name: "overlay/attach-detach-dense", Bench: benchAttachDetachDense},
		{Name: "stream/interval-account", Bench: benchIntervalAccount},
		{Name: "topology/delay", Bench: benchDelay},
	}
}

// benchScheduleFire is the kernel steady state: one schedule plus one fire
// per iteration over a 10k standing queue (zero allocations with the pool).
func benchScheduleFire(b *testing.B) {
	sim := eventsim.New()
	for i := 0; i < 10000; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func(*eventsim.Simulator, int64) {}, 0)
	}
	at := 10 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(at, func(*eventsim.Simulator, int64) {}, 0)
		at += time.Millisecond
		if err := sim.Run(time.Duration(i) * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSample(b *testing.B) {
	tree, err := overlay.NewTree(0, 100, func(a, c topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(1)
	var got []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got = tree.SampleSlots(rng, 100, -1, got[:0]); len(got) != 100 {
			b.Fatal("short sample")
		}
	}
}

// benchAttachDetachDense exercises the struct-of-arrays mutation path: leaf
// detach/re-attach cycles (intrusive child-list surgery plus level-index
// maintenance) with a periodic remove/new-member pair driving the dense-ID
// free list. The overlay package's AllocsPerRun tests pin the zero-alloc
// contract; this case keeps the per-mutation latency on the trend line.
func benchAttachDetachDense(b *testing.B) {
	tree, err := overlay.NewTree(0, 1_000_000, func(a, c topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		b.Fatal(err)
	}
	const nParents, nLeaves = 2000, 1000
	parents := make([]int32, 0, nParents)
	for i := 0; i < nParents; i++ {
		m := tree.NewMember(topology.NodeID(i), 8, time.Duration(i)).Slot()
		if err := tree.Attach(m, tree.Root().Slot()); err != nil {
			b.Fatal(err)
		}
		parents = append(parents, m)
	}
	leaves := make([]int32, 0, nLeaves)
	for i := 0; i < nLeaves; i++ {
		m := tree.NewMember(topology.NodeID(nParents+i), 1, time.Duration(i)).Slot()
		if err := tree.Attach(m, parents[i%nParents]); err != nil {
			b.Fatal(err)
		}
		leaves = append(leaves, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := leaves[i%nLeaves]
		if err := tree.Detach(l); err != nil {
			b.Fatal(err)
		}
		if err := tree.Attach(l, parents[(i*7)%nParents]); err != nil {
			b.Fatal(err)
		}
		if i%16 == 0 {
			// Free-list churn: retire the leaf's slot and mint a fresh one.
			if _, err := tree.Remove(l); err != nil {
				b.Fatal(err)
			}
			m := tree.NewMember(topology.NodeID(nParents+i%nLeaves), 1, time.Duration(i)).Slot()
			if err := tree.Attach(m, parents[(i*7)%nParents]); err != nil {
				b.Fatal(err)
			}
			leaves[i%nLeaves] = m
		}
	}
}

// benchSelector returns a canned recovery group (the selection algorithms
// have their own cer benchmarks; this case times the accounting).
type benchSelector struct{ group []*overlay.Member }

func (s *benchSelector) Select(*overlay.Member, int) []*overlay.Member { return s.group }

// benchIntervalAccount is the episode hot path of the streaming model: one
// failure of a 64-child relay, fanning 64 recovery episodes over ~128
// members through the interval accounting (dense plan, sorted slacks, binary
// search, watermark sealing) — the per-failure cost the fig-scale runs pay.
func benchIntervalAccount(b *testing.B) {
	delay := func(a, c topology.NodeID) time.Duration {
		if a == c {
			return 0
		}
		return time.Millisecond
	}
	tree, err := overlay.NewTree(0, 1000, delay)
	if err != nil {
		b.Fatal(err)
	}
	attach := topology.NodeID(1)
	mk := func(parent *overlay.Member, bw float64) *overlay.Member {
		m := tree.NewMember(attach, bw, 0)
		attach++
		if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
			b.Fatal(err)
		}
		return m
	}
	relay := mk(tree.Root(), 200)
	for i := 0; i < 64; i++ {
		mk(mk(relay, 4), 2)
	}
	sel := &benchSelector{}
	for i := 0; i < 3; i++ {
		sel.group = append(sel.group, mk(tree.Root(), 2))
	}
	model := stream.NewModel(tree, delay, sel, xrand.New(1), stream.Config{GroupSize: 3, Striped: true})
	tree.VisitSubtree(tree.Root(), func(m *overlay.Member) {
		if m != tree.Root() {
			model.Register(m, 0)
		}
	})
	now := 100 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.OnFailure(relay, now)
		now += 20 * time.Second
	}
}

// benchDelay times Delay on the queries a session asks: both ends are member
// routers drawn with RandomStub on the paper's underlay, as churn places
// members, so pairs sharing a stub domain are as rare as in a run.
func benchDelay(b *testing.B) {
	topo, err := topology.New(topology.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := topo.Delay(topo.RandomStub(rng), topo.RandomStub(rng)); d < 0 {
			b.Fatal("negative delay")
		}
	}
}
