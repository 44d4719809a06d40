package churn

import (
	"testing"
	"time"

	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/xrand"
)

// TestDepartureAllocs pins a warmed departure with orphans at one allocation,
// the orphan list Tree.Remove returns: the ancestor path goes into the
// driver's reused buffer, the orphans are sorted without allocating, and
// each orphan re-attaches under a surviving ancestor.
func TestDepartureAllocs(t *testing.T) {
	const seed = 5
	topo := smallTopo(t, seed)
	sim := eventsim.New()
	tree, err := overlay.NewTree(topo.RandomStub(xrand.NewNamed(seed, "root")), 100, topo.Delay)
	if err != nil {
		t.Fatal(err)
	}
	env := &construct.Env{Rng: xrand.NewNamed(seed, "strategy"), Delay: topo.Delay}
	d, err := NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, Config{
		Seed:           seed,
		TargetSize:     400,
		Warmup:         time.Hour,
		Measure:        time.Hour,
		PrePopulate:    true,
		AncestorRejoin: true,
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := sim.Run(d.measureFrom + time.Minute); err != nil {
		t.Fatal(err)
	}
	// Depart the first interior member below the source, in member order.
	orphans := 0
	depart := func() {
		var victim *overlay.Member
		tree.VisitMembers(func(m *overlay.Member) {
			if victim == nil && m.Parent() != nil && m.Parent() != tree.Root() && m.NumChildren() > 0 {
				victim = m
			}
		})
		if victim == nil {
			t.Fatal("no interior member left to depart")
		}
		orphans += victim.NumChildren()
		d.depart(sim, victim.ID)
	}
	depart() // warm the ancestor buffer
	if got := testing.AllocsPerRun(50, depart); got > 1 {
		t.Errorf("a departure with orphans allocates %v times, ceiling 1", got)
	}
	if orphans < 51 {
		t.Fatalf("%d orphans over 51 departures; the departures were not interior", orphans)
	}
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
}
