package rost

import (
	"runtime"
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/topology"
)

// TestPeriodicCheckAllocs pins a warmed periodic switching check that finds
// no switch at zero allocations: every check is the protocol's one check
// handler, re-armed with the member's Ref as its argument.
func TestPeriodicCheckAllocs(t *testing.T) {
	f := newFixture(t, 2, Config{SwitchInterval: time.Minute})
	f.joinAt(t, 0, 1, 4)
	f.joinAt(t, 0, 2, 4)
	for i := range 6 {
		f.joinAt(t, 0, topology.NodeID(3+i), 1) // under a stronger parent: the guard holds
	}
	now := time.Duration(0)
	tick := func() {
		now += time.Minute
		if err := f.sim.Run(now); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	before := f.sim.Processed()
	if got := testing.AllocsPerRun(20, tick); got > 0 {
		t.Errorf("one switching interval of 8 members allocates %v times, want 0", got)
	}
	if fired := f.sim.Processed() - before; fired != 21*8 {
		t.Fatalf("%d checks fired over 21 intervals of 8 members, want %d", fired, 21*8)
	}
	if f.p.Switches != 0 {
		t.Fatalf("%d switches; the checks were meant to find none", f.p.Switches)
	}
}

// TestSwitchPathAllocs pins a switch, started and completed, at zero
// allocations once a first switch of the same shape has sized the switch
// record, its lock set and the exchange's scratch. Two branches under the
// source each hold a parent (degree 2), a strong initiator that has long
// out-earned it with two children of its own, and a sibling: the exchange
// detaches and re-homes all of them and sorts the initiator's children.
func TestSwitchPathAllocs(t *testing.T) {
	f := newFixture(t, 2, Config{SwitchInterval: 100 * time.Second})
	attach := func(bw float64, joined time.Duration, parent *overlay.Member) *overlay.Member {
		m := f.tree.NewMember(topology.NodeID(f.tree.Size()), bw, joined)
		if err := f.tree.Attach(m.Slot(), parent.Slot()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	branch := func() (initiator, parent *overlay.Member) {
		parent = attach(2, 0, f.tree.Root())
		initiator = attach(6, -1000*time.Second, parent)
		attach(0.5, 0, parent)                   // the sibling
		attach(0.5, -500*time.Second, initiator) // two children with distinct BTPs
		attach(0.5, -200*time.Second, initiator)
		return initiator, parent
	}
	first, _ := branch()
	second, parent := branch()
	f.p.Start(f.sim, first) // checks at 100 s, the switch completes at 101 s
	f.sim.Schedule(40*time.Second, func(s *eventsim.Simulator, _ int64) { f.p.Start(s, second) }, 0)
	f.runUntil(t, 120*time.Second)
	if f.p.Switches != 1 {
		t.Fatalf("%d switches by 120 s, want the first branch's", f.p.Switches)
	}
	// One processor while counting, as testing.AllocsPerRun does, so no
	// other goroutine's allocations land in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := f.sim.Run(160 * time.Second); err != nil { // checks at 140 s, completes at 141 s
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if f.p.Switches != 2 || second.Parent() != f.tree.Root() || parent.Parent() != second {
		t.Fatalf("%d switches, the second initiator under %v: the second branch did not switch", f.p.Switches, second.Parent())
	}
	if got := after.Mallocs - before.Mallocs; got > 0 {
		t.Errorf("a switch started and completed allocates %d times, want 0", got)
	}
	if err := f.tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
}
