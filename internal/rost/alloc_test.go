package rost

import (
	"testing"
	"time"

	"omcast/internal/topology"
)

// TestPeriodicCheckAllocs pins a warmed periodic switching check that finds
// no switch at zero allocations: Start builds each member's check handler
// once, and every later check re-arms the same one.
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
