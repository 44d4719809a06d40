package churn

import (
	"testing"
	"time"

	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/xrand"
)

// TestStaleTimerSparesSlotSuccessor arms the driver's departure and orphan
// rejoin timers for a member X, removes X while the timer is pending and lets
// a new member Y take X's slot. X's departure must not depart Y, and X's
// rejoin retry must not join Y once a slot frees: Y stays as it was, and no
// hook fires for it. Timers carry the member's Tree.Ref, a (generation, slot)
// pair, instead of its ID: a Resolve that ignored the generation would hand
// X's timers to Y and fail here.
func TestStaleTimerSparesSlotSuccessor(t *testing.T) {
	// newDriver returns a driver over a tree whose source feeds rootBW
	// children, counting the joins and rejoins its hooks report.
	newDriver := func(t *testing.T, rootBW float64) (*eventsim.Simulator, *overlay.Tree, *Driver, *int) {
		t.Helper()
		topo := smallTopo(t, 4)
		sim := eventsim.New()
		tree, err := overlay.NewTree(topo.RandomStub(xrand.New(1)), rootBW, topo.Delay)
		if err != nil {
			t.Fatal(err)
		}
		env := &construct.Env{Rng: xrand.New(2), Delay: topo.Delay}
		hooked := 0
		count := func(*eventsim.Simulator, *overlay.Member) { hooked++ }
		d, err := NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, Config{Seed: 4, TargetSize: 10},
			Hooks{OnJoin: count, OnRejoin: count})
		if err != nil {
			t.Fatal(err)
		}
		return sim, tree, d, &hooked
	}
	// successor adds a member and requires it in slot.
	successor := func(t *testing.T, tree *overlay.Tree, slot int32) *overlay.Member {
		t.Helper()
		y := tree.NewMember(3, 2, 0)
		if y.Slot() != slot {
			t.Fatalf("successor in slot %d, want the departed member's slot %d", y.Slot(), slot)
		}
		return y
	}
	at := func(sim *eventsim.Simulator, when time.Duration, fn func(*eventsim.Simulator)) {
		sim.Schedule(when, func(s *eventsim.Simulator, _ int64) { fn(s) }, 0)
	}

	t.Run("departure", func(t *testing.T) {
		sim, tree, d, hooked := newDriver(t, 100)
		x := tree.NewMember(1, 2, 0)
		slot, refX := x.Slot(), tree.Ref(x.Slot())
		sim.ScheduleAfter(100*time.Second, d.departAt, refX) // x's lifetime ends at 100 s
		d.tryFirstJoin(sim, refX)
		var y *overlay.Member
		at(sim, 50*time.Second, func(s *eventsim.Simulator) {
			d.depart(s, refX) // x leaves early
			y = successor(t, tree, slot)
			d.tryFirstJoin(s, tree.Ref(slot))
		})
		if err := sim.Run(200 * time.Second); err != nil {
			t.Fatal(err)
		}
		v := tree.SlotView()
		if d.Departures != 1 || y.Slot() != slot || v.Member(slot) != y || !v.Attached(slot) || *hooked != 2 {
			t.Fatalf("x's stale departure reached its successor: %d departures, y in slot %d, attached %v, %d hook calls",
				d.Departures, y.Slot(), v.Attached(slot), *hooked)
		}
	})

	t.Run("rejoin", func(t *testing.T) {
		// The source's one slot is taken, so x's rejoin fails and retries
		// every construct.DefaultRejoinRetry.
		sim, tree, d, hooked := newDriver(t, 1)
		holder := tree.NewMember(2, 0.5, 0)
		if err := tree.Attach(holder.Slot(), tree.Root().Slot()); err != nil {
			t.Fatal(err)
		}
		x := tree.NewMember(1, 2, 0)
		slot, refX := x.Slot(), tree.Ref(x.Slot())
		d.rejoin(sim, refX) // saturated: x retries at 5 s
		if d.JoinFailures != 1 {
			t.Fatalf("setup: %d join failures, want x's one", d.JoinFailures)
		}
		var y *overlay.Member
		at(sim, 2*time.Second, func(s *eventsim.Simulator) {
			d.depart(s, refX)
			y = successor(t, tree, slot)
			d.depart(s, tree.Ref(holder.Slot())) // the source's slot frees before x's retry
		})
		if err := sim.Run(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		if v := tree.SlotView(); v.Attached(slot) || y.Parent() != nil || *hooked != 0 || d.JoinFailures != 1 {
			t.Fatalf("x's stale rejoin retry reached its successor: y attached %v, %d hook calls, %d join failures",
				y.Parent() != nil, *hooked, d.JoinFailures)
		}
		if err := tree.CheckInvariantsFull(); err != nil {
			t.Fatal(err)
		}
	})
}
