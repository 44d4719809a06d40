package rost

import (
	"testing"
	"time"

	"omcast/internal/eventsim"
	"omcast/internal/overlay"
)

// TestStaleTimerSparesSlotSuccessor arms each of ROST's per-member timers for
// a member X, removes X while the timer is pending and lets a new member Y
// take X's slot, placed so that the timer would act if it reached Y: Y out-
// earns its parent (a check or a completion would switch it) or waits
// detached with a slot free (a retry would join it). Every timer must find
// X gone and leave Y as it was: a Tree.Resolve that ignored the generation
// in the timer's Ref would hand X's timers to Y and fail here.
func TestStaleTimerSparesSlotSuccessor(t *testing.T) {
	// replace removes x at the fixture's current time and returns y, the new
	// member in x's slot, attached under parent unless parent is nil.
	replace := func(t *testing.T, f *fixture, x, parent *overlay.Member, bw float64, joined time.Duration) *overlay.Member {
		t.Helper()
		slot := x.Slot()
		if _, err := f.tree.Remove(slot); err != nil {
			t.Fatal(err)
		}
		y := f.tree.NewMember(9, bw, joined)
		if y.Slot() != slot {
			t.Fatalf("successor in slot %d, want x's slot %d", y.Slot(), slot)
		}
		if parent != nil {
			if err := f.tree.Attach(y.Slot(), parent.Slot()); err != nil {
				t.Fatal(err)
			}
		}
		return y
	}
	// atTime runs fn as an event at the given virtual time.
	atTime := func(f *fixture, at time.Duration, fn func()) {
		f.sim.Schedule(at, func(*eventsim.Simulator, int64) { fn() }, 0)
	}

	t.Run("check", func(t *testing.T) {
		f := newFixture(t, 2, Config{SwitchInterval: 100 * time.Second})
		parent := f.tree.NewMember(1, 2, 0)
		x := f.tree.NewMember(2, 6, 0)
		if err := f.tree.Attach(parent.Slot(), f.tree.Root().Slot()); err != nil {
			t.Fatal(err)
		}
		if err := f.tree.Attach(x.Slot(), parent.Slot()); err != nil {
			t.Fatal(err)
		}
		f.p.Start(f.sim, x) // x's first check fires at 100 s
		var y *overlay.Member
		atTime(f, 50*time.Second, func() { y = replace(t, f, x, parent, 6, -1000*time.Second) })
		f.runUntil(t, 300*time.Second)
		if f.p.Switches != 0 || f.p.LockFailures != 0 || y.Parent() != parent || f.view().Reconnections(y.Slot()) != 0 {
			t.Fatalf("x's stale check acted on its successor: %d switches, %d back-offs, y kept its parent %v", f.p.Switches, f.p.LockFailures, y.Parent() == parent)
		}
		if n := f.sim.Pending(); n != 0 {
			t.Fatalf("%d events still pending: the stale check re-armed itself", n)
		}
	})

	t.Run("retry", func(t *testing.T) {
		// A free-rider overtakes its one-slot parent with the bandwidth guard
		// off, so the demoted parent x is left detached, retrying its join
		// every construct.DefaultRejoinRetry from 101 s.
		f := newFixture(t, 1, Config{SwitchInterval: 100 * time.Second, DisableBandwidthGuard: true})
		x := f.joinAt(t, 0, 1, 1)
		rider := f.tree.NewMember(2, 0.5, -1000*time.Second)
		if err := f.tree.Attach(rider.Slot(), x.Slot()); err != nil {
			t.Fatal(err)
		}
		f.p.Start(f.sim, rider)
		f.runUntil(t, 101*time.Second)
		if f.p.Switches != 1 || f.view().Attached(x.Slot()) {
			t.Fatalf("setup: %d switches, x attached %v; want x displaced", f.p.Switches, f.view().Attached(x.Slot()))
		}
		var y *overlay.Member
		atTime(f, 103*time.Second, func() { y = replace(t, f, x, nil, 1, 103*time.Second) })
		atTime(f, 104*time.Second, func() { // the source's slot frees before the retry at 106 s
			if _, err := f.tree.Remove(rider.Slot()); err != nil {
				t.Error(err)
			}
		})
		f.runUntil(t, 200*time.Second)
		if f.view().Attached(y.Slot()) || y.Parent() != nil {
			t.Fatal("x's stale retry joined its successor")
		}
	})

	t.Run("completion", func(t *testing.T) {
		f := newFixture(t, 2, Config{SwitchInterval: 100 * time.Second})
		f.p.switchLatency = 5 * time.Second
		parent := f.tree.NewMember(1, 2, 0)
		x := f.tree.NewMember(2, 6, -1000*time.Second)
		if err := f.tree.Attach(parent.Slot(), f.tree.Root().Slot()); err != nil {
			t.Fatal(err)
		}
		if err := f.tree.Attach(x.Slot(), parent.Slot()); err != nil {
			t.Fatal(err)
		}
		f.p.Start(f.sim, x) // the switch starts at 100 s and completes at 105 s
		var y *overlay.Member
		atTime(f, 102*time.Second, func() {
			if !f.locked(x) || !f.locked(parent) {
				t.Error("setup: the switch does not hold its neighbourhood")
			}
			y = replace(t, f, x, parent, 6, -1000*time.Second) // y sits in the locked set's slot
		})
		f.runUntil(t, 300*time.Second)
		if f.p.Aborted != 1 || f.p.Switches != 0 || y.Parent() != parent || f.view().Reconnections(y.Slot()) != 0 {
			t.Fatalf("x's stale completion acted on its successor: %d aborts, %d switches, y kept its parent %v", f.p.Aborted, f.p.Switches, y.Parent() == parent)
		}
		if f.locked(y) || f.locked(parent) {
			t.Fatal("the aborted switch left its neighbourhood locked")
		}
		if n := f.sim.Pending(); n != 0 {
			t.Fatalf("%d events still pending: the aborted switch re-armed x's check", n)
		}
	})
}
