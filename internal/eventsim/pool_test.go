package eventsim

import (
	"testing"
	"time"
)

// TestScheduleFireAllocFree asserts the zero-alloc steady state: with a warm
// pool, a schedule+fire cycle performs no heap allocations. A regression
// here fails go test, not just the bench report.
func TestScheduleFireAllocFree(t *testing.T) {
	sim := New()
	noop := Handler(func(*Simulator) {})
	// Warm the pool and the queue's backing array.
	for i := 0; i < 1000; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, noop)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	at := sim.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		at += time.Millisecond
		sim.Schedule(at, noop)
		if err := sim.Run(at); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire allocates %.1f times per op, want 0", allocs)
	}
}

// TestLaneReuseAndRing pins the lane's storage: one lane per delay, and a
// ring that grows only when it is full, so a steady population of periodic
// timers re-armed on fire settles at a fixed capacity and allocates nothing.
func TestLaneReuseAndRing(t *testing.T) {
	sim := New()
	lane := sim.Lane(time.Second)
	if sim.Lane(time.Second) != lane || sim.Lane(2*time.Second) == lane {
		t.Fatal("Lane does not hand out one lane per delay")
	}
	if sim.Lane(-time.Second) != sim.Lane(0) {
		t.Fatal("a negative delay is not the zero-delay lane")
	}
	var rearm Handler
	rearm = func(s *Simulator) { lane.Schedule(rearm) }
	for i := 0; i < 100; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, rearm)
	}
	if err := sim.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ring := cap(lane.ring)
	if lane.n != 100 || ring != 128 { // doubled from 16 only when full
		t.Fatalf("lane holds %d events in a ring of %d, want 100 in 128", lane.n, ring)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := sim.Run(sim.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 || cap(lane.ring) != ring {
		t.Fatalf("a second of re-armed timers allocates %.1f times and moves the ring %d -> %d", allocs, ring, cap(lane.ring))
	}
}
