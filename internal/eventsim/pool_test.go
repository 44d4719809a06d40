package eventsim

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestScheduleFireAllocFree asserts the zero-alloc steady state: with a warm
// queue, a schedule+fire cycle performs no heap allocations. A regression
// here fails go test, not just the bench report.
func TestScheduleFireAllocFree(t *testing.T) {
	sim := New()
	noop := Handler(func(*Simulator, int64) {})
	// Warm the queue's backing array.
	for i := 0; i < 1000; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, noop, 0)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	at := sim.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		at += time.Millisecond
		sim.Schedule(at, noop, 0)
		if err := sim.Run(at); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire allocates %.1f times per op, want 0", allocs)
	}
}

// TestEventCarriesArgument pins the event's shape, a handler and its int64
// argument beside (at, schedAt, seq) in 40 bytes, and that every event fires
// with the argument it was scheduled with: from the heap, from a lane, and
// from the heap when a lane hands an out-of-order event over to it.
func TestEventCarriesArgument(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("an event is %d bytes, want 40", got)
	}
	sim := New()
	var got []int64
	h := Handler(func(_ *Simulator, arg int64) { got = append(got, arg) })
	lane := sim.Lane(10 * time.Second)
	sim.Schedule(3*time.Second, h, -7)
	sim.ScheduleAfter(time.Second, h, math.MaxInt64)
	lane.Schedule(h, 42)               // fires at 10 s
	sim.Schedule(20*time.Second, h, 0) // keeps the queue non-empty
	// Run to a horizon and back behind the clock: the lane keeps an event at
	// or after its tail and hands one before it to the heap.
	for _, horizon := range []time.Duration{5 * time.Second, time.Second} {
		if err := sim.Run(horizon); err != nil {
			t.Fatal(err)
		}
	}
	lane.Schedule(h, math.MinInt64) // at 11 s, after the tail
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	lane.Schedule(h, 9) // at 10 s, with 42's seq before it
	if lane.n != 2 {
		t.Fatalf("the lane holds %d events, want 2: 9 belongs to the heap", lane.n)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	want := []int64{math.MaxInt64, -7, 42, 9, math.MinInt64, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("handlers fired with %v, want %v", got, want)
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
	rearm = func(s *Simulator, _ int64) { lane.Schedule(rearm, 0) }
	for i := 0; i < 100; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, rearm, 0)
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

// TestQueueGrowsByDoubling pins the heap's growth rule: the backing array
// doubles only when full, like a lane's ring, so filling the queue allocates
// at most twice its final array. append's ~1.25x growth for large slices
// would allocate about five times it.
func TestQueueGrowsByDoubling(t *testing.T) {
	const n = 100_000
	noop := Handler(func(*Simulator, int64) {})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim := New()
	for i := 0; i < n; i++ {
		sim.Schedule(time.Duration(n-i)*time.Millisecond, noop, 0)
	}
	runtime.ReadMemStats(&after)
	const want = 1 << 17 // the least power of two from 16 up that holds n
	if got := cap(sim.queue); got != want {
		t.Fatalf("a queue of %d events has capacity %d, want %d", n, got, want)
	}
	ceiling := 2*want*uint64(unsafe.Sizeof(event{})) + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Fatalf("filling the queue with %d events allocated %d bytes, ceiling %d", n, got, ceiling)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
}

// TestGrowReservesTheHeap pins Grow: a heap reserved for n events fills to n
// in the one array Grow made, and only the event after it doubles the heap.
func TestGrowReservesTheHeap(t *testing.T) {
	const n = 10_000
	noop := Handler(func(*Simulator, int64) {})
	sim := New()
	sim.Grow(n)
	reserved := &sim.queue[:1][0]
	for i := 0; i < n; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, noop, 0)
	}
	if cap(sim.queue) != n || &sim.queue[0] != reserved {
		t.Fatalf("filling a heap reserved for %d events moved it to a new array of %d", n, cap(sim.queue))
	}
	sim.Schedule(0, noop, 0)
	if cap(sim.queue) != 2*n {
		t.Fatalf("the event past the reservation grew the heap to %d, want %d", cap(sim.queue), 2*n)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	if sim.Processed() != n+1 {
		t.Fatalf("fired %d events, want %d", sim.Processed(), n+1)
	}
}

// TestLaneGrowReserves pins Lane.Grow: a lane reserved for n events holds a
// power-of-two ring of at least n, fills it without moving it, keeps the
// events it already held oldest first even when they wrap the ring, and only
// the event past the ring doubles it; a smaller reservation changes nothing.
func TestLaneGrowReserves(t *testing.T) {
	sim := New()
	lane := sim.Lane(time.Second)
	var fired []int
	next := 0
	record := Handler(func(_ *Simulator, i int64) { fired = append(fired, int(i)) })
	schedule := func(n int) {
		for range n {
			lane.Schedule(record, int64(next))
			next++
		}
	}
	schedule(12) // a ring of 16
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	schedule(10) // from slot 12 round to slot 5: the lane wraps its ring
	const n = 1000
	lane.Grow(n)
	if got := len(lane.ring); got != 1024 {
		t.Fatalf("a lane reserved for %d events has a ring of %d, want 1024", n, got)
	}
	reserved := &lane.ring[0]
	lane.Grow(10) // smaller: no-op
	schedule(n - 10)
	if &lane.ring[0] != reserved || len(lane.ring) != 1024 {
		t.Fatalf("filling a lane reserved for %d events moved its ring (now %d slots)", n, len(lane.ring))
	}
	schedule(1024 - n + 1) // one past the ring
	if len(lane.ring) != 2048 {
		t.Fatalf("the event past the ring grew it to %d, want 2048", len(lane.ring))
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatal(err)
	}
	if len(fired) != next {
		t.Fatalf("fired %d events, want %d", len(fired), next)
	}
	for k, i := range fired {
		if i != k {
			t.Fatalf("event %d fired %d-th: a reservation reordered the lane", i, k)
		}
	}
}
