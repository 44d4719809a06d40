package eventsim

import (
	"testing"
	"time"
)

// TestCancelAfterFireIsNoOp pins the pool's ABA safety: an EventID whose
// event already fired must not cancel the recycled record's next occupant.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	sim := New()
	fired := 0
	id1 := sim.Schedule(time.Second, func(*Simulator) { fired++ })
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The next Schedule reuses id1's pooled record.
	id2 := sim.Schedule(2*time.Second, func(*Simulator) { fired++ })
	if id1.ev != id2.ev {
		t.Fatalf("pool did not reuse the fired record (got %p and %p)", id1.ev, id2.ev)
	}
	if sim.Cancel(id1) {
		t.Fatal("stale EventID canceled a recycled event")
	}
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale Cancel must not kill the new event)", fired)
	}
	// And the live ID of an already-fired event is likewise inert.
	if sim.Cancel(id2) {
		t.Fatal("Cancel reported true for a fired event")
	}
}

// TestSelfCancelDuringHandler pins that a handler canceling its own event is
// a no-op: by the time the handler runs, its record is already recycled.
func TestSelfCancelDuringHandler(t *testing.T) {
	sim := New()
	var id EventID
	canceled := true
	id = sim.Schedule(time.Second, func(s *Simulator) {
		canceled = s.Cancel(id)
	})
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if canceled {
		t.Fatal("handler canceled its own in-flight event")
	}
}

// TestCancelCompactionBoundsQueue reproduces the tombstone leak: under
// sustained schedule/cancel churn the queue (and therefore the depth gauge)
// must stay bounded instead of accumulating canceled events until they are
// popped.
func TestCancelCompactionBoundsQueue(t *testing.T) {
	sim := New()
	// A standing population of live events keeps the queue non-trivial.
	for i := 0; i < 100; i++ {
		sim.Schedule(time.Duration(i)*time.Hour, func(*Simulator) {})
	}
	const churn = 100_000
	maxPending := 0
	for i := 0; i < churn; i++ {
		id := sim.Schedule(time.Duration(i)*time.Minute, func(*Simulator) {})
		if !sim.Cancel(id) {
			t.Fatal("cancel of a live event failed")
		}
		if p := sim.Pending(); p > maxPending {
			maxPending = p
		}
	}
	// Without compaction the queue would end holding churn+100 events. The
	// sweep bounds tombstones to compactFraction of the live population plus
	// the compactMinCanceled trigger floor.
	bound := 100*compactFraction + 2*compactMinCanceled
	if maxPending > bound {
		t.Fatalf("queue depth reached %d under cancel churn, want <= %d", maxPending, bound)
	}
	if sim.Pending() > bound {
		t.Fatalf("queue still holds %d events after churn, want <= %d", sim.Pending(), bound)
	}
	// The 100 live events must have survived every sweep.
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := sim.Processed(); got != 100 {
		t.Fatalf("processed %d events, want the 100 live ones", got)
	}
}

// TestCompactionPreservesOrder interleaves schedules and cancels, then
// checks the survivors fire in exact (at, seq) order across a compaction.
func TestCompactionPreservesOrder(t *testing.T) {
	sim := New()
	var got []int
	var want []int
	var ids []EventID
	for i := 0; i < 4*compactMinCanceled; i++ {
		i := i
		at := time.Duration(i%7) * time.Second // ties exercise the seq order
		id := sim.Schedule(at, func(*Simulator) { got = append(got, i) })
		if i%3 == 0 {
			ids = append(ids, id)
		} else {
			want = append(want, i)
		}
	}
	for _, id := range ids {
		sim.Cancel(id) // crosses the compaction threshold mid-loop
	}
	// Survivors fire ordered by (at, seq); compute the expectation.
	type key struct{ at, seq int }
	expect := append([]int(nil), want...)
	sortByAtSeq := func(xs []int) {
		for a := 1; a < len(xs); a++ {
			for b := a; b > 0; b-- {
				ka := key{xs[b] % 7, xs[b]}
				kb := key{xs[b-1] % 7, xs[b-1]}
				if ka.at < kb.at || (ka.at == kb.at && ka.seq < kb.seq) {
					xs[b], xs[b-1] = xs[b-1], xs[b]
				} else {
					break
				}
			}
		}
	}
	sortByAtSeq(expect)
	if err := sim.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(expect) {
		t.Fatalf("fired %d events, want %d", len(got), len(expect))
	}
	for i := range got {
		if got[i] != expect[i] {
			t.Fatalf("fire order diverged at %d: got %d, want %d", i, got[i], expect[i])
		}
	}
}

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
	if err := sim.RunAll(); err != nil {
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
