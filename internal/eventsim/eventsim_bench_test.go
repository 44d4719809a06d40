package eventsim

import (
	"testing"
	"time"
)

// BenchmarkScheduleFire measures the kernel's steady-state throughput: one
// schedule plus one fire per iteration, over a standing queue of 10k events.
// This is the regime every long simulation run lives in, and it must not
// allocate.
func BenchmarkScheduleFire(b *testing.B) {
	sim := New()
	for i := 0; i < 10000; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func(*Simulator, int64) {}, 0)
	}
	at := 10 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(at, func(*Simulator, int64) {}, 0)
		at += time.Millisecond
		// Fire exactly the one standing event due at i ms.
		if err := sim.Run(time.Duration(i) * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sim.Run(MaxHorizon); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunDense measures draining one million same-window events,
// including the cold-start cost of growing the queue.
func BenchmarkRunDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := New()
		for j := 0; j < 1_000_000; j++ {
			sim.Schedule(time.Duration(j%1000)*time.Millisecond, func(*Simulator, int64) {}, 0)
		}
		if err := sim.Run(MaxHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeriodicTimers measures the regime lanes exist for: 10k timers,
// 1 ms apart, each re-arming itself with the same 10 s delay when it fires,
// as every member's switching check does. One iteration fires one timer and
// re-arms it, through the heap (ScheduleAfter) or through a lane.
func BenchmarkPeriodicTimers(b *testing.B) {
	for _, tc := range []struct {
		name string
		arm  func(*Simulator, Handler)
	}{
		{"heap", func(s *Simulator, h Handler) { s.ScheduleAfter(10*time.Second, h, 0) }},
		{"lane", func(s *Simulator, h Handler) { s.Lane(10*time.Second).Schedule(h, 0) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sim := New()
			var rearm Handler
			rearm = func(s *Simulator, _ int64) { tc.arm(s, rearm) }
			for i := 0; i < 10000; i++ {
				sim.Schedule(time.Duration(i)*time.Millisecond, rearm, 0)
			}
			at := 10 * time.Second // every timer has re-armed once
			if err := sim.Run(at); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at += time.Millisecond
				if err := sim.Run(at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
