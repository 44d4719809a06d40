package eventsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	sim := New()
	var got []int
	sim.Schedule(3*time.Second, func(*Simulator, int64) { got = append(got, 3) }, 0)
	sim.Schedule(1*time.Second, func(*Simulator, int64) { got = append(got, 1) }, 0)
	sim.Schedule(2*time.Second, func(*Simulator, int64) { got = append(got, 2) }, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	sim := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(time.Second, func(*Simulator, int64) { got = append(got, i) }, 0)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp order = %v, want ascending", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	sim := New()
	var at time.Duration
	sim.Schedule(5*time.Second, func(s *Simulator, _ int64) { at = s.Now() }, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 5*time.Second {
		t.Fatalf("Now inside handler = %v, want 5s", at)
	}
	if sim.Now() != 5*time.Second {
		t.Fatalf("final Now = %v, want 5s", sim.Now())
	}
}

func TestScheduleAfter(t *testing.T) {
	sim := New()
	var second time.Duration
	sim.Schedule(2*time.Second, func(s *Simulator, _ int64) {
		s.ScheduleAfter(3*time.Second, func(s2 *Simulator, _ int64) { second = s2.Now() }, 0)
	}, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if second != 5*time.Second {
		t.Fatalf("chained event fired at %v, want 5s", second)
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	sim := New()
	fired := false
	sim.Schedule(10*time.Second, func(s *Simulator, _ int64) {
		s.Schedule(1*time.Second, func(*Simulator, int64) { fired = true }, 0)
	}, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event scheduled in the past never fired")
	}
	if sim.Now() != 10*time.Second {
		t.Fatalf("clock moved backwards: %v", sim.Now())
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	sim := New()
	fired := false
	sim.ScheduleAfter(-time.Second, func(*Simulator, int64) { fired = true }, 0)
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestHorizonLeavesFutureEvents(t *testing.T) {
	sim := New()
	var got []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		sim.Schedule(at, func(s *Simulator, _ int64) { got = append(got, s.Now()) }, 0)
	}
	if err := sim.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("fired %d events by horizon, want 2 (event at horizon must fire)", len(got))
	}
	if sim.Now() != 2*time.Second {
		t.Fatalf("Now after horizon run = %v, want 2s", sim.Now())
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("resumed run fired %d total, want 3", len(got))
	}
}

func TestHorizonAdvancesIdleClock(t *testing.T) {
	sim := New()
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sim.Now() != time.Minute {
		t.Fatalf("idle run left clock at %v, want 1m", sim.Now())
	}
}

func TestProcessedAndPending(t *testing.T) {
	sim := New()
	for i := 0; i < 4; i++ {
		sim.Schedule(time.Duration(i)*time.Second, func(*Simulator, int64) {}, 0)
	}
	if sim.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", sim.Pending())
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sim.Processed() != 4 {
		t.Fatalf("Processed = %d, want 4", sim.Processed())
	}
	if sim.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", sim.Pending())
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	New().Schedule(time.Second, nil, 0)
}

func TestManyEventsStressOrdering(t *testing.T) {
	sim := New()
	const n = 10000
	var last time.Duration = -1
	ok := true
	// Pseudo-random but fixed times; verify global ordering.
	x := uint64(12345)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		at := time.Duration(x%1000) * time.Millisecond
		sim.Schedule(at, func(s *Simulator, _ int64) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}, 0)
	}
	if err := sim.Run(MaxHorizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ok {
		t.Fatal("events fired out of time order")
	}
	if sim.Processed() != n {
		t.Fatalf("Processed = %d, want %d", sim.Processed(), n)
	}
}

// TestQuickScheduleOrdering drives random schedule programs via
// testing/quick: whatever the interleaving, events fire in (at, seq) order
// and every one of them fires.
func TestQuickScheduleOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		sim := New()
		fired := 0
		lastAt, lastSeq := time.Duration(-1), -1
		ordered := true
		for i, raw := range times {
			at := time.Duration(raw) * time.Millisecond
			sim.Schedule(at, func(s *Simulator, _ int64) {
				fired++
				if s.Now() < lastAt || s.Now() == lastAt && i < lastSeq {
					ordered = false
				}
				lastAt, lastSeq = s.Now(), i
			}, 0)
		}
		if err := sim.Run(MaxHorizon); err != nil {
			return false
		}
		return ordered && fired == len(times) && sim.Processed() == uint64(len(times))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
