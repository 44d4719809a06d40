package node

import (
	"testing"
	"time"
)

// TestWallClockReads: the wall clock's Now never goes back over a burst of
// reads, falls between the monotonic readings taken around it, and tracks
// time.Since; its wall reading stays with the system's.
func TestWallClockReads(t *testing.T) {
	c := WallClock()
	prev := c.Now()
	for i := 0; i < 100_000; i++ {
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("read %d: Now went back from %v to %v", i, prev, now)
		}
		prev = now
	}

	before := time.Now()
	first := c.Now()
	time.Sleep(20 * time.Millisecond)
	last := c.Now()
	elapsed := time.Since(before)
	if first.Before(before) || elapsed < last.Sub(before) {
		t.Fatalf("Now read %v and %v outside the monotonic bracket [%v, +%v]", first, last, before, elapsed)
	}
	// Only the reads of before and first lie between the two spans; the
	// tolerance is for a descheduled test, not for the clock.
	if got := last.Sub(first); got < 20*time.Millisecond || elapsed-got > 100*time.Millisecond {
		t.Errorf("Now advanced %v over a 20ms sleep that time.Since measured as %v", got, elapsed)
	}
	if skew := last.Round(0).Sub(time.Now().Round(0)); skew < -time.Second || skew > time.Second {
		t.Errorf("wall reading %v is %v from the system's", last.Round(0), skew)
	}
}
