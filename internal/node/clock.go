package node

import (
	"time"

	"omcast/internal/eventsim"
)

// Clock is the node's one source of time: every timestamp it reads and every
// timer it arms goes through one, so the same protocol code runs on real time
// (omcast node) and on an eventsim.Simulator's virtual time (the chaos suite,
// the tests), where a seed fixes the whole run.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc calls f once, d from now, unless the returned timer is
	// stopped first. It never calls f itself: the node arms timers while
	// holding its lock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call.
type Timer interface {
	// Stop cancels the call and reports whether it was still pending.
	Stop() bool
}

// WallClock returns real time, the Clock a nil Config.Clock means. It is
// the only code in the package that reads the system clock; its timers run
// f on their own goroutines. It reads the wall clock once, when made; Now is
// that reading plus the monotonic time since, one clock read where time.Now
// makes two. Sub, Before and timers compare monotonic readings anyway, so
// only the wall part of Now stops following clock steps made later.
func WallClock() Clock {
	//lint:ignore no-wallclock reason: the wall-clock Clock's one wall reading, its epoch
	return &wallClock{start: time.Now()}
}

type wallClock struct{ start time.Time }

func (c *wallClock) Now() time.Time {
	//lint:ignore no-wallclock reason: the wall-clock Clock, the one real-time source of the live node
	return c.start.Add(time.Since(c.start))
}

func (*wallClock) AfterFunc(d time.Duration, f func()) Timer {
	//lint:ignore no-wallclock reason: the wall-clock Clock, the one real-time source of the live node
	return time.AfterFunc(d, f)
}

// virtualEpoch is the instant a virtual clock's time zero maps to, so a
// node's incarnation (its creation time, Node.ctrlHigh) is a function of
// when in the run it was created.
var virtualEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a Clock on sim's virtual time: Now is
// virtualEpoch plus sim.Now, and AfterFunc schedules an event which, like
// every simulator timer, still fires once stopped and finds its flag set.
// Everything using it must run on the goroutine that drives sim.
func NewVirtualClock(sim *eventsim.Simulator) Clock { return virtualClock{sim} }

type virtualClock struct{ sim *eventsim.Simulator }

func (c virtualClock) Now() time.Time { return virtualEpoch.Add(c.sim.Now()) }

func (c virtualClock) AfterFunc(d time.Duration, f func()) Timer {
	t := new(simTimer)
	c.sim.ScheduleAfter(d, func(*eventsim.Simulator, int64) {
		if !t.done {
			t.done = true
			f()
		}
	}, 0)
	return t
}

// simTimer is done once it has fired or been stopped.
type simTimer struct{ done bool }

func (t *simTimer) Stop() bool {
	pending := !t.done
	t.done = true
	return pending
}
