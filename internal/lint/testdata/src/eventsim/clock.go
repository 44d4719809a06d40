// Package eventsim is a no-wallclock fixture: the directory name places it
// inside the simulated-kernel scope of the analyzer.
package eventsim

import "time"

// A package-level initializer runs outside every function and is still
// simulation code.
var t0 = time.Now() // want `no-wallclock: time\.Now reads the wall clock`

// Clock exercises the forbidden wall-clock API.
type Clock struct {
	now time.Duration
}

func bad() time.Time {
	return time.Now() // want `no-wallclock: time\.Now reads the wall clock`
}

func badSince(t time.Time) time.Duration {
	return time.Since(t) // want `no-wallclock: time\.Since reads the wall clock`
}

func badSleep() {
	time.Sleep(time.Second) // want `no-wallclock: time\.Sleep reads the wall clock`
}

func badTimer() {
	_ = time.NewTicker(time.Second) // want `no-wallclock: time\.NewTicker reads the wall clock`
}

func okVirtual(c *Clock) time.Duration {
	// Virtual-time arithmetic on time.Duration stays legal.
	return c.now + 3*time.Second
}

func okSuppressed() time.Time {
	//lint:ignore no-wallclock reason: fixture: justified suppression on the next line
	return time.Now()
}

func okSuppressedTrailing() time.Time {
	return time.Now() //lint:ignore no-wallclock reason: fixture: justified trailing suppression
}
