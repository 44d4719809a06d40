//go:build race

package node

// raceEnabled reports whether the race detector is compiled in: the
// allocation ceilings skip under it (it allocates), and the wall-clock tests
// stretch their timers and deadlines by it (see wallFast).
const raceEnabled = true

// raceRepeats is how often a test whose goroutines really run side by side
// repeats itself: under the race detector each repetition is one more
// schedule for it to check, so one `go test -race ./...` holds the test to
// seven. A virtual-world test (newWorld, newCluster) never repeats: it is one
// goroutine, and its every run is the same schedule.
const raceRepeats = 7
