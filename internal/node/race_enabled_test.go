//go:build race

package node

// raceEnabled reports whether the race detector is compiled in: the
// allocation ceilings skip under it (it allocates), and the wall-clock tests
// stretch their timers and deadlines by it (see wallFast).
const raceEnabled = true
