// Package util is a no-global-rand fixture: the directory name keeps it
// outside every scoped package list, proving the rule applies module-wide.
package util

import "math/rand"

// A package-level initializer draws from the global source too.
var jitter = rand.Intn(10) // want `no-global-rand: rand\.Intn draws from the process-global source`

func bad() int {
	return rand.Intn(10) // want `no-global-rand: rand\.Intn draws from the process-global source`
}

func badFloat() float64 {
	return rand.Float64() // want `no-global-rand: rand\.Float64 draws from the process-global source`
}

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `no-global-rand: rand\.Shuffle draws from the process-global source`
}

// okSeeded constructs a private stream: rand.New and rand.NewSource are the
// sanctioned constructors, and methods on the resulting *rand.Rand are fine.
func okSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func okSuppressed() float64 {
	//lint:ignore no-global-rand reason: fixture: justified suppression
	return rand.ExpFloat64()
}
