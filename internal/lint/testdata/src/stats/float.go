// Package stats is a float-accum fixture: the directory name places it
// inside the metric-code scope of the analyzer.
package stats

func badEqual(a, b float64) bool {
	return a == b // want `float-accum: == between accumulated floating-point values`
}

func badNotEqual(a, b float64) bool {
	return a != b // want `float-accum: != between accumulated floating-point values`
}

func okSentinel(a float64) bool {
	// Comparing against an exact constant is the conventional guard idiom.
	return a == 0
}

func okIntegers(a, b int) bool {
	return a == b
}

func okOrdering(a, b float64) bool {
	return a < b
}

func okSuppressed(a, b float64) bool {
	//lint:ignore float-accum reason: fixture: exactness intended
	return a == b
}
