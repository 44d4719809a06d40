// Package rost is a map-order fixture: the directory name places it inside
// the simulated-kernel scope of the analyzer.
package rost

import (
	"math/rand"
	"sort"
)

type sched struct{}

func (sched) Schedule(at int) {}

type state struct {
	total int
}

func badAppend(m map[int]string) []string {
	var out []string
	for _, v := range m { // want `map-order: map iteration order is nondeterministic and this body appends to a slice`
		out = append(out, v+"!")
	}
	return out
}

func badDelete(m map[int]string) {
	for k := range m { // want `map-order: map iteration order is nondeterministic and this body mutates a map mid-iteration`
		if k < 0 {
			delete(m, k)
		}
	}
}

func badSchedule(m map[int]string, s sched) {
	for k := range m { // want `map-order: map iteration order is nondeterministic and this body schedules events`
		s.Schedule(k)
	}
}

func badRNG(m map[int]string, r *rand.Rand) int {
	hits := 0
	for range m { // want `map-order: map iteration order is nondeterministic and this body consumes random numbers`
		if r.Intn(2) == 0 {
			hits++
		}
	}
	return hits
}

func badStateWrite(m map[int]int, st *state) {
	for _, v := range m { // want `map-order: map iteration order is nondeterministic and this body writes through a selector or index`
		st.total = st.total + v
	}
}

func badEarlyReturn(m map[int]string) string {
	for _, v := range m { // want `map-order: map iteration order is nondeterministic and this body returns a value chosen by iteration order`
		if v != "" {
			return v
		}
	}
	return ""
}

// okKeyCollection is the canonical safe shape: collect, sort, then iterate.
func okKeyCollection(m map[int]string) []string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// okLocalReduce only folds into a local accumulator: order-independent.
func okLocalReduce(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func okSuppressed(m map[int]string) []string {
	var out []string
	//lint:ignore map-order reason: fixture: the caller sorts the result before use
	for _, v := range m {
		out = append(out, v+"!")
	}
	return out
}

// okLocalReduceStale carries a directive over a loop the rule never flags —
// the stale-suppression audit must call it out.
func okLocalReduceStale(m map[int]int) int {
	total := 0
	//lint:ignore map-order reason: fixture: stale directive, loop below is clean // want `stale-suppression: //lint:ignore map-order suppressed nothing in this run`
	for _, v := range m {
		total += v
	}
	return total
}
