// Package parallel provides the bounded worker pool behind the experiment
// engine and the once-per-key memo its work units share immutable inputs
// through. It deliberately lives outside the simulation scope that omcast-lint
// enforces: sim-scoped packages are single-threaded by contract, so every
// goroutine and every lock lives here, and callers only ever see a result
// slice indexed by input order. Determinism therefore reduces to one rule for
// the callback — fn(i) may touch only state reachable from its own index, plus
// values it can only read.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes fn(0), ..., fn(n-1) on at most workers goroutines (after
// Workers resolution, capped at n) and returns the results in input order.
// fn must confine itself to state reachable from its own index; Run adds no
// locking around the callback.
//
// Error handling is deterministic: when any unit fails, Run reports the
// failure with the lowest index, wrapped with that index. The parallel path
// still runs every unit before returning (units are independent and failures
// are exceptional, so draining costs little and keeps the reported error
// schedule-independent); the single-worker path stops at the first failure,
// which reports the same lowest-indexed error.
func Run[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, fmt.Errorf("unit %d: %w", i, err)
			}
			results[i] = v
		}
		return results, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return results, nil
}
