package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// countingMemo returns a memo whose values are fresh pointers holding their
// key, and the per-key build counts behind it.
func countingMemo(capacity int) (*Memo[int, *int], func(key int) int64) {
	var mu sync.Mutex
	builds := map[int]int64{}
	m := NewMemo(capacity, func(key int) (*int, error) {
		mu.Lock()
		builds[key]++
		mu.Unlock()
		v := key
		return &v, nil
	})
	return m, func(key int) int64 {
		mu.Lock()
		defer mu.Unlock()
		return builds[key]
	}
}

func (m *Memo[K, V]) retained() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// TestMemoOncePerKey is the sharing contract: however many goroutines ask,
// each key is built once and everyone holds the same value.
func TestMemoOncePerKey(t *testing.T) {
	const goroutines, gets, keys = 8, 100, 3
	m, builds := countingMemo(4)
	got := make([][keys]*int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				key := (g + i) % keys
				v, err := m.Get(key)
				if err != nil || *v != key {
					t.Errorf("Get(%d) = %v, %v", key, v, err)
					return
				}
				if got[g][key] == nil {
					got[g][key] = v
				} else if got[g][key] != v {
					t.Errorf("goroutine %d: Get(%d) returned two different pointers", g, key)
				}
			}
		}(g)
	}
	wg.Wait()
	for key := 0; key < keys; key++ {
		if n := builds(key); n != 1 {
			t.Errorf("key %d built %d times, want 1", key, n)
		}
		for g := 1; g < goroutines; g++ {
			if got[g][key] != got[0][key] {
				t.Errorf("key %d: goroutines 0 and %d hold different pointers", key, g)
			}
		}
	}
	if n := m.retained(); n != keys {
		t.Errorf("retains %d entries, want %d", n, keys)
	}
}

// TestMemoBounded: the table holds the capacity most recently requested keys
// and nothing more; the one pushed out is rebuilt on demand.
func TestMemoBounded(t *testing.T) {
	const capacity = 4
	m, builds := countingMemo(capacity)
	get := func(key int) *int {
		t.Helper()
		v, err := m.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.retained(); n > capacity {
			t.Fatalf("after Get(%d) the table holds %d entries, capacity %d", key, n, capacity)
		}
		return v
	}
	first := get(0)
	for key := 1; key < capacity; key++ {
		get(key)
	}
	if get(0) != first || builds(0) != 1 {
		t.Fatal("key 0 rebuilt while the table had room for it")
	}
	// 0 is now the most recent, 1 the least: one more key pushes 1 out.
	get(capacity)
	if m.retained() != capacity {
		t.Fatalf("table holds %d entries, want %d", m.retained(), capacity)
	}
	if get(0) != first || builds(0) != 1 {
		t.Fatal("the most recently requested key was evicted")
	}
	get(1)
	if builds(1) != 2 {
		t.Fatalf("the least recently requested key was built %d times, want 2 (evicted, then rebuilt)", builds(1))
	}
	for key := 100; key < 100+10*capacity; key++ {
		get(key)
	}
	if m.retained() != capacity {
		t.Fatalf("table holds %d entries after a sweep, want %d", m.retained(), capacity)
	}
}

// TestMemoFailedBuildNotRetained: every caller waiting on a failing build
// gets its error, and the next caller gets a fresh attempt. The assertions
// hold under any schedule: a waiter that only reaches Get after the failure
// was forgotten legitimately shares the second, successful build instead.
func TestMemoFailedBuildNotRetained(t *testing.T) {
	const waiters = 6
	boom := errors.New("boom")
	var attempts atomic.Int64
	release := make(chan struct{})
	m := NewMemo(2, func(key string) (*string, error) {
		if attempts.Add(1) == 1 {
			<-release // hold the first build while the waiters join it
			return nil, fmt.Errorf("building %s: %w", key, boom)
		}
		return &key, nil
	})

	errs := make([]error, waiters)
	var entered, wg sync.WaitGroup
	entered.Add(waiters)
	wg.Add(waiters)
	for w := 0; w < waiters; w++ {
		go func(w int) {
			defer wg.Done()
			entered.Done()
			_, errs[w] = m.Get("k")
		}(w)
	}
	entered.Wait()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let them get from entered.Done into Get
	}
	close(release)
	wg.Wait()

	failed := 0
	for _, err := range errs {
		switch {
		case errors.Is(err, boom):
			failed++
		case err != nil:
			t.Errorf("unexpected error %v", err)
		}
	}
	if failed == 0 {
		t.Fatal("nobody received the failed build's error")
	}
	if attempts.Load() == 1 && failed != waiters {
		t.Fatalf("one build ran, yet only %d of %d callers received its error", failed, waiters)
	}
	v, err := m.Get("k")
	if err != nil || *v != "k" {
		t.Fatalf("Get after a failed build = %v, %v; want a fresh, successful build", v, err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("%d build attempts, want 2 (the failure is not retained, the success is)", attempts.Load())
	}
	if n := m.retained(); n != 1 {
		t.Fatalf("table holds %d entries, want 1", n)
	}
}

// TestMemoPanickingBuildReleasesWaiters: a build that panics must not leave
// later callers blocked or holding a zero value with a nil error.
func TestMemoPanickingBuildReleasesWaiters(t *testing.T) {
	calls := 0
	m := NewMemo(2, func(key int) (*int, error) {
		calls++
		if calls == 1 {
			panic("bug in build")
		}
		return &key, nil
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not reach the builder's caller")
			}
		}()
		_, _ = m.Get(7) // the panic propagates; there is no result to check
	}()
	if _, err := m.Get(7); !errors.Is(err, errMemoBuildAborted) {
		t.Fatalf("Get on the aborted entry = %v, want errMemoBuildAborted", err)
	}
	if v, err := m.Get(7); err != nil || *v != 7 {
		t.Fatalf("Get after the aborted entry was forgotten = %v, %v", v, err)
	}
}
