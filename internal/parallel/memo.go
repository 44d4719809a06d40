package parallel

import (
	"errors"
	"sync"
)

// Memo builds a value at most once per key and shares it between every
// caller that asks for that key, for values that are expensive to build and
// immutable once built (the experiment engine's underlay). It lives here for
// the reason the worker pool does: work units running on this package's
// goroutines meet at it, and sim-scoped packages may not hold a lock.
//
// Concurrent Gets of one key block on a single build and all receive its
// result. The table keeps the capacity most recently requested keys and
// forgets the least recent one beyond that, so a sweep over many keys cannot
// grow it; a forgotten key is simply rebuilt when asked for again. A failed
// build is handed to everyone already waiting on it and then forgotten, so a
// later Get tries again.
type Memo[K comparable, V any] struct {
	build    func(K) (V, error)
	capacity int

	mu sync.Mutex
	// entries is ordered least recently requested first; capacity is small,
	// so a linear search beats hashing K.
	entries []*memoEntry[K, V]
}

type memoEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	v    V
	err  error
}

// errMemoBuildAborted is what the waiters of a build that panicked receive.
var errMemoBuildAborted = errors.New("parallel: memo build did not complete")

// NewMemo returns a memo of build retaining at most capacity keys.
func NewMemo[K comparable, V any](capacity int, build func(K) (V, error)) *Memo[K, V] {
	if capacity < 1 {
		panic("parallel: NewMemo capacity < 1")
	}
	return &Memo[K, V]{build: build, capacity: capacity}
}

// Get returns build(key), running build only if no retained entry holds it.
func (m *Memo[K, V]) Get(key K) (V, error) {
	e := m.entry(key)
	e.once.Do(func() {
		e.err = errMemoBuildAborted // stands only if build panics
		e.v, e.err = m.build(key)
	})
	if e.err != nil {
		m.forget(e)
	}
	return e.v, e.err
}

// entry returns key's entry, marking it the most recently requested and
// creating it (at the expense of the least recently requested) if absent.
// An evicted entry that is still building stays valid for its waiters.
func (m *Memo[K, V]) entry(key K) *memoEntry[K, V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	var e *memoEntry[K, V]
	for i, held := range m.entries {
		if held.key == key {
			e = held
			m.removeAt(i)
			break
		}
	}
	if e == nil {
		e = &memoEntry[K, V]{key: key}
		if len(m.entries) == m.capacity {
			m.removeAt(0)
		}
	}
	m.entries = append(m.entries, e)
	return e
}

// forget drops e from the table if it is still there.
func (m *Memo[K, V]) forget(e *memoEntry[K, V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, held := range m.entries {
		if held == e {
			m.removeAt(i)
			return
		}
	}
}

// removeAt closes the gap at i, keeping the order of the rest. Caller holds mu.
func (m *Memo[K, V]) removeAt(i int) {
	last := len(m.entries) - 1
	copy(m.entries[i:], m.entries[i+1:])
	m.entries[last] = nil
	m.entries = m.entries[:last]
}
