// Package overlay is a no-goroutine-in-sim fixture: the directory name
// places it inside the simulated-kernel scope of the analyzer.
package overlay

import "sync"

// mailbox declares concurrency in struct fields, outside any function body.
type mailbox struct {
	ch chan int   // want `no-goroutine-in-sim: channel type in the simulation kernel`
	mu sync.Mutex // want `no-goroutine-in-sim: sync\.Mutex in the simulation kernel`
}

func badGo() {
	go func() {}() // want `no-goroutine-in-sim: go statement in the simulation kernel`
}

func badChanType() {
	var ch chan int // want `no-goroutine-in-sim: channel type in the simulation kernel`
	_ = ch
}

func badSelect() {
	select {} // want `no-goroutine-in-sim: select statement in the simulation kernel`
}

func badSync() {
	var mu sync.Mutex // want `no-goroutine-in-sim: sync\.Mutex in the simulation kernel`
	mu.Lock()
	defer mu.Unlock()
}

func okSequential(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func okSuppressed() {
	//lint:ignore no-goroutine-in-sim reason: fixture: justified suppression
	go func() {}()
}
