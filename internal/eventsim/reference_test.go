package eventsim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"omcast/internal/xrand"
)

// refSim is the heap-only kernel the lanes were added beside, kept as the
// oracle: one 4-ary heap over (at, seq), a lane's Schedule being plain
// ScheduleAfter, and tombstones compacted once they pass a quarter of the
// queue. The lane kernel must fire the same events in the same order and
// report the same Processed, Pending and Now after every step.
type refSim struct {
	now       time.Duration
	queue     []*refEvent
	seq       uint64
	stopped   bool
	processed uint64
	nCanceled int
	// compactions counts sweeps, so a test can tell its programs reach them.
	compactions int
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	canceled bool
	fired    bool
	handler  func(*refSim)
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *refSim) siftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

func (s *refSim) siftDown(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for c++; c < min(4*i+5, n); c++ {
			if refLess(q[c], q[best]) {
				best = c
			}
		}
		if !refLess(q[best], ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

func (s *refSim) pop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue = s.queue[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *refSim) compact() {
	kept := s.queue[:0]
	for _, ev := range s.queue {
		if !ev.canceled {
			kept = append(kept, ev)
		}
	}
	s.queue = kept
	for i := (len(kept) - 2) / 4; len(kept) > 1 && i >= 0; i-- {
		s.siftDown(i)
	}
	s.nCanceled = 0
	s.compactions++
}

func (s *refSim) Schedule(at time.Duration, h func(*refSim)) *refEvent {
	if at < s.now {
		at = s.now
	}
	ev := &refEvent{at: at, seq: s.seq, handler: h}
	s.seq++
	s.queue = append(s.queue, ev)
	s.siftUp(len(s.queue) - 1)
	return ev
}

func (s *refSim) ScheduleAfter(delay time.Duration, h func(*refSim)) *refEvent {
	return s.Schedule(s.now+max(delay, 0), h)
}

func (s *refSim) Cancel(ev *refEvent) bool {
	if ev == nil || ev.fired || ev.canceled {
		return false
	}
	ev.canceled = true
	s.nCanceled++
	if s.nCanceled >= compactMinCanceled && s.nCanceled*compactFraction > len(s.queue) {
		s.compact()
	}
	return true
}

func (s *refSim) Run(horizon time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at > horizon {
			s.now = horizon
			return nil
		}
		s.pop()
		if next.canceled {
			s.nCanceled--
			continue
		}
		next.fired = true
		s.now = next.at
		next.handler(s)
		s.processed++
		if s.stopped {
			return ErrStopped
		}
	}
	if horizon > s.now && horizon != MaxHorizon {
		s.now = horizon
	}
	return nil
}

// kernelProgram drives one kernel through a program and records what fired.
// Both kernels get a program built from the same seed; every decision a
// handler makes is a function of its event's label, so the two runs stay in
// step exactly as long as the kernels agree.
type kernelProgram struct {
	schedule func(at time.Duration, label int)
	after    func(d time.Duration, label int)
	lane     func(d time.Duration, label int)
	cancel   func(k int) bool // cancels the k-th event issued
	run      func(horizon time.Duration) error
	stop     func()
	now      func() time.Duration
	counts   func() (processed uint64, pending int)

	fired  []int
	labels int
}

var laneDelays = []time.Duration{0, time.Second, 5 * time.Second, 360 * time.Second}

// fire is every handler's body: log the label, then maybe schedule, cancel
// or stop, as the label dictates.
func (p *kernelProgram) fire(label int) {
	p.fired = append(p.fired, label)
	switch label % 6 {
	case 0:
		p.labels++
		p.lane(laneDelays[label%len(laneDelays)], p.labels)
	case 1:
		p.labels++
		p.after(time.Duration(label%13)*time.Second, p.labels)
	case 2:
		p.cancel(label * 7 % p.labels)
	}
	if label%97 == 3 {
		p.stop()
	}
}

func newLaneProgram() *kernelProgram {
	s := New()
	var ids []EventID
	p := &kernelProgram{}
	h := func(label int) Handler { return func(*Simulator) { p.fire(label) } }
	issue := func(id EventID) { ids = append(ids, id) }
	p.schedule = func(at time.Duration, label int) { issue(s.Schedule(at, h(label))) }
	p.after = func(d time.Duration, label int) { issue(s.ScheduleAfter(d, h(label))) }
	p.lane = func(d time.Duration, label int) { issue(s.Lane(d).Schedule(h(label))) }
	p.cancel = func(k int) bool { return s.Cancel(ids[k]) }
	p.run = s.Run
	p.stop = s.Stop
	p.now = s.Now
	p.counts = func() (uint64, int) { return s.Processed(), s.Pending() }
	return p
}

func newRefProgram(s *refSim) *kernelProgram {
	var ids []*refEvent
	p := &kernelProgram{}
	h := func(label int) func(*refSim) { return func(*refSim) { p.fire(label) } }
	issue := func(ev *refEvent) { ids = append(ids, ev) }
	p.schedule = func(at time.Duration, label int) { issue(s.Schedule(at, h(label))) }
	p.after = func(d time.Duration, label int) { issue(s.ScheduleAfter(d, h(label))) }
	p.lane = func(d time.Duration, label int) { issue(s.ScheduleAfter(d, h(label))) }
	p.cancel = func(k int) bool { return s.Cancel(ids[k]) }
	p.run = s.Run
	p.stop = func() { s.stopped = true }
	p.now = func() time.Duration { return s.now }
	p.counts = func() (uint64, int) { return s.processed, len(s.queue) }
	return p
}

// TestLanesMatchHeapOnlyKernel runs random programs of Schedule (past times
// included), ScheduleAfter, lane Schedule, Cancel (of live, fired and
// already canceled events alike), Run to a horizon (behind the clock, at it,
// ahead of it, or unbounded) and in-handler Stop against both kernels. After
// every step both must have fired the same labels in the same order and
// agree on Now, Processed, Pending and Run's error. Cancel-heavy stretches
// push both over the compaction threshold, with tombstones in the lanes.
func TestLanesMatchHeapOnlyKernel(t *testing.T) {
	compactions, laneHits, backwards := 0, 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		ops := xrand.New(seed)
		heapOnly := &refSim{}
		lane, ref := newLaneProgram(), newRefProgram(heapOnly)
		both := func(f func(p *kernelProgram)) { f(lane); f(ref) }
		for step := 0; step < 1500; step++ {
			op := ops.Intn(100)
			now := ref.now()
			switch {
			case op < 2: // a cancel storm: enough tombstones to compact
				d := laneDelays[ops.Intn(len(laneDelays))]
				first := ref.labels
				for i := 0; i < 100; i++ {
					both(func(p *kernelProgram) { p.labels++; p.lane(d, p.labels) })
				}
				for i := 0; i < 90; i++ {
					k := first + ops.Intn(100)
					if a, b := lane.cancel(k), ref.cancel(k); a != b {
						t.Fatalf("seed %d step %d: Cancel(%d) = %v, heap-only %v", seed, step, k, a, b)
					}
				}
			case op < 20:
				at := now + time.Duration(ops.Intn(40)-5)*time.Second
				both(func(p *kernelProgram) { p.labels++; p.schedule(at, p.labels) })
			case op < 35:
				d := time.Duration(ops.Intn(30)-2) * time.Second
				both(func(p *kernelProgram) { p.labels++; p.after(d, p.labels) })
			case op < 60:
				d := laneDelays[ops.Intn(len(laneDelays))]
				both(func(p *kernelProgram) { p.labels++; p.lane(d, p.labels) })
				laneHits++
			case op < 85:
				if ref.labels == 0 {
					continue
				}
				k := ops.Intn(ref.labels)
				if a, b := lane.cancel(k), ref.cancel(k); a != b {
					t.Fatalf("seed %d step %d: Cancel(%d) = %v, heap-only %v", seed, step, k, a, b)
				}
			default:
				horizon := now + time.Duration(ops.Intn(60)-10)*time.Second
				if op >= 98 {
					horizon = MaxHorizon
				}
				if horizon < now {
					backwards++
				}
				a, b := lane.run(horizon), ref.run(horizon)
				if !errors.Is(a, b) || !errors.Is(b, a) {
					t.Fatalf("seed %d step %d: Run(%v) = %v, heap-only %v", seed, step, horizon, a, b)
				}
			}
			if err := sameState(lane, ref); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		for stopped := true; stopped; { // drain, resuming after each Stop
			a, b := lane.run(MaxHorizon), ref.run(MaxHorizon)
			if !errors.Is(a, b) || !errors.Is(b, a) {
				t.Fatalf("seed %d draining: Run = %v, heap-only %v", seed, a, b)
			}
			if err := sameState(lane, ref); err != nil {
				t.Fatalf("seed %d draining: %v", seed, err)
			}
			stopped = a != nil
		}
		if _, pending := ref.counts(); pending != 0 {
			t.Fatalf("seed %d: %d events left after draining", seed, pending)
		}
		compactions += heapOnly.compactions
	}
	t.Logf("%d lane schedules, %d compactions, %d runs behind the clock", laneHits, compactions, backwards)
	if compactions < 20 || backwards < 100 {
		t.Fatalf("programs too tame: %d compactions, %d runs behind the clock", compactions, backwards)
	}
}

func sameState(lane, ref *kernelProgram) error {
	if len(lane.fired) != len(ref.fired) {
		return fmt.Errorf("fired %d events, heap-only %d", len(lane.fired), len(ref.fired))
	}
	for i := range ref.fired {
		if lane.fired[i] != ref.fired[i] {
			return fmt.Errorf("firing %d is label %d, heap-only %d", i, lane.fired[i], ref.fired[i])
		}
	}
	if lane.now() != ref.now() {
		return fmt.Errorf("Now %v, heap-only %v", lane.now(), ref.now())
	}
	p1, q1 := lane.counts()
	p2, q2 := ref.counts()
	if p1 != p2 || q1 != q2 {
		return fmt.Errorf("Processed %d Pending %d, heap-only %d and %d", p1, q1, p2, q2)
	}
	return nil
}
