package eventsim

import (
	"fmt"
	"testing"
	"time"

	"omcast/internal/xrand"
)

// refSim is the heap-only kernel the lanes were added beside, kept as the
// oracle: one 4-ary heap over (at, seq), a lane's Schedule being plain
// ScheduleAfter. The lane kernel must fire the same events in the same order
// and report the same Processed, Pending and Now after every step.
type refSim struct {
	now       time.Duration
	queue     []*refEvent
	seq       uint64
	processed uint64
}

type refEvent struct {
	at      time.Duration
	seq     uint64
	handler func(*refSim)
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

func (s *refSim) Schedule(at time.Duration, h func(*refSim)) {
	if at < s.now {
		at = s.now
	}
	s.queue = append(s.queue, &refEvent{at: at, seq: s.seq, handler: h})
	s.seq++
	s.siftUp(len(s.queue) - 1)
}

func (s *refSim) ScheduleAfter(delay time.Duration, h func(*refSim)) {
	s.Schedule(s.now+max(delay, 0), h)
}

func (s *refSim) Run(horizon time.Duration) error {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at > horizon {
			s.now = horizon
			return nil
		}
		s.pop()
		s.now = next.at
		next.handler(s)
		s.processed++
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
	run      func(horizon time.Duration) error
	now      func() time.Duration
	counts   func() (processed uint64, pending int)

	fired  []int
	labels int
}

var laneDelays = []time.Duration{0, time.Second, 5 * time.Second, 360 * time.Second}

// fire is every handler's body: log the label, then maybe schedule, as the
// label dictates.
func (p *kernelProgram) fire(label int) {
	p.fired = append(p.fired, label)
	switch label % 6 {
	case 0:
		p.labels++
		p.lane(laneDelays[label%len(laneDelays)], p.labels)
	case 1:
		p.labels++
		p.after(time.Duration(label%13)*time.Second, p.labels)
	}
}

func newLaneProgram() *kernelProgram {
	s := New()
	p := &kernelProgram{}
	// One handler for every event: the label rides in the event's argument.
	h := Handler(func(_ *Simulator, label int64) { p.fire(int(label)) })
	p.schedule = func(at time.Duration, label int) { s.Schedule(at, h, int64(label)) }
	p.after = func(d time.Duration, label int) { s.ScheduleAfter(d, h, int64(label)) }
	p.lane = func(d time.Duration, label int) { s.Lane(d).Schedule(h, int64(label)) }
	p.run = s.Run
	p.now = s.Now
	p.counts = func() (uint64, int) { return s.Processed(), s.Pending() }
	return p
}

func newRefProgram(s *refSim) *kernelProgram {
	p := &kernelProgram{}
	h := func(label int) func(*refSim) { return func(*refSim) { p.fire(label) } }
	p.schedule = func(at time.Duration, label int) { s.Schedule(at, h(label)) }
	p.after = func(d time.Duration, label int) { s.ScheduleAfter(d, h(label)) }
	p.lane = func(d time.Duration, label int) { s.ScheduleAfter(d, h(label)) }
	p.run = s.Run
	p.now = func() time.Duration { return s.now }
	p.counts = func() (uint64, int) { return s.processed, len(s.queue) }
	return p
}

// TestLanesMatchHeapOnlyKernel runs random programs of Schedule (past times
// included), ScheduleAfter, lane Schedule and Run to a horizon (behind the
// clock, at it, ahead of it, or unbounded) against both kernels. After every
// step both must have fired the same labels in the same order and agree on
// Now, Processed and Pending. Bursts of one delay fill a lane's ring past
// its growth points.
func TestLanesMatchHeapOnlyKernel(t *testing.T) {
	laneHits, backwards := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		ops := xrand.New(seed)
		lane, ref := newLaneProgram(), newRefProgram(&refSim{})
		both := func(f func(p *kernelProgram)) { f(lane); f(ref) }
		for step := 0; step < 1500; step++ {
			op := ops.Intn(100)
			now := ref.now()
			switch {
			case op < 2: // a burst on one lane
				d := laneDelays[ops.Intn(len(laneDelays))]
				for i := 0; i < 100; i++ {
					both(func(p *kernelProgram) { p.labels++; p.lane(d, p.labels) })
				}
			case op < 25:
				at := now + time.Duration(ops.Intn(40)-5)*time.Second
				both(func(p *kernelProgram) { p.labels++; p.schedule(at, p.labels) })
			case op < 45:
				d := time.Duration(ops.Intn(30)-2) * time.Second
				both(func(p *kernelProgram) { p.labels++; p.after(d, p.labels) })
			case op < 75:
				d := laneDelays[ops.Intn(len(laneDelays))]
				both(func(p *kernelProgram) { p.labels++; p.lane(d, p.labels) })
				laneHits++
			default:
				horizon := now + time.Duration(ops.Intn(60)-10)*time.Second
				if op >= 98 {
					horizon = MaxHorizon
				}
				if horizon < now {
					backwards++
				}
				if a, b := lane.run(horizon), ref.run(horizon); a != nil || b != nil {
					t.Fatalf("seed %d step %d: Run(%v) = %v, heap-only %v", seed, step, horizon, a, b)
				}
			}
			if err := sameState(lane, ref); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if a, b := lane.run(MaxHorizon), ref.run(MaxHorizon); a != nil || b != nil {
			t.Fatalf("seed %d draining: Run = %v, heap-only %v", seed, a, b)
		}
		if err := sameState(lane, ref); err != nil {
			t.Fatalf("seed %d draining: %v", seed, err)
		}
		if _, pending := ref.counts(); pending != 0 {
			t.Fatalf("seed %d: %d events left after draining", seed, pending)
		}
	}
	t.Logf("%d lane schedules, %d runs behind the clock", laneHits, backwards)
	if backwards < 100 {
		t.Fatalf("programs too tame: %d runs behind the clock", backwards)
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
