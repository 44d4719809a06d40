// Package eventsim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of timed events.
// Events scheduled for the same instant fire in scheduling order, which keeps
// runs bit-for-bit reproducible for a fixed seed and event program. All
// simulated time is expressed as time.Duration offsets from the start of the
// simulation.
//
// The queue is an inlined 4-ary heap of event values: a compare reads
// (at, seq) in place, the backing array doubles only when full (or is
// reserved up front with Simulator.Grow), so the steady-state schedule/fire
// cycle performs no heap allocations, and the flat comparison loop avoids
// container/heap's interface boxing. Beside the heap sit lanes, one per fixed
// delay (Simulator.Lane): timers a session re-arms with the same delay every
// time, such as a periodic check, append to a FIFO ring in O(1) instead of
// sifting through the heap. The clock moves forward, so a lane fills in time
// order (an event that would break it, after a Run to a horizon behind the
// clock, goes to the heap instead), and Run pops whichever of the heap top
// and the lane heads comes first. Pop order is the strict total order
// (at, seq) over all of them, with seq drawn from one counter, so neither the
// heap layout nor which structure holds an event can ever leak into results.
package eventsim

import (
	"math"
	"time"

	"omcast/internal/metrics"
)

// Handler is the callback invoked when an event fires. The current simulator
// is passed in so handlers can schedule follow-up events, and arg is the
// value the event was scheduled with. A timer kind binds its handler once and
// carries what it is for (a member ID, a record index) in arg, so arming a
// timer allocates nothing; a handler with nothing to carry is scheduled
// with 0.
type Handler func(sim *Simulator, arg int64)

// event is a single queued callback and its argument, held by value in the
// heap or in a lane. There is no cancellation: a timer that may become moot
// checks, when it fires, whether what it was for still holds, and returns if
// not.
type event struct {
	at      time.Duration
	schedAt time.Duration // when Schedule was called (queue-residence metric)
	seq     uint64        // tie-break: FIFO among equal timestamps
	handler Handler
	arg     int64
}

// less orders events by (at, seq) — a strict total order because seq is
// unique per scheduled event.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator is a single-threaded discrete-event scheduler. The zero value is
// not usable; construct with New.
type Simulator struct {
	now time.Duration
	// queue is a 4-ary min-heap ordered by (at, seq): children of slot i
	// live at 4i+1..4i+4. The shallower tree halves the sift-down depth of
	// the binary layout, and the flat loops need no interface dispatch. Its
	// capacity doubles when full, like a lane's ring.
	queue []event
	// lanes are the fixed-delay FIFOs Lane hands out, in creation order;
	// laneLen counts the events they hold.
	lanes   []*Lane
	laneLen int
	// seq is the next event's tie-break, so it counts events scheduled.
	seq uint64
	// processed counts events that fired.
	processed uint64
	// depthHigh tracks the largest queue depth ever observed; it is plain
	// kernel state (one int compare per Schedule) so the instrumented
	// hot path stays free of gauge writes.
	depthHigh int
	// residence is the queue-residence histogram, nil (a no-op) until
	// Instrument is called.
	residence *metrics.Histogram
}

// Lane is a FIFO of events that fire a fixed delay after they are scheduled.
// Obtain one with Simulator.Lane; it belongs to that simulator.
type Lane struct {
	s     *Simulator
	delay time.Duration
	// ring holds the lane's events oldest first from head; its length is a
	// power of two and it grows, doubling, only when full.
	ring []event
	head int
	n    int
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Instrument registers the kernel's instruments on reg and starts feeding
// them: events scheduled and fired, current and high-water queue depth,
// and a histogram of virtual queue-residence time (fire time minus schedule
// time — how far ahead the simulation plans). All instruments are keyed in
// virtual time, so a fixed seed yields byte-identical snapshots; wall-clock
// kernel cost is profiled with -cpuprofile instead (see DESIGN.md §9).
func (s *Simulator) Instrument(reg *metrics.Registry) {
	// The counters and the queue-depth gauges are func-backed: they read
	// kernel state at snapshot time instead of writing an instrument on
	// every Schedule and fire.
	reg.CounterFunc("omcast_sim_events_scheduled_total", "Events registered with the kernel.",
		func() float64 { return float64(s.seq) })
	reg.CounterFunc("omcast_sim_events_fired_total", "Events whose handler ran.",
		func() float64 { return float64(s.processed) })
	s.residence = reg.Histogram("omcast_sim_event_residence_seconds",
		"Virtual seconds an event spent queued between Schedule and firing.",
		metrics.LatencyBuckets())
	reg.GaugeFunc("omcast_sim_queue_depth",
		"Events currently queued.",
		func() float64 { return float64(s.Pending()) })
	reg.GaugeFunc("omcast_sim_queue_depth_high_water",
		"Largest queue depth observed.",
		func() float64 { return float64(s.depthHigh) })
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Processed returns the number of events that have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events still queued in the heap and the
// lanes.
func (s *Simulator) Pending() int { return len(s.queue) + s.laneLen }

// siftUp restores the heap property after appending at slot i.
func (s *Simulator) siftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&ev, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// siftDown restores the heap property after replacing slot i.
func (s *Simulator) siftDown(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for c++; c < end; c++ {
			if less(&q[c], &q[best]) {
				best = c
			}
		}
		if !less(&q[best], &ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

// pop removes the queue head; the caller has copied it out. The vacated
// cell is zeroed so the backing array never pins a fired handler.
func (s *Simulator) pop() {
	q := s.queue
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	s.queue = q[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

// Schedule registers handler to fire with arg at absolute virtual time at.
// Times in the past (before Now) are clamped to Now, so the event fires next.
func (s *Simulator) Schedule(at time.Duration, handler Handler, arg int64) {
	if at < s.now {
		at = s.now
	}
	n := len(s.queue)
	if n == cap(s.queue) {
		s.Grow(max(16, 2*n))
	}
	s.queue = s.queue[:n+1]
	s.queue[n] = s.newEvent(at, handler, arg)
	s.siftUp(n)
	s.noteDepth()
}

// Grow reserves room in the heap for n pending events, so a run that knows
// how many events it will hold at once fills the heap without regrowing it.
// It changes no event and no firing order; a heap that outgrows n doubles as
// before.
func (s *Simulator) Grow(n int) {
	if n > cap(s.queue) {
		grown := make([]event, len(s.queue), n)
		copy(grown, s.queue)
		s.queue = grown
	}
}

// newEvent returns the event for handler and arg at time at with the next
// seq.
func (s *Simulator) newEvent(at time.Duration, handler Handler, arg int64) event {
	if handler == nil {
		panic("eventsim: Schedule called with nil handler")
	}
	ev := event{at: at, schedAt: s.now, seq: s.seq, handler: handler, arg: arg}
	s.seq++
	return ev
}

// noteDepth raises the high-water mark to the current queue depth.
func (s *Simulator) noteDepth() {
	if p := s.Pending(); p > s.depthHigh {
		s.depthHigh = p
	}
}

// Lane returns the simulator's FIFO lane for events that fire delay after
// they are scheduled, creating it on first use; every call with the same
// delay returns the same lane. Negative delays are clamped to zero.
func (s *Simulator) Lane(delay time.Duration) *Lane {
	delay = max(delay, 0)
	for _, l := range s.lanes {
		if l.delay == delay {
			return l
		}
	}
	l := &Lane{s: s, delay: delay}
	s.lanes = append(s.lanes, l)
	return l
}

// Schedule registers handler to fire with arg the lane's delay after the
// current time: ScheduleAfter with the lane's delay, firing in the same
// (at, seq) order, without the heap's O(log n) sift.
func (l *Lane) Schedule(handler Handler, arg int64) {
	s := l.s
	at := s.now + l.delay
	if at < s.now || l.n > 0 && l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at > at {
		// The delay overflowed, or Run(horizon) set the clock back below an
		// earlier Schedule: the lane would fall out of order, so the heap
		// takes the event.
		s.Schedule(at, handler, arg)
		return
	}
	if l.n == len(l.ring) {
		l.resize(max(16, 2*len(l.ring)))
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = s.newEvent(at, handler, arg)
	l.n++
	s.laneLen++
	s.noteDepth()
}

// Grow reserves room in the lane for n pending events, rounded up to a power
// of two, so a lane that knows how many events it will hold at once fills
// without regrowing: Simulator.Grow for a lane. It changes no event and no
// firing order; a lane that outgrows n doubles as before.
func (l *Lane) Grow(n int) {
	if n <= len(l.ring) {
		return
	}
	size := max(16, len(l.ring))
	for size < n {
		size *= 2
	}
	l.resize(size)
}

// resize moves the lane's events, oldest first, into a ring of size slots, a
// power of two no smaller than the events held.
func (l *Lane) resize(size int) {
	grown := make([]event, size)
	for i := range l.n {
		grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = grown, 0
}

// pop removes the lane's head; the caller has copied it out.
func (l *Lane) pop() {
	l.ring[l.head] = event{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	l.s.laneLen--
}

// next returns the earliest pending event, in place, and the lane holding it,
// or a nil lane when it is the heap's top; nil when nothing is pending.
func (s *Simulator) next() (*event, *Lane) {
	var next *event
	if len(s.queue) > 0 {
		next = &s.queue[0]
	}
	var from *Lane
	for _, l := range s.lanes {
		if l.n > 0 {
			if ev := &l.ring[l.head]; next == nil || less(ev, next) {
				next, from = ev, l
			}
		}
	}
	return next, from
}

// ScheduleAfter registers handler to fire with arg delay after the current
// time. Negative delays are clamped to zero.
func (s *Simulator) ScheduleAfter(delay time.Duration, handler Handler, arg int64) {
	if delay < 0 {
		delay = 0
	}
	s.Schedule(s.now+delay, handler, arg)
}

// Run processes events in timestamp order until the queue is empty or the
// clock would pass horizon. Events exactly at the horizon still fire. The
// error is always nil; it stays in the signature for callers that check it.
func (s *Simulator) Run(horizon time.Duration) error {
	for {
		next, lane := s.next()
		if next == nil {
			break
		}
		if next.at > horizon {
			// Leave future events queued; advance the clock to the horizon
			// so a subsequent Run continues from there.
			s.now = horizon
			return nil
		}
		// Copy out before popping: the pop overwrites the cell next points
		// at, and the handler's own Schedule calls may reuse it.
		h, arg, at, schedAt := next.handler, next.arg, next.at, next.schedAt
		if lane != nil {
			lane.pop()
		} else {
			s.pop()
		}
		s.now = at
		h(s, arg)
		s.processed++
		// float64(d)*1e-9 instead of Seconds(): one multiply, not a divmod
		// decomposition — this runs once per fired event.
		s.residence.Observe(float64(at-schedAt) * 1e-9)
	}
	if horizon > s.now && horizon != MaxHorizon {
		s.now = horizon
	}
	return nil
}

// MaxHorizon is a horizon value meaning "run until the queue drains".
const MaxHorizon = time.Duration(math.MaxInt64)
