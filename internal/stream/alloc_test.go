package stream

import (
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/xrand"
)

// TestRegisterDepartAllocs pins a warmed Register/Depart cycle of fresh
// members at zero allocations and the model's state at one slot per present
// member: arrivals reuse departed members' slots, so the states slice follows
// the live membership, not the arrival count.
func TestRegisterDepartAllocs(t *testing.T) {
	w := buildWorld(t, 4)
	m := newModel(t, w, Config{})
	arrivals := make([]*overlay.Member, 0, 1000)
	for range cap(arrivals) {
		arrivals = append(arrivals, w.tree.NewMember(1, 2, 0))
	}
	now, next := time.Duration(0), 0
	cycle := func() {
		a := arrivals[next]
		next++
		m.Register(a, now)
		now += time.Minute
		m.Depart(a.ID, now)
	}
	for range 10 {
		cycle() // warm the ratio buffer and the slot index
	}
	if got := testing.AllocsPerRun(500, cycle); got > 0 {
		t.Errorf("a Register/Depart cycle allocates %v times, want 0", got)
	}
	if present := len(m.slotOf); len(m.states) > present+1 {
		t.Errorf("%d state slots after %d arrivals with %d present members, want at most %d", len(m.states), next, present, present+1)
	}
	if got := m.Result().Members; got != next {
		t.Fatalf("%d ratios finalised for %d departures", got, next)
	}
}

// TestFinishOrdersByID has slot recycling put a higher ID in a lower slot:
// Finish must still append the survivors' ratios in ascending ID order, the
// order the reported mean and CDF are summed in.
func TestFinishOrdersByID(t *testing.T) {
	w := buildWorld(t, 0)
	m := NewModel(w.tree, delayFn, w.selector, xrand.New(1), Config{})
	a := w.tree.NewMember(1, 2, 0)
	b := w.tree.NewMember(2, 2, 0)
	c := w.tree.NewMember(3, 2, 0)
	m.Register(a, 0) // slot 0
	m.Register(b, 0) // slot 1
	m.Depart(a.ID, 0)
	m.Register(c, 0) // slot 0, recycled: c's ID is above b's
	if m.slotOf[c.ID] != 0 || m.slotOf[b.ID] != 1 {
		t.Fatalf("slots %d, %d; the test needs c recycled below b", m.slotOf[c.ID], m.slotOf[b.ID])
	}
	m.stateOf(b.ID).starved = 10 * time.Second
	m.stateOf(c.ID).starved = 20 * time.Second
	m.Finish(100 * time.Second)
	got := m.Result().Ratios
	want := []float64{0.1, 0.2} // b, then c
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ratios %v, want %v in ascending ID order", got, want)
	}
	if len(m.slotOf) != 0 {
		t.Fatalf("%d members still present after Finish", len(m.slotOf))
	}
}
