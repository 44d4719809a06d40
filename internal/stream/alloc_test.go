package stream

import (
	"testing"
	"time"
	"unsafe"

	"omcast/internal/cer"
	"omcast/internal/churn"
	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// TestRegisterDepartAllocs pins a warmed Register/Depart cycle of fresh
// members at zero allocations and the model's state at one slot per present
// member: arrivals reuse departed members' slots, so the states slice follows
// the live membership, not the arrival count. Only the ID table grows with
// arrivals, 4 bytes each, as the tree's own does.
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
	// Warm the ratio buffer and the slot tables: the ID table is indexed by
	// ID, so one cycle of the last arrival sizes it for every arrival.
	last := arrivals[len(arrivals)-1]
	m.Register(last, now)
	m.Depart(last.ID, now+time.Minute)
	for range 10 {
		cycle()
	}
	if got := testing.AllocsPerRun(500, cycle); got > 0 {
		t.Errorf("a Register/Depart cycle allocates %v times, want 0", got)
	}
	if present := present(m); len(m.states) > present+1 || len(m.states)-len(m.free) != present {
		t.Errorf("%d state slots, %d free, after %d arrivals with %d present members, want at most %d, one per present member",
			len(m.states), len(m.free), next, present, present+1)
	}
	if got := m.Result().Members; got != next+1 {
		t.Fatalf("%d ratios finalised for %d departures", got, next+1)
	}
}

// present counts the members the model holds a state slot for.
func present(m *Model) int {
	n := 0
	for _, i := range m.slotOf {
		if i != none {
			n++
		}
	}
	return n
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
	if n := present(m); n != 0 {
		t.Fatalf("%d members still present after Finish", n)
	}
}

// TestStreamStateReservedOnce runs a whole churned streaming session and
// requires the state table's backing array never to move after the first
// Register: it is reserved for the tree's reservation, which bounds the live
// membership, so the arrivals that outnumber it recycle departed slots.
func TestStreamStateReservedOnce(t *testing.T) {
	const seed = 3
	cfg := topology.DefaultConfig(seed)
	cfg.TransitDomains, cfg.TransitNodesPerDomain = 2, 4
	cfg.StubDomainsPerTransit, cfg.StubNodesPerDomain = 2, 8
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	tree, err := overlay.NewTree(topo.RandomStub(xrand.NewNamed(seed, "root")), 100, topo.Delay)
	if err != nil {
		t.Fatal(err)
	}
	selector := &cer.MLCSelector{Tree: tree, Rng: xrand.NewNamed(seed, "cer"), Delay: topo.Delay}
	m := NewModel(tree, topo.Delay, selector, xrand.NewNamed(seed, "residual"), Config{GroupSize: 3, Striped: true})
	var backing *state
	registered, moved := 0, 0
	hooks := churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, member *overlay.Member) {
			m.Register(member, sim.Now())
			registered++
			if backing == nil {
				backing = unsafe.SliceData(m.states)
			} else if unsafe.SliceData(m.states) != backing {
				moved++
				backing = unsafe.SliceData(m.states)
			}
		},
		OnFailure: func(sim *eventsim.Simulator, failed *overlay.Member) { m.OnFailure(failed, sim.Now()) },
		OnDepart:  func(sim *eventsim.Simulator, id overlay.MemberID) { m.Depart(id, sim.Now()) },
	}
	env := &construct.Env{Rng: xrand.NewNamed(seed, "strategy"), Delay: topo.Delay}
	d, err := churn.NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, churn.Config{
		Seed: seed, TargetSize: 300, Warmup: 10 * time.Minute, Measure: 20 * time.Minute, PrePopulate: true,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := sim.Run(d.Horizon()); err != nil {
		t.Fatal(err)
	}
	m.Finish(sim.Now())
	if moved > 0 {
		t.Errorf("the state table moved to a new array %d times over %d registrations", moved, registered)
	}
	if registered <= len(m.states) || m.Episodes == 0 {
		t.Fatalf("%d registrations into %d slots with %d episodes: the session did not churn", registered, len(m.states), m.Episodes)
	}
}
