package omcast

import (
	"runtime"
	"testing"
	"time"

	"omcast/internal/cer"
	"omcast/internal/churn"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/stream"
	"omcast/internal/xrand"
)

// arrivalObjectCeiling is the heap objects a steady-state ROST + CER session
// may allocate per arrival: the arrival's 24-byte *overlay.Member handle,
// plus slack for what grows amortised (the ID tables, a lane ring, a block
// of starving ratios). Every timer, switch, departure and repair episode in
// between allocates nothing of its own.
const arrivalObjectCeiling = 1.1

// TestSteadyStateArrivalAllocs runs a ROST session of 3 000 members with a
// CER stream model (MLC groups of 3, striped repair) to steady state, then
// counts the heap objects the next ten minutes of churn allocate: about
// 1 500 joins and as many departures, with their switching checks,
// switches, rejoins and repair episodes.
func TestSteadyStateArrivalAllocs(t *testing.T) {
	cfg := Config{
		Seed:       11,
		Algorithm:  ROST,
		TargetSize: 3000,
		Topology:   SmallTopology(),
		Warmup:     30 * time.Minute,
		Measure:    time.Hour,
	}
	var model *stream.Model
	joins, departures := 0, 0
	s, err := newSession(cfg, churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			joins++
			model.Register(m, sim.Now())
		},
		OnFailure: func(sim *eventsim.Simulator, failed *overlay.Member) { model.OnFailure(failed, sim.Now()) },
		OnDepart: func(sim *eventsim.Simulator, id overlay.MemberID) {
			departures++
			model.Depart(id, sim.Now())
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	selector := &cer.MLCSelector{Tree: s.tree, Rng: xrand.NewNamed(cfg.Seed, "cer.select"), Delay: s.topo.Delay}
	model = stream.NewModel(s.tree, s.topo.Delay, selector, xrand.NewNamed(cfg.Seed, "stream.residual"), stream.Config{
		GroupSize:   3,
		Striped:     true,
		MeasureFrom: cfg.Warmup,
	})
	s.driver.Start()
	steady := cfg.Warmup
	if err := s.sim.Run(steady); err != nil {
		t.Fatal(err)
	}
	joins0, departures0, switches0, episodes0 := joins, departures, s.protocol.Switches, model.Episodes
	// One processor while counting, as testing.AllocsPerRun does, so no
	// other goroutine's allocations land in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.sim.Run(steady + 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	joined, departed := joins-joins0, departures-departures0
	if joined < 500 || departed < 500 || s.protocol.Switches == switches0 || model.Episodes == episodes0 {
		t.Fatalf("%d joins, %d departures, %d switches and %d episodes in the window: not a steady state",
			joined, departed, s.protocol.Switches-switches0, model.Episodes-episodes0)
	}
	objects := after.Mallocs - before.Mallocs
	perArrival := float64(objects) / float64(joined)
	t.Logf("%d objects over %d joins and %d departures (%d switches, %d episodes): %.3f per arrival",
		objects, joined, departed, s.protocol.Switches-switches0, model.Episodes-episodes0, perArrival)
	if perArrival > arrivalObjectCeiling {
		t.Errorf("a steady-state arrival allocates %.3f heap objects, ceiling %.1f", perArrival, arrivalObjectCeiling)
	}
}
