package churn

import (
	"testing"
	"time"

	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

func smallTopo(t *testing.T, seed int64) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultConfig(seed)
	cfg.TransitDomains = 2
	cfg.TransitNodesPerDomain = 4
	cfg.StubDomainsPerTransit = 2
	cfg.StubNodesPerDomain = 8
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return topo
}

type world struct {
	sim    *eventsim.Simulator
	topo   *topology.Topology
	tree   *overlay.Tree
	driver *Driver
}

func newWorld(t *testing.T, seed int64, target int, hooks Hooks) *world {
	t.Helper()
	topo := smallTopo(t, seed)
	sim := eventsim.New()
	tree, err := overlay.NewTree(topo.RandomStub(xrand.NewNamed(seed, "root")), 100, topo.Delay)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	env := &construct.Env{
		Rng:   xrand.NewNamed(seed, "strategy"),
		Delay: topo.Delay,
	}
	driver, err := NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, Config{
		Seed:        seed,
		TargetSize:  target,
		Warmup:      1800 * time.Second,
		Measure:     1800 * time.Second,
		PrePopulate: true,
	}, hooks)
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	return &world{sim: sim, topo: topo, tree: tree, driver: driver}
}

func (w *world) run(t *testing.T) Result {
	t.Helper()
	w.driver.Start()
	if err := w.sim.Run(w.driver.Horizon()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.tree.CheckInvariantsFull(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return w.driver.Result()
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{TargetSize: 0}).Validate(); err == nil {
		t.Fatal("zero target accepted")
	}
	cfg := Config{TargetSize: 10}.withDefaults()
	if cfg.Bandwidth != DefaultBandwidth {
		t.Fatal("bandwidth default not applied")
	}
	if cfg.RootBandwidth != DefaultRootBandwidth {
		t.Fatal("root bandwidth default not applied")
	}
	if cfg.Warmup <= 0 || cfg.Measure <= 0 {
		t.Fatal("window defaults not applied")
	}
}

func TestSteadyStateSizeApproachesTarget(t *testing.T) {
	w := newWorld(t, 1, 150, Hooks{})
	res := w.run(t)
	// Equilibrium pre-population starts the run at the Little's-law size
	// E[N] = lambda * E[lifetime] = target; arrivals and departures then
	// balance. The tolerance is generous because a single short run has
	// high variance (the lognormal lifetime has sigma = 2).
	if res.AvgSize < 100 || res.AvgSize > 250 {
		t.Fatalf("steady-state size %.1f, want around 150", res.AvgSize)
	}
	if res.Departures == 0 {
		t.Fatal("no departures in measurement window")
	}
}

func TestDeterminism(t *testing.T) {
	a := newWorld(t, 7, 80, Hooks{}).run(t)
	b := newWorld(t, 7, 80, Hooks{}).run(t)
	if a.AvgDisruptions != b.AvgDisruptions ||
		a.AvgServiceDelayMS != b.AvgServiceDelayMS ||
		a.AvgStretch != b.AvgStretch ||
		a.Departures != b.Departures {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := newWorld(t, 1, 80, Hooks{}).run(t)
	b := newWorld(t, 2, 80, Hooks{}).run(t)
	if a.Departures == b.Departures && a.AvgServiceDelayMS == b.AvgServiceDelayMS {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestDisruptionsAccumulate(t *testing.T) {
	// Enough members that the tree has real depth below the root's 100
	// slots; otherwise failures rarely have descendants to disrupt.
	res := newWorld(t, 3, 400, Hooks{}).run(t)
	if res.AvgDisruptions <= 0 {
		t.Fatalf("AvgDisruptions = %g, want > 0 under churn", res.AvgDisruptions)
	}
	if res.PerLifetimeDisruptions <= 0 {
		t.Fatalf("PerLifetimeDisruptions = %g, want > 0 under churn", res.PerLifetimeDisruptions)
	}
	if len(res.DisruptionCounts) == 0 {
		t.Fatal("no per-member disruption counts (snapshot population empty)")
	}
}

func TestTreeQualityMetrics(t *testing.T) {
	res := newWorld(t, 4, 100, Hooks{}).run(t)
	if res.AvgServiceDelayMS <= 0 {
		t.Fatalf("AvgServiceDelayMS = %g", res.AvgServiceDelayMS)
	}
	// A stretch below 1 would mean the overlay beats direct unicast.
	if res.AvgStretch < 1 {
		t.Fatalf("AvgStretch = %g, want >= 1", res.AvgStretch)
	}
}

func TestHooksFire(t *testing.T) {
	var joins, failures, departs, rejoins int
	w := newWorld(t, 5, 100, Hooks{
		OnJoin:    func(*eventsim.Simulator, *overlay.Member) { joins++ },
		OnFailure: func(*eventsim.Simulator, *overlay.Member) { failures++ },
		OnDepart:  func(*eventsim.Simulator, overlay.MemberID) { departs++ },
		OnRejoin:  func(*eventsim.Simulator, *overlay.Member) { rejoins++ },
	})
	w.run(t)
	if joins == 0 || failures == 0 || departs == 0 {
		t.Fatalf("hooks: joins=%d failures=%d departs=%d, want all > 0", joins, failures, departs)
	}
	if failures != departs {
		t.Fatalf("failures %d != departs %d", failures, departs)
	}
	if rejoins == 0 {
		t.Fatal("no orphan rejoins observed; churn too tame")
	}
}

func TestTrackedMember(t *testing.T) {
	w := newWorld(t, 6, 100, Hooks{})
	tr := w.driver.Track(1800*time.Second, 2)
	w.run(t)
	if tr.Member == nil {
		t.Fatal("tracked member never created")
	}
	if len(tr.Times) < 25 {
		t.Fatalf("only %d samples over a 30-minute window", len(tr.Times))
	}
	// Cumulative disruptions are non-decreasing.
	for i := 1; i < len(tr.Disruptions); i++ {
		if tr.Disruptions[i] < tr.Disruptions[i-1] {
			t.Fatal("cumulative disruptions decreased")
		}
	}
	if len(tr.DelayMS) != len(tr.Times) || len(tr.Disruptions) != len(tr.Times) {
		t.Fatal("sample series lengths diverge")
	}
	// The tracked member never departs.
	if v := w.tree.SlotView(); tr.Member.Slot() < 0 || v.Member(tr.Member.Slot()) != tr.Member {
		t.Fatal("tracked member departed")
	}
}

// TestPrePopulateEquilibrium verifies the stationary seeding: the overlay
// starts at the target size with a positive-age population and stays near
// the target for the whole run.
func TestPrePopulateEquilibrium(t *testing.T) {
	w := newWorld(t, 10, 200, Hooks{})
	w.driver.Start()
	if err := w.sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if size := w.tree.Size(); size < 200 {
		t.Fatalf("size %d right after pre-population, want >= 200", size)
	}
	agedMembers := 0
	v := w.tree.SlotView()
	w.tree.VisitSubtree(w.tree.Root(), func(m *overlay.Member) {
		if v.JoinTime(m.Slot()) < 0 {
			agedMembers++
		}
	})
	if agedMembers < 150 {
		t.Fatalf("only %d members carry a pre-seeded age", agedMembers)
	}
	if err := w.sim.Run(w.driver.Horizon()); err != nil {
		t.Fatal(err)
	}
	res := w.driver.Result()
	if res.AvgSize < 120 || res.AvgSize > 320 {
		t.Fatalf("equilibrium drifted: avg size %.1f, want around 200", res.AvgSize)
	}
}

// TestSaturationRetries drives churn with a source that can feed only one
// child and a bandwidth distribution of pure free-riders, so every arrival
// beyond the first must retry.
func TestSaturationRetries(t *testing.T) {
	topo := smallTopo(t, 9)
	sim := eventsim.New()
	tree, err := overlay.NewTree(topo.RandomStub(xrand.New(1)), 1, topo.Delay)
	if err != nil {
		t.Fatal(err)
	}
	env := &construct.Env{Rng: xrand.New(2), Delay: topo.Delay}
	driver, err := NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, Config{
		Seed:       9,
		TargetSize: 30,
		Bandwidth:  xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 0.99}, // all free-riders
		Warmup:     600 * time.Second,
		Measure:    600 * time.Second,
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	driver.Start()
	if err := sim.Run(driver.Horizon()); err != nil {
		t.Fatal(err)
	}
	if driver.JoinFailures == 0 {
		t.Fatal("no join failures under engineered saturation")
	}
	// Only the root's single slot can ever be filled.
	attached := 0
	tree.VisitSubtree(tree.Root(), func(*overlay.Member) { attached++ })
	if attached > 2 {
		t.Fatalf("%d attached members with capacity for 1", attached)
	}
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
}

// TestAncestorRejoin drives churn with ancestor-first orphan repair enabled
// and verifies the structure stays sound and orphans actually re-attach
// through the hook.
func TestAncestorRejoin(t *testing.T) {
	topo := smallTopo(t, 11)
	sim := eventsim.New()
	tree, err := overlay.NewTree(topo.RandomStub(xrand.New(1)), 100, topo.Delay)
	if err != nil {
		t.Fatal(err)
	}
	env := &construct.Env{Rng: xrand.New(2), Delay: topo.Delay}
	rejoins := 0
	driver, err := NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, Config{
		Seed:           11,
		TargetSize:     300,
		Warmup:         1800 * time.Second,
		Measure:        1800 * time.Second,
		PrePopulate:    true,
		AncestorRejoin: true,
	}, Hooks{OnRejoin: func(*eventsim.Simulator, *overlay.Member) { rejoins++ }})
	if err != nil {
		t.Fatal(err)
	}
	driver.Start()
	if err := sim.Run(driver.Horizon()); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
	if rejoins == 0 {
		t.Fatal("no rejoins under churn with ancestor repair")
	}
}

// spanCheck is a tracing.Recorder that checks each rejoin span against the
// hook that fired last: an episode closes after its OnRejoin or OnDepart.
type spanCheck struct {
	t        *testing.T
	last     overlay.MemberID
	outcomes map[string]int
}

func (c *spanCheck) Record(sp tracing.Span) {
	c.outcomes[sp.Kind+"/"+sp.Outcome]++
	if sp.Kind == tracing.KindRejoin && sp.Member != int64(c.last) {
		c.t.Fatalf("%s rejoin span of member %d closed after the hook for member %d", sp.Outcome, sp.Member, c.last)
	}
}

// TestRejoinEpisodes: churn keeps one record per orphan's rejoin, and only
// when someone reads it. Untraced and uninstrumented, no map exists. Traced
// and instrumented over a bandwidth-starved overlay, every rejoin closes one
// "reattached" span and one latency observation, every episode ends after
// its member's hook, and blocked retries and mid-rejoin departures show.
func TestRejoinEpisodes(t *testing.T) {
	plain := newWorld(t, 13, 200, Hooks{})
	plain.run(t)
	if plain.driver.episodes != nil {
		t.Fatal("an untraced, uninstrumented driver allocated the episode map")
	}

	topo := smallTopo(t, 13)
	sim := eventsim.New()
	tree, err := overlay.NewTree(topo.RandomStub(xrand.New(1)), 20, topo.Delay)
	if err != nil {
		t.Fatal(err)
	}
	check := &spanCheck{t: t, outcomes: map[string]int{}}
	rejoins := 0
	hooks := Hooks{
		OnRejoin: func(_ *eventsim.Simulator, m *overlay.Member) { check.last = m.ID; rejoins++ },
		OnDepart: func(_ *eventsim.Simulator, id overlay.MemberID) { check.last = id },
	}
	env := &construct.Env{Rng: xrand.New(2), Delay: topo.Delay}
	driver, err := NewDriver(sim, tree, topo, &construct.MinDepth{Env: env}, Config{
		Seed:        13,
		TargetSize:  200,
		Bandwidth:   xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 2.2},
		Warmup:      1800 * time.Second,
		Measure:     1800 * time.Second,
		PrePopulate: true,
		Trace:       tracing.New(13, check),
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	driver.Instrument(reg)
	driver.Start()
	if err := sim.Run(driver.Horizon()); err != nil {
		t.Fatal(err)
	}
	if rejoins == 0 || check.outcomes["rejoin/departed"] == 0 || check.outcomes["attempt/saturated"] == 0 {
		t.Fatalf("%d rejoins, spans %v: want reattached and departed episodes and saturated attempts", rejoins, check.outcomes)
	}
	if check.outcomes["rejoin/reattached"] != rejoins {
		t.Fatalf("%d reattached spans for %d rejoins", check.outcomes["rejoin/reattached"], rejoins)
	}
	var observed uint64
	for _, m := range reg.Snapshot(0).Metrics {
		if m.Name == "omcast_churn_rejoin_latency_seconds" {
			observed = m.Hist.Count
		}
	}
	if observed != uint64(rejoins) {
		t.Fatalf("%d latency observations for %d rejoins", observed, rejoins)
	}
}

func TestSurvivalIntegral(t *testing.T) {
	// The integral over an infinite horizon equals the mean (1809 s); a
	// 48-hour horizon captures nearly all of it, and monotonicity holds.
	life := DefaultLifetime
	short := survivalIntegral(life, 1*time.Hour)
	long := survivalIntegral(life, 48*time.Hour)
	if short <= 0 || long <= short {
		t.Fatalf("integral not increasing: %f then %f", short, long)
	}
	if long > life.Mean() {
		t.Fatalf("integral %f exceeds the mean %f", long, life.Mean())
	}
	if long < 0.8*life.Mean() {
		t.Fatalf("48h integral %f too far below the mean %f", long, life.Mean())
	}
}
