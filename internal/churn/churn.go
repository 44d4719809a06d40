// Package churn drives member dynamics through a simulation: Poisson
// arrivals at rate lambda = M / E[lifetime] (Little's law, Section 5),
// lognormal lifetimes, bounded-Pareto bandwidths, random stub placement,
// abrupt departures, orphan rejoins, and the measurement machinery behind
// the paper's tree-level metrics (Figures 4-11): disruptions per node,
// optimizer reconnections per node, service delay, stretch, and the
// time-series of a tracked "typical member".
package churn

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/stats"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

// Defaults mirroring Section 5 of the paper.
var (
	// DefaultLifetime is the lognormal lifetime distribution (location 5.5,
	// shape 2.0; mean ~1809 s).
	DefaultLifetime = xrand.Lognormal{Mu: 5.5, Sigma: 2.0}
	// DefaultBandwidth is the bounded-Pareto outbound bandwidth distribution
	// (shape 1.2, bounds [0.5, 100]).
	DefaultBandwidth = xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
)

// DefaultRootBandwidth is the source's outbound bandwidth ("resembling the
// capability of a powerful source server").
const DefaultRootBandwidth = 100.0

// sessionAge is how long a pre-populated session has notionally been running
// at time zero; it bounds member ages.
const sessionAge = 4 * time.Hour

// DefaultSampleInterval is how often tree-quality metrics (delay, stretch,
// size) are sampled during the measurement window.
const DefaultSampleInterval = 60 * time.Second

// Config parameterises a churn run. Lifetimes are always DefaultLifetime.
type Config struct {
	// Seed drives all churn randomness.
	Seed int64
	// TargetSize is M, the intended steady-state member count.
	TargetSize int
	// Bandwidth is the outbound bandwidth distribution; the zero value
	// takes DefaultBandwidth.
	Bandwidth xrand.BoundedPareto
	// RootBandwidth is the source's outbound bandwidth; zero means 100.
	RootBandwidth float64
	// Warmup is how long the overlay churns before measurement begins;
	// zero means twice the mean lifetime.
	Warmup time.Duration
	// Measure is the measurement window length; zero means one hour.
	Measure time.Duration
	// PrePopulate seeds the overlay at time zero as if the session had
	// already been running for 4 hours: a Poisson arrival history over
	// [-4 h, 0) is replayed and the members still alive at zero join
	// oldest-first. This starts the run at steady-state size instead of
	// spending many mean lifetimes filling up (the lognormal's heavy tail
	// makes the natural transient extremely slow), while keeping member
	// ages bounded by the session length as any real deployment would.
	PrePopulate bool
	// AncestorRejoin makes orphans of a failed member first try to
	// re-attach under their nearest surviving ancestor (each member knows
	// the addresses and spare degrees of all its ancestors, Section 4.1),
	// falling back to the construction strategy when the ancestor path has
	// no capacity. This keeps freed interior positions inside the affected
	// subtree instead of handing them to brand-new members.
	AncestorRejoin bool
	// Trace, if non-nil, records the membership as spans: an instantaneous
	// "join" at each member's first attach, an instantaneous "depart" per
	// departure, and each orphan's rejoin episode as a "rejoin" span from
	// its parent's failure to its reattachment or departure, with an
	// instantaneous "attempt" child per saturated retry.
	Trace *tracing.Tracer
}

func (c Config) withDefaults() Config {
	if c.Bandwidth == (xrand.BoundedPareto{}) {
		c.Bandwidth = DefaultBandwidth
	}
	if c.RootBandwidth <= 0 {
		c.RootBandwidth = DefaultRootBandwidth
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Duration(DefaultLifetime.Mean()*float64(time.Second))
	}
	if c.Measure <= 0 {
		c.Measure = time.Hour
	}
	return c
}

// survivalIntegral numerically integrates the lifetime survival function
// over [0, horizon] (Simpson's rule); this is the expected session time a
// member arriving uniformly in the window is still present for, which
// calibrates the arrival rate so the seeded session holds TargetSize members.
func survivalIntegral(life xrand.Lognormal, horizon time.Duration) float64 {
	const steps = 2000 // even
	h := horizon.Seconds() / steps
	sum := 0.0
	surv := func(x float64) float64 { return 1 - life.CDF(x) }
	for i := 0; i <= steps; i++ {
		w := 2.0
		switch {
		case i == 0 || i == steps:
			w = 1
		case i%2 == 1:
			w = 4
		}
		sum += w * surv(float64(i)*h)
	}
	return sum * h / 3
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TargetSize <= 0 {
		return fmt.Errorf("churn: TargetSize = %d, want > 0", c.TargetSize)
	}
	return nil
}

// Hooks let protocol layers observe churn events. All hooks may be nil.
type Hooks struct {
	// OnJoin fires after a member successfully attaches for the first time.
	OnJoin func(sim *eventsim.Simulator, m *overlay.Member)
	// OnFailure fires when a member departs abruptly, before it is removed
	// from the tree (so the subtree is still inspectable).
	OnFailure func(sim *eventsim.Simulator, failed *overlay.Member)
	// OnDepart fires after the member has been removed.
	OnDepart func(sim *eventsim.Simulator, id overlay.MemberID)
	// OnRejoin fires when an orphan re-attaches after a parent failure.
	OnRejoin func(sim *eventsim.Simulator, m *overlay.Member)
}

// Driver owns the churn process over one tree.
type Driver struct {
	cfg      Config
	sim      *eventsim.Simulator
	tree     *overlay.Tree
	topo     *topology.Topology
	strategy construct.Strategy
	hooks    Hooks

	arrivalRng  *xrand.Source
	lifetimeRng *xrand.Source
	bwRng       *xrand.Source
	placeRng    *xrand.Source

	arrivalGap xrand.Exponential

	// Measurement state.
	measureFrom time.Duration
	measureTo   time.Duration

	// nextArrival and sampleTree are the driver's two recurring timers, and
	// departAt, joinRetry and rejoinRetry its per-member ones: a lifetime
	// departure, a first join's and an orphan's retry on a saturated
	// overlay, each carrying the member's Ref in the event's argument.
	// trackSample samples the tracked member whose index in tracked is its
	// argument. All are bound once, so arming them allocates nothing.
	nextArrival, sampleTree          eventsim.Handler
	departAt, joinRetry, rejoinRetry eventsim.Handler
	trackSample                      eventsim.Handler
	tracked                          []*Tracked
	// ancestorBuf holds a departing member's ancestor path, as Refs, for its
	// orphans; kids holds its children while their episodes open. Both are
	// reused across departures.
	ancestorBuf []int64
	kids        []int32

	// exposureSum accumulates the observed lifetime (seconds) of departed
	// members; disruption and reconnection sums over it give unbiased
	// per-lifetime rates (a finite window otherwise only catches short
	// lives, badly under-counting the heavy-tailed lifetime distribution).
	exposureSum    float64
	disruptionSum  float64
	reconnectsSum  float64
	delaySamples   []float64 // milliseconds
	stretchSamples []float64
	sizeSamples    []float64

	met driverMetrics
	// episodes holds each orphan's rejoin episode in flight. Only kept
	// while instrumented or traced; accessed by key, never iterated.
	episodes map[overlay.MemberID]rejoinEpisode

	// JoinFailures counts join and rejoin attempts that found a saturated
	// overlay and had to retry.
	JoinFailures int
	// Departures counts all departures; MeasuredDepartures those inside the
	// measurement window.
	Departures         int
	MeasuredDepartures int
}

// driverMetrics holds the driver's optional instruments; all nil until
// Instrument is called (the metric types are nil-safe no-ops).
type driverMetrics struct {
	joins       *metrics.Counter
	rejoins     *metrics.Counter
	disruptions *metrics.Counter
	members     *metrics.Gauge
	rejoinLat   *metrics.Histogram
}

// Instrument registers the churn driver's instruments on reg: join, rejoin,
// departure, disruption and join-failure counters (the departure and
// join-failure counts read Departures and JoinFailures), a
// current-membership gauge, and a histogram of rejoin latency (parent
// failure to re-attachment, in virtual seconds). Everything is keyed in
// virtual time, so snapshots are deterministic for a fixed seed.
func (d *Driver) Instrument(reg *metrics.Registry) {
	d.met.joins = reg.Counter("omcast_churn_joins_total", "Members that attached for the first time.")
	d.met.rejoins = reg.Counter("omcast_churn_rejoins_total", "Orphans that re-attached after a parent failure.")
	reg.CounterFunc("omcast_churn_departures_total", "Members that departed abruptly.",
		func() float64 { return float64(d.Departures) })
	d.met.disruptions = reg.Counter("omcast_churn_disruptions_total", "Descendants whose stream was cut by an ancestor failure.")
	reg.CounterFunc("omcast_churn_join_failures_total", "Join or rejoin attempts that found a saturated overlay.",
		func() float64 { return float64(d.JoinFailures) })
	d.met.members = reg.Gauge("omcast_churn_members", "Members currently in the overlay (attached or rejoining).")
	d.met.rejoinLat = reg.Histogram("omcast_churn_rejoin_latency_seconds",
		"Virtual seconds from parent failure to orphan re-attachment.",
		metrics.LatencyBuckets())
	if d.episodes == nil {
		d.episodes = make(map[overlay.MemberID]rejoinEpisode)
	}
}

// rejoinEpisode is one orphan's rejoin in flight: when its parent failed,
// for the latency histogram, and its open span (nil untraced).
type rejoinEpisode struct {
	failedAt time.Duration
	span     *tracing.SpanBuilder
}

// openEpisodes opens a rejoin episode for each child of the member in slot
// failed. It runs before OnFailure, so each orphan's span ID precedes any a
// failure hook mints on the same member's track.
func (d *Driver) openEpisodes(now time.Duration, v *overlay.SlotView, failed int32) {
	if d.episodes == nil {
		return
	}
	d.kids = v.AppendChildren(d.kids[:0], failed)
	for _, c := range d.kids {
		id := v.Member(c).ID
		d.episodes[id] = rejoinEpisode{
			failedAt: now,
			span:     d.cfg.Trace.Start(tracing.KindRejoin, int64(id), now).AttrInt("failed_parent", int64(v.Member(failed).ID)),
		}
	}
}

// rejoined reports the reattachment of the orphan in slot i, then closes its
// episode: the span line follows the OnRejoin hook's output.
func (d *Driver) rejoined(sim *eventsim.Simulator, v *overlay.SlotView, i int32) {
	d.met.rejoins.Inc()
	m := v.Member(i)
	if d.hooks.OnRejoin != nil {
		d.hooks.OnRejoin(sim, m)
	}
	ep, ok := d.episodes[m.ID]
	if !ok {
		return
	}
	delete(d.episodes, m.ID)
	now := sim.Now()
	d.met.rejoinLat.Observe((now - ep.failedAt).Seconds())
	ep.span.AttrInt("depth", int64(v.Depth(i)))
	if p := v.Parent(i); p >= 0 {
		ep.span.AttrInt("parent", int64(v.Member(p).ID))
	}
	ep.span.End(now, "reattached")
}

// Tracked is a "typical member" time series (Figures 6 and 9): cumulative
// disruptions and current service delay sampled once a minute.
type Tracked struct {
	Member *overlay.Member
	// Times holds sample timestamps; Disruptions and DelayMS the
	// corresponding cumulative disruption counts and service delays.
	Times       []time.Duration
	Disruptions []int
	DelayMS     []float64
}

// NewDriver builds a churn driver. strategy attaches members; topo places
// them on stub routers.
func NewDriver(sim *eventsim.Simulator, tree *overlay.Tree, topo *topology.Topology, strategy construct.Strategy, cfg Config, hooks Hooks) (*Driver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Little's law: lambda = M / E[lifetime]. With pre-population the rate
	// is calibrated against the finite session age instead, so the seeded
	// session actually holds TargetSize members (the heavy lifetime tail
	// means a finite-age session is always below the asymptotic size).
	lambda := float64(cfg.TargetSize) / DefaultLifetime.Mean()
	if cfg.PrePopulate {
		lambda = float64(cfg.TargetSize) / survivalIntegral(DefaultLifetime, sessionAge)
	}
	d := &Driver{
		cfg:         cfg,
		sim:         sim,
		tree:        tree,
		topo:        topo,
		strategy:    strategy,
		hooks:       hooks,
		arrivalRng:  xrand.NewNamed(cfg.Seed, "churn.arrival"),
		lifetimeRng: xrand.NewNamed(cfg.Seed, "churn.lifetime"),
		bwRng:       xrand.NewNamed(cfg.Seed, "churn.bandwidth"),
		placeRng:    xrand.NewNamed(cfg.Seed, "churn.place"),
		arrivalGap:  xrand.Exponential{Rate: lambda},
		measureFrom: cfg.Warmup,
		measureTo:   cfg.Warmup + cfg.Measure,
	}
	d.nextArrival = func(s *eventsim.Simulator, _ int64) {
		d.arrive(s)
		d.scheduleNextArrival()
	}
	d.sampleTree = func(s *eventsim.Simulator, _ int64) { d.sampleTreeMetrics(s) }
	d.departAt, d.joinRetry, d.rejoinRetry = d.depart, d.tryFirstJoin, d.rejoin
	d.trackSample = d.sampleTracked
	if cfg.Trace != nil {
		d.episodes = make(map[overlay.MemberID]rejoinEpisode)
	}
	return d, nil
}

// Horizon returns the virtual time the run should execute until (end of the
// measurement window).
func (d *Driver) Horizon() time.Duration { return d.measureTo }

// Start seeds the arrival process and metric sampling. Call once, then run
// the simulator to d.Horizon(). It first reserves the tree's slot arrays for
// the population the run is expected to peak at, so they are not regrown
// member by member as it fills: the source plus 1.25 M. A run's slots peak
// at its largest concurrent population, attached or rejoining; over the
// benchmark's tree and streaming runs (M = 10^3 to 2.5*10^4) and at
// M = 10^4 and 10^5 that peak read 1.016-1.053 M, and up to 1.216 M in the
// shortest M = 10^3 windows, where churn's fluctuation is largest. The
// kernel's heap gets the same reservation: it holds one departure per live
// member and a few timers, 1.005-1.03 M at its peak over the benchmark's
// runs.
func (d *Driver) Start() {
	d.tree.Grow(d.reservation())
	d.sim.Grow(d.reservation())
	if d.cfg.PrePopulate {
		d.sim.Schedule(0, func(s *eventsim.Simulator, _ int64) {
			d.prePopulate(s)
		}, 0)
	}
	d.scheduleNextArrival()
	// The measurement window starts with every member's disruption and
	// reconnection counters zeroed, so the reported rates reflect the
	// steady-state tree rather than the warm-up transient.
	d.sim.Schedule(d.measureFrom, func(s *eventsim.Simulator, _ int64) {
		d.tree.ResetCounters()
		d.sampleTreeMetrics(s)
	}, 0)
}

// reservation is the population Start reserves the tree and the kernel for:
// the source plus 1.25 M.
func (d *Driver) reservation() int { return 1 + d.cfg.TargetSize + d.cfg.TargetSize/4 }

// prePopulate replays a Poisson arrival history over [-sessionAge, 0): each
// historical arrival draws its lifetime from the churn distribution and only
// members still alive at time zero are seeded, oldest first (the order real
// history would have produced). Ages are therefore bounded by the session
// age, exactly as in a session that started sessionAge ago.
func (d *Driver) prePopulate(sim *eventsim.Simulator) {
	type seedEntry struct {
		age      time.Duration
		residual time.Duration
		bw       float64
		attach   topology.NodeID
	}
	t0 := sessionAge.Seconds()
	arrivals := int(d.arrivalGap.Rate*t0 + 0.5)
	// The survivors number about M, and more in a lognormal draw's upper
	// tail: the tree's reservation holds them without regrowing.
	entries := make([]seedEntry, 0, d.reservation())
	for i := 0; i < arrivals; i++ {
		age := d.lifetimeRng.Float64() * t0
		life := DefaultLifetime.Sample(d.lifetimeRng)
		if life <= age {
			continue // departed before time zero
		}
		entries = append(entries, seedEntry{
			age:      time.Duration(age * float64(time.Second)),
			residual: time.Duration((life - age) * float64(time.Second)),
			bw:       d.cfg.Bandwidth.Sample(d.bwRng),
			attach:   d.topo.RandomStub(d.placeRng),
		})
	}
	// Oldest first. slices.SortFunc runs the same pdqsort as sort.Slice, so
	// equal ages keep the order they always had.
	slices.SortFunc(entries, func(a, b seedEntry) int { return cmp.Compare(b.age, a.age) })
	for _, e := range entries {
		ref := d.tree.Ref(d.tree.NewMember(e.attach, e.bw, -e.age).Slot())
		sim.ScheduleAfter(e.residual, d.departAt, ref)
		d.tryFirstJoin(sim, ref)
	}
}

func (d *Driver) scheduleNextArrival() {
	d.sim.ScheduleAfter(d.arrivalGap.SampleDuration(d.arrivalRng), d.nextArrival, 0)
}

// arrive creates one new member with sampled attributes and starts its life.
func (d *Driver) arrive(sim *eventsim.Simulator) {
	bw := d.cfg.Bandwidth.Sample(d.bwRng)
	attach := d.topo.RandomStub(d.placeRng)
	lifetime := time.Duration(DefaultLifetime.Sample(d.lifetimeRng) * float64(time.Second))
	ref := d.tree.Ref(d.tree.NewMember(attach, bw, sim.Now()).Slot())
	sim.ScheduleAfter(lifetime, d.departAt, ref)
	d.tryFirstJoin(sim, ref)
}

// tryFirstJoin attaches the new arrival ref refers to, retrying while the
// overlay is saturated.
func (d *Driver) tryFirstJoin(sim *eventsim.Simulator, ref int64) {
	i := d.tree.Resolve(ref)
	if i < 0 {
		return
	}
	v := d.tree.SlotView()
	if v.Attached(i) {
		return
	}
	m := v.Member(i)
	err := d.strategy.Join(d.tree, m, sim.Now())
	switch {
	case err == nil:
		d.met.joins.Inc()
		d.met.members.Set(float64(d.tree.Size()))
		d.cfg.Trace.Start(tracing.KindJoin, int64(m.ID), sim.Now()).
			AttrInt("parent", int64(v.Member(v.Parent(i)).ID)).
			AttrInt("depth", int64(v.Depth(i))).
			AttrFloat("bandwidth", v.Bandwidth(i)).
			End(sim.Now(), "attached")
		if d.hooks.OnJoin != nil {
			d.hooks.OnJoin(sim, m)
		}
	case errors.Is(err, construct.ErrNoParent):
		d.JoinFailures++
		sim.Lane(construct.DefaultRejoinRetry).Schedule(d.joinRetry, ref)
	default:
		panic(fmt.Sprintf("churn: join failed structurally: %v", err))
	}
}

// depart handles the abrupt departure of the member ref refers to:
// disruption accounting, removal, and orphan rejoins.
func (d *Driver) depart(sim *eventsim.Simulator, ref int64) {
	i := d.tree.Resolve(ref)
	if i < 0 {
		return
	}
	now, v := sim.Now(), d.tree.SlotView()
	id := v.Member(i).ID
	d.openEpisodes(now, &v, i)
	if d.hooks.OnFailure != nil {
		d.hooks.OnFailure(sim, v.Member(i))
	}
	// Abrupt departure: every descendant is disrupted (Section 6's
	// "most uncooperative and dynamic environment").
	disrupted := d.tree.RecordFailure(i)
	d.met.disruptions.Add(float64(disrupted))
	d.cfg.Trace.Start(tracing.KindDepart, int64(id), now).
		AttrInt("disrupted", int64(disrupted)).End(now, "failed")
	if now >= d.measureFrom && now <= d.measureTo {
		// Exposure: how long this member accumulated counters — from the
		// start of the measurement window (counters are reset there) or its
		// join, whichever is later.
		start := v.JoinTime(i)
		if start < d.measureFrom {
			start = d.measureFrom
		}
		d.exposureSum += (now - start).Seconds()
		d.disruptionSum += float64(v.Disruptions(i))
		d.reconnectsSum += float64(v.Reconnections(i))
		d.MeasuredDepartures++
	}
	d.Departures++
	d.ancestorBuf = d.tree.AppendAncestors(d.ancestorBuf[:0], i) // the orphans' surviving ancestor path
	orphans, err := d.tree.Remove(i)
	if err != nil {
		panic(fmt.Sprintf("churn: removing departed member: %v", err))
	}
	d.met.members.Set(float64(d.tree.Size()))
	if d.hooks.OnDepart != nil {
		d.hooks.OnDepart(sim, id)
	}
	// A member departing mid-rejoin never re-attaches: its episode ends
	// here, after the OnDepart hook's output.
	if ep, ok := d.episodes[id]; ok {
		delete(d.episodes, id)
		ep.span.End(now, "departed")
	}
	// Orphans contend for the freed position; the largest-BTP child wins
	// (the same priority Figure 2 gives the strongest node at overflow).
	slices.SortFunc(orphans, func(a, b int32) int {
		return cmp.Compare(v.BTP(b, now), v.BTP(a, now))
	})
	for _, o := range orphans {
		if d.cfg.AncestorRejoin && d.ancestorRejoin(sim, &v, o, d.ancestorBuf) {
			continue
		}
		d.rejoin(sim, d.tree.Ref(o))
	}
}

// ancestorRejoin re-attaches the orphan in slot o under its nearest surviving
// ancestor with spare capacity: an ancestor's Ref resolves only while that
// member lives. It reports whether a position was found.
func (d *Driver) ancestorRejoin(sim *eventsim.Simulator, v *overlay.SlotView, o int32, ancestors []int64) bool {
	for _, ref := range ancestors {
		a := d.tree.Resolve(ref)
		if a < 0 || !v.Attached(a) || !v.HasSpare(a) {
			continue
		}
		if err := d.tree.Attach(o, a); err != nil {
			continue
		}
		d.rejoined(sim, v, o)
		return true
	}
	return false
}

// rejoin re-attaches the orphan ref refers to (or retries later when
// saturated).
func (d *Driver) rejoin(sim *eventsim.Simulator, ref int64) {
	i := d.tree.Resolve(ref)
	if i < 0 {
		return
	}
	v := d.tree.SlotView()
	if v.Attached(i) {
		return
	}
	m := v.Member(i)
	err := d.strategy.Join(d.tree, m, sim.Now())
	switch {
	case err == nil:
		d.rejoined(sim, &v, i)
	case errors.Is(err, construct.ErrNoParent):
		d.JoinFailures++
		if ep, ok := d.episodes[m.ID]; ok {
			ep.span.Child(tracing.KindAttempt, int64(m.ID), sim.Now()).End(sim.Now(), "saturated")
		}
		sim.Lane(construct.DefaultRejoinRetry).Schedule(d.rejoinRetry, ref)
	default:
		panic(fmt.Sprintf("churn: rejoin failed structurally: %v", err))
	}
}

// Track injects a "typical member" at virtual time at with the given
// bandwidth and an unbounded lifetime, sampling its cumulative disruptions
// and service delay every minute until the simulation ends.
func (d *Driver) Track(at time.Duration, bw float64) *Tracked {
	tr := &Tracked{}
	d.tracked = append(d.tracked, tr)
	d.sim.Schedule(at, func(sim *eventsim.Simulator, i int64) {
		tr.Member = d.tree.NewMember(d.topo.RandomStub(d.placeRng), bw, sim.Now())
		d.tryFirstJoin(sim, d.tree.Ref(tr.Member.Slot()))
		d.sampleTracked(sim, i)
	}, int64(len(d.tracked)-1))
	return tr
}

// sampleTracked samples the tracked member whose index in tracked is arg,
// then re-arms itself a minute later.
func (d *Driver) sampleTracked(sim *eventsim.Simulator, arg int64) {
	tr := d.tracked[arg]
	v, i := d.tree.SlotView(), tr.Member.Slot() // a tracked member never departs
	tr.Times = append(tr.Times, sim.Now())
	tr.Disruptions = append(tr.Disruptions, v.Disruptions(i))
	delay := v.PathDelay(i)
	if !v.Attached(i) {
		delay = 0 // rejoining; no live path
	}
	tr.DelayMS = append(tr.DelayMS, float64(delay)/float64(time.Millisecond))
	sim.Lane(time.Minute).Schedule(d.trackSample, arg)
}

// sampleTreeMetrics periodically averages service delay, stretch and size
// over all attached members during the measurement window.
func (d *Driver) sampleTreeMetrics(sim *eventsim.Simulator) {
	if sim.Now() > d.measureTo {
		return
	}
	root := d.tree.Root()
	var delaySum float64
	var stretchSum float64
	var stretchN int
	n := 0
	// The slot walk visits the attached members in VisitSubtree's pre-order,
	// so the float sums add in the same order.
	v, top := d.tree.SlotView(), root.Slot()
	for i := v.Next(top, top); i >= 0; i = v.Next(i, top) {
		n++
		pd := v.PathDelay(i)
		delaySum += float64(pd) / float64(time.Millisecond)
		direct := d.topo.Delay(root.Attach(), v.Attach(i))
		if direct > 0 {
			stretchSum += float64(pd) / float64(direct)
			stretchN++
		}
	}
	if n > 0 {
		d.delaySamples = append(d.delaySamples, delaySum/float64(n))
	}
	if stretchN > 0 {
		d.stretchSamples = append(d.stretchSamples, stretchSum/float64(stretchN))
	}
	d.sizeSamples = append(d.sizeSamples, float64(n))
	sim.Lane(DefaultSampleInterval).Schedule(d.sampleTree, 0)
}

// Result summarises one churn run.
type Result struct {
	// AvgDisruptions is the paper's Figure 4 metric: the mean number of
	// streaming disruptions accumulated during the measurement window,
	// averaged over the members present in the steady-state tree at its
	// end. The present population is length-biased toward long-lived
	// members, which is exactly the population whose experience the
	// stability of the tree's upper layers determines.
	AvgDisruptions float64
	// DisruptionCounts holds the per-member counts behind Figure 5's CDF
	// (members present at the end of the window).
	DisruptionCounts []float64
	// AvgReconnections is the optimizer-overhead metric of Figure 10,
	// computed the same way.
	AvgReconnections float64
	// PerLifetimeDisruptions and PerLifetimeReconnections are the
	// alternative estimator: event rates over departed members scaled by
	// the mean lifetime ("during its lifetime", unbiased by the window).
	PerLifetimeDisruptions   float64
	PerLifetimeReconnections float64
	// AvgServiceDelayMS and AvgStretch are the Figure 7/8 tree-quality
	// metrics.
	AvgServiceDelayMS float64
	AvgStretch        float64
	// AvgSize is the observed steady-state member count.
	AvgSize float64
	// Departures counts members departing inside the measurement window.
	Departures int
}

// Result gathers the metrics accumulated so far. Call it at the end of the
// measurement window: the snapshot metrics read the members present in the
// tree at call time.
func (d *Driver) Result() Result {
	meanLife := DefaultLifetime.Mean()
	perLifetime := func(sum float64) float64 {
		if d.exposureSum <= 0 {
			return 0
		}
		return sum / d.exposureSum * meanLife
	}
	// The attached members in pre-order, the source excluded: the counters
	// are read off the slot arrays, and counts is sized for every live member.
	counts := make([]float64, 0, d.tree.Size()-1)
	var disrSum, reconnSum float64
	v, top := d.tree.SlotView(), d.tree.Root().Slot()
	for i := v.Next(top, top); i >= 0; i = v.Next(i, top) {
		counts = append(counts, float64(v.Disruptions(i)))
		disrSum += float64(v.Disruptions(i))
		reconnSum += float64(v.Reconnections(i))
	}
	res := Result{
		DisruptionCounts:         counts,
		PerLifetimeDisruptions:   perLifetime(d.disruptionSum),
		PerLifetimeReconnections: perLifetime(d.reconnectsSum),
		AvgServiceDelayMS:        stats.Mean(d.delaySamples),
		AvgStretch:               stats.Mean(d.stretchSamples),
		AvgSize:                  stats.Mean(d.sizeSamples),
		Departures:               d.MeasuredDepartures,
	}
	if n := float64(len(counts)); n > 0 {
		res.AvgDisruptions = disrSum / n
		res.AvgReconnections = reconnSum / n
	}
	return res
}
