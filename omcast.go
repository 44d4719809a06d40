// Package omcast is a faithful, from-scratch reproduction of "Improving the
// Fault Resilience of Overlay Multicast for Media Streaming" (Tan, Jarvis,
// Spooner — DSN 2006) as a reusable Go library.
//
// The paper proposes two techniques for single-tree overlay live streaming:
//
//   - ROST, the Reliability-Oriented Switching Tree algorithm: members climb
//     the tree as their bandwidth-time product (outbound bandwidth x age)
//     grows, producing a tree partially ordered in both bandwidth and time
//     that suffers far fewer streaming disruptions than depth-optimal or
//     age-ordered trees, at almost no protocol overhead.
//
//   - CER, the Cooperative Error Recovery protocol: when an upstream member
//     fails, the affected node repairs the missing stream from a
//     minimum-loss-correlation group of recovery nodes, striping the missing
//     sequence space across their residual bandwidths.
//
// This package is the public façade: it assembles the simulation substrate
// (GT-ITM-style transit-stub underlay, discrete-event kernel, churn driver,
// the five tree-construction algorithms, the CER/MLC recovery machinery and
// the packet-level playback model — all implemented in internal/...) behind
// four entry points:
//
//	Run               — tree-level experiment: disruptions, delay, stretch, overhead
//	RunStreaming      — packet-level experiment: starving-time ratios under CER
//	RunStreamingGroup — several packet-level configs over one churned tree
//	RunTracked        — the "typical member" time series of Figures 6 and 9
//
// Every run is deterministic in Config.Seed.
package omcast

import (
	"fmt"
	"runtime"
	"time"

	"omcast/internal/churn"
	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/rost"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

// Algorithm selects the overlay construction algorithm (Section 5 of the
// paper implements and compares these five).
type Algorithm int

// The five algorithms of the paper's evaluation.
const (
	// MinimumDepth joins under the highest spare-capacity member known.
	MinimumDepth Algorithm = iota + 1
	// LongestFirst joins under the oldest spare-capacity member known.
	LongestFirst
	// RelaxedBandwidthOrdered is the centralized eviction-based variant of
	// the high-bandwidth-first (BO) algorithm.
	RelaxedBandwidthOrdered
	// RelaxedTimeOrdered is the centralized eviction-based variant of the
	// time-ordered (TO) algorithm.
	RelaxedTimeOrdered
	// ROST is the paper's Reliability-Oriented Switching Tree algorithm.
	ROST
)

// Algorithms lists all five in the order the paper's figures present them.
var Algorithms = []Algorithm{
	MinimumDepth, RelaxedBandwidthOrdered, LongestFirst, RelaxedTimeOrdered, ROST,
}

// String returns the display name used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case MinimumDepth:
		return "Minimum-depth"
	case LongestFirst:
		return "Longest-first"
	case RelaxedBandwidthOrdered:
		return "Relaxed bandwidth-ordered"
	case RelaxedTimeOrdered:
		return "Relaxed time-ordered"
	case ROST:
		return "ROST"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// TopologyOptions scales the generated transit-stub underlay. The zero value
// reproduces the paper's 15600-router topology (240 transit + 15360 stub).
type TopologyOptions struct {
	TransitDomains        int
	TransitNodesPerDomain int
	StubDomainsPerTransit int
	StubNodesPerDomain    int
}

// SmallTopology is a reduced underlay (~800 routers) for quick runs, tests
// and benchmarks; member placement and delay laws are unchanged.
func SmallTopology() TopologyOptions {
	return TopologyOptions{
		TransitDomains:        3,
		TransitNodesPerDomain: 8,
		StubDomainsPerTransit: 4,
		StubNodesPerDomain:    8,
	}
}

// Config describes one simulated multicast session. Zero fields take the
// paper's defaults (Section 5). Member lifetimes are the paper's fixed
// lognormal(5.5, 2.0) seconds, and every run starts from a session seeded as
// if it had been running for 4 hours (DESIGN.md §5).
type Config struct {
	// Seed drives every random choice in the run.
	Seed int64
	// Algorithm is the tree-construction algorithm; default ROST.
	Algorithm Algorithm
	// TargetSize is the steady-state member count M (the paper sweeps
	// 2000-14000). Required.
	TargetSize int
	// Topology scales the underlay; zero value = the paper's 15600 routers.
	Topology TopologyOptions
	// SwitchInterval is ROST's switching interval; default 360 s.
	SwitchInterval time.Duration
	// ContributorPriority applies the Section 3.2 incentive rule to ROST
	// joins: free-riders are parked at the deepest spare position.
	ContributorPriority bool
	// DisableBandwidthGuard removes ROST's "child bandwidth >= parent
	// bandwidth" switching precondition (ablation).
	DisableBandwidthGuard bool
	// Warmup and Measure bound the run: the overlay is pre-populated at the
	// stationary churn regime, churns for Warmup, then metrics accumulate
	// for Measure. Defaults: Warmup 1800 s, Measure 3600 s.
	Warmup  time.Duration
	Measure time.Duration
	// RootBandwidth is the source's outbound bandwidth; default 100.
	RootBandwidth float64
	// DisableAncestorRejoin turns off the default orphan-repair rule
	// (re-attach under the nearest surviving ancestor with spare capacity,
	// which every member knows per Section 4.1) and forces orphans through
	// the construction strategy's full join procedure instead.
	DisableAncestorRejoin bool
	// Bandwidth overrides the members' outbound bandwidth distribution
	// (default bounded Pareto(1.2, 0.5, 100)).
	Bandwidth xrand.BoundedPareto
	// Metrics, if non-nil, receives the run's instruments (kernel, churn,
	// ROST and — under RunStreaming — CER counters). The registry uses the
	// deterministic virtual-time backend, so snapshots are byte-identical
	// across same-seed runs; a registry may be shared across sequential runs
	// to accumulate totals.
	Metrics *metrics.Registry
	// Paranoid turns on full-scan overlay invariant auditing: once a
	// simulated minute the session walks the whole tree with
	// CheckInvariantsFull, failing the run on the first violation. Debug escape hatch — the audit
	// events make runs slower and their interleaving can shift same-time
	// event tie-breaks, so outputs are only comparable to other -paranoid
	// runs.
	Paranoid bool
}

func (c Config) withDefaults() Config {
	if c.Algorithm == 0 {
		c.Algorithm = ROST
	}
	if c.SwitchInterval <= 0 {
		c.SwitchInterval = rost.DefaultSwitchInterval
	}
	if c.Warmup <= 0 {
		c.Warmup = 1800 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3600 * time.Second
	}
	if c.RootBandwidth <= 0 {
		c.RootBandwidth = churn.DefaultRootBandwidth
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TargetSize <= 0 {
		return fmt.Errorf("omcast: TargetSize = %d, want > 0", c.TargetSize)
	}
	switch c.Algorithm {
	case 0, MinimumDepth, LongestFirst, RelaxedBandwidthOrdered, RelaxedTimeOrdered, ROST:
	default:
		return fmt.Errorf("omcast: unknown algorithm %d", int(c.Algorithm))
	}
	return nil
}

func (o TopologyOptions) toInternal(seed int64) topology.Config {
	cfg := topology.DefaultConfig(seed)
	if o.TransitDomains > 0 {
		cfg.TransitDomains = o.TransitDomains
	}
	if o.TransitNodesPerDomain > 0 {
		cfg.TransitNodesPerDomain = o.TransitNodesPerDomain
	}
	if o.StubDomainsPerTransit > 0 {
		cfg.StubDomainsPerTransit = o.StubDomainsPerTransit
	}
	if o.StubNodesPerDomain > 0 {
		cfg.StubNodesPerDomain = o.StubNodesPerDomain
	}
	return cfg
}

// session is one assembled simulation.
type session struct {
	cfg      Config
	sim      *eventsim.Simulator
	topo     *topology.Topology
	tree     *overlay.Tree
	env      *construct.Env
	strategy construct.Strategy
	protocol *rost.Protocol // nil unless Algorithm == ROST
	driver   *churn.Driver
	// invariantErr records the first paranoid-audit violation; the run
	// surfaces it once the event loop returns.
	invariantErr error
}

// newSession builds the full substrate stack for cfg, with extra hooks
// merged in (used by the streaming layer). spans, if non-nil, records
// churn's joins, departures and rejoin episodes and ROST's switch
// decisions.
func newSession(cfg Config, extra churn.Hooks, spans *tracing.Tracer) (*session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.Shared(cfg.Topology.toInternal(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("omcast: building underlay: %w", err)
	}
	s := &session{cfg: cfg, sim: eventsim.New(), topo: topo}
	rootAttach := topo.RandomStub(xrand.NewNamed(cfg.Seed, "source.attach"))
	s.tree, err = overlay.NewTree(rootAttach, cfg.RootBandwidth, topo.Delay)
	if err != nil {
		return nil, fmt.Errorf("omcast: creating tree: %w", err)
	}
	s.env = &construct.Env{
		Rng:            xrand.NewNamed(cfg.Seed, "strategy"),
		Delay:          topo.Delay,
		Underlay:       topo,
		CandidateCount: construct.DefaultCandidateCount,
	}
	switch cfg.Algorithm {
	case MinimumDepth:
		s.strategy = &construct.MinDepth{Env: s.env}
	case LongestFirst:
		s.strategy = &construct.LongestFirst{Env: s.env}
	case RelaxedBandwidthOrdered:
		s.strategy = construct.NewRelaxedBandwidthOrdered(s.env)
	case RelaxedTimeOrdered:
		s.strategy = construct.NewRelaxedTimeOrdered(s.env)
	case ROST:
		s.protocol = rost.New(s.tree, s.env, rost.Config{
			SwitchInterval:        cfg.SwitchInterval,
			ContributorPriority:   cfg.ContributorPriority,
			DisableBandwidthGuard: cfg.DisableBandwidthGuard,
			Trace:                 spans,
		})
		s.strategy = s.protocol
	}
	if cfg.Metrics != nil {
		s.sim.Instrument(cfg.Metrics)
		if s.protocol != nil {
			s.protocol.Instrument(cfg.Metrics)
		}
	}

	hooks := churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			if s.protocol != nil {
				s.protocol.Start(sim, m)
			}
			if extra.OnJoin != nil {
				extra.OnJoin(sim, m)
			}
		},
		OnFailure: extra.OnFailure,
		OnDepart:  extra.OnDepart,
		OnRejoin:  extra.OnRejoin,
	}
	s.driver, err = churn.NewDriver(s.sim, s.tree, topo, s.strategy, churn.Config{
		Seed:           cfg.Seed,
		TargetSize:     cfg.TargetSize,
		Bandwidth:      cfg.Bandwidth,
		RootBandwidth:  cfg.RootBandwidth,
		Warmup:         cfg.Warmup,
		Measure:        cfg.Measure,
		PrePopulate:    true,
		AncestorRejoin: !cfg.DisableAncestorRejoin,
		Trace:          spans,
	}, hooks)
	if err != nil {
		return nil, fmt.Errorf("omcast: creating churn driver: %w", err)
	}
	if cfg.Metrics != nil {
		s.driver.Instrument(cfg.Metrics)
	}
	if cfg.Paranoid {
		var audit eventsim.Handler
		audit = func(sim *eventsim.Simulator, _ int64) {
			if s.invariantErr != nil {
				return
			}
			if err := s.tree.CheckInvariantsFull(); err != nil {
				s.invariantErr = fmt.Errorf("omcast: paranoid audit at %v: %w", sim.Now(), err)
				return
			}
			sim.ScheduleAfter(time.Minute, audit, 0)
		}
		s.sim.ScheduleAfter(time.Minute, audit, 0)
	}
	return s, nil
}

func (s *session) run() error {
	s.driver.Start()
	if err := s.sim.Run(s.driver.Horizon()); err != nil {
		return fmt.Errorf("omcast: simulation failed: %w", err)
	}
	if s.invariantErr != nil {
		return s.invariantErr
	}
	if s.cfg.Paranoid {
		if err := s.tree.CheckInvariantsFull(); err != nil {
			return fmt.Errorf("omcast: paranoid final audit: %w", err)
		}
	}
	return nil
}

// TreeResult reports the tree-level metrics of one run (Figures 4-11).
type TreeResult struct {
	// Algorithm that produced the tree.
	Algorithm Algorithm
	// AvgDisruptions is the Figure 4 metric: streaming disruptions
	// accumulated over the measurement window, averaged over the members
	// present in the steady-state tree at its end.
	AvgDisruptions float64
	// DisruptionCounts holds per-member disruption counts (Figure 5's CDF).
	DisruptionCounts []float64
	// AvgReconnections is the optimizer-induced protocol overhead per
	// member (Figure 10), measured like AvgDisruptions.
	AvgReconnections float64
	// PerLifetimeDisruptions / PerLifetimeReconnections are the alternative
	// estimator: event rates over departed members scaled to the mean
	// lifetime.
	PerLifetimeDisruptions   float64
	PerLifetimeReconnections float64
	// AvgServiceDelayMS is the mean end-to-end overlay delay (Figure 7).
	AvgServiceDelayMS float64
	// AvgStretch is the mean overlay/unicast delay ratio (Figure 8).
	AvgStretch float64
	// AvgSize is the observed steady-state size (the x-axis of the paper's
	// sweeps).
	AvgSize float64
	// Departures counts members measured.
	Departures int
	// Switches, SwitchAborts and LockBackoffs report ROST protocol activity
	// (zero for other algorithms).
	Switches     int
	SwitchAborts int
	LockBackoffs int
	// RejectedClaims is always zero: the simulator verifies no BTP claims.
	// Only the frozen benchmark module (benchmark/sim.go) reads it.
	RejectedClaims int
}

// Run executes one tree-level experiment.
func Run(cfg Config) (TreeResult, error) {
	s, err := newSession(cfg, churn.Hooks{}, nil)
	if err != nil {
		return TreeResult{}, err
	}
	if err := s.run(); err != nil {
		return TreeResult{}, err
	}
	return s.treeResult(), nil
}

func (s *session) treeResult() TreeResult {
	r := s.driver.Result()
	out := TreeResult{
		Algorithm:                s.cfg.withDefaults().Algorithm,
		AvgDisruptions:           r.AvgDisruptions,
		DisruptionCounts:         r.DisruptionCounts,
		AvgReconnections:         r.AvgReconnections,
		PerLifetimeDisruptions:   r.PerLifetimeDisruptions,
		PerLifetimeReconnections: r.PerLifetimeReconnections,
		AvgServiceDelayMS:        r.AvgServiceDelayMS,
		AvgStretch:               r.AvgStretch,
		AvgSize:                  r.AvgSize,
		Departures:               r.Departures,
	}
	if s.protocol != nil {
		out.Switches = s.protocol.Switches
		out.SwitchAborts = s.protocol.Aborted
		out.LockBackoffs = s.protocol.LockFailures
	}
	return out
}

// ScaleResult is a TreeResult plus the observables of the fig-scale family:
// the deterministic event count, and the measurement-harness costs (bytes of
// heap retained per member, bytes and heap objects allocated, wall-clock
// nanoseconds per event). Only Events is deterministic in the seed; the
// memory and time figures depend on the machine and allocator and belong in
// BENCH_scale.json, not figure tables.
type ScaleResult struct {
	TreeResult
	// Events is the number of simulator events fired over the whole run
	// (deterministic in the seed — byte-identical across worker counts).
	Events uint64
	// HeapBytes is the post-GC heap growth across the run: the retained
	// footprint of the session (tree arrays, churn state, kernel queue).
	HeapBytes uint64
	// BytesPerMember is HeapBytes over the observed steady-state size.
	BytesPerMember float64
	// AllocBytes is every byte allocated across the run, garbage included.
	AllocBytes uint64
	// Mallocs is every heap object allocated across the run;
	// MallocsPerArrival divides it by the members the run created (seeded
	// or arriving), each of which costs at least its *overlay.Member handle.
	Mallocs           uint64
	MallocsPerArrival float64
	// WallNs is the wall-clock cost of the run loop; NsPerEvent divides it
	// by Events.
	WallNs     int64
	NsPerEvent float64
}

// RunScale executes one tree-level experiment and measures its footprint:
// heap growth and the bytes and objects allocated, via runtime.ReadMemStats
// deltas around the run (with forced collections so the heap delta reads
// retained bytes, not allocator slack), and the wall-clock cost of the event
// loop. The shared
// underlay is fetched before the window opens, so a point measures the same
// whether or not an earlier run in the process built it. The simulation
// itself is exactly Run — same seed, same events, same TreeResult.
func RunScale(cfg Config) (ScaleResult, error) {
	if err := cfg.Validate(); err != nil {
		return ScaleResult{}, err
	}
	if _, err := topology.Shared(cfg.Topology.toInternal(cfg.Seed)); err != nil {
		return ScaleResult{}, fmt.Errorf("omcast: building underlay: %w", err)
	}
	var before, after runtime.MemStats
	// Twice: what the first collection leaves for the next one would
	// otherwise be freed inside the window and read as a smaller heap.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := newSession(cfg, churn.Hooks{}, nil)
	if err != nil {
		return ScaleResult{}, err
	}
	//lint:ignore no-wallclock reason: harness measurement of the run loop, not simulation output
	start := time.Now()
	if err := s.run(); err != nil {
		return ScaleResult{}, err
	}
	//lint:ignore no-wallclock reason: harness measurement of the run loop, not simulation output
	wall := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	out := ScaleResult{
		TreeResult: s.treeResult(),
		Events:     s.sim.Processed(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		WallNs:     wall.Nanoseconds(),
	}
	if n := s.tree.Created(); n > 0 {
		out.MallocsPerArrival = float64(out.Mallocs) / float64(n)
	}
	if after.HeapAlloc > before.HeapAlloc {
		out.HeapBytes = after.HeapAlloc - before.HeapAlloc
	}
	if out.AvgSize > 0 {
		out.BytesPerMember = float64(out.HeapBytes) / out.AvgSize
	}
	if out.Events > 0 {
		out.NsPerEvent = float64(out.WallNs) / float64(out.Events)
	}
	return out, nil
}

// Recovery selects how packet losses are repaired (Figures 12-14).
type Recovery int

// Recovery schemes.
const (
	// CER is the paper's scheme: minimum-loss-correlation group selection
	// with striped multi-source repair.
	CER Recovery = iota + 1
	// SingleSource is the baseline: a random recovery list used one node at
	// a time with no bandwidth aggregation.
	SingleSource
	// CERRandomGroup is an ablation: striped multi-source repair over a
	// randomly selected (non-MLC) group.
	CERRandomGroup
)

// String names the recovery scheme.
func (r Recovery) String() string {
	switch r {
	case CER:
		return "CER"
	case SingleSource:
		return "Single-source"
	case CERRandomGroup:
		return "CER (random group)"
	default:
		return fmt.Sprintf("Recovery(%d)", int(r))
	}
}

// StreamConfig parameterises the packet-level layer. The stream rate (10
// pkt/s) and the members' uniform residual recovery bandwidth (U[0, 9]
// pkt/s) are the paper's fixed values.
type StreamConfig struct {
	// Recovery scheme; default CER.
	Recovery Recovery
	// GroupSize is the recovery group size K; default 1.
	GroupSize int
	// Buffer is the playback buffer; default 5 s.
	Buffer time.Duration
}

// StreamResult reports packet-level playback quality.
type StreamResult struct {
	TreeResult
	// AvgStarvingRatio is the mean starving-time ratio (fraction, not
	// percent).
	AvgStarvingRatio float64
	// StarvingRatios holds the per-member ratios.
	StarvingRatios []float64
	// StreamMembers is the number of members contributing ratios.
	StreamMembers int
	// Episodes, RepairRequests, ELNMessages, PacketsRepaired, PacketsLost
	// report recovery activity.
	Episodes        int
	RepairRequests  int
	ELNMessages     int
	PacketsRepaired int
	PacketsLost     int
}

// RunStreaming executes one packet-level experiment on top of a tree-level
// session.
func RunStreaming(cfg Config, scfg StreamConfig) (StreamResult, error) {
	return RunStreamingWithTrace(cfg, scfg, nil, TraceOptions{})
}

// TrackedSeries is the Figure 6/9 time series of one long-lived "typical
// member" that joins once the overlay is in steady state.
type TrackedSeries struct {
	// Minutes since the member joined, with the cumulative number of
	// disruptions and the current service delay at each sample.
	Minutes        []float64
	Disruptions    []int
	ServiceDelayMS []float64
}

// RunTracked executes a tree-level run with a tracked typical member
// (moderate bandwidth, joining at the end of warm-up, observed until the
// end of the run). observe extends the run beyond the configured measure
// window if longer.
func RunTracked(cfg Config, bandwidth float64, observe time.Duration) (TrackedSeries, TreeResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Measure < observe {
		cfg.Measure = observe
	}
	s, err := newSession(cfg, churn.Hooks{}, nil)
	if err != nil {
		return TrackedSeries{}, TreeResult{}, err
	}
	tracked := s.driver.Track(cfg.Warmup, bandwidth)
	if err := s.run(); err != nil {
		return TrackedSeries{}, TreeResult{}, err
	}
	series := TrackedSeries{}
	for i, at := range tracked.Times {
		series.Minutes = append(series.Minutes, (at - cfg.Warmup).Minutes())
		series.Disruptions = append(series.Disruptions, tracked.Disruptions[i])
		series.ServiceDelayMS = append(series.ServiceDelayMS, tracked.DelayMS[i])
	}
	return series, s.treeResult(), nil
}
