package main

import (
	"fmt"
	"time"

	"omcast"
	"omcast/internal/cer"
	"omcast/internal/churn"
	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/rost"
	"omcast/internal/stream"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// simSpec is one simulated session: an algorithm at a member count over the
// paper's underlay, optionally with the packet-level CER layer on top.
type simSpec struct {
	algorithm omcast.Algorithm
	members   int
	warmup    time.Duration
	measure   time.Duration
	// streaming adds stream.Model with MLC recovery groups of groupSize.
	streaming bool
	groupSize int
	// small swaps the 15 600-router underlay for omcast.SmallTopology (smoke
	// sizes only).
	small bool
}

func (s simSpec) config(seed int64) omcast.Config {
	cfg := omcast.Config{
		Seed:       seed,
		Algorithm:  s.algorithm,
		TargetSize: s.members,
		Warmup:     s.warmup,
		Measure:    s.measure,
	}
	if s.small {
		cfg.Topology = omcast.SmallTopology()
	}
	return cfg
}

func (s simSpec) topology(seed int64) topology.Config {
	cfg := topology.DefaultConfig(seed)
	if s.small {
		small := omcast.SmallTopology()
		cfg.TransitDomains = small.TransitDomains
		cfg.TransitNodesPerDomain = small.TransitNodesPerDomain
		cfg.StubDomainsPerTransit = small.StubDomainsPerTransit
		cfg.StubNodesPerDomain = small.StubNodesPerDomain
	}
	return cfg
}

// simOutcome is the simulated result of one session, in the shape both the
// public entry points and the benchmark's own assembly can fill.
type simOutcome struct {
	tree omcast.TreeResult
	// events is the kernel's fired-event count; 0 when the entry point does
	// not report it (omcast.RunStreaming).
	events uint64
	// bytesPerMember is machine-dependent and stays out of the digest.
	bytesPerMember float64

	starvingRatio   float64
	starvingRatios  []float64
	streamMembers   int
	episodes        int
	repairRequests  int
	elnMessages     int
	packetsRepaired int
	packetsLost     int
}

// digest covers every seed-determined field both passes can observe.
func (o simOutcome) digest() string {
	d := newDigester()
	t := o.tree
	d.int(int(t.Algorithm))
	d.f64(t.AvgDisruptions)
	d.f64s(t.DisruptionCounts)
	d.f64(t.AvgReconnections)
	d.f64(t.PerLifetimeDisruptions)
	d.f64(t.PerLifetimeReconnections)
	d.f64(t.AvgServiceDelayMS)
	d.f64(t.AvgStretch)
	d.f64(t.AvgSize)
	d.int(t.Departures)
	d.int(t.Switches)
	d.int(t.SwitchAborts)
	d.int(t.LockBackoffs)
	d.int(t.RejectedClaims)
	d.f64(o.starvingRatio)
	d.f64s(o.starvingRatios)
	d.int(o.streamMembers)
	d.int(o.episodes)
	d.int(o.repairRequests)
	d.int(o.elnMessages)
	d.int(o.packetsRepaired)
	d.int(o.packetsLost)
	return d.sum()
}

// runPublic runs spec through the entry point a user calls: omcast.RunScale
// for tree-level sessions, omcast.RunStreaming for packet-level ones.
func runPublic(spec simSpec, seed int64) (simOutcome, error) {
	if !spec.streaming {
		r, err := omcast.RunScale(spec.config(seed))
		if err != nil {
			return simOutcome{}, err
		}
		return simOutcome{tree: r.TreeResult, events: r.Events, bytesPerMember: r.BytesPerMember}, nil
	}
	r, err := omcast.RunStreaming(spec.config(seed), omcast.StreamConfig{Recovery: omcast.CER, GroupSize: spec.groupSize})
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{
		tree:            r.TreeResult,
		starvingRatio:   r.AvgStarvingRatio,
		starvingRatios:  r.StarvingRatios,
		streamMembers:   r.StreamMembers,
		episodes:        r.Episodes,
		repairRequests:  r.RepairRequests,
		elnMessages:     r.ELNMessages,
		packetsRepaired: r.PacketsRepaired,
		packetsLost:     r.PacketsLost,
	}, nil
}

// session is the benchmark's own assembly of one simulation from the layers'
// exported constructors, wired exactly as omcast.newSession and
// omcast.runStreaming wire it (same constructors, same xrand stream names),
// with a timing or counting decorator at each interface the layers meet at.
// With a nil tracer the decorators are inert.
type session struct {
	spec     simSpec
	tr       *tracer
	sim      *eventsim.Simulator
	tree     *overlay.Tree
	protocol *rost.Protocol
	driver   *churn.Driver
	model    *stream.Model

	delayCalls int64
	joins      int64
	failures   int64
	rejoins    int64
	selects    int64
	// eventsAt holds the kernel's event count after each loop slice.
	eventsAt [3]uint64
}

// timedStrategy times every Join the churn driver asks of a strategy.
type timedStrategy struct {
	inner construct.Strategy
	tr    *tracer
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	sp := s.tr.begin(spanJoin)
	err := s.inner.Join(tree, m, now)
	s.tr.end(sp)
	return err
}

// timedSelector times and counts every recovery-group selection.
type timedSelector struct {
	inner cer.Selector
	tr    *tracer
	calls *int64
}

func (s *timedSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	*s.calls++
	sp := s.tr.begin(spanSelect)
	group := s.inner.Select(self, k)
	s.tr.end(sp)
	return group
}

// assemble builds the session up to, not including, the event loop: this is
// the set-up every run pays before its timed region.
func assemble(spec simSpec, seed int64, tr *tracer) (*session, error) {
	sp := tr.begin(spanTopologyBuild)
	topo, err := topology.New(spec.topology(seed))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("building underlay: %w", err)
	}
	s := &session{spec: spec, tr: tr, sim: eventsim.New()}
	// The Delay oracle handed to the tree, the construction environment, the
	// stream model and the selector is counted; churn's own stretch sampling
	// calls topo.Delay directly and stays invisible from here.
	delay := func(a, b topology.NodeID) time.Duration {
		s.delayCalls++
		return topo.Delay(a, b)
	}
	rootAttach := topo.RandomStub(xrand.NewNamed(seed, "source.attach"))
	s.tree, err = overlay.NewTree(rootAttach, churn.DefaultRootBandwidth, delay)
	if err != nil {
		return nil, fmt.Errorf("creating tree: %w", err)
	}
	env := &construct.Env{
		Rng:            xrand.NewNamed(seed, "strategy"),
		Delay:          delay,
		CandidateCount: construct.DefaultCandidateCount,
	}
	var strategy construct.Strategy
	switch spec.algorithm {
	case omcast.MinimumDepth:
		strategy = &construct.MinDepth{Env: env}
	case omcast.LongestFirst:
		strategy = &construct.LongestFirst{Env: env}
	case omcast.RelaxedBandwidthOrdered:
		strategy = construct.NewRelaxedBandwidthOrdered(env)
	case omcast.RelaxedTimeOrdered:
		strategy = construct.NewRelaxedTimeOrdered(env)
	case omcast.ROST:
		s.protocol = rost.New(s.tree, env, rost.Config{SwitchInterval: rost.DefaultSwitchInterval})
		strategy = s.protocol
	default:
		return nil, fmt.Errorf("unknown algorithm %d", int(spec.algorithm))
	}
	hooks := churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			s.joins++
			if s.protocol != nil {
				sp := tr.begin(spanRostStart)
				s.protocol.Start(sim, m)
				tr.end(sp)
			}
			if s.model != nil {
				s.model.Register(m, sim.Now())
			}
		},
		OnDepart: func(sim *eventsim.Simulator, id overlay.MemberID) {
			s.failures++
			if s.model != nil {
				s.model.Depart(id, sim.Now())
			}
		},
		OnRejoin: func(*eventsim.Simulator, *overlay.Member) { s.rejoins++ },
	}
	if spec.streaming {
		hooks.OnFailure = func(sim *eventsim.Simulator, failed *overlay.Member) {
			sp := tr.begin(spanEpisode)
			s.model.OnFailure(failed, sim.Now())
			tr.end(sp)
		}
	}
	s.driver, err = churn.NewDriver(s.sim, s.tree, topo, &timedStrategy{inner: strategy, tr: tr}, churn.Config{
		Seed:           seed,
		TargetSize:     spec.members,
		RootBandwidth:  churn.DefaultRootBandwidth,
		Warmup:         spec.warmup,
		Measure:        spec.measure,
		PrePopulate:    true,
		AncestorRejoin: true,
	}, hooks)
	if err != nil {
		return nil, fmt.Errorf("creating churn driver: %w", err)
	}
	if spec.streaming {
		selector := &timedSelector{
			inner: &cer.MLCSelector{Tree: s.tree, Rng: xrand.NewNamed(seed, "cer.select"), Delay: delay},
			tr:    tr,
			calls: &s.selects,
		}
		s.model = stream.NewModel(s.tree, delay, selector, xrand.NewNamed(seed, "stream.residual"), stream.Config{
			GroupSize:   spec.groupSize,
			Striped:     true,
			MeasureFrom: spec.warmup,
		})
	}
	return s, nil
}

// run executes the event loop in three slices -- pre-population (the events
// at time zero), warm-up, measurement window -- so each is a span of its own.
// Simulator.Run is resumable, so the slices fire exactly the events one
// Run(horizon) would, in the same order.
func (s *session) run() (simOutcome, error) {
	s.driver.Start()
	slices := [3]struct {
		kind    spanKind
		horizon time.Duration
	}{
		{spanPrepopulate, 0},
		{spanWarmup, s.spec.warmup},
		{spanMeasure, s.driver.Horizon()},
	}
	for i, sl := range slices {
		sp := s.tr.begin(sl.kind)
		err := s.sim.Run(sl.horizon)
		s.tr.end(sp)
		if err != nil {
			return simOutcome{}, fmt.Errorf("simulation failed: %w", err)
		}
		s.eventsAt[i] = s.sim.Processed()
	}
	r := s.driver.Result()
	out := simOutcome{
		tree: omcast.TreeResult{
			Algorithm:                s.spec.algorithm,
			AvgDisruptions:           r.AvgDisruptions,
			DisruptionCounts:         r.DisruptionCounts,
			AvgReconnections:         r.AvgReconnections,
			PerLifetimeDisruptions:   r.PerLifetimeDisruptions,
			PerLifetimeReconnections: r.PerLifetimeReconnections,
			AvgServiceDelayMS:        r.AvgServiceDelayMS,
			AvgStretch:               r.AvgStretch,
			AvgSize:                  r.AvgSize,
			Departures:               r.Departures,
		},
		events: s.sim.Processed(),
	}
	if s.protocol != nil {
		out.tree.Switches = s.protocol.Switches
		out.tree.SwitchAborts = s.protocol.Aborted
		out.tree.LockBackoffs = s.protocol.LockFailures
		out.tree.RejectedClaims = s.protocol.Rejected
	}
	if s.model != nil {
		sp := s.tr.begin(spanFinish)
		s.model.Finish(s.sim.Now())
		s.tr.end(sp)
		sr := s.model.Result()
		out.starvingRatio = sr.AvgStarvingRatio
		out.starvingRatios = sr.Ratios
		out.streamMembers = sr.Members
		out.episodes = s.model.Episodes
		out.repairRequests = s.model.RepairRequests
		out.elnMessages = s.model.ELNMessages
		out.packetsRepaired = s.model.PacketsRepaired
		out.packetsLost = s.model.PacketsLost
	}
	return out, nil
}
