// Package multitree implements the extension the paper's introduction
// singles out as future work: applying the single-tree techniques (ROST
// construction, CER recovery) to multiple-tree data delivery ("we believe
// that the techniques developed under this scheme can also be applied to the
// multiple-tree case").
//
// The stream is split into T stripes (packet n belongs to stripe n mod T,
// the multiple-description-coding layout of the paper's reference [9]); each
// stripe is multicast over its own overlay tree. Every member joins all T
// trees as a receiver but contributes forwarding bandwidth according to a
// contribution policy:
//
//   - SplitContribution: the member's out-degree is divided evenly across
//     the trees (CoopNet-style).
//   - DisjointContribution: the member is interior in exactly one tree —
//     its designated tree gets its whole out-degree, every other tree gets
//     zero (SplitStream-style interior-node disjointness). A member failure
//     then disrupts at most one stripe's subtree.
//
// Fault resilience composes with coding: with MDC a viewer needs only
// QuorumStripes of the T stripes on time for watchable quality, so a
// disruption in one tree degrades rather than interrupts playback. The
// package reports both the full-quality ratio (all stripes on time) and the
// outage ratio (fewer than the quorum on time); the latter is the analogue
// of the single-tree starving-time ratio.
package multitree

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"omcast/internal/cer"
	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/rost"
	"omcast/internal/stats"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// Contribution selects how a member's forwarding bandwidth is spread over
// the stripe trees.
type Contribution int

// Contribution policies.
const (
	// SplitContribution divides each member's out-degree evenly.
	SplitContribution Contribution = iota + 1
	// DisjointContribution gives each member's whole out-degree to one
	// designated tree (interior-node disjointness).
	DisjointContribution
)

// String names the policy.
func (c Contribution) String() string {
	switch c {
	case SplitContribution:
		return "split"
	case DisjointContribution:
		return "disjoint"
	default:
		return fmt.Sprintf("Contribution(%d)", int(c))
	}
}

// Config parameterises a multi-tree session.
type Config struct {
	// Stripes is T, the number of stripe trees (>= 1; 1 degenerates to the
	// single-tree system).
	Stripes int
	// Contribution policy; default SplitContribution.
	Contribution Contribution
	// QuorumStripes is how many stripes must be on time for watchable
	// quality (MDC); default Stripes (i.e., no coding slack).
	QuorumStripes int
	// UseROST maintains each stripe tree with ROST switching; otherwise
	// minimum-depth only.
	UseROST bool
	// SwitchInterval for ROST; zero uses the package default.
	SwitchInterval time.Duration
	// Churn parameters.
	Seed          int64
	TargetSize    int
	RootBandwidth float64
	Lifetime      xrand.Lognormal
	Bandwidth     xrand.BoundedPareto
	SessionAge    time.Duration
	Warmup        time.Duration
	Measure       time.Duration
	// Stream parameters (shared by all stripes).
	Rate        float64       // packets/s across ALL stripes; default 10
	Buffer      time.Duration // playback buffer; default 5 s
	DetectDelay time.Duration // default 5 s
	RejoinDelay time.Duration // default 10 s
}

func (c Config) withDefaults() Config {
	if c.Contribution == 0 {
		c.Contribution = SplitContribution
	}
	if c.QuorumStripes <= 0 || c.QuorumStripes > c.Stripes {
		c.QuorumStripes = c.Stripes
	}
	if c.RootBandwidth <= 0 {
		c.RootBandwidth = 100
	}
	if c.Lifetime == (xrand.Lognormal{}) {
		c.Lifetime = xrand.Lognormal{Mu: 5.5, Sigma: 2.0}
	}
	if c.Bandwidth == (xrand.BoundedPareto{}) {
		c.Bandwidth = xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
	}
	if c.SessionAge <= 0 {
		c.SessionAge = 4 * time.Hour
	}
	if c.Warmup <= 0 {
		c.Warmup = 1800 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3600 * time.Second
	}
	if c.Rate <= 0 {
		c.Rate = 10
	}
	if c.Buffer <= 0 {
		c.Buffer = 5 * time.Second
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = 5 * time.Second
	}
	if c.RejoinDelay <= 0 {
		c.RejoinDelay = 10 * time.Second
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Stripes <= 0 {
		return fmt.Errorf("multitree: Stripes = %d, want >= 1", c.Stripes)
	}
	if c.TargetSize <= 0 {
		return fmt.Errorf("multitree: TargetSize = %d, want > 0", c.TargetSize)
	}
	return nil
}

// participant is one member's presence across all stripe trees.
type participant struct {
	id        int64
	attach    topology.NodeID
	bandwidth float64
	joined    time.Duration
	// nodes[t] is the member's node in stripe tree t.
	nodes []*overlay.Member
	// designated is the interior tree under DisjointContribution.
	designated int

	// viewStart and badSlots drive the per-member quality accounting:
	// badSlots counts stripe packets that missed their playback deadline.
	viewStart time.Duration
	badSlots  int64
	// residual bandwidth donated to recovery (packets/s).
	residual float64
	// watermark per stripe prevents double counting across overlapping
	// episodes.
	watermark []int64
	// outageUntil per stripe.
	outageUntil []time.Duration
}

// Session is a running multi-tree simulation.
type Session struct {
	cfg   Config
	sim   *eventsim.Simulator
	topo  *topology.Topology
	trees []*overlay.Tree
	envs  []*construct.Env
	joins []construct.Strategy
	rosts []*rostDriver
	// selectors[t] picks recovery groups in stripe tree t; all of them draw
	// from the one selectRng, in episode order.
	selectors []*cer.MLCSelector

	arrivalRng  *xrand.Source
	lifetimeRng *xrand.Source
	bwRng       *xrand.Source
	placeRng    *xrand.Source
	residualRng *xrand.Source
	selectRng   *xrand.Source

	arrivalGap xrand.Exponential

	participants map[int64]*participant
	// byNode maps a per-tree member ID to its participant.
	byNode []map[overlay.MemberID]*participant
	nextID int64

	measureFrom time.Duration
	measureTo   time.Duration

	// finished participants' quality ratios.
	fullRatios   []float64
	outageRatios []float64

	// Disruptions counts stripe-level disruption events during measurement.
	Disruptions int
	// Episodes counts recovery episodes run.
	Episodes int
	// treeEpisodes splits Episodes by stripe tree.
	treeEpisodes []int
	// maxBlastRadius is the most stripes any single member failure
	// disrupted (subtrees orphaned). DisjointContribution bounds it at 1.
	maxBlastRadius int

	// arrivalBuf is the reusable dense repair-plan buffer (one arrival per
	// missing stripe packet; negative = lost).
	arrivalBuf []time.Duration
	// serverBuf is the reusable server list of one stripe episode.
	serverBuf []cer.Server
}

// rostDriver adapts the rost protocol per tree (kept minimal: the full
// protocol lives in internal/rost; multitree reuses the construct-level
// switching through it).
type rostDriver struct {
	start func(sim *eventsim.Simulator, m *overlay.Member)
}

// enableROST maintains every stripe tree with BTP switching.
func (s *Session) enableROST() {
	for t := range s.trees {
		p := rost.New(s.trees[t], s.envs[t], rost.Config{SwitchInterval: s.cfg.SwitchInterval})
		s.joins[t] = p
		s.rosts[t] = &rostDriver{start: p.Start}
	}
}

// NewSession builds a multi-tree session.
func NewSession(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topoCfg := topology.DefaultConfig(cfg.Seed)
	// Multi-tree runs are heavier (T trees); use a mid-sized underlay
	// unless the session is paper-scale.
	if cfg.TargetSize < 4000 {
		topoCfg.TransitDomains = 3
		topoCfg.TransitNodesPerDomain = 8
		topoCfg.StubDomainsPerTransit = 4
		topoCfg.StubNodesPerDomain = 8
	}
	topo, err := topology.Shared(topoCfg)
	if err != nil {
		return nil, fmt.Errorf("multitree: underlay: %w", err)
	}
	s := &Session{
		cfg:          cfg,
		sim:          eventsim.New(),
		topo:         topo,
		participants: make(map[int64]*participant),
		arrivalRng:   xrand.NewNamed(cfg.Seed, "mt.arrival"),
		lifetimeRng:  xrand.NewNamed(cfg.Seed, "mt.lifetime"),
		bwRng:        xrand.NewNamed(cfg.Seed, "mt.bandwidth"),
		placeRng:     xrand.NewNamed(cfg.Seed, "mt.place"),
		residualRng:  xrand.NewNamed(cfg.Seed, "mt.residual"),
		selectRng:    xrand.NewNamed(cfg.Seed, "mt.select"),
		measureFrom:  cfg.Warmup,
		measureTo:    cfg.Warmup + cfg.Measure,
		nextID:       1,

		treeEpisodes: make([]int, cfg.Stripes),
	}
	rootAttach := topo.RandomStub(xrand.NewNamed(cfg.Seed, "mt.root"))
	for t := 0; t < cfg.Stripes; t++ {
		tree, err := overlay.NewTree(rootAttach, cfg.RootBandwidth, topo.Delay)
		if err != nil {
			return nil, fmt.Errorf("multitree: tree %d: %w", t, err)
		}
		s.trees = append(s.trees, tree)
		s.byNode = append(s.byNode, make(map[overlay.MemberID]*participant))
		env := &construct.Env{
			Rng:            xrand.NewNamed(cfg.Seed+int64(t), "mt.strategy"),
			Delay:          topo.Delay,
			CandidateCount: construct.DefaultCandidateCount,
		}
		s.envs = append(s.envs, env)
		s.joins = append(s.joins, &construct.MinDepth{Env: env})
		s.rosts = append(s.rosts, nil)
		s.selectors = append(s.selectors, &cer.MLCSelector{Tree: tree, Rng: s.selectRng, Delay: topo.Delay})
	}
	if cfg.UseROST {
		s.enableROST()
	}
	lambda := float64(cfg.TargetSize) / survivalIntegral(cfg.Lifetime, cfg.SessionAge)
	s.arrivalGap = xrand.Exponential{Rate: lambda}
	return s, nil
}

// Horizon returns the end of the measurement window.
func (s *Session) Horizon() time.Duration { return s.measureTo }

// Tree returns stripe tree t (testing hook).
func (s *Session) Tree(t int) *overlay.Tree { return s.trees[t] }

// Run executes the whole session and returns its results.
func (s *Session) Run() (Result, error) {
	s.prePopulate()
	s.scheduleNextArrival()
	if err := s.sim.Run(s.Horizon()); err != nil {
		return Result{}, fmt.Errorf("multitree: simulation failed: %w", err)
	}
	s.finishAll()
	return s.result(), nil
}

// stripeBandwidth returns the forwarding bandwidth participant p offers to
// stripe tree t under the configured contribution policy.
func (s *Session) stripeBandwidth(p *participant, t int) float64 {
	switch s.cfg.Contribution {
	case DisjointContribution:
		if t == p.designated {
			return p.bandwidth
		}
		return 0
	default:
		return p.bandwidth / float64(s.cfg.Stripes)
	}
}

// newParticipant creates the member and its per-tree nodes.
func (s *Session) newParticipant(now time.Duration) *participant {
	p := &participant{
		id:          s.nextID,
		attach:      s.topo.RandomStub(s.placeRng),
		bandwidth:   s.cfg.Bandwidth.Sample(s.bwRng),
		joined:      now,
		viewStart:   now,
		residual:    s.residualRng.Float64() * 9,
		watermark:   make([]int64, s.cfg.Stripes),
		outageUntil: make([]time.Duration, s.cfg.Stripes),
		nodes:       make([]*overlay.Member, s.cfg.Stripes),
	}
	for i := range p.watermark {
		p.watermark[i] = -1
	}
	s.nextID++
	p.designated = int(p.id) % s.cfg.Stripes
	s.participants[p.id] = p
	return p
}

// joinAll attaches the participant to every stripe tree (retrying saturated
// trees later).
func (s *Session) joinAll(p *participant, now time.Duration) {
	for t := 0; t < s.cfg.Stripes; t++ {
		s.joinTree(p, t, now)
	}
}

func (s *Session) joinTree(p *participant, t int, now time.Duration) {
	if s.participants[p.id] == nil {
		return // departed before the retry fired
	}
	if p.nodes[t] == nil {
		m := s.trees[t].NewMember(p.attach, s.stripeBandwidth(p, t), p.joined)
		m.JoinTime = p.joined
		p.nodes[t] = m
		s.byNode[t][m.ID] = p
	}
	m := p.nodes[t]
	if m.Attached() {
		return
	}
	if err := s.joins[t].Join(s.trees[t], m, now); err != nil {
		if errors.Is(err, construct.ErrNoParent) {
			s.sim.Lane(5 * time.Second).Schedule(func(sim *eventsim.Simulator) {
				s.joinTree(p, t, sim.Now())
			})
			return
		}
		panic(fmt.Sprintf("multitree: join: %v", err))
	}
	if s.rosts[t] != nil {
		s.rosts[t].start(s.sim, m)
	}
}

func (s *Session) scheduleNextArrival() {
	gap := s.arrivalGap.SampleDuration(s.arrivalRng)
	s.sim.ScheduleAfter(gap, func(sim *eventsim.Simulator) {
		s.arrive(sim)
		s.scheduleNextArrival()
	})
}

func (s *Session) arrive(sim *eventsim.Simulator) {
	p := s.newParticipant(sim.Now())
	life := time.Duration(s.cfg.Lifetime.Sample(s.lifetimeRng) * float64(time.Second))
	id := p.id
	sim.ScheduleAfter(life, func(next *eventsim.Simulator) {
		s.depart(next, id)
	})
	s.joinAll(p, sim.Now())
}

// prePopulate replays an arrival history over [-SessionAge, 0), as the
// single-tree churn driver does.
func (s *Session) prePopulate() {
	t0 := s.cfg.SessionAge.Seconds()
	arrivals := int(s.arrivalGap.Rate*t0 + 0.5)
	type seed struct {
		age      time.Duration
		residual time.Duration
	}
	var seeds []seed
	for i := 0; i < arrivals; i++ {
		age := s.lifetimeRng.Float64() * t0
		life := s.cfg.Lifetime.Sample(s.lifetimeRng)
		if life <= age {
			continue
		}
		seeds = append(seeds, seed{
			age:      time.Duration(age * float64(time.Second)),
			residual: time.Duration((life - age) * float64(time.Second)),
		})
	}
	// Oldest first, inside a time-zero event so joins see a live simulator.
	for i := 1; i < len(seeds); i++ {
		for j := i; j > 0 && seeds[j].age > seeds[j-1].age; j-- {
			seeds[j], seeds[j-1] = seeds[j-1], seeds[j]
		}
	}
	s.sim.Schedule(0, func(sim *eventsim.Simulator) {
		for _, sd := range seeds {
			p := s.newParticipant(0)
			p.joined = -sd.age
			p.viewStart = 0
			id := p.id
			sim.ScheduleAfter(sd.residual, func(next *eventsim.Simulator) {
				s.depart(next, id)
			})
			s.joinAll(p, 0)
		}
	})
}

// depart removes the participant from every tree, running per-stripe CER
// episodes for the subtrees it disrupts.
func (s *Session) depart(sim *eventsim.Simulator, id int64) {
	p := s.participants[id]
	if p == nil {
		return
	}
	now := sim.Now()
	blast := 0
	for t := 0; t < s.cfg.Stripes; t++ {
		if m := p.nodes[t]; m != nil && m.Attached() && m.NumChildren() > 0 {
			blast++
		}
	}
	if blast > s.maxBlastRadius {
		s.maxBlastRadius = blast
	}
	for t := 0; t < s.cfg.Stripes; t++ {
		m := p.nodes[t]
		if m == nil {
			continue
		}
		if m.Attached() && m.NumChildren() > 0 {
			s.onStripeFailure(t, m, now)
		}
		ancestors := s.trees[t].Ancestors(m)
		orphans, err := s.trees[t].Remove(m)
		if err != nil {
			panic(fmt.Sprintf("multitree: remove: %v", err))
		}
		delete(s.byNode[t], m.ID)
		for _, o := range orphans {
			s.rejoinOrphan(t, o, ancestors, now)
		}
	}
	delete(s.participants, id)
	s.finishParticipant(p, now)
}

func (s *Session) rejoinOrphan(t int, o *overlay.Member, ancestors []*overlay.Member, now time.Duration) {
	for _, a := range ancestors {
		if s.trees[t].Member(a.ID) == a && a.Attached() && a.HasSpare() {
			if err := s.trees[t].Attach(o, a); err == nil {
				return
			}
		}
	}
	op := s.byNode[t][o.ID]
	if op == nil {
		return
	}
	s.joinTree(op, t, now)
}

// onStripeFailure runs the CER episode for one stripe subtree.
func (s *Session) onStripeFailure(t int, failed *overlay.Member, now time.Duration) {
	outageEnd := now + s.cfg.DetectDelay + s.cfg.RejoinDelay
	// Phase 1: mark outages.
	for _, c := range failed.Children() {
		s.trees[t].VisitSubtree(c, func(d *overlay.Member) {
			if p := s.byNode[t][d.ID]; p != nil && p.outageUntil[t] < outageEnd {
				p.outageUntil[t] = outageEnd
			}
		})
	}
	// Phase 2: per-orphan recovery.
	stripeRate := s.cfg.Rate / float64(s.cfg.Stripes)
	for _, c := range failed.Children() {
		s.Episodes++
		s.treeEpisodes[t]++
		if s.byNode[t][c.ID] == nil {
			continue
		}
		first := s.stripePacketAfter(t, now)
		last := s.stripePacketAfter(t, outageEnd) - 1
		if last < first {
			continue
		}
		arrivals := s.planRecovery(t, c, first, last, now+s.cfg.DetectDelay, outageEnd, stripeRate)
		s.applyEpisode(t, c, first, last, arrivals, now)
	}
}

// Stripe packet numbering: stripe t carries global packets n with
// n mod T == t; we index stripe packets by k where n = k*T + t.
func (s *Session) stripeGen(t int, k int64) time.Duration {
	n := k*int64(s.cfg.Stripes) + int64(t)
	return time.Duration(float64(n) / s.cfg.Rate * float64(time.Second))
}

func (s *Session) stripePacketAfter(t int, at time.Duration) int64 {
	k := int64(at.Seconds() * s.cfg.Rate / float64(s.cfg.Stripes))
	for s.stripeGen(t, k) < at {
		k++
	}
	for k > 0 && s.stripeGen(t, k-1) >= at {
		k--
	}
	return k
}

// recoveryGroupSize is the CER recovery group size K of every stripe episode.
const recoveryGroupSize = 3

// planRecovery selects an MLC group in stripe tree t and plans repairs.
// Members of OTHER stripe trees are natural low-correlation helpers, so the
// group is drawn from the same participant population but checked for
// health on this stripe.
func (s *Session) planRecovery(t int, c *overlay.Member, first, last int64, requestAt, resumeAt time.Duration, stripeRate float64) []time.Duration {
	group := s.selectors[t].Select(c, recoveryGroupSize)
	servers := cer.AppendServers(s.serverBuf[:0], c, group, s.topo.Delay, func(g *overlay.Member) (float64, bool) {
		gp := s.byNode[t][g.ID]
		if gp == nil || gp.outageUntil[t] > requestAt {
			return 0, false
		}
		return gp.residual / float64(s.cfg.Stripes) / stripeRate, true
	})
	s.serverBuf = servers
	s.arrivalBuf = cer.PlanRecoveryInto(cer.Episode{
		FirstMissing: first,
		LastMissing:  last,
		RequestAt:    requestAt,
		ResumeAt:     resumeAt,
		Rate:         stripeRate,
		Gen:          func(k int64) time.Duration { return s.stripeGen(t, k) },
		Striped:      true,
	}, servers, s.arrivalBuf)
	return s.arrivalBuf
}

// applyEpisode folds the plan into every affected participant's per-slot
// quality accounting. A playback slot of duration Stripes/Rate seconds needs
// all T stripe packets; we charge the affected stripe's misses.
func (s *Session) applyEpisode(t int, c *overlay.Member, first, last int64, arrivals []time.Duration, failedAt time.Duration) {
	s.trees[t].VisitSubtree(c, func(d *overlay.Member) {
		p := s.byNode[t][d.ID]
		if p == nil || p.viewStart > failedAt {
			return
		}
		hop := time.Duration(0)
		if d != c {
			hop = s.topo.Delay(c.Attach, d.Attach)
		}
		from := first
		if p.watermark[t]+1 > from {
			from = p.watermark[t] + 1
		}
		for k := from; k <= last; k++ {
			deadline := s.stripeGen(t, k) + s.cfg.Buffer
			arrival := arrivals[k-first]
			if arrival < 0 || arrival+hop > deadline {
				p.badSlots++ // this stripe's packet misses its slot
				if s.inMeasurement(deadline) {
					s.Disruptions++
				}
			}
		}
		if last > p.watermark[t] {
			p.watermark[t] = last
		}
	})
}

func (s *Session) inMeasurement(at time.Duration) bool {
	return at >= s.measureFrom && at <= s.measureTo
}

// finishParticipant converts a participant's slot accounting into quality
// ratios. Slots are stripe-packet slots: view seconds * rate / stripes per
// stripe; a missed stripe packet degrades quality, and degradation beyond
// the MDC quorum is an outage.
func (s *Session) finishParticipant(p *participant, now time.Duration) {
	view := now - p.viewStart
	if view < 30*time.Second || now < s.measureFrom {
		return
	}
	// Total stripe-packet opportunities during the view.
	total := view.Seconds() * s.cfg.Rate
	if total <= 0 {
		return
	}
	missed := float64(p.badSlots)
	if missed > total {
		missed = total
	}
	missFrac := missed / total
	// With T stripes and an MDC quorum of Q, the coding absorbs up to
	// (T-Q)/T of the stripe packets; only losses beyond that slack pull the
	// playback below watchable quality. (With Q = T the slack is zero and
	// the outage ratio reduces to the single-tree starving-time ratio.)
	codingSlack := 1 - float64(s.cfg.QuorumStripes)/float64(s.cfg.Stripes)
	outage := missFrac - codingSlack
	if outage < 0 {
		outage = 0
	}
	s.fullRatios = append(s.fullRatios, 1-missFrac)
	s.outageRatios = append(s.outageRatios, outage)
}

func (s *Session) finishAll() {
	now := s.sim.Now()
	// Deterministic order: map iteration would reorder the float sums.
	ids := make([]int64, 0, len(s.participants))
	for id := range s.participants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s.finishParticipant(s.participants[id], now)
		delete(s.participants, id)
	}
}

// Result summarises a multi-tree run.
type Result struct {
	// FullQualityRatio is the mean fraction of stripe packets delivered on
	// schedule (1 = every stripe of every slot on time).
	FullQualityRatio float64
	// OutageRatio is the mean fraction of view time below the MDC quorum —
	// the multi-tree analogue of the starving-time ratio.
	OutageRatio float64
	// Members contributed quality samples.
	Members int
	// Episodes and Disruptions report recovery activity.
	Episodes    int
	Disruptions int
	// MaxDepths reports each stripe tree's final height.
	MaxDepths []int
	// TreeEpisodes splits Episodes by stripe tree; it sums to Episodes.
	TreeEpisodes []int
	// MaxBlastRadius is the most stripe trees any single member failure
	// disrupted; DisjointContribution's interior-disjointness bounds it at 1.
	MaxBlastRadius int
}

func (s *Session) result() Result {
	res := Result{
		FullQualityRatio: stats.Mean(s.fullRatios),
		OutageRatio:      stats.Mean(s.outageRatios),
		Members:          len(s.fullRatios),
		Episodes:         s.Episodes,
		Disruptions:      s.Disruptions,
		TreeEpisodes:     slices.Clone(s.treeEpisodes),
		MaxBlastRadius:   s.maxBlastRadius,
	}
	for _, tree := range s.trees {
		res.MaxDepths = append(res.MaxDepths, tree.MaxDepth())
	}
	return res
}

// survivalIntegral mirrors the churn driver's rate calibration.
func survivalIntegral(life xrand.Lognormal, horizon time.Duration) float64 {
	const steps = 2000
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
