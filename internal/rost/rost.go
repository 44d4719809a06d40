// Package rost implements the paper's primary contribution: the
// Reliability-Oriented Switching Tree (ROST) algorithm (Section 3).
//
// ROST is fully distributed. Members join with the minimum-depth rule
// (sample up to 100 known members, pick the highest parent with spare
// capacity, tie-break by network delay). Every switching interval a member
// compares its Bandwidth-Time Product (BTP = outbound bandwidth x age) with
// its parent's; if its BTP exceeds the parent's and its bandwidth is at
// least the parent's, the two exchange tree positions. Before switching, the
// initiator locks the relevant node set (parent, grandparent, children and
// siblings); if any of them is already engaged in another operation the
// initiator backs off and retries later. The position exchange follows
// Figure 2: the promoted child adopts its former parent and its former
// siblings, the demoted parent adopts the promoted child's children, and if
// the demoted parent lacks capacity the largest-BTP overflow children
// reconnect upward to the promoted node.
//
// The package also implements the Section 3.4 reference-node (referee)
// mechanism in referee.go: trusted third-party age and bandwidth witnesses
// that let a parent verify a child's claimed BTP and reject cheaters.
package rost

import (
	"fmt"
	"sort"
	"time"

	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/tracing"
)

// Defaults from the paper.
const (
	// DefaultSwitchInterval is the default time between switching checks
	// (Section 5 uses 360 s as the default; Figure 11 sweeps 480-1800 s).
	DefaultSwitchInterval = 360 * time.Second
	// DefaultLockBackoff is how long an initiator waits after failing to
	// lock the switch set ("say, 15 seconds").
	DefaultLockBackoff = 15 * time.Second
	// DefaultSwitchLatency models the coordination time of one switch
	// operation (lock messages, state handoff); locks are held for this
	// long, which is what makes the locking protocol observable.
	DefaultSwitchLatency = time.Second
)

// Config parameterises the protocol. A zero SwitchInterval takes
// DefaultSwitchInterval; the lock backoff and the switch latency are always
// DefaultLockBackoff and DefaultSwitchLatency.
type Config struct {
	SwitchInterval time.Duration
	// Referees, when non-nil, enables BTP verification through the referee
	// mechanism before any switch is honoured.
	Referees *Referees
	// SkipVerification keeps referee-supplied claims (including cheaters'
	// inflated ones) but never verifies them — the unprotected control
	// scenario of the Section 3.4 discussion.
	SkipVerification bool
	// ContributorPriority applies the Section 3.2 incentive rule at join
	// time: free-riders (who can never be displaced by switching, being
	// permanent leaves) are parked at the deepest spare position, keeping
	// the high slots for members that contribute forwarding bandwidth.
	ContributorPriority bool
	// DisableBandwidthGuard removes the "child bandwidth >= parent
	// bandwidth" switching precondition (ablation: the paper argues the
	// guard avoids switches that would only be undone later).
	DisableBandwidthGuard bool
	// Trace, if non-nil, records every switch decision as a "switch" span:
	// initiation to commit for started switches (outcomes "switched" or
	// "aborted"), instantaneous spans for refused claims ("rejected") and
	// lock back-offs ("lock-backoff").
	Trace *tracing.Tracer
}

func (c Config) withDefaults() Config {
	if c.SwitchInterval <= 0 {
		c.SwitchInterval = DefaultSwitchInterval
	}
	return c
}

// Protocol drives ROST over one overlay tree inside one simulation. It is
// not safe for concurrent use (the simulation kernel is sequential).
type Protocol struct {
	cfg  Config
	tree *overlay.Tree
	join construct.Strategy
	// switchLatency is how long a started switch holds its locks before it
	// completes (DefaultSwitchLatency).
	switchLatency time.Duration

	nextOp int64
	// onSwitch, when non-nil, observes every completed switch (promoted
	// child, demoted parent) — used for tracing.
	onSwitch func(now time.Duration, promoted, demoted overlay.MemberID)

	// Switches counts completed switch operations.
	Switches int
	// Aborted counts switches abandoned because the neighbourhood changed
	// while locks were held (e.g. the parent failed mid-operation).
	Aborted int
	// LockFailures counts lock acquisitions that had to back off.
	LockFailures int
	// Rejected counts switches refused because referee verification caught
	// an inflated BTP claim.
	Rejected int

	met protocolMetrics
}

// protocolMetrics mirrors the protocol counters into a metrics registry so
// traced runs can watch switching dynamics evolve instead of reading only
// end-of-run totals. All pointers stay nil until Instrument is called.
type protocolMetrics struct {
	switches  *metrics.Counter
	aborts    *metrics.Counter
	backoffs  *metrics.Counter
	rejected  *metrics.Counter
	promDepth *metrics.Histogram
}

// Instrument registers the protocol's instruments on reg.
func (p *Protocol) Instrument(reg *metrics.Registry) {
	p.met = protocolMetrics{
		switches: reg.Counter("omcast_rost_switches_total", "Completed ROST position exchanges."),
		aborts:   reg.Counter("omcast_rost_switch_aborts_total", "Switches abandoned because the locked neighbourhood changed."),
		backoffs: reg.Counter("omcast_rost_lock_backoffs_total", "Switch attempts that backed off on a locked neighbourhood."),
		rejected: reg.Counter("omcast_rost_rejected_claims_total", "Switches refused after referee BTP verification."),
		promDepth: reg.Histogram("omcast_rost_promotion_depth",
			"Tree depth at which completed switches promoted a member.",
			metrics.LogBuckets(1, 64, 7)),
	}
}

// New creates a ROST protocol instance over tree.
func New(tree *overlay.Tree, env *construct.Env, cfg Config) *Protocol {
	var join construct.Strategy = &construct.MinDepth{Env: env}
	if cfg.ContributorPriority {
		join = &construct.ContributorPriority{Env: env, Inner: join}
	}
	return &Protocol{
		cfg:           cfg.withDefaults(),
		tree:          tree,
		join:          join,
		switchLatency: DefaultSwitchLatency,
	}
}

// Name returns the algorithm's display name.
func (p *Protocol) Name() string { return "ROST" }

// SetOnSwitch installs a completed-switch observer (tracing hook).
func (p *Protocol) SetOnSwitch(fn func(now time.Duration, promoted, demoted overlay.MemberID)) {
	p.onSwitch = fn
}

var _ construct.Strategy = (*Protocol)(nil)

// Join implements construct.Strategy using the minimum-depth join rule of
// Section 3.3. New members always start low in the tree (their BTP is zero)
// and climb only by staying and contributing.
func (p *Protocol) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	if err := p.join.Join(tree, m, now); err != nil {
		return err
	}
	if p.cfg.Referees != nil {
		p.cfg.Referees.Enroll(m, now)
	}
	return nil
}

// Start schedules the first switching check for member m. The churn driver
// calls this right after a successful join. The check's handler is built
// here, once per member, and every later check of m re-arms the same one.
// Both delays it is armed with (the switch interval and the lock back-off)
// are per-session constants, so the timer rides the kernel's FIFO lane for
// that delay: one periodic timer per member is most of a large run's queue.
func (p *Protocol) Start(sim *eventsim.Simulator, m *overlay.Member) {
	id := m.ID
	var check eventsim.Handler
	check = func(s *eventsim.Simulator) { p.check(s, id, check) }
	sim.Lane(p.cfg.SwitchInterval).Schedule(check)
}

// check runs one switching-interval comparison for the member with the given
// ID, if it is still alive; again is the member's check handler.
func (p *Protocol) check(sim *eventsim.Simulator, id overlay.MemberID, again eventsim.Handler) {
	m := p.tree.Member(id)
	if m == nil {
		return // departed; let the timer chain die
	}
	switch p.tryInitiateSwitch(sim, m, again) {
	case switchStarted:
		// The completion handler reschedules the periodic check.
	case switchBlocked:
		// Locked neighbourhood: back off and re-check the condition, per
		// Section 3.3.
		p.LockFailures++
		p.met.backoffs.Inc()
		sim.Lane(DefaultLockBackoff).Schedule(again)
	case switchNotNeeded:
		sim.Lane(p.cfg.SwitchInterval).Schedule(again)
	}
}

type switchOutcome int

const (
	switchNotNeeded switchOutcome = iota + 1
	switchBlocked
	switchStarted
)

// shouldSwitch evaluates the BTP switching condition for m against its
// current parent: BTP(m) > BTP(parent) and bandwidth(m) >= bandwidth(parent).
// The source is never displaced (it holds an infinite BTP by definition).
func (p *Protocol) shouldSwitch(m *overlay.Member, now time.Duration) bool {
	parent := m.Parent()
	if parent == nil || parent == p.tree.Root() || !m.Attached() {
		return false
	}
	// The guard compares ADVERTISED bandwidths: without referees lies are
	// undetectable, which is exactly the attack surface Section 3.4 closes.
	bwChild, bwParent := m.Bandwidth, parent.Bandwidth
	if r := p.cfg.Referees; r != nil {
		bwChild, bwParent = r.ClaimedBandwidth(m), r.ClaimedBandwidth(parent)
	}
	if !p.cfg.DisableBandwidthGuard && bwChild < bwParent {
		// Comparing bandwidths first avoids useless switches: a
		// lower-bandwidth child would eventually be overtaken and demoted
		// again.
		return false
	}
	return p.claimedBTP(m, now) > p.claimedBTP(parent, now)
}

// claimedBTP returns the BTP a member advertises. Honest members advertise
// their true BTP; cheaters (see Referees.MarkCheater) inflate it.
func (p *Protocol) claimedBTP(m *overlay.Member, now time.Duration) float64 {
	if r := p.cfg.Referees; r != nil {
		return r.ClaimedBTP(m, now)
	}
	return m.BTP(now)
}

// tryInitiateSwitch checks the switching condition and, when met, locks the
// relevant node set and schedules the actual exchange after the switch
// latency. again is m's check handler, which the completion re-arms.
func (p *Protocol) tryInitiateSwitch(sim *eventsim.Simulator, m *overlay.Member, again eventsim.Handler) switchOutcome {
	now := sim.Now()
	if !p.shouldSwitch(m, now) {
		return switchNotNeeded
	}
	parent := m.Parent()
	// Referee verification: the parent verifies the child's claimed BTP
	// before yielding its position (Section 3.4).
	if r := p.cfg.Referees; r != nil && !p.cfg.SkipVerification {
		if !r.VerifyBTP(m, p.claimedBTP(m, now), now) {
			p.Rejected++
			p.met.rejected.Inc()
			p.cfg.Trace.Start(tracing.KindSwitch, int64(m.ID), now).
				AttrInt("parent", int64(parent.ID)).End(now, "rejected")
			return switchNotNeeded
		}
	}
	grand := parent.Parent()
	if grand == nil {
		return switchNotNeeded // parent is the root; nothing to do
	}
	lockSet := p.lockSet(m, parent, grand)
	p.nextOp++
	op := p.nextOp
	if !p.tree.Lock(op, lockSet...) {
		p.cfg.Trace.Start(tracing.KindSwitch, int64(m.ID), now).
			AttrInt("parent", int64(parent.ID)).End(now, "lock-backoff")
		return switchBlocked
	}
	mID, parentID := m.ID, parent.ID
	sp := p.cfg.Trace.Start(tracing.KindSwitch, int64(m.ID), now).
		AttrInt("parent", int64(parentID)).AttrInt("depth", int64(m.Depth()))
	sim.Lane(p.switchLatency).Schedule(func(s *eventsim.Simulator) {
		p.completeSwitch(s, op, mID, parentID, lockSet, sp, again)
	})
	return switchStarted
}

// lockSet gathers the nodes a switch must hold: the initiator, its parent,
// grandparent, all of its children and all of its siblings.
func (p *Protocol) lockSet(m, parent, grand *overlay.Member) []*overlay.Member {
	set := make([]*overlay.Member, 0, 3+m.NumChildren()+parent.NumChildren())
	set = append(set, m, parent, grand)
	m.VisitChildren(func(c *overlay.Member) { set = append(set, c) })
	parent.VisitChildren(func(s *overlay.Member) {
		if s != m {
			set = append(set, s)
		}
	})
	return set
}

// completeSwitch performs the structural exchange once the coordination
// latency has elapsed, re-validating that the locked neighbourhood is still
// what the initiator saw (members may have failed in the meantime).
func (p *Protocol) completeSwitch(sim *eventsim.Simulator, op int64, mID, parentID overlay.MemberID, lockSet []*overlay.Member, sp *tracing.SpanBuilder, again eventsim.Handler) {
	defer p.tree.Unlock(op, lockSet...)
	m := p.tree.Member(mID)
	parent := p.tree.Member(parentID)
	valid := m != nil && parent != nil && m.Attached() && parent.Attached() &&
		m.Parent() == parent && parent.Parent() != nil
	if valid && !p.shouldSwitch(m, sim.Now()) {
		valid = false // condition evaporated (e.g. ages shifted after a rejoin)
	}
	if !valid {
		p.Aborted++
		p.met.aborts.Inc()
		sp.End(sim.Now(), "aborted")
		if m != nil {
			sim.Lane(p.cfg.SwitchInterval).Schedule(again)
		}
		return
	}
	if err := p.performExchange(sim, m, parent); err != nil {
		// The pre-validated exchange cannot fail structurally; if it does,
		// surface loudly in development but keep the overlay consistent.
		panic(fmt.Sprintf("rost: exchange invariant broken: %v", err))
	}
	p.Switches++
	p.met.switches.Inc()
	p.met.promDepth.Observe(float64(m.Depth()))
	sp.End(sim.Now(), "switched")
	if p.onSwitch != nil {
		p.onSwitch(sim.Now(), m.ID, parent.ID)
	}
	sim.Lane(p.cfg.SwitchInterval).Schedule(again)
}

// performExchange swaps m with its parent following Figure 2.
func (p *Protocol) performExchange(sim *eventsim.Simulator, m, parent *overlay.Member) error {
	now := sim.Now()
	grand := parent.Parent()
	siblings := make([]*overlay.Member, 0, parent.NumChildren()-1)
	parent.VisitChildren(func(s *overlay.Member) {
		if s != m {
			siblings = append(siblings, s)
		}
	})
	childrenOfM := m.Children()

	// Dismantle the neighbourhood. Detached members keep their subtrees.
	for _, c := range childrenOfM {
		if err := p.tree.Detach(c); err != nil {
			return fmt.Errorf("detach child %d: %w", c.ID, err)
		}
	}
	for _, s := range siblings {
		if err := p.tree.Detach(s); err != nil {
			return fmt.Errorf("detach sibling %d: %w", s.ID, err)
		}
	}
	if err := p.tree.Detach(m); err != nil {
		return fmt.Errorf("detach initiator: %w", err)
	}
	if err := p.tree.Detach(parent); err != nil {
		return fmt.Errorf("detach parent: %w", err)
	}

	// Rebuild: m under the grandparent, parent and former siblings under m.
	// With the bandwidth guard active m always has capacity for all of them
	// (its degree is at least its former parent's); without the guard
	// (ablation) the leftovers rejoin through the normal procedure.
	if err := p.tree.Attach(m, grand); err != nil {
		return fmt.Errorf("promote initiator: %w", err)
	}
	m.Reconnections++
	rehome := make([]*overlay.Member, 0, 1+len(siblings))
	rehome = append(rehome, parent)
	rehome = append(rehome, siblings...)
	for _, n := range rehome {
		n.Reconnections++
		if m.HasSpare() {
			if err := p.tree.Attach(n, m); err != nil {
				return fmt.Errorf("re-adopt %d under promoted node: %w", n.ID, err)
			}
			continue
		}
		if err := p.join.Join(p.tree, n, now); err != nil {
			p.retryJoin(sim, n.ID)
		}
	}
	// m's former children go to the demoted parent, smallest BTP first; the
	// largest-BTP overflow reconnects up to m (Figure 2 keeps f, the largest
	// BTP, on the promoted node). Anyone who fits nowhere rejoins normally.
	sort.Slice(childrenOfM, func(i, j int) bool {
		return childrenOfM[i].BTP(now) < childrenOfM[j].BTP(now)
	})
	for _, c := range childrenOfM {
		c.Reconnections++
		target := parent
		if !target.Attached() || !target.HasSpare() {
			target = m
		}
		if target.Attached() && target.HasSpare() {
			if err := p.tree.Attach(c, target); err != nil {
				return fmt.Errorf("re-adopt child %d: %w", c.ID, err)
			}
			continue
		}
		if err := p.join.Join(p.tree, c, now); err != nil {
			// Saturated overlay (vanishingly rare): retry until a slot opens.
			p.retryJoin(sim, c.ID)
			continue
		}
	}
	return nil
}

// retryJoin periodically re-attempts a rejoin for a member stranded by a
// saturated overlay.
func (p *Protocol) retryJoin(sim *eventsim.Simulator, id overlay.MemberID) {
	sim.Lane(5 * time.Second).Schedule(func(s *eventsim.Simulator) {
		m := p.tree.Member(id)
		if m == nil || m.Attached() {
			return
		}
		if err := p.join.Join(p.tree, m, s.Now()); err != nil {
			p.retryJoin(s, id)
		}
	})
}
