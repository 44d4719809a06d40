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
package rost

import (
	"cmp"
	"fmt"
	"slices"
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
	// "aborted") and instantaneous spans for lock back-offs ("lock-backoff").
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

	// onCheck, onComplete and onRetry are the protocol's three timer
	// handlers, bound once in New. A switching check (and its lock back-off)
	// and a displaced member's join retry carry the member's ID in the
	// event's argument, a switch completion the index of its record in ops.
	onCheck, onComplete, onRetry eventsim.Handler
	// ops holds the switches in flight; a finished record's index goes on
	// freeOps for the next switch, which reuses its lock-set buffer.
	ops     []switchOp
	freeOps []int32
	// siblings, children and rehome are performExchange's scratch.
	siblings, children, rehome []*overlay.Member

	// Switches counts completed switch operations.
	Switches int
	// Aborted counts switches abandoned because the neighbourhood changed
	// while locks were held (e.g. the parent failed mid-operation).
	Aborted int
	// LockFailures counts lock acquisitions that had to back off.
	LockFailures int
	// Rejected is always zero: the simulator verifies no BTP claims. Only
	// the frozen benchmark module (benchmark/sim.go) reads it.
	Rejected int

	// promDepth is the promotion-depth histogram, nil (a no-op) until
	// Instrument is called.
	promDepth *metrics.Histogram
}

// Instrument registers the protocol's instruments on reg: its three counts,
// read from the fields above, and the promotion-depth histogram.
func (p *Protocol) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("omcast_rost_switches_total", "Completed ROST position exchanges.",
		func() float64 { return float64(p.Switches) })
	reg.CounterFunc("omcast_rost_switch_aborts_total", "Switches abandoned because the locked neighbourhood changed.",
		func() float64 { return float64(p.Aborted) })
	reg.CounterFunc("omcast_rost_lock_backoffs_total", "Switch attempts that backed off on a locked neighbourhood.",
		func() float64 { return float64(p.LockFailures) })
	p.promDepth = reg.Histogram("omcast_rost_promotion_depth",
		"Tree depth at which completed switches promoted a member.",
		metrics.LogBuckets(1, 64, 7))
}

// New creates a ROST protocol instance over tree.
func New(tree *overlay.Tree, env *construct.Env, cfg Config) *Protocol {
	var join construct.Strategy = &construct.MinDepth{Env: env}
	if cfg.ContributorPriority {
		join = &construct.ContributorPriority{Env: env, Inner: join}
	}
	p := &Protocol{
		cfg:           cfg.withDefaults(),
		tree:          tree,
		join:          join,
		switchLatency: DefaultSwitchLatency,
	}
	p.onCheck, p.onComplete, p.onRetry = p.check, p.completeSwitch, p.retry
	return p
}

// switchOp is one switch in flight, from initiation to completion: its lock
// operation, the initiator's and its parent's IDs, its span (nil untraced)
// and the members it holds locked.
type switchOp struct {
	op        int64
	m, parent overlay.MemberID
	span      *tracing.SpanBuilder
	lockSet   []*overlay.Member
}

// Name returns the algorithm's display name.
func (p *Protocol) Name() string { return "ROST" }

var _ construct.Strategy = (*Protocol)(nil)

// Join implements construct.Strategy using the minimum-depth join rule of
// Section 3.3. New members always start low in the tree (their BTP is zero)
// and climb only by staying and contributing.
func (p *Protocol) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	return p.join.Join(tree, m, now)
}

// Start schedules the first switching check for member m. The churn driver
// calls this right after a successful join. Every check of every member is
// the protocol's one check handler with the member's ID as its argument, so
// arming it allocates nothing. Both delays it is armed with (the switch
// interval and the lock back-off) are per-session constants, so the timer
// rides the kernel's FIFO lane for that delay: one periodic timer per member
// is most of a large run's queue, so the switch-interval lane is reserved for
// the tree's reservation (Tree.Reserved) and fills without regrowing.
func (p *Protocol) Start(sim *eventsim.Simulator, m *overlay.Member) {
	lane := sim.Lane(p.cfg.SwitchInterval)
	lane.Grow(p.tree.Reserved())
	lane.Schedule(p.onCheck, int64(m.ID))
}

// check runs one switching-interval comparison for the member whose ID is
// arg, if it is still alive. IDs are never reused, so a departed member's
// check finds no member and its timer chain dies.
func (p *Protocol) check(sim *eventsim.Simulator, arg int64) {
	m := p.tree.Member(overlay.MemberID(arg))
	if m == nil {
		return
	}
	switch p.tryInitiateSwitch(sim, m) {
	case switchStarted:
		// The completion handler reschedules the periodic check.
	case switchBlocked:
		// Locked neighbourhood: back off and re-check the condition, per
		// Section 3.3.
		p.LockFailures++
		sim.Lane(DefaultLockBackoff).Schedule(p.onCheck, arg)
	case switchNotNeeded:
		sim.Lane(p.cfg.SwitchInterval).Schedule(p.onCheck, arg)
	}
}

type switchOutcome int

const (
	switchNotNeeded switchOutcome = iota + 1
	switchBlocked
	switchStarted
)

// ShouldSwitch is ROST's switching condition (§3.3), for the simulator and
// the live node alike: the member's BTP exceeds its parent's and its
// bandwidth is at least the parent's (a lower-bandwidth child would
// eventually be overtaken and demoted again).
func ShouldSwitch(bw, btp, parentBW, parentBTP float64) bool {
	return bw >= parentBW && btp > parentBTP
}

// shouldSwitch evaluates ShouldSwitch for the live member m against its
// parent off the slot arrays. The source is never displaced (its BTP is
// infinite by definition); the no-bandwidth-guard ablation compares m's
// bandwidth with itself.
func (p *Protocol) shouldSwitch(m *overlay.Member, now time.Duration) bool {
	v, i := p.tree.SlotView(), int32(m.Slot())
	parent := v.Parent(i)
	if parent < 0 || parent == int32(p.tree.Root().Slot()) || !v.Attached(i) {
		return false
	}
	bw, parentBW := v.Bandwidth(i), v.Bandwidth(parent)
	if p.cfg.DisableBandwidthGuard {
		parentBW = bw
	}
	return ShouldSwitch(bw, v.BTP(i, now), parentBW, v.BTP(parent, now))
}

// tryInitiateSwitch checks the switching condition and, when met, locks the
// relevant node set into a switch record and schedules the actual exchange,
// the record's index its argument, after the switch latency.
func (p *Protocol) tryInitiateSwitch(sim *eventsim.Simulator, m *overlay.Member) switchOutcome {
	now := sim.Now()
	if !p.shouldSwitch(m, now) {
		return switchNotNeeded
	}
	parent := m.Parent()
	grand := parent.Parent()
	if grand == nil {
		return switchNotNeeded // parent is the root; nothing to do
	}
	i := p.newOp()
	op := &p.ops[i]
	op.lockSet = appendLockSet(op.lockSet, m, parent, grand)
	p.nextOp++
	if !p.tree.Lock(p.nextOp, op.lockSet...) {
		p.freeOp(i)
		p.cfg.Trace.Start(tracing.KindSwitch, int64(m.ID), now).
			AttrInt("parent", int64(parent.ID)).End(now, "lock-backoff")
		return switchBlocked
	}
	op.op, op.m, op.parent = p.nextOp, m.ID, parent.ID
	op.span = p.cfg.Trace.Start(tracing.KindSwitch, int64(m.ID), now).
		AttrInt("parent", int64(parent.ID)).AttrInt("depth", int64(m.Depth()))
	sim.Lane(p.switchLatency).Schedule(p.onComplete, int64(i))
	return switchStarted
}

// newOp returns the index of an unused switch record: a finished one if any,
// else a new one.
func (p *Protocol) newOp() int32 {
	if n := len(p.freeOps); n > 0 {
		i := p.freeOps[n-1]
		p.freeOps = p.freeOps[:n-1]
		return i
	}
	p.ops = append(p.ops, switchOp{})
	return int32(len(p.ops) - 1)
}

// freeOp returns switch record i for reuse. Its lock-set buffer is kept,
// emptied, and cleared so it pins no departed member's handle.
func (p *Protocol) freeOp(i int32) {
	op := &p.ops[i]
	clear(op.lockSet)
	op.lockSet, op.span = op.lockSet[:0], nil
	p.freeOps = append(p.freeOps, i)
}

// appendLockSet empties set and gathers into it the nodes a switch must hold:
// the initiator, its parent, grandparent, all of its children and all of its
// siblings.
func appendLockSet(set []*overlay.Member, m, parent, grand *overlay.Member) []*overlay.Member {
	set = append(set[:0], m, parent, grand)
	set = m.AppendChildren(set)
	parent.VisitChildren(func(s *overlay.Member) {
		if s != m {
			set = append(set, s)
		}
	})
	return set
}

// completeSwitch performs the structural exchange of the switch whose record
// index is arg once the coordination latency has elapsed, re-validating that
// the locked neighbourhood is still what the initiator saw (members may have
// failed in the meantime).
func (p *Protocol) completeSwitch(sim *eventsim.Simulator, arg int64) {
	i := int32(arg)
	op := p.ops[i]
	defer func() {
		p.tree.Unlock(op.op, op.lockSet...)
		p.freeOp(i)
	}()
	m := p.tree.Member(op.m)
	parent := p.tree.Member(op.parent)
	valid := m != nil && parent != nil && m.Attached() && parent.Attached() &&
		m.Parent() == parent && parent.Parent() != nil
	if valid && !p.shouldSwitch(m, sim.Now()) {
		valid = false // condition evaporated (e.g. ages shifted after a rejoin)
	}
	sp := op.span
	if !valid {
		p.Aborted++
		sp.End(sim.Now(), "aborted")
		if m != nil {
			sim.Lane(p.cfg.SwitchInterval).Schedule(p.onCheck, int64(op.m))
		}
		return
	}
	if err := p.performExchange(sim, m, parent); err != nil {
		// The pre-validated exchange cannot fail structurally; if it does,
		// surface loudly in development but keep the overlay consistent.
		panic(fmt.Sprintf("rost: exchange invariant broken: %v", err))
	}
	p.Switches++
	p.promDepth.Observe(float64(m.Depth()))
	sp.End(sim.Now(), "switched")
	sim.Lane(p.cfg.SwitchInterval).Schedule(p.onCheck, int64(op.m))
}

// performExchange swaps m with its parent following Figure 2, over the
// protocol's scratch.
func (p *Protocol) performExchange(sim *eventsim.Simulator, m, parent *overlay.Member) error {
	now := sim.Now()
	grand := parent.Parent()
	p.siblings = slices.DeleteFunc(parent.AppendChildren(p.siblings[:0]), func(s *overlay.Member) bool { return s == m })
	p.children = m.AppendChildren(p.children[:0])
	siblings, childrenOfM := p.siblings, p.children

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
	p.tree.RecordReconnection(m)
	p.rehome = append(append(p.rehome[:0], parent), siblings...)
	for _, n := range p.rehome {
		p.tree.RecordReconnection(n)
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
	// slices.SortFunc runs the same pdqsort as sort.Slice, so equal BTPs
	// keep the order they always had.
	slices.SortFunc(childrenOfM, func(a, b *overlay.Member) int { return cmp.Compare(a.BTP(now), b.BTP(now)) })
	for _, c := range childrenOfM {
		p.tree.RecordReconnection(c)
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

// retryJoin re-attempts, every construct.DefaultRejoinRetry, the join of a
// member a switch displaced into a saturated overlay.
func (p *Protocol) retryJoin(sim *eventsim.Simulator, id overlay.MemberID) {
	sim.Lane(construct.DefaultRejoinRetry).Schedule(p.onRetry, int64(id))
}

// retry is retryJoin's handler: arg is the displaced member's ID.
func (p *Protocol) retry(sim *eventsim.Simulator, arg int64) {
	m := p.tree.Member(overlay.MemberID(arg))
	if m == nil || m.Attached() {
		return
	}
	if err := p.join.Join(p.tree, m, sim.Now()); err != nil {
		p.retryJoin(sim, m.ID)
	}
}
