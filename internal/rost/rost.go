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
	// root is the source's slot.
	root int32

	// onCheck, onComplete and onRetry are the protocol's three timer
	// handlers, bound once in New. A switching check (and its lock back-off)
	// and a displaced member's join retry carry the member's Ref in the
	// event's argument, a switch completion the index of its record in ops.
	onCheck, onComplete, onRetry eventsim.Handler
	// ops holds the switches in flight; a finished record's index goes on
	// freeOps for the next switch, which reuses its lock-set buffer.
	ops     []switchOp
	freeOps []int32
	// siblings, children and rehome are performExchange's scratch.
	siblings, children, rehome []int32

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
		root:          tree.Root().Slot(),
	}
	p.onCheck, p.onComplete, p.onRetry = p.check, p.completeSwitch, p.retry
	return p
}

// switchOp is one switch in flight, from initiation to completion: its lock
// operation, the initiator's and its parent's Refs, its span (nil untraced)
// and the slots it holds locked.
type switchOp struct {
	op        int64
	m, parent int64
	span      *tracing.SpanBuilder
	lockSet   []int32
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
// the protocol's one check handler with the member's Ref as its argument, so
// arming it allocates nothing. Both delays it is armed with (the switch
// interval and the lock back-off) are per-session constants, so the timer
// rides the kernel's FIFO lane for that delay: one periodic timer per member
// is most of a large run's queue, so the switch-interval lane is reserved for
// the tree's reservation (Tree.Reserved) and fills without regrowing.
func (p *Protocol) Start(sim *eventsim.Simulator, m *overlay.Member) {
	lane := sim.Lane(p.cfg.SwitchInterval)
	lane.Grow(p.tree.Reserved())
	lane.Schedule(p.onCheck, p.tree.Ref(m.Slot()))
}

// check runs one switching-interval comparison for the member arg refers to,
// if it is still alive. A departed member's Ref no longer resolves, even once
// a new member holds its slot, so its timer chain dies.
func (p *Protocol) check(sim *eventsim.Simulator, arg int64) {
	i := p.tree.Resolve(arg)
	if i < 0 {
		return
	}
	switch p.tryInitiateSwitch(sim, i, arg) {
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

// shouldSwitch evaluates ShouldSwitch for the live member in slot i against
// its parent. The source is never displaced (its BTP is infinite by
// definition), so a member whose parent is the source never switches; the
// no-bandwidth-guard ablation compares i's bandwidth with itself.
func (p *Protocol) shouldSwitch(v *overlay.SlotView, i int32, now time.Duration) bool {
	parent := v.Parent(i)
	if parent < 0 || parent == p.root || !v.Attached(i) {
		return false
	}
	bw, parentBW := v.Bandwidth(i), v.Bandwidth(parent)
	if p.cfg.DisableBandwidthGuard {
		parentBW = bw
	}
	return ShouldSwitch(bw, v.BTP(i, now), parentBW, v.BTP(parent, now))
}

// tryInitiateSwitch checks the switching condition for the member in slot i,
// whose Ref is ref, and, when met, locks the relevant node set into a switch
// record and schedules the actual exchange, the record's index its argument,
// after the switch latency.
func (p *Protocol) tryInitiateSwitch(sim *eventsim.Simulator, i int32, ref int64) switchOutcome {
	now, v := sim.Now(), p.tree.SlotView()
	if !p.shouldSwitch(&v, i, now) {
		return switchNotNeeded
	}
	parent := v.Parent(i)
	k := p.newOp()
	op := &p.ops[k]
	op.lockSet = appendLockSet(&v, op.lockSet, i, parent)
	p.nextOp++
	if !p.tree.Lock(p.nextOp, op.lockSet...) {
		p.freeOp(k)
		p.cfg.Trace.Start(tracing.KindSwitch, int64(v.Member(i).ID), now).
			AttrInt("parent", int64(v.Member(parent).ID)).End(now, "lock-backoff")
		return switchBlocked
	}
	op.op, op.m, op.parent = p.nextOp, ref, p.tree.Ref(parent)
	op.span = p.cfg.Trace.Start(tracing.KindSwitch, int64(v.Member(i).ID), now).
		AttrInt("parent", int64(v.Member(parent).ID)).AttrInt("depth", int64(v.Depth(i)))
	sim.Lane(p.switchLatency).Schedule(p.onComplete, int64(k))
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

// freeOp returns switch record i for reuse, keeping its lock-set buffer.
func (p *Protocol) freeOp(i int32) {
	op := &p.ops[i]
	op.lockSet, op.span = op.lockSet[:0], nil
	p.freeOps = append(p.freeOps, i)
}

// appendLockSet empties set and gathers into it the slots a switch must hold:
// the initiator m and its siblings (all of parent's children), the parent,
// the grandparent and all of m's children. Lock and Unlock treat the set as a
// set, so its order is immaterial.
func appendLockSet(v *overlay.SlotView, set []int32, m, parent int32) []int32 {
	set = append(v.AppendChildren(set[:0], parent), parent, v.Parent(parent))
	return v.AppendChildren(set, m)
}

// completeSwitch performs the structural exchange of the switch whose record
// index is arg once the coordination latency has elapsed, re-validating that
// the locked neighbourhood is still what the initiator saw (members may have
// failed in the meantime, and new ones taken their slots).
func (p *Protocol) completeSwitch(sim *eventsim.Simulator, arg int64) {
	k := int32(arg)
	op := p.ops[k]
	defer func() {
		p.tree.Unlock(op.op, op.lockSet...)
		p.freeOp(k)
	}()
	m, parent := p.tree.Resolve(op.m), p.tree.Resolve(op.parent)
	v := p.tree.SlotView()
	valid := m >= 0 && parent >= 0 && v.Attached(m) && v.Attached(parent) &&
		v.Parent(m) == parent && v.Parent(parent) >= 0
	if valid && !p.shouldSwitch(&v, m, sim.Now()) {
		valid = false // condition evaporated (e.g. ages shifted after a rejoin)
	}
	sp := op.span
	if !valid {
		p.Aborted++
		sp.End(sim.Now(), "aborted")
		if m >= 0 {
			sim.Lane(p.cfg.SwitchInterval).Schedule(p.onCheck, op.m)
		}
		return
	}
	if err := p.performExchange(sim, &v, m, parent); err != nil {
		// The pre-validated exchange cannot fail structurally; if it does,
		// surface loudly in development but keep the overlay consistent.
		panic(fmt.Sprintf("rost: exchange invariant broken: %v", err))
	}
	p.Switches++
	p.promDepth.Observe(float64(v.Depth(m)))
	sp.End(sim.Now(), "switched")
	sim.Lane(p.cfg.SwitchInterval).Schedule(p.onCheck, op.m)
}

// performExchange swaps the member in slot m with its parent following
// Figure 2, over the protocol's scratch. Joins neither add nor grow slots, so
// v stays valid throughout.
func (p *Protocol) performExchange(sim *eventsim.Simulator, v *overlay.SlotView, m, parent int32) error {
	now := sim.Now()
	grand := v.Parent(parent)
	p.siblings = slices.DeleteFunc(v.AppendChildren(p.siblings[:0], parent), func(s int32) bool { return s == m })
	p.children = v.AppendChildren(p.children[:0], m)
	siblings, childrenOfM := p.siblings, p.children

	// Dismantle the neighbourhood. Detached members keep their subtrees.
	for _, c := range childrenOfM {
		if err := p.tree.Detach(c); err != nil {
			return fmt.Errorf("detach child in slot %d: %w", c, err)
		}
	}
	for _, s := range siblings {
		if err := p.tree.Detach(s); err != nil {
			return fmt.Errorf("detach sibling in slot %d: %w", s, err)
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
		if v.HasSpare(m) {
			if err := p.tree.Attach(n, m); err != nil {
				return fmt.Errorf("re-adopt slot %d under promoted node: %w", n, err)
			}
			continue
		}
		if err := p.join.Join(p.tree, v.Member(n), now); err != nil {
			p.retryJoin(sim, n)
		}
	}
	// m's former children go to the demoted parent, smallest BTP first; the
	// largest-BTP overflow reconnects up to m (Figure 2 keeps f, the largest
	// BTP, on the promoted node). Anyone who fits nowhere rejoins normally.
	// slices.SortFunc runs the same pdqsort as sort.Slice, so equal BTPs
	// keep the order they always had.
	slices.SortFunc(childrenOfM, func(a, b int32) int { return cmp.Compare(v.BTP(a, now), v.BTP(b, now)) })
	for _, c := range childrenOfM {
		p.tree.RecordReconnection(c)
		target := parent
		if !v.Attached(target) || !v.HasSpare(target) {
			target = m
		}
		if v.Attached(target) && v.HasSpare(target) {
			if err := p.tree.Attach(c, target); err != nil {
				return fmt.Errorf("re-adopt child in slot %d: %w", c, err)
			}
			continue
		}
		if err := p.join.Join(p.tree, v.Member(c), now); err != nil {
			// Saturated overlay (vanishingly rare): retry until a slot opens.
			p.retryJoin(sim, c)
			continue
		}
	}
	return nil
}

// retryJoin re-attempts, every construct.DefaultRejoinRetry, the join of the
// member in slot i, which a switch displaced into a saturated overlay.
func (p *Protocol) retryJoin(sim *eventsim.Simulator, i int32) {
	sim.Lane(construct.DefaultRejoinRetry).Schedule(p.onRetry, p.tree.Ref(i))
}

// retry is retryJoin's handler: arg is the displaced member's Ref.
func (p *Protocol) retry(sim *eventsim.Simulator, arg int64) {
	i := p.tree.Resolve(arg)
	if i < 0 {
		return
	}
	v := p.tree.SlotView()
	if v.Attached(i) {
		return
	}
	if err := p.join.Join(p.tree, v.Member(i), sim.Now()); err != nil {
		p.retryJoin(sim, i)
	}
}
