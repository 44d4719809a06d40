package rost

import (
	"testing"
	"time"

	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

func testEnv(seed int64) *construct.Env {
	return &construct.Env{
		Rng: xrand.New(seed),
		Delay: func(a, b topology.NodeID) time.Duration {
			if a == b {
				return 0
			}
			return time.Millisecond
		},
		CandidateCount: 100,
	}
}

type fixture struct {
	sim  *eventsim.Simulator
	tree *overlay.Tree
	env  *construct.Env
	p    *Protocol
}

func newFixture(t *testing.T, rootDegree float64, cfg Config) *fixture {
	t.Helper()
	env := testEnv(1)
	tree, err := overlay.NewTree(0, rootDegree, env.Delay)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return &fixture{
		sim:  eventsim.New(),
		tree: tree,
		env:  env,
		p:    New(tree, env, cfg),
	}
}

// joinAt attaches a member at a given simulated time (advancing the clock by
// scheduling the join as an event and running up to it).
func (f *fixture) joinAt(t *testing.T, at time.Duration, attach topology.NodeID, bw float64) *overlay.Member {
	t.Helper()
	var m *overlay.Member
	f.sim.Schedule(at, func(s *eventsim.Simulator, _ int64) {
		m = f.tree.NewMember(attach, bw, s.Now())
		if err := f.p.Join(f.tree, m, s.Now()); err != nil {
			t.Errorf("join at %v: %v", at, err)
			return
		}
		f.p.Start(s, m)
	}, 0)
	if err := f.sim.Run(at); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

// view returns a fresh SlotView of the fixture's tree.
func (f *fixture) view() *overlay.SlotView {
	v := f.tree.SlotView()
	return &v
}

// locked reports whether a switch holds m's lock: an operation no switch
// uses can lock m only if nobody holds it.
func (f *fixture) locked(m *overlay.Member) bool {
	const probe = -1
	if !f.tree.Lock(probe, m.Slot()) {
		return true
	}
	f.tree.Unlock(probe, m.Slot())
	return false
}

func (f *fixture) runUntil(t *testing.T, at time.Duration) {
	t.Helper()
	if err := f.sim.Run(at); err != nil {
		t.Fatalf("Run(%v): %v", at, err)
	}
	if err := f.tree.CheckInvariantsFull(); err != nil {
		t.Fatalf("invariants at %v: %v", at, err)
	}
}

func TestJoinIsMinDepth(t *testing.T) {
	f := newFixture(t, 2, Config{})
	a := f.joinAt(t, 0, 1, 3)
	b := f.joinAt(t, 0, 2, 3)
	c := f.joinAt(t, 0, 3, 0.5)
	if a.Depth() != 1 || b.Depth() != 1 {
		t.Fatalf("first joiners at depths %d,%d, want 1,1", a.Depth(), b.Depth())
	}
	if c.Depth() != 2 {
		t.Fatalf("third joiner at depth %d, want 2 (root full)", c.Depth())
	}
}

// TestSwitchPromotesHigherBTP reproduces the Figure 2 scenario: a child with
// larger bandwidth eventually exceeds its parent's BTP and they swap.
func TestSwitchPromotesHigherBTP(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 100 * time.Second})
	parent := f.joinAt(t, 0, 1, 2)             // bw 2, root child
	child := f.joinAt(t, 10*time.Second, 2, 6) // bw 6, must land under parent
	if child.Parent() != parent {
		t.Fatalf("setup: child under %d, want %d", child.Parent().ID, parent.ID)
	}
	// BTPs: parent 2t, child 6(t-10). Child exceeds parent at t = 15 s; the
	// first switching check at join+100 s triggers the swap.
	f.runUntil(t, 200*time.Second)
	if child.Parent() != f.tree.Root() {
		t.Fatalf("child not promoted; parent is %d", child.Parent().ID)
	}
	if parent.Parent() != child {
		t.Fatalf("old parent not demoted under child")
	}
	if f.p.Switches != 1 {
		t.Fatalf("Switches = %d, want 1", f.p.Switches)
	}
	if f.view().Reconnections(child.Slot()) == 0 || f.view().Reconnections(parent.Slot()) == 0 {
		t.Fatal("switch did not charge reconnections")
	}
}

// TestNoSwitchWhenBandwidthSmaller checks the bandwidth guard: a child with
// higher BTP but lower bandwidth must not switch (it would be overtaken and
// demoted again later).
func TestNoSwitchWhenBandwidthSmaller(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 50 * time.Second})
	parent := f.joinAt(t, 0, 1, 2)
	// Child joins 1 s later with slightly smaller bandwidth. Its BTP never
	// exceeds the parent's anyway (same growth form), but even a
	// hand-crafted BTP lead must not trigger a switch; emulate the lead by
	// giving the child an earlier join time via direct construction:
	child := f.tree.NewMember(2, 1.9, -1000*time.Second) // enormous age, BTP >> parent's
	if err := f.tree.Attach(child.Slot(), parent.Slot()); err != nil {
		t.Fatal(err)
	}
	f.p.Start(f.sim, child)
	f.runUntil(t, 500*time.Second)
	if child.Parent() != parent {
		t.Fatal("lower-bandwidth child was promoted")
	}
	if f.p.Switches != 0 {
		t.Fatalf("Switches = %d, want 0", f.p.Switches)
	}
}

// TestRootNeverDisplaced: the source holds an infinite BTP.
func TestRootNeverDisplaced(t *testing.T) {
	f := newFixture(t, 5, Config{SwitchInterval: 30 * time.Second})
	m := f.joinAt(t, 0, 1, 100) // bandwidth equal to the root's
	f.runUntil(t, 1000*time.Second)
	if m.Parent() != f.tree.Root() || f.tree.Root().Depth() != 0 {
		t.Fatal("root displaced")
	}
	if f.p.Switches != 0 {
		t.Fatalf("Switches = %d, want 0", f.p.Switches)
	}
}

// TestFigure2ChildOverflow reproduces the overflow rule: when the demoted
// parent cannot hold all of the promoted node's children, the largest-BTP
// child reconnects to the promoted node.
func TestFigure2ChildOverflow(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 1000 * time.Second})
	// a: bandwidth 2 (degree 2) under the root, with children c and b as in
	// Figure 2.
	a := f.joinAt(t, 0, 1, 2)
	c := f.joinAt(t, 5*time.Second, 6, 0.5)
	b := f.joinAt(t, 10*time.Second, 2, 3)
	if b.Parent() != a || c.Parent() != a {
		t.Fatalf("setup: b under %d, c under %d, want a=%d", b.Parent().ID, c.Parent().ID, a.ID)
	}
	// d, e, f: children of b with staggered join times -> distinct BTPs
	// (a is full, so they all land under b).
	fm := f.joinAt(t, 15*time.Second, 5, 0.9) // oldest, largest BTP of the three
	d := f.joinAt(t, 20*time.Second, 3, 0.5)
	e := f.joinAt(t, 30*time.Second, 4, 0.5)
	for _, c := range []*overlay.Member{d, e, fm} {
		if c.Parent() != b {
			t.Fatalf("setup: child %d under %d, want b=%d", c.ID, c.Parent().ID, b.ID)
		}
	}
	// b's BTP (3/s) overtakes a's (2/s) quickly; b's first check is at
	// 10s+1000s.
	f.runUntil(t, 1100*time.Second)
	if b.Parent() != f.tree.Root() {
		t.Fatalf("b not promoted (parent %d)", b.Parent().ID)
	}
	if a.Parent() != b {
		t.Fatal("a not demoted under b")
	}
	// c, a's other child, rides along as b's child (it was b's sibling).
	if c.Parent() != b {
		t.Fatalf("sibling under %d, want b=%d", c.Parent().ID, b.ID)
	}
	// a (degree 2) keeps the two smallest-BTP children d and e; fm (largest
	// BTP) overflows up to b.
	if d.Parent() != a || e.Parent() != a {
		t.Fatalf("small children under %d/%d, want a=%d", d.Parent().ID, e.Parent().ID, a.ID)
	}
	if fm.Parent() != b {
		t.Fatalf("overflow child under %d, want b=%d", fm.Parent().ID, b.ID)
	}
}

// TestLockBackoff: a neighbourhood already locked by another operation makes
// the initiator back off rather than proceed.
func TestLockBackoff(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 100 * time.Second})
	parent := f.joinAt(t, 0, 1, 2)
	child := f.joinAt(t, 10*time.Second, 2, 6)
	// Hold a conflicting lock on the parent across the child's first check.
	f.tree.Lock(999, parent.Slot())
	f.runUntil(t, 120*time.Second)
	if f.p.LockFailures == 0 {
		t.Fatal("no lock backoff recorded")
	}
	if child.Parent() != parent {
		t.Fatal("switch proceeded despite conflicting lock")
	}
	// Release: the backed-off check retries and the switch completes.
	f.tree.Unlock(999, parent.Slot())
	f.runUntil(t, 200*time.Second)
	if child.Parent() != f.tree.Root() {
		t.Fatal("switch did not complete after lock release")
	}
}

// TestSwitchAbortsWhenParentFails: the parent departs during the switch
// latency window; the operation must abort cleanly.
func TestSwitchAbortsWhenParentFails(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 100 * time.Second})
	f.p.switchLatency = 5 * time.Second
	parent := f.joinAt(t, 0, 1, 2)
	child := f.joinAt(t, 10*time.Second, 2, 6)
	if child.Parent() != parent {
		t.Fatalf("setup: child under %d, want %d", child.Parent().ID, parent.ID)
	}
	// The check fires at 110 s; kill the parent at 112 s, inside the latency
	// window (completion at 115 s).
	f.sim.Schedule(112*time.Second, func(*eventsim.Simulator, int64) {
		orphans, err := f.tree.Remove(parent.Slot())
		if err != nil {
			t.Errorf("Remove: %v", err)
		}
		for _, o := range orphans {
			if err := f.p.Join(f.tree, f.view().Member(o), f.sim.Now()); err != nil {
				t.Errorf("orphan rejoin: %v", err)
			}
		}
	}, 0)
	f.runUntil(t, 300*time.Second)
	if f.p.Aborted == 0 {
		t.Fatal("switch was not aborted")
	}
	if !f.view().Attached(child.Slot()) {
		t.Fatal("child left detached after aborted switch")
	}
	if f.locked(child) {
		t.Fatal("aborted switch leaked a lock")
	}
}

// TestGradualAscent is the paper's Figure 6 story in miniature: a member
// with moderate bandwidth and a long life climbs the tree step by step.
func TestGradualAscent(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 60 * time.Second})
	// Build a chain of degree-1 members: each new joiner can only attach
	// under the previous one, so the tracked member starts deep.
	for i := 0; i < 4; i++ {
		f.joinAt(t, time.Duration(i)*time.Second, topology.NodeID(1+i), 1)
	}
	// The tracked member: moderate bandwidth 2, joins last and lands at the
	// bottom of the chain.
	tracked := f.joinAt(t, 10*time.Second, 10, 2)
	startDepth := tracked.Depth()
	if startDepth != 5 {
		t.Fatalf("tracked member started at depth %d, want 5", startDepth)
	}
	f.runUntil(t, 3600*time.Second)
	// Its BTP grows twice as fast as every chain member's, so it overtakes
	// them one by one and ends directly under the source.
	if tracked.Depth() != 1 {
		t.Fatalf("tracked member did not ascend to depth 1: depth %d -> %d", startDepth, tracked.Depth())
	}
	if err := f.tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchIntervalControlsOverhead: a smaller interval yields at least as
// many switches.
func TestSwitchIntervalControlsOverhead(t *testing.T) {
	run := func(interval time.Duration) int {
		env := testEnv(7)
		// A realistic source degree: with a tiny root the tree saturates on
		// free-riders before anyone can switch.
		tree, err := overlay.NewTree(0, 20, env.Delay)
		if err != nil {
			t.Fatal(err)
		}
		p := New(tree, env, Config{SwitchInterval: interval})
		sim := eventsim.New()
		bwDist := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}
		bwRng := xrand.New(123)
		for i := 0; i < 60; i++ {
			at := time.Duration(i) * 5 * time.Second
			bw := bwDist.Sample(bwRng)
			sim.Schedule(at, func(s *eventsim.Simulator, _ int64) {
				m := tree.NewMember(topology.NodeID(i), bw, s.Now())
				if err := p.Join(tree, m, s.Now()); err == nil {
					p.Start(s, m)
				}
			}, 0)
		}
		if err := sim.Run(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariantsFull(); err != nil {
			t.Fatal(err)
		}
		return p.Switches
	}
	fast := run(120 * time.Second)
	slow := run(1800 * time.Second)
	if fast < slow {
		t.Fatalf("switches: interval 120s -> %d, 1800s -> %d; smaller interval should give at least as many", fast, slow)
	}
	if fast == 0 {
		t.Fatal("no switches at all with a 2-hour horizon")
	}
}

// TestBTPOrderingTendency: after a long quiet period, parents should
// dominate children in BTP along child-parent edges (the partial ordering
// ROST converges to).
func TestBTPOrderingTendency(t *testing.T) {
	env := testEnv(8)
	tree, err := overlay.NewTree(0, 3, env.Delay)
	if err != nil {
		t.Fatal(err)
	}
	p := New(tree, env, Config{SwitchInterval: 60 * time.Second})
	sim := eventsim.New()
	bwDist := xrand.BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 20}
	bwRng := xrand.New(5)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 2 * time.Second
		bw := bwDist.Sample(bwRng)
		sim.Schedule(at, func(s *eventsim.Simulator, _ int64) {
			m := tree.NewMember(topology.NodeID(i), bw, s.Now())
			if err := p.Join(tree, m, s.Now()); err == nil {
				p.Start(s, m)
			}
		}, 0)
	}
	if err := sim.Run(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	now := sim.Now()
	violations, edges := 0, 0
	tree.VisitSubtree(tree.Root(), func(m *overlay.Member) {
		parent := m.Parent()
		if parent == nil || parent == tree.Root() {
			return
		}
		edges++
		// A stable edge has either parent BTP >= child BTP or a
		// lower-bandwidth child (which the guard keeps below on purpose).
		v := tree.SlotView()
		if v.BTP(m.Slot(), now) > v.BTP(parent.Slot(), now) && v.Bandwidth(m.Slot()) >= v.Bandwidth(parent.Slot()) {
			violations++
		}
	})
	if edges == 0 {
		t.Fatal("degenerate tree")
	}
	if violations > edges/10 {
		t.Fatalf("%d/%d edges still violate the switching condition after convergence", violations, edges)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SwitchInterval != DefaultSwitchInterval {
		t.Fatalf("SwitchInterval default = %v", cfg.SwitchInterval)
	}
}

func TestProtocolName(t *testing.T) {
	f := newFixture(t, 1, Config{})
	if f.p.Name() != "ROST" {
		t.Fatalf("Name = %q", f.p.Name())
	}
}

// TestGuardDisabledFreeRiderExchange: with the bandwidth guard off, a
// free-rider with a dominant BTP swaps with its parent even though it cannot
// host anyone; the displaced parent and siblings must be re-homed cleanly.
func TestGuardDisabledFreeRiderExchange(t *testing.T) {
	f := newFixture(t, 2, Config{SwitchInterval: 100 * time.Second, DisableBandwidthGuard: true})
	parent := f.joinAt(t, 0, 1, 2)
	// A spare-capacity contributor takes the root's other slot: the members
	// displaced by the degree-0 upstart need somewhere to go.
	rescue := f.joinAt(t, 0, 9, 3)
	if rescue.Parent() != f.tree.Root() {
		t.Fatalf("setup: rescue under %d", rescue.Parent().ID)
	}
	// Manually crafted ancient free-rider and sibling under parent.
	fr := f.tree.NewMember(2, 0.9, -100000*time.Second)
	if err := f.tree.Attach(fr.Slot(), parent.Slot()); err != nil {
		t.Fatal(err)
	}
	sibling := f.tree.NewMember(3, 0.5, time.Second)
	if err := f.tree.Attach(sibling.Slot(), parent.Slot()); err != nil {
		t.Fatal(err)
	}
	f.p.Start(f.sim, fr)
	f.runUntil(t, 500*time.Second)
	if fr.Parent() != f.tree.Root() {
		t.Fatalf("free-rider not promoted without guard (parent %d)", fr.Parent().ID)
	}
	// Parent and sibling cannot live under the degree-0 free-rider: they
	// must have been re-homed somewhere valid.
	if !f.view().Attached(parent.Slot()) || !f.view().Attached(sibling.Slot()) {
		t.Fatal("displaced members left detached")
	}
	if parent.Parent() == fr || sibling.Parent() == fr {
		t.Fatal("member attached under a zero-degree parent")
	}
	if err := f.tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
}

// TestContributorPriorityWiring: the option routes free-rider joins through
// the deep-parking rule.
func TestContributorPriorityWiring(t *testing.T) {
	f := newFixture(t, 2, Config{ContributorPriority: true})
	a := f.joinAt(t, 0, 1, 2) // contributor at depth 1
	b := f.joinAt(t, 0, 2, 2) // contributor at depth 1 (root full now)
	c := f.joinAt(t, 0, 3, 2) // contributor at depth 2
	if c.Depth() != 2 {
		t.Fatalf("contributor depth = %d, want 2", c.Depth())
	}
	fr := f.joinAt(t, 0, 4, 0.5)
	if fr.Depth() != 3 || fr.Parent() != c {
		t.Fatalf("free-rider at depth %d under %d, want 3 under %d (deepest)", fr.Depth(), fr.Parent().ID, c.ID)
	}
	_, _ = a, b
}

// TestSwitchAbortsWhenConditionEvaporates: if the switching condition holds
// at initiation but fails at completion, with the neighbourhood unchanged,
// the switch aborts.
func TestSwitchAbortsWhenConditionEvaporates(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 100 * time.Second, DisableBandwidthGuard: true})
	f.p.switchLatency = 5 * time.Second
	parent := f.joinAt(t, 0, 1, 2)
	child := f.tree.NewMember(2, 1.9, -1000*time.Second) // BTP 1.9*1100 > 2*100 at the first check
	if err := f.tree.Attach(child.Slot(), parent.Slot()); err != nil {
		t.Fatal(err)
	}
	f.p.Start(f.sim, child)
	// Initiation fires at 100s with the bandwidth guard off; at 102s (inside
	// the latency window) the guard comes on, and the child's bandwidth is
	// below its parent's, so the condition no longer holds at completion.
	f.sim.Schedule(102*time.Second, func(*eventsim.Simulator, int64) {
		f.p.cfg.DisableBandwidthGuard = false
	}, 0)
	f.runUntil(t, 300*time.Second)
	if f.p.Aborted == 0 {
		t.Fatal("switch not aborted after the neighbourhood changed")
	}
	if f.locked(child) || f.locked(parent) {
		t.Fatal("abort leaked locks")
	}
}

// TestDisplacedMemberRetriesSaturatedTree drives the exchange's saturated
// path: without the bandwidth guard a free-rider (no child slot) overtakes
// its parent, so the demoted parent has nowhere to go. It must stay
// detached, retrying every construct.DefaultRejoinRetry, and attach at the
// first retry after a slot frees.
func TestDisplacedMemberRetriesSaturatedTree(t *testing.T) {
	f := newFixture(t, 1, Config{SwitchInterval: 100 * time.Second, DisableBandwidthGuard: true})
	parent := f.joinAt(t, 0, 1, 1)                       // the root's only child, one slot
	rider := f.tree.NewMember(2, 0.5, -1000*time.Second) // BTP 0.5*1100 > 1*100 at the first check
	if err := f.tree.Attach(rider.Slot(), parent.Slot()); err != nil {
		t.Fatal(err)
	}
	f.p.Start(f.sim, rider)
	switched := 100*time.Second + DefaultSwitchLatency
	f.runUntil(t, switched)
	if f.p.Switches != 1 || rider.Parent() != f.tree.Root() {
		t.Fatalf("setup: %d switches, rider under %v; want the rider promoted under the source", f.p.Switches, rider.Parent())
	}
	if f.view().Attached(parent.Slot()) {
		t.Fatalf("demoted parent attached under %d in a tree with no spare slot", parent.Parent().ID)
	}
	// Free the source's slot between two retries.
	freed := switched + construct.DefaultRejoinRetry + construct.DefaultRejoinRetry/2
	f.sim.Schedule(freed, func(*eventsim.Simulator, int64) {
		if _, err := f.tree.Remove(rider.Slot()); err != nil {
			t.Error(err)
		}
	}, 0)
	nextRetry := switched + 2*construct.DefaultRejoinRetry
	f.runUntil(t, nextRetry-1)
	if f.view().Attached(parent.Slot()) {
		t.Fatal("displaced parent attached before its next retry")
	}
	f.runUntil(t, nextRetry)
	if parent.Parent() != f.tree.Root() {
		t.Fatalf("displaced parent not under the source at the first retry after the slot freed (parent %v)", parent.Parent())
	}
}
