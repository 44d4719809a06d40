package construct

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// The linear scans relaxedOrdered.Join used before overlay grew its level
// index, and the handle-chasing candidate loops of the distributed strategies
// before they moved to slot space. They are the oracles: production reads
// Tree.LevelIndex and SlotView, the tests below hold it to what the walks
// over *Member handles would have chosen.

// usableParent reports whether c can accept m as a child right now.
func usableParent(c, m *overlay.Member) bool {
	return c != m && c.Depth() >= 0 && c.HasSpare()
}

// refPick is the single-pass candidate loop MinDepth, LongestFirst and
// ContributorPriority each used to run: over the sample plus the source, keep
// the usable candidate of least key, replacing it on a strictly smaller key
// or, at an equal key, a strictly smaller delay. It asks Delay about every
// candidate that becomes or ties the best so far.
func refPick(env *Env, tree *overlay.Tree, m *overlay.Member, key func(*overlay.SlotView, *overlay.Member) int64) *overlay.Member {
	v := tree.SlotView()
	var cands []*overlay.Member
	for _, c := range tree.SampleSlots(env.Rng, env.candidateCount(), m.Slot(), nil) {
		cands = append(cands, v.Member(c))
	}
	cands = append(cands, tree.Root())
	var best *overlay.Member
	var bestDelay time.Duration
	for _, c := range cands {
		if !usableParent(c, m) {
			continue
		}
		switch {
		case best == nil, key(&v, c) < key(&v, best):
			best = c
			bestDelay = env.Delay(m.Attach(), c.Attach())
		case key(&v, c) == key(&v, best):
			if d := env.Delay(m.Attach(), c.Attach()); d < bestDelay {
				best = c
				bestDelay = d
			}
		}
	}
	return best
}

// refKeys are the three strategies' keys as the handle loops read them.
var refKeys = map[parentKey]func(*overlay.SlotView, *overlay.Member) int64{
	shallowest: func(_ *overlay.SlotView, c *overlay.Member) int64 { return int64(c.Depth()) },
	oldest:     func(v *overlay.SlotView, c *overlay.Member) int64 { return int64(v.JoinTime(c.Slot())) },
	deepest:    func(_ *overlay.SlotView, c *overlay.Member) int64 { return -int64(c.Depth()) },
}

// TestPickParentMatchesReferenceLoop drives the same churn into two trees,
// one joined through refPick and one through pickParent, for each of the
// three keys. Ties are engineered everywhere: six routers with four delays,
// join times shared by runs of arrivals, a handful of bandwidths including
// free-riders. After every join the chosen parents must be the same member,
// pickParent must have asked Delay no more often than the loop, and both RNG
// streams must be at the same point. Removals recycle slots under the
// sampler; orphans and detached members rejoin while still in the sampled
// membership (their own slot is the excluded one); early joins see fewer
// members than the candidate count; and a degree-one source with free-riders
// saturates the tree, so both sides must also agree on ErrNoParent.
func TestPickParentMatchesReferenceLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  parentKey
	}{{"min-depth", shallowest}, {"longest-first", oldest}, {"free-rider", deepest}} {
		key := tc.key
		t.Run(tc.name, func(t *testing.T) {
			ref := newMatchWorld(t, tiedDelay, func(env *Env) func(*overlay.Tree, *overlay.Member, time.Duration) error {
				return func(tree *overlay.Tree, m *overlay.Member, _ time.Duration) error {
					p := refPick(env, tree, m, refKeys[key])
					if p == nil {
						return ErrNoParent
					}
					return tree.Attach(m.Slot(), p.Slot())
				}
			})
			cur := newMatchWorld(t, tiedDelay, func(env *Env) func(*overlay.Tree, *overlay.Member, time.Duration) error {
				env.CandidateCount = 12
				return func(tree *overlay.Tree, m *overlay.Member, _ time.Duration) error {
					return env.join(tree, m, key)
				}
			})
			ref.env.CandidateCount = 12
			rng := xrand.New(7)
			var live []overlay.MemberID
			var now time.Duration
			saturated, savedCalls := 0, 0
			joinBoth := func(step int, id overlay.MemberID) {
				t.Helper()
				a, b := ref.member(id), cur.member(id)
				c0, c1 := ref.calls, cur.calls
				errRef, errCur := ref.join(ref.tree, a, now), cur.join(cur.tree, b, now)
				if !errors.Is(errCur, errRef) || errRef != nil && !errors.Is(errRef, ErrNoParent) {
					t.Fatalf("step %d: join of %d: reference %v, slot space %v", step, id, errRef, errCur)
				}
				if errRef != nil {
					saturated++
				} else if a.Parent().ID != b.Parent().ID {
					t.Fatalf("step %d: member %d joined under %d by the loop, %d in slot space", step, id, a.Parent().ID, b.Parent().ID)
				}
				if dr, dc := ref.calls-c0, cur.calls-c1; dc > dr {
					t.Fatalf("step %d: %d Delay calls in slot space, %d in the loop", step, dc, dr)
				} else {
					savedCalls += dr - dc
				}
				if x, y := ref.env.Rng.Int63(), cur.env.Rng.Int63(); x != y {
					t.Fatalf("step %d: RNG streams diverged (%d vs %d)", step, x, y)
				}
			}
			bandwidths := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 4}
			for step := 0; step < 4000; step++ {
				if step%9 == 0 {
					now += time.Second
				}
				for _, id := range live {
					if m := ref.member(id); m.Depth() < 0 && m.Parent() == nil {
						joinBoth(step, id)
					}
				}
				switch op := rng.Float64(); {
				case len(live) < 40 || len(live) < 300 && op < 0.5:
					attach, bw := topology.NodeID(rng.Intn(6)), bandwidths[rng.Intn(len(bandwidths))]
					if len(live) > 150 && op < 0.06 {
						bw = 0 // a run of free-riders: the tree saturates
					}
					id := ref.newMember(attach, bw, now)
					cur.newMember(attach, bw, now)
					live = append(live, id)
					joinBoth(step, id)
				case op < 0.85:
					k := rng.Intn(len(live))
					id := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					orphans := ref.remove(t, id)
					cur.remove(t, id)
					for _, o := range orphans {
						joinBoth(step, o)
					}
				default:
					id := live[rng.Intn(len(live))]
					if a := ref.member(id); a.Depth() >= 0 {
						if err := ref.tree.Detach(a.Slot()); err != nil {
							t.Fatal(err)
						}
						if err := cur.tree.Detach(cur.member(id).Slot()); err != nil {
							t.Fatal(err)
						}
						joinBoth(step, id)
					}
				}
				if step%500 == 0 {
					requireSameTrees(t, step, ref.tree, cur.tree)
				}
			}
			requireSameTrees(t, -1, ref.tree, cur.tree)
			t.Logf("%d live members, depth %d, %d saturated joins, %d of %d Delay calls saved",
				ref.tree.Size(), ref.tree.MaxDepth(), saturated, savedCalls, ref.calls)
			if saturated < 50 || ref.tree.MaxDepth() < 4 || savedCalls == 0 {
				t.Fatalf("workload too tame: %d saturated joins, depth %d, %d Delay calls saved", saturated, ref.tree.MaxDepth(), savedCalls)
			}
		})
	}
}

// refWeakestOutranked returns the most-outranked member of level that m
// outranks (the first in level order among equals), or nil.
func refWeakestOutranked(order overlay.LevelOrder, level []*overlay.Member, m *overlay.Member) *overlay.Member {
	var victim *overlay.Member
	for _, c := range level {
		if c.Parent() == nil { // the root cannot be evicted
			continue
		}
		if !order.Outranks(m, c) {
			continue
		}
		if victim == nil || order.Outranks(victim, c) {
			victim = c
		}
	}
	return victim
}

// refNearestSpare returns the member of level with spare capacity nearest to
// m in the underlay (the first in level order among equals), or nil.
func refNearestSpare(env *Env, level []*overlay.Member, m *overlay.Member) *overlay.Member {
	var best *overlay.Member
	var bestDelay time.Duration
	for _, c := range level {
		if !usableParent(c, m) {
			continue
		}
		d := env.Delay(m.Attach(), c.Attach())
		if best == nil || d < bestDelay {
			best, bestDelay = c, d
		}
	}
	return best
}

// refRelaxed is relaxedOrdered over the linear scans, allocations and all.
type refRelaxed struct {
	env      *Env
	order    overlay.LevelOrder
	adoptAll bool
	evicting int
}

func (a *refRelaxed) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	maxDepth := tree.MaxDepth()
	for d := 1; d <= maxDepth+1; d++ {
		if a.evicting < maxEvictionCascade {
			if victim := refWeakestOutranked(a.order, tree.Level(d), m); victim != nil {
				return a.replace(tree, m, victim, now)
			}
		}
		if parent := refNearestSpare(a.env, tree.Level(d-1), m); parent != nil {
			return tree.Attach(m.Slot(), parent.Slot())
		}
	}
	return ErrNoParent
}

func (a *refRelaxed) replace(tree *overlay.Tree, m, victim *overlay.Member, now time.Duration) error {
	parent := victim.Parent()
	children := victim.AppendChildren(nil)
	for _, c := range children {
		if err := tree.Detach(c.Slot()); err != nil {
			return err
		}
	}
	if err := tree.Detach(victim.Slot()); err != nil {
		return err
	}
	if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
		return err
	}
	if !a.adoptAll {
		sortByRank(children, a.order)
	}
	var leftovers []*overlay.Member
	for _, c := range children {
		if m.HasSpare() {
			if err := tree.Attach(c.Slot(), m.Slot()); err != nil {
				return err
			}
			continue
		}
		leftovers = append(leftovers, c)
	}
	a.evicting++
	defer func() { a.evicting-- }()
	tree.RecordReconnection(victim.Slot())
	if err := a.Join(tree, victim, now); err != nil && !errors.Is(err, ErrNoParent) {
		return err
	}
	for _, c := range leftovers {
		tree.RecordReconnection(c.Slot())
		if err := a.Join(tree, c, now); err != nil && !errors.Is(err, ErrNoParent) {
			return err
		}
	}
	return nil
}

// matchWorld is one side of the element-wise match: a tree, its live members
// by ID, the strategy joining into it and the number of Delay calls the
// strategy has made.
type matchWorld struct {
	tree    *overlay.Tree
	members map[overlay.MemberID]*overlay.Member
	env     *Env
	join    func(*overlay.Tree, *overlay.Member, time.Duration) error
	calls   int
}

// newMember adds a detached member and returns its ID.
func (w *matchWorld) newMember(attach topology.NodeID, bw float64, joined time.Duration) overlay.MemberID {
	m := w.tree.NewMember(attach, bw, joined)
	w.members[m.ID] = m
	return m.ID
}

// member returns the live member with the given ID.
func (w *matchWorld) member(id overlay.MemberID) *overlay.Member { return w.members[id] }

// remove removes the member with the given ID and returns its orphans' IDs.
func (w *matchWorld) remove(t *testing.T, id overlay.MemberID) []overlay.MemberID {
	t.Helper()
	orphans, err := w.tree.Remove(w.members[id].Slot())
	if err != nil {
		t.Fatal(err)
	}
	delete(w.members, id)
	v := w.tree.SlotView()
	ids := make([]overlay.MemberID, len(orphans))
	for k, o := range orphans {
		ids[k] = v.Member(o).ID
	}
	return ids
}

// tiedDelay maps six stub routers onto four distinct delays, so equal delays
// (and zero-distance co-located members) are the common case.
func tiedDelay(a, b topology.NodeID) time.Duration {
	if a == b {
		return 0
	}
	return time.Duration((int(a)+int(b))%4+1) * time.Millisecond
}

// newMatchWorld returns a world on the underlay delay measures, its Delay
// calls counted and its source on router 0.
func newMatchWorld(t *testing.T, delay func(a, b topology.NodeID) time.Duration, mk func(*Env) func(*overlay.Tree, *overlay.Member, time.Duration) error) *matchWorld {
	t.Helper()
	w := &matchWorld{members: map[overlay.MemberID]*overlay.Member{}}
	w.env = &Env{Rng: xrand.New(1), Delay: func(a, b topology.NodeID) time.Duration {
		w.calls++
		return delay(a, b)
	}}
	tree, err := overlay.NewTree(0, 3, delay)
	if err != nil {
		t.Fatal(err)
	}
	w.tree, w.join = tree, mk(w.env)
	return w
}

func idOf(m *overlay.Member) string {
	if m == nil {
		return "nobody"
	}
	return fmt.Sprint("member ", m.ID)
}

// memberShape renders everything about a member the two worlds must agree on.
func memberShape(v *overlay.SlotView, m *overlay.Member) string {
	s := fmt.Sprintf("%d@%d depth %d reconn %d kids", m.ID, m.LevelPos(), m.Depth(), v.Reconnections(m.Slot()))
	for _, c := range m.AppendChildren(nil) {
		s = fmt.Sprintf("%s %d", s, c.ID)
	}
	if p := m.Parent(); p != nil {
		s = fmt.Sprintf("%s parent %d", s, p.ID)
	}
	return s
}

// sameShape reports whether a and b, the same member in the two worlds whose
// views are va and vb, have the same parent, the same children in the same
// order, the same position in the same Level(d) and the same reconnections.
func sameShape(va, vb *overlay.SlotView, a, b *overlay.Member, kidsA, kidsB []*overlay.Member) bool {
	if a.ID != b.ID || a.LevelPos() != b.LevelPos() || a.Depth() != b.Depth() ||
		va.Reconnections(a.Slot()) != vb.Reconnections(b.Slot()) || (a.Parent() == nil) != (b.Parent() == nil) || len(kidsA) != len(kidsB) {
		return false
	}
	for i := range kidsA {
		if kidsA[i].ID != kidsB[i].ID {
			return false
		}
	}
	return a.Parent() == nil || a.Parent().ID == b.Parent().ID
}

// requireSameTrees fails unless the two trees agree member for member.
func requireSameTrees(t *testing.T, step int, ref, idx *overlay.Tree) {
	t.Helper()
	var a, b, kidsA, kidsB []*overlay.Member
	ref.VisitMembers(func(m *overlay.Member) { a = append(a, m) })
	idx.VisitMembers(func(m *overlay.Member) { b = append(b, m) })
	if len(a) != len(b) {
		t.Fatalf("step %d: %d members under the reference scans, %d under the index", step, len(a), len(b))
	}
	va, vb := ref.SlotView(), idx.SlotView()
	for i := range a {
		kidsA, kidsB = a[i].AppendChildren(kidsA[:0]), b[i].AppendChildren(kidsB[:0])
		if !sameShape(&va, &vb, a[i], b[i], kidsA, kidsB) {
			t.Fatalf("step %d: trees diverge:\n reference %s\n index     %s", step, memberShape(&va, a[i]), memberShape(&vb, b[i]))
		}
	}
}

// requireSameAnswers asks the index and the reference scans, on the index's
// own tree, whom m would evict and whom it would attach under at every layer,
// and fails unless victim and parent agree and, unless the index's walk is
// pruned, the index made as many Delay calls as the scan.
func requireSameAnswers(t *testing.T, step int, w *matchWorld, order overlay.LevelOrder, m *overlay.Member, pruned bool) {
	t.Helper()
	saved := w.calls
	defer func() { w.calls = saved }()
	lx := w.tree.LevelIndex(order, w.env.Underlay)
	for d := 1; d <= w.tree.MaxDepth()+1; d++ {
		victim := lx.Weakest(d)
		if victim != nil && !order.Outranks(m, victim) {
			victim = nil
		}
		if want := refWeakestOutranked(order, w.tree.Level(d), m); victim != want {
			t.Fatalf("step %d layer %d: index evicts %s, the scan %s", step, d, idOf(victim), idOf(want))
		}
		c0 := w.calls
		want := refNearestSpare(w.env, w.tree.Level(d-1), m)
		c1 := w.calls
		got := nearestSpare(w.env, lx, d-1, m)
		if got != want || !pruned && w.calls-c1 != c1-c0 {
			t.Fatalf("step %d layer %d: index attaches under %s after %d Delay calls, the scan under %s after %d",
				step, d-1, idOf(got), w.calls-c1, idOf(want), c1-c0)
		}
	}
}

// relaxedCase is one relaxed strategy as the matching tests drive it.
type relaxedCase struct {
	name     string
	order    overlay.LevelOrder
	adoptAll bool
	mk       func(*Env) Strategy
}

var relaxedCases = []relaxedCase{
	{"bandwidth-ordered", overlay.ByBandwidth, true, NewRelaxedBandwidthOrdered},
	{"time-ordered", overlay.ByJoinTime, false, NewRelaxedTimeOrdered},
}

// TestIndexMatchesReferenceScans drives the same random arrivals, departures
// with orphan rejoins and evicting joins into two trees — one joined through
// the linear reference scans, one through the level index — with ties
// engineered everywhere the choice could hide one: a handful of bandwidths,
// JoinTimes shared by runs of arrivals, six routers with four delays. After
// every join both sides must have made the same number of Delay calls and
// hold the same tree, member for member. The reference tree asks for its
// level index at creation, only so that it keeps the level lists its scans
// read; its joins never consult the index.
func TestIndexMatchesReferenceScans(t *testing.T) {
	for _, tc := range relaxedCases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newMatchWorld(t, tiedDelay, func(env *Env) func(*overlay.Tree, *overlay.Member, time.Duration) error {
				return (&refRelaxed{env: env, order: tc.order, adoptAll: tc.adoptAll}).Join
			})
			ref.tree.LevelIndex(tc.order, nil)
			idx := newMatchWorld(t, tiedDelay, func(env *Env) func(*overlay.Tree, *overlay.Member, time.Duration) error {
				return tc.mk(env).Join
			})
			driveRelaxed(t, tc.order, ref, idx, func(rng *xrand.Source) topology.NodeID {
				return topology.NodeID(rng.Intn(6))
			}, false)
		})
	}
}

// TestPrunedSpareWalkMatchesExhaustive drives the same workload into two
// trees on a real transit-stub underlay, one whose Env names the underlay —
// its nearest-spare walk goes by home bucket and stops at a bound — and one
// whose Env does not and asks Delay about every spare member. Every link of a
// class has the same delay, so delays tie everywhere, and a quarter of the
// members sit on transit routers: a stub-attached member is strictly farther
// than its home's bound, so only those make a tie with the bound, where the
// walk must go on, observable. After every join the trees must be the same
// member for member and, once 150 members are in, the pruned side must not
// have asked Delay more often in all; over the run it must save at least half.
func TestPrunedSpareWalkMatchesExhaustive(t *testing.T) {
	cfg := topology.DefaultConfig(5)
	cfg.TransitDomains, cfg.TransitNodesPerDomain = 2, 3
	cfg.StubDomainsPerTransit, cfg.StubNodesPerDomain = 2, 3
	cfg.TransitTransitDelay = [2]time.Duration{20 * time.Millisecond, 20 * time.Millisecond}
	cfg.TransitStubDelay = [2]time.Duration{6 * time.Millisecond, 6 * time.Millisecond}
	cfg.StubStubDelay = [2]time.Duration{3 * time.Millisecond, 3 * time.Millisecond}
	underlay, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	transit, routers := underlay.TransitCount(), underlay.Size()
	for _, tc := range relaxedCases {
		t.Run(tc.name, func(t *testing.T) {
			exhaustive := newMatchWorld(t, underlay.Delay, func(env *Env) func(*overlay.Tree, *overlay.Member, time.Duration) error {
				return tc.mk(env).Join
			})
			pruned := newMatchWorld(t, underlay.Delay, func(env *Env) func(*overlay.Tree, *overlay.Member, time.Duration) error {
				env.Underlay = underlay
				return tc.mk(env).Join
			})
			driveRelaxed(t, tc.order, exhaustive, pruned, func(rng *xrand.Source) topology.NodeID {
				if rng.Intn(4) == 0 {
					return topology.NodeID(rng.Intn(transit))
				}
				return topology.NodeID(transit + rng.Intn(routers-transit))
			}, true)
			t.Logf("%d of %d Delay calls saved", exhaustive.calls-pruned.calls, exhaustive.calls)
			if 2*pruned.calls > exhaustive.calls {
				t.Fatalf("the pruned walk made %d of the exhaustive walk's %d Delay calls, want at most half", pruned.calls, exhaustive.calls)
			}
		})
	}
}

// driveRelaxed runs the matching workload into ref and idx: random arrivals
// on attach's routers, departures with orphan rejoins, and evicting joins,
// with a handful of bandwidths and JoinTimes shared by runs of arrivals.
// After every join both must hold the same tree, member for member, and idx
// must have made as many Delay calls for it as ref or, if pruned, no more in
// all than ref so far once the first 150 arrivals are in. A bound that does
// not stop the walk is one call the exhaustive walk never makes, and one that
// does saves every member it skips; in a tree of a handful of members the
// first can outnumber the second.
func driveRelaxed(t *testing.T, order overlay.LevelOrder, ref, idx *matchWorld, attach func(*xrand.Source) topology.NodeID, pruned bool) {
	t.Helper()
	bandwidths := []float64{0, 1, 1, 1.5, 2, 2, 2, 2.5, 3, 3, 4}
	rng := xrand.New(42)
	var now time.Duration
	var live []overlay.MemberID
	step, saturated := 0, 0

	joinBoth := func(id overlay.MemberID) {
		t.Helper()
		requireSameAnswers(t, step, idx, order, idx.member(id), pruned)
		c0, c1 := ref.calls, idx.calls
		errRef := ref.join(ref.tree, ref.member(id), now)
		errIdx := idx.join(idx.tree, idx.member(id), now)
		if errRef != nil && !errors.Is(errRef, ErrNoParent) || !errors.Is(errIdx, errRef) {
			t.Fatalf("step %d: join of %d: reference %v, index %v", step, id, errRef, errIdx)
		}
		if errRef != nil {
			saturated++
		}
		if pruned && step >= 150 && idx.calls > ref.calls {
			t.Fatalf("step %d: %d Delay calls so far under the index, more than the reference's %d", step, idx.calls, ref.calls)
		} else if dr, di := ref.calls-c0, idx.calls-c1; !pruned && dr != di {
			t.Fatalf("step %d: %d Delay calls under the reference, %d under the index", step, dr, di)
		}
		requireSameTrees(t, step, ref.tree, idx.tree)
		if err := idx.tree.CheckInvariantsFull(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	arrive := func(bw float64, joined time.Duration) {
		t.Helper()
		at := attach(rng)
		id := ref.newMember(at, bw, joined)
		idx.newMember(at, bw, joined)
		live = append(live, id)
		joinBoth(id)
	}

	for ; step < 6000; step++ {
		if step%7 == 0 {
			now += time.Second
		}
		// Members a saturated tree turned away (or whose cascade ran
		// dry) retry first, as the churn driver would have them do.
		for _, id := range live {
			if m := ref.member(id); m.Depth() < 0 && m.Parent() == nil {
				joinBoth(id)
			}
		}
		switch op := rng.Float64(); {
		case len(live) < 150 || len(live) < 300 && op < 0.3:
			arrive(bandwidths[rng.Intn(len(bandwidths))], now)
		case len(live) < 300 && op < 0.55: // outranks most of the tree under either order
			arrive(float64(3+rng.Intn(3)), time.Duration(rng.Intn(40))*time.Second)
		default:
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			orphans := ref.remove(t, id)
			idx.remove(t, id)
			requireSameTrees(t, step, ref.tree, idx.tree)
			for _, o := range orphans {
				joinBoth(o)
			}
		}
		if step%250 == 0 {
			if err := idx.tree.CheckInvariantsFull(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := idx.tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
	evictions := 0
	v := ref.tree.SlotView()
	ref.tree.VisitMembers(func(m *overlay.Member) { evictions += v.Reconnections(m.Slot()) })
	t.Logf("%d live members, depth %d, %d Delay calls, %d evictions among the living, %d saturated joins",
		ref.tree.Size(), ref.tree.MaxDepth(), ref.calls, evictions, saturated)
	if evictions < 500 || ref.tree.MaxDepth() < 4 {
		t.Fatalf("workload too tame to prove anything: %d evictions, depth %d", evictions, ref.tree.MaxDepth())
	}
}

// TestEvictionCascadeIsBounded forces one join to start an eviction chain
// longer than maxEvictionCascade: a path of degree-one members in descending
// bandwidth order, entered at the top by someone who outranks them all, so
// every victim evicts the member below it. The join must still terminate with
// a legal tree: past the bound the evicted member takes the first free slot
// instead of evicting again.
func TestEvictionCascadeIsBounded(t *testing.T) {
	const n = maxEvictionCascade + 200
	env := testEnv(1)
	tree, err := overlay.NewTree(0, 1, env.Delay)
	if err != nil {
		t.Fatal(err)
	}
	s := NewRelaxedBandwidthOrdered(env)
	path := make([]*overlay.Member, n)
	for i := range path {
		// Weaker than everyone above: joins at the bottom without evicting.
		path[i] = join(t, s, tree, topology.NodeID(i), 1.9-float64(i)/float64(2*n), 0)
		if path[i].Depth() != i+1 {
			t.Fatalf("path member %d at depth %d", i, path[i].Depth())
		}
	}
	top := join(t, s, tree, 0, 1.95, 0)
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
	if top.Depth() != 1 {
		t.Fatalf("the strongest member sits at depth %d, want 1", top.Depth())
	}
	evicted, v := 0, tree.SlotView()
	for i, m := range path {
		if m.Depth() < 0 {
			t.Fatalf("path member %d left detached", i)
		}
		evicted += v.Reconnections(m.Slot())
	}
	if evicted != maxEvictionCascade {
		t.Fatalf("%d evictions, want the cascade to stop at %d", evicted, maxEvictionCascade)
	}
	// The last victim did not evict its successor: it went to the bottom, the
	// successor and everyone below kept their parents' places.
	if last := path[maxEvictionCascade-1]; last.Depth() != n+1 || last.NumChildren() != 0 {
		t.Fatalf("last victim at depth %d with %d children, want the bottom (%d) and none", last.Depth(), last.NumChildren(), n+1)
	}
	if tree.MaxDepth() != n+1 {
		t.Fatalf("tree depth %d, want %d", tree.MaxDepth(), n+1)
	}
}

// TestRelaxedJoinAllocCeiling pins an evicting join at the cost of what it
// creates and nothing per eviction: replace used to allocate the victim's
// children list at every level of the cascade. The tree is the descending
// path of TestEvictionCascadeIsBounded, so every join at the top evicts all
// 200-odd members below it, each with a child to hand over; what is left is
// the new member's handle, the new deepest level's three lists (level, heap,
// spare) and amortised growth of the per-slot arrays.
func TestRelaxedJoinAllocCeiling(t *testing.T) {
	const n = 200
	env := testEnv(1)
	tree, err := overlay.NewTree(0, 1, env.Delay)
	if err != nil {
		t.Fatal(err)
	}
	s := NewRelaxedBandwidthOrdered(env)
	for i := 0; i < n; i++ {
		join(t, s, tree, topology.NodeID(i), 1.5-float64(i)/float64(4*n), 0)
	}
	bw := 1.5
	joinTop := func() {
		bw += 0.001
		m := tree.NewMember(0, bw, 0)
		if err := s.Join(tree, m, 0); err != nil {
			t.Fatal(err)
		}
	}
	joinTop() // warm the strategy's scratch
	if allocs := testing.AllocsPerRun(20, joinTop); allocs > 6 {
		t.Fatalf("a join that evicts %d members allocates %.0f times, want at most 6", n, allocs)
	}
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
	if tree.MaxDepth() != n+22 {
		t.Fatalf("tree depth %d, want the path of %d", tree.MaxDepth(), n+22)
	}
}
