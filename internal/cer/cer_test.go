package cer

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

func delayFn(a, b topology.NodeID) time.Duration {
	if a == b {
		return 0
	}
	d := int64(a - b)
	if d < 0 {
		d = -d
	}
	return time.Duration(d) * time.Millisecond
}

// buildTree makes a root with `branches` children, each heading a chain of
// `depth` members; returns the tree and the members by [branch][level].
func buildTree(t *testing.T, branches, depth int) (*overlay.Tree, [][]*overlay.Member) {
	t.Helper()
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		t.Fatal(err)
	}
	all := make([][]*overlay.Member, branches)
	attach := topology.NodeID(1)
	for b := 0; b < branches; b++ {
		parent := tree.Root()
		for d := 0; d < depth; d++ {
			m := tree.NewMember(attach, 4, time.Duration(b*depth+d)*time.Second)
			attach++
			if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
				t.Fatalf("attach: %v", err)
			}
			all[b] = append(all[b], m)
			parent = m
		}
	}
	return tree, all
}

func TestLossCorrelation(t *testing.T) {
	tree, all := buildTree(t, 3, 4)
	// Same chain: shared edges = depth of the LCA (the shallower node).
	if got := LossCorrelation(all[0][3], all[0][1]); got != 2 {
		t.Fatalf("same-chain correlation = %d, want 2", got)
	}
	// Different chains: LCA is the root, zero shared edges.
	if got := LossCorrelation(all[0][3], all[1][3]); got != 0 {
		t.Fatalf("cross-chain correlation = %d, want 0", got)
	}
	// Parent-child: LCA is the parent.
	if got := LossCorrelation(all[2][0], all[2][1]); got != 1 {
		t.Fatalf("parent-child correlation = %d, want 1", got)
	}
	_ = tree
}

func TestGroupLossCorrelation(t *testing.T) {
	_, all := buildTree(t, 2, 3)
	sameChain := []*overlay.Member{all[0][0], all[0][1], all[0][2]}
	crossChain := []*overlay.Member{all[0][2], all[1][2]}
	if got := GroupLossCorrelation(crossChain); got != 0 {
		t.Fatalf("cross-chain group correlation = %d, want 0", got)
	}
	if got := GroupLossCorrelation(sameChain); got == 0 {
		t.Fatal("same-chain group correlation should be positive")
	}
}

func TestMLCSelectSpansSubtrees(t *testing.T) {
	tree, all := buildTree(t, 6, 5)
	self := all[0][4] // deep member of branch 0
	sel := &MLCSelector{Tree: tree, Rng: xrand.New(1), Delay: delayFn}
	group := sel.Select(self, 3)
	if len(group) != 3 {
		t.Fatalf("group size %d, want 3", len(group))
	}
	// All chosen from different root subtrees and none from self's own
	// branch (its ancestors are banned and its descendants do not exist).
	branchOf := func(m *overlay.Member) int {
		for b := range all {
			for _, x := range all[b] {
				if x == m {
					return b
				}
			}
		}
		return -1
	}
	seen := map[int]bool{}
	for _, g := range group {
		b := branchOf(g)
		if b == 0 {
			t.Fatalf("member %d of self's own chain chosen", g.ID)
		}
		if seen[b] {
			t.Fatalf("two recovery nodes share branch %d (loss-correlated)", b)
		}
		seen[b] = true
	}
	if got := GroupLossCorrelation(group); got != 0 {
		t.Fatalf("MLC group correlation = %d, want 0 on disjoint chains", got)
	}
}

// TestBannedExcludedFromGroups: the quarantine path. Members banned through
// MLC.Ban, as the live node bans its quarantined peers, never appear in a
// recovery group, even when the exclusion leaves barely enough candidates.
func TestBannedExcludedFromGroups(t *testing.T) {
	tree, all := buildTree(t, 4, 3)
	self := all[0][2]
	banned := map[overlay.MemberID]bool{}
	var list []*overlay.Member
	for _, b := range []int{1, 2} {
		for _, m := range all[b] {
			banned[m.ID] = true
			list = append(list, m)
		}
	}
	sel := &MLCSelector{Tree: tree, Rng: xrand.New(7), Delay: delayFn}
	group := selectBanned(sel, self, 3, list)
	if len(group) == 0 {
		t.Fatal("empty group despite branch 3 being clean")
	}
	for _, g := range group {
		if banned[g.ID] {
			t.Fatalf("banned member %d chosen as recovery node", g.ID)
		}
	}
}

// selectBanned is s.Select with the members in banned excluded through
// MLC.Ban, the path the live node runs: Reset over the tree's slot arrays,
// one Ban per banned member still in the tree, then Group over one
// membership sample.
func selectBanned(s *MLCSelector, self *overlay.Member, k int, banned []*overlay.Member) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	s.sample = s.Tree.SampleSlots(s.Rng, DefaultKnowledge, self.Slot(), s.sample[:0])
	if len(s.sample) == 0 {
		return nil
	}
	parent, depth := s.Tree.Shape()
	s.mlc.Reset(parent, depth, s.Tree.Root().Slot(), self.Slot())
	for _, m := range banned {
		if i := m.Slot(); i >= 0 {
			s.mlc.Ban(i)
		}
	}
	v := s.Tree.SlotView()
	s.group = s.group[:0]
	for _, c := range s.mlc.Group(s.sample, k, s.Rng) {
		s.group = append(s.group, v.Member(c))
	}
	s.delays = orderByDistance(self, s.group, s.Delay, s.delays)
	return s.group
}

func TestMLCBeatsRandomOnCorrelation(t *testing.T) {
	// A skewed tree: most members concentrated in one heavy subtree, so a
	// random pick lands several nodes in the same subtree while MLC spreads.
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		t.Fatal(err)
	}
	heavy := tree.NewMember(1, 50, 0)
	if err := tree.Attach(heavy.Slot(), tree.Root().Slot()); err != nil {
		t.Fatal(err)
	}
	var members []*overlay.Member
	attach := topology.NodeID(2)
	// 40 members under `heavy`, chains of 4.
	for c := 0; c < 10; c++ {
		parent := heavy
		for d := 0; d < 4; d++ {
			m := tree.NewMember(attach, 3, 0)
			attach++
			if err := tree.Attach(m.Slot(), parent.Slot()); err != nil {
				t.Fatal(err)
			}
			members = append(members, m)
			parent = m
		}
	}
	// A handful of members in their own subtrees.
	for c := 0; c < 5; c++ {
		m := tree.NewMember(attach, 3, 0)
		attach++
		if err := tree.Attach(m.Slot(), tree.Root().Slot()); err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	self := members[len(members)-1]
	mlcTotal, rndTotal := 0, 0
	for trial := 0; trial < 30; trial++ {
		mlc := (&MLCSelector{Tree: tree, Rng: xrand.New(int64(trial)), Delay: delayFn}).Select(self, 4)
		rnd := (&RandomSelector{Tree: tree, Rng: xrand.New(int64(trial)), Delay: delayFn}).Select(self, 4)
		mlcTotal += GroupLossCorrelation(mlc)
		rndTotal += GroupLossCorrelation(rnd)
	}
	if mlcTotal >= rndTotal {
		t.Fatalf("MLC total correlation %d not below random %d", mlcTotal, rndTotal)
	}
}

func TestSelectExclusions(t *testing.T) {
	tree, all := buildTree(t, 4, 4)
	self := all[1][1]
	banned := map[overlay.MemberID]bool{self.ID: true}
	for p := self.Parent(); p != nil; p = p.Parent() {
		banned[p.ID] = true
	}
	for _, sel := range []Selector{
		&MLCSelector{Tree: tree, Rng: xrand.New(3), Delay: delayFn},
		&RandomSelector{Tree: tree, Rng: xrand.New(3), Delay: delayFn},
	} {
		for trial := 0; trial < 20; trial++ {
			for _, g := range sel.Select(self, 3) {
				if banned[g.ID] {
					t.Fatalf("selector returned self or an ancestor (%d)", g.ID)
				}
				if g == all[1][2] || g == all[1][3] {
					t.Fatalf("selector returned a descendant of self (%d)", g.ID)
				}
			}
		}
	}
}

func TestSelectOrderedByDistance(t *testing.T) {
	tree, all := buildTree(t, 5, 2)
	self := all[0][1]
	sel := &MLCSelector{Tree: tree, Rng: xrand.New(4), Delay: delayFn}
	group := sel.Select(self, 4)
	for i := 1; i < len(group); i++ {
		if delayFn(self.Attach(), group[i-1].Attach()) > delayFn(self.Attach(), group[i].Attach()) {
			t.Fatal("group not ordered by network distance")
		}
	}
}

func TestSelectDegenerate(t *testing.T) {
	tree, err := overlay.NewTree(0, 100, delayFn)
	if err != nil {
		t.Fatal(err)
	}
	lone := tree.NewMember(1, 2, 0)
	if err := tree.Attach(lone.Slot(), tree.Root().Slot()); err != nil {
		t.Fatal(err)
	}
	sel := &MLCSelector{Tree: tree, Rng: xrand.New(5), Delay: delayFn}
	if g := sel.Select(lone, 3); len(g) != 0 {
		t.Fatalf("group from memberless overlay = %v, want empty", g)
	}
	if g := sel.Select(lone, 0); g != nil {
		t.Fatal("k=0 should return nil")
	}
	rnd := &RandomSelector{Tree: tree, Rng: xrand.New(5)}
	if g := rnd.Select(lone, 0); g != nil {
		t.Fatal("random k=0 should return nil")
	}
}

// ----- PlanRecoveryInto -----

// densePlan indexes a PlanRecoveryInto result by sequence number.
type densePlan struct {
	first    int64
	arrivals []time.Duration
}

func planFor(ep Episode, servers []Server) densePlan {
	return densePlan{first: ep.FirstMissing, arrivals: PlanRecoveryInto(ep, servers, nil)}
}

// arrival returns packet n's repair arrival and whether it is repaired at all.
func (p densePlan) arrival(n int64) (time.Duration, bool) {
	at := p.arrivals[n-p.first]
	return at, at != Lost
}

// repaired counts the packets with a repair arrival.
func (p densePlan) repaired() int {
	n := 0
	for _, at := range p.arrivals {
		if at != Lost {
			n++
		}
	}
	return n
}

func testEpisode(striped bool) Episode {
	return Episode{
		FirstMissing: 1000,
		LastMissing:  1149, // 150 packets = 15 s at 10 pkt/s
		RequestAt:    105 * time.Second,
		ResumeAt:     115 * time.Second,
		Rate:         10,
		Striped:      striped,
	}
}

func mkServer(eps float64, chain, transfer time.Duration) Server {
	return Server{Epsilon: eps, ChainDelay: chain, Transfer: transfer}
}

func TestPlanNoServers(t *testing.T) {
	plan := planFor(testEpisode(true), nil)
	if plan.repaired() != 0 {
		t.Fatalf("plan with no servers has %d entries", plan.repaired())
	}
}

func TestPlanFullCoverage(t *testing.T) {
	// Two servers covering the full rate: every packet is repaired in the
	// striped phase.
	plan := planFor(testEpisode(true), []Server{
		mkServer(0.6, 10*time.Millisecond, 10*time.Millisecond),
		mkServer(0.5, 20*time.Millisecond, 12*time.Millisecond),
	})
	ep := testEpisode(true)
	if plan.repaired() != 150 {
		t.Fatalf("full-coverage plan has %d entries, want 150", plan.repaired())
	}
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		at, ok := plan.arrival(n)
		if !ok {
			t.Fatalf("packet %d missing from full-coverage plan", n)
		}
		// Live packets cannot arrive before generation; none before the
		// request either.
		if at < ep.RequestAt && at < ep.gen(n) {
			t.Fatalf("packet %d arrives at %v, before request and generation", n, at)
		}
	}
}

func TestPlanStripedPartialCoverage(t *testing.T) {
	// epsilon 0.4: packets with (n mod 100) in [0,40) repaired promptly; the
	// rest queue behind the resume point.
	plan := planFor(testEpisode(true), []Server{
		mkServer(0.4, 10*time.Millisecond, 10*time.Millisecond),
	})
	ep := testEpisode(true)
	prompt, backlog := 0, 0
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		at, ok := plan.arrival(n)
		if !ok {
			t.Fatalf("packet %d absent; the backlog phase should cover it", n)
		}
		if at < ep.ResumeAt {
			prompt++
			if float64(n%100)/100 >= 0.4 {
				t.Fatalf("uncovered packet %d repaired before resume", n)
			}
		} else {
			backlog++
		}
	}
	// Sequences 1000-1149 hit residues 0-49 twice and 50-99 once, so the
	// [0,40) slice covers 40 + 40 = 80 packets.
	if prompt != 80 {
		t.Fatalf("prompt repairs = %d, want 80", prompt)
	}
	if backlog != 70 {
		t.Fatalf("backlog repairs = %d, want 70", backlog)
	}
}

func TestPlanBacklogPacing(t *testing.T) {
	// The backlog drains at the aggregate residual rate: with epsilon 0.5
	// (5 pkt/s) the k-th backlog packet arrives ~ (k+1)/5 s after resume.
	plan := planFor(testEpisode(true), []Server{
		mkServer(0.5, 0, 0),
	})
	ep := testEpisode(true)
	var backlog []int64
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		if float64(n%100)/100 >= 0.5 {
			backlog = append(backlog, n)
		}
	}
	for k, n := range backlog {
		want := ep.ResumeAt + time.Duration(float64(k+1)/5.0*float64(time.Second))
		if got, _ := plan.arrival(n); got != want {
			t.Fatalf("backlog packet %d arrives %v, want %v", n, got, want)
		}
	}
}

func TestPlanSingleSourceBaseline(t *testing.T) {
	// Three servers but no striping: only the first non-empty server's
	// bandwidth counts.
	striped := planFor(testEpisode(true), []Server{
		mkServer(0.3, 0, 0), mkServer(0.3, 0, 0), mkServer(0.3, 0, 0),
	})
	single := planFor(testEpisode(false), []Server{
		mkServer(0.3, 0, 0), mkServer(0.3, 0, 0), mkServer(0.3, 0, 0),
	})
	ep := testEpisode(true)
	stripedPrompt, singlePrompt := 0, 0
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		if at, ok := striped.arrival(n); ok && at < ep.ResumeAt {
			stripedPrompt++
		}
		if at, ok := single.arrival(n); ok && at < ep.ResumeAt {
			singlePrompt++
		}
	}
	if stripedPrompt <= singlePrompt {
		t.Fatalf("striped prompt repairs %d not above single-source %d", stripedPrompt, singlePrompt)
	}
	// Single-source skips zero-bandwidth heads of the list.
	skip := planFor(testEpisode(false), []Server{
		mkServer(0, 0, 0), mkServer(0.5, 0, 0),
	})
	if skip.repaired() == 0 {
		t.Fatal("single-source did not walk past an empty server")
	}
	// All-zero group: nothing repaired.
	if p := planFor(testEpisode(false), []Server{mkServer(0, 0, 0)}); p.repaired() != 0 {
		t.Fatal("zero-bandwidth group repaired packets")
	}
}

func TestPlanChainDelayPropagates(t *testing.T) {
	chain := 200 * time.Millisecond
	transfer := 100 * time.Millisecond
	plan := planFor(testEpisode(true), []Server{mkServer(1.0, chain, transfer)})
	ep := testEpisode(true)
	// A packet generated before the request arrives at request+chain+transfer.
	n := ep.FirstMissing
	want := ep.RequestAt + chain + transfer
	if got, _ := plan.arrival(n); got != want {
		t.Fatalf("old packet arrival %v, want %v", got, want)
	}
	// A packet generated after the request is forwarded live.
	late := ep.LastMissing
	wantLate := ep.gen(late) + transfer
	if got, _ := plan.arrival(late); got != wantLate {
		t.Fatalf("live packet arrival %v, want %v", got, wantLate)
	}
}

// TestPlanRecoveryProperties fuzzes episodes and server sets via
// testing/quick and checks the plan's invariants:
//   - every planned arrival is at or after both the request instant and the
//     packet's generation time;
//   - with positive aggregate bandwidth every missing packet gets a plan
//     entry (prompt or backlog);
//   - backlog arrivals are strictly increasing in sequence order.
func TestPlanRecoveryProperties(t *testing.T) {
	f := func(firstRaw uint16, spanRaw uint8, eps1, eps2, eps3 float64, striped bool) bool {
		rate := 10.0
		first := int64(firstRaw)
		last := first + int64(spanRaw%200)
		gen := func(n int64) time.Duration {
			return time.Duration(float64(n) / rate * float64(time.Second))
		}
		ep := Episode{
			FirstMissing: first,
			LastMissing:  last,
			RequestAt:    gen(first) + 5*time.Second,
			ResumeAt:     gen(first) + 15*time.Second,
			Rate:         rate,
			Striped:      striped,
		}
		clamp := func(x float64) float64 { return math.Mod(math.Abs(x), 0.9) }
		servers := []Server{
			mkServer(clamp(eps1), 10*time.Millisecond, 5*time.Millisecond),
			mkServer(clamp(eps2), 20*time.Millisecond, 10*time.Millisecond),
			mkServer(clamp(eps3), 30*time.Millisecond, 15*time.Millisecond),
		}
		aggregate := 0.0
		for _, s := range servers {
			aggregate += s.Epsilon
		}
		// Mirror the plan's coverage rule so backlog packets are identified
		// exactly (late live-forwarded packets also arrive after ResumeAt).
		covered := 0.0
		if striped {
			covered = math.Min(1, aggregate)
		} else {
			for _, s := range servers {
				if s.Epsilon > 0 {
					covered = s.Epsilon
					break
				}
			}
		}
		plan := planFor(ep, servers)
		var prevBacklog time.Duration
		for n := first; n <= last; n++ {
			at, ok := plan.arrival(n)
			if !ok {
				// Only legal when no usable bandwidth exists at all.
				if aggregate > 0 {
					return false
				}
				continue
			}
			if at < ep.RequestAt && at < gen(n) {
				return false
			}
			if float64(n%100)/100 >= covered { // backlog: post-resume, increasing
				if at < ep.ResumeAt {
					return false
				}
				if prevBacklog != 0 && at <= prevBacklog {
					return false
				}
				prevBacklog = at
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectAllocCeiling pins a selection's garbage on both bench trees (2 000
// members, and 8 000 at stream-cer's depth) at zero once the scratch is warm:
// the group is the selector's buffer. The partial tree used to cost three
// maps, a slice per node and a level list per call — ~200 allocations, 76 %
// of a streaming run.
func TestSelectAllocCeiling(t *testing.T) {
	for treeName, build := range map[string]func(testing.TB) (*overlay.Tree, *overlay.Member){"bench": benchTree, "deep": deepBenchTree} {
		tree, self := build(t)
		selectors := map[string]Selector{
			"MLC":    &MLCSelector{Tree: tree, Rng: xrand.New(2), Delay: delayFn},
			"random": &RandomSelector{Tree: tree, Rng: xrand.New(2), Delay: delayFn},
		}
		for name, sel := range selectors {
			if g := sel.Select(self, 3); len(g) != 3 { // warm call sizes the scratch
				t.Fatalf("%s tree, %s: warm group has %d members", treeName, name, len(g))
			}
			allocs := testing.AllocsPerRun(200, func() {
				if g := sel.Select(self, 3); len(g) != 3 {
					t.Fatal("short group")
				}
			})
			if allocs > 0 {
				t.Errorf("%s tree, %s: Select allocates %.1f times per call, want 0", treeName, name, allocs)
			}
		}
	}
}
