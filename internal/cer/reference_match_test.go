package cer

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// churnedTree is a random overlay the match tests mutate between selector
// calls, so detached members sit in the sampling order and freed slots are
// handed to new members while the selectors' scratch epochs are live.
type churnedTree struct {
	t      *testing.T
	tree   *overlay.Tree
	rng    *xrand.Source
	live   []*overlay.Member
	bws    []float64
	attach topology.NodeID
}

// shapes is how many tree shapes newChurnedTree builds.
const shapes = 4

// newChurnedTree builds one of four shapes: wide (the source feeds up to 100
// children, so some level pair brackets any small K), narrow (out-degree at
// most 2 from the source down, so no level pair brackets K = 8 and Algorithm
// 1 falls to the widest level), shallow (a handful of members, fewer usable
// than K, so the group needs the top-up), and deep (thousands of members with
// out-degree 1-3 below a source of degree 2-3, at least 12 levels, so K is
// bracketed below level 0 and the widest level lies deep).
func newChurnedTree(t *testing.T, seed int64, shape int) *churnedTree {
	t.Helper()
	rng := xrand.New(seed)
	rootBW, bws, n := 100.0, []float64{0.5, 0.5, 1, 2, 4, 8}, 200+rng.Intn(300)
	switch shape {
	case 1:
		rootBW, bws, n = float64(1+rng.Intn(2)), []float64{1, 1, 2}, 40+rng.Intn(80)
	case 2:
		bws, n = []float64{0.5, 1, 3}, 2+rng.Intn(10)
	case 3:
		rootBW, bws, n = float64(2+rng.Intn(2)), []float64{1, 2, 3}, 2000+rng.Intn(500)
	}
	tree, err := overlay.NewTree(0, rootBW, delayFn)
	if err != nil {
		t.Fatal(err)
	}
	c := &churnedTree{t: t, tree: tree, rng: rng, bws: bws, attach: 1}
	c.grow(n)
	if d := tree.MaxDepth(); shape == 3 && d < 12 {
		t.Fatalf("deep shape (seed %d) is only %d levels deep", seed, d)
	}
	return c
}

// place attaches m under a random attached member with spare degree, if a
// few draws find one; otherwise m stays detached.
func (c *churnedTree) place(m *overlay.Member) {
	for try := 0; try < 8; try++ {
		p := c.tree.Root()
		if try > 0 && len(c.live) > 0 {
			p = c.live[c.rng.Intn(len(c.live))]
		}
		if p != m && p.Attached() && p.HasSpare() {
			if err := c.tree.Attach(m, p); err != nil {
				c.t.Fatalf("attach: %v", err)
			}
			return
		}
	}
}

// grow adds n members; one in ten is left detached on purpose.
func (c *churnedTree) grow(n int) {
	for i := 0; i < n; i++ {
		m := c.tree.NewMember(c.attach, c.bws[c.rng.Intn(len(c.bws))], time.Duration(c.attach)*time.Second)
		c.attach++
		if c.rng.Intn(10) > 0 {
			c.place(m)
		}
		c.live = append(c.live, m)
	}
}

// churn removes a few members (half the orphans rejoin, the rest keep their
// subtrees detached) and adds a few, which recycles the freed slots.
func (c *churnedTree) churn() {
	for i := c.rng.Intn(4); i > 0 && len(c.live) > 1; i-- {
		j := c.rng.Intn(len(c.live))
		orphans, err := c.tree.Remove(c.live[j])
		if err != nil {
			c.t.Fatalf("remove: %v", err)
		}
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		for _, o := range orphans {
			if c.rng.Intn(2) == 0 {
				c.place(o)
			}
		}
	}
	c.grow(c.rng.Intn(6))
}

// pickSelf returns a random member, preferring a detached one every fifth
// call or so.
func (c *churnedTree) pickSelf() *overlay.Member {
	self := c.live[c.rng.Intn(len(c.live))]
	if c.rng.Intn(5) == 0 {
		for _, m := range c.live {
			if !m.Attached() {
				return m
			}
		}
	}
	return self
}

// TestMLCSelectMatchesReference holds both production selectors to the
// map-based reference in reference_test.go: over 560 seeded trees, with one
// long-lived selector per tree and churn between calls, every group must be
// element-wise identical and the two RNG streams must stay in step — the
// rewrite may not add, drop or reorder a single draw. On every other run of
// twelve trees (each shape at each knowledge), a second MLC pair selects too,
// with a tenth of the members banned through MLC.Ban, as the live node bans.
func TestMLCSelectMatchesReference(t *testing.T) {
	const trials, rounds = 560, 6
	ks := []int{1, 3, 8, 1000}
	var widest, deepLi, topUps, detachedSelf, calls, bannedCalls int
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial + 1)
		shape := trial % shapes
		c := newChurnedTree(t, seed, shape)
		know := []int{0, 10, 30}[trial/shapes%3]
		mlc := &MLCSelector{Tree: c.tree, Rng: xrand.New(seed), Delay: delayFn, Knowledge: know}
		ref := &refMLCSelector{MLCSelector: MLCSelector{Tree: c.tree, Rng: xrand.New(seed), Delay: delayFn, Knowledge: know}}
		var banMLC *MLCSelector
		var banRef *refMLCSelector
		var banned map[overlay.MemberID]bool
		if trial/(shapes*3)%2 == 0 {
			banned = map[overlay.MemberID]bool{}
			for _, m := range c.live {
				if c.rng.Intn(10) == 0 {
					banned[m.ID] = true
				}
			}
			banMLC = &MLCSelector{Tree: c.tree, Rng: xrand.New(^seed), Delay: delayFn, Knowledge: know}
			banRef = &refMLCSelector{MLCSelector: MLCSelector{Tree: c.tree, Rng: xrand.New(^seed), Delay: delayFn, Knowledge: know}, banned: banned}
		}
		rnd := &RandomSelector{Tree: c.tree, Rng: xrand.New(-seed), Delay: delayFn, Knowledge: know}
		refRnd := &refRandomSelector{RandomSelector: RandomSelector{Tree: c.tree, Rng: xrand.New(-seed), Delay: delayFn, Knowledge: know}}
		for round := 0; round < rounds; round++ {
			self, k := c.pickSelf(), ks[c.rng.Intn(len(ks))]
			if !self.Attached() {
				detachedSelf++
			}
			calls++
			where := fmt.Sprintf("trial %d round %d (shape %d, self %d, k %d)", trial, round, shape, self.ID, k)
			if got, want := mlc.Select(self, k), ref.Select(self, k); !slices.Equal(got, want) {
				t.Fatalf("%s: MLC group %v, reference %v", where, ids(got), ids(want))
			}
			if a, b := mlc.Rng.Int63(), ref.Rng.Int63(); a != b {
				t.Fatalf("%s: MLC drew a different RNG sequence than the reference", where)
			}
			if banMLC != nil {
				bannedCalls++
				if got, want := selectBanned(banMLC, self, k, banned), banRef.Select(self, k); !slices.Equal(got, want) {
					t.Fatalf("%s: MLC group with bans %v, reference %v", where, ids(got), ids(want))
				}
				if a, b := banMLC.Rng.Int63(), banRef.Rng.Int63(); a != b {
					t.Fatalf("%s: MLC with bans drew a different RNG sequence than the reference", where)
				}
			}
			if got, want := rnd.Select(self, k), refRnd.Select(self, k); !slices.Equal(got, want) {
				t.Fatalf("%s: random group %v, reference %v", where, ids(got), ids(want))
			}
			if a, b := rnd.Rng.Int63(), refRnd.Rng.Int63(); a != b {
				t.Fatalf("%s: RandomSelector drew a different RNG sequence than the reference", where)
			}
			c.churn()
		}
		widest += ref.widest
		deepLi += ref.deepLi
		topUps += ref.topUps
	}
	// The trial mix must reach every branch of Algorithm 1, or the equality
	// above proves less than it says. A bracket below level 0 is what makes
	// the production code list levels past the root's children.
	if widest < calls/20 || topUps < calls/20 || widest > calls*19/20 || detachedSelf < calls/40 || deepLi < calls/40 || bannedCalls < calls/3 {
		t.Fatalf("branch coverage too thin over %d calls: %d widest-level, %d bracketed at Li >= 1, %d top-ups, %d detached selves, %d with bans",
			calls, widest, deepLi, topUps, detachedSelf, bannedCalls)
	}
	t.Logf("%d calls: %d took the widest-level branch, %d bracketed K at Li >= 1, %d needed the top-up, %d had a detached self; %d repeated with bans",
		calls, widest, deepLi, topUps, detachedSelf, bannedCalls)
}

func ids(ms []*overlay.Member) []overlay.MemberID {
	out := make([]overlay.MemberID, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}
