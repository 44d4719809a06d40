package cer

import (
	"sort"

	"omcast/internal/overlay"
	"omcast/internal/xrand"
)

// This file is the oracle for the dense-scratch selectors: the map-based
// Algorithm 1 exactly as it ran before the rewrite (PR 20), kept verbatim so
// TestMLCSelectMatchesReference can hold the production code to the same
// groups and the same RNG draw sequence. Only the type holding it is new.

// refMLCSelector is MLCSelector's former Select over the reference partial
// tree, with banned excluded as MLC.Ban excludes it. widest and topUps count
// the calls that took Algorithm 1's two fallback branches, and deepLi the
// calls whose bracketing level Li is below the root, so the match test can
// show it reached them.
type refMLCSelector struct {
	MLCSelector
	banned                 map[overlay.MemberID]bool
	widest, deepLi, topUps int
}

func (s *refMLCSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	know := s.Knowledge
	if know <= 0 {
		know = DefaultKnowledge
	}
	pt := buildPartialTree(s.Tree, s.Rng, self, know, s.banned)
	if pt == nil {
		return nil
	}
	switch li := pt.bracket(k); {
	case li < 0:
		s.widest++
	case li >= 1:
		s.deepLi++
	}
	roots := pt.subtreeRoots(s.Rng, k)
	group := make([]*overlay.Member, 0, k)
	for _, r := range roots {
		if d := pt.randomUsableDescendant(s.Rng, r); d != nil {
			group = append(group, d)
		}
		if len(group) == k {
			break
		}
	}
	// Top up from any usable known member if the tree was too narrow.
	if len(group) < k {
		s.topUps++
		for _, n := range pt.usableFallback(s.Rng, k-len(group), group) {
			group = append(group, n)
		}
	}
	refOrderByDistance(&s.MLCSelector, self, group)
	return group
}

// bracket returns the first level i with |Li| < K <= |Li+1|, or -1.
func (pt *refPartialTree) bracket(k int) int {
	for i := 0; i+1 < len(pt.levels); i++ {
		if len(pt.levels[i]) < k && k <= len(pt.levels[i+1]) {
			return i
		}
	}
	return -1
}

func refOrderByDistance(s *MLCSelector, self *overlay.Member, group []*overlay.Member) {
	if s.Delay == nil {
		return
	}
	sort.SliceStable(group, func(i, j int) bool {
		return s.Delay(self.Attach(), group[i].Attach()) < s.Delay(self.Attach(), group[j].Attach())
	})
}

// refRandomSelector is RandomSelector's former Select.
type refRandomSelector struct{ RandomSelector }

func (s *refRandomSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	if k <= 0 {
		return nil
	}
	know := s.Knowledge
	if know <= 0 {
		know = DefaultKnowledge
	}
	banned := rootPathSet(self, nil)
	sample := s.Tree.Sample(s.Rng, know, self)
	group := make([]*overlay.Member, 0, k)
	for _, c := range sample {
		if !usableRecoveryNode(c, self, banned) {
			continue
		}
		group = append(group, c)
		if len(group) == k {
			break
		}
	}
	if s.Delay != nil {
		sort.SliceStable(group, func(i, j int) bool {
			return s.Delay(self.Attach(), group[i].Attach()) < s.Delay(self.Attach(), group[j].Attach())
		})
	}
	return group
}

// rootPathSet returns self's strict ancestors plus self, merged with any
// extra exclusions (refMLCSelector's banned set).
func rootPathSet(self *overlay.Member, extra map[overlay.MemberID]bool) map[overlay.MemberID]bool {
	banned := map[overlay.MemberID]bool{self.ID: true}
	for p := self.Parent(); p != nil; p = p.Parent() {
		banned[p.ID] = true
	}
	for id := range extra {
		banned[id] = true
	}
	return banned
}

// usableRecoveryNode rejects candidates whose losses are inherently
// correlated with self: self's ancestors (they fail with self's path) and
// self's descendants (they receive the stream through self).
func usableRecoveryNode(c, self *overlay.Member, bannedPath map[overlay.MemberID]bool) bool {
	if c == nil || c == self || !c.Attached() {
		return false
	}
	if bannedPath[c.ID] {
		return false
	}
	for p := c.Parent(); p != nil; p = p.Parent() {
		if p == self {
			return false // descendant of self
		}
	}
	return true
}

// refPartialTree is the tree a node reconstructs from the ancestor paths of the
// members it knows about. Node identity is the real member pointer (the
// ancestor lists carry addresses), but edges reflect only sampled paths.
type refPartialTree struct {
	self     *overlay.Member
	banned   map[overlay.MemberID]bool
	root     *overlay.Member
	children map[overlay.MemberID][]*overlay.Member
	known    map[overlay.MemberID]bool // members that appear in T
	levels   [][]*overlay.Member
}

// buildPartialTree samples `know` members and assembles their root paths.
func buildPartialTree(tree *overlay.Tree, rng *xrand.Source, self *overlay.Member, know int, extraBanned map[overlay.MemberID]bool) *refPartialTree {
	sample := tree.Sample(rng, know, self)
	if len(sample) == 0 {
		return nil
	}
	pt := &refPartialTree{
		self:     self,
		banned:   rootPathSet(self, extraBanned),
		root:     tree.Root(),
		children: make(map[overlay.MemberID][]*overlay.Member),
		known:    make(map[overlay.MemberID]bool),
	}
	seenEdge := make(map[[2]overlay.MemberID]bool)
	addPath := func(m *overlay.Member) {
		if !m.Attached() {
			return
		}
		for cur := m; cur != nil; {
			pt.known[cur.ID] = true
			p := cur.Parent()
			if p == nil {
				break
			}
			edge := [2]overlay.MemberID{p.ID, cur.ID}
			if !seenEdge[edge] {
				seenEdge[edge] = true
				pt.children[p.ID] = append(pt.children[p.ID], cur)
			}
			cur = p
		}
	}
	// The node knows its own path as well.
	addPath(self)
	for _, m := range sample {
		addPath(m)
	}
	pt.buildLevels()
	return pt
}

func (pt *refPartialTree) buildLevels() {
	level := []*overlay.Member{pt.root}
	for len(level) > 0 {
		pt.levels = append(pt.levels, level)
		var next []*overlay.Member
		for _, n := range level {
			next = append(next, pt.children[n.ID]...)
		}
		level = next
	}
}

// subtreeRoots implements steps 2-3 of Algorithm 1: find the first level Li
// with |Li| < K <= |Li+1| and gather K distinct subtree roots from the
// children of Li.
func (pt *refPartialTree) subtreeRoots(rng *xrand.Source, k int) []*overlay.Member {
	li := -1
	for i := 0; i+1 < len(pt.levels); i++ {
		if len(pt.levels[i]) < k && k <= len(pt.levels[i+1]) {
			li = i
			break
		}
	}
	if li == -1 {
		// No level pair brackets K (narrow or shallow partial tree): use the
		// widest level as the root set directly.
		widest := 0
		for i, lv := range pt.levels {
			if len(lv) > len(pt.levels[widest]) {
				widest = i
			}
		}
		roots := append([]*overlay.Member(nil), pt.levels[widest]...)
		rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
		if len(roots) > k {
			roots = roots[:k]
		}
		return roots
	}
	// Round-robin: pick one random not-yet-chosen child per Li node until K
	// roots are gathered.
	remaining := make(map[overlay.MemberID][]*overlay.Member, len(pt.levels[li]))
	for _, v := range pt.levels[li] {
		cs := append([]*overlay.Member(nil), pt.children[v.ID]...)
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		remaining[v.ID] = cs
	}
	var roots []*overlay.Member
	for len(roots) < k {
		progressed := false
		for _, v := range pt.levels[li] {
			cs := remaining[v.ID]
			if len(cs) == 0 {
				continue
			}
			roots = append(roots, cs[0])
			remaining[v.ID] = cs[1:]
			progressed = true
			if len(roots) == k {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return roots
}

// randomUsableDescendant picks a random known member in root's partial
// subtree (including root itself) that can serve as a recovery node for
// self.
func (pt *refPartialTree) randomUsableDescendant(rng *xrand.Source, root *overlay.Member) *overlay.Member {
	var cands []*overlay.Member
	var walk func(n *overlay.Member)
	walk = func(n *overlay.Member) {
		if usableRecoveryNode(n, pt.self, pt.banned) {
			cands = append(cands, n)
		}
		for _, c := range pt.children[n.ID] {
			walk(c)
		}
	}
	walk(root)
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

// usableFallback returns up to n usable known members not already chosen.
func (pt *refPartialTree) usableFallback(rng *xrand.Source, n int, chosen []*overlay.Member) []*overlay.Member {
	taken := make(map[overlay.MemberID]bool, len(chosen))
	for _, c := range chosen {
		taken[c.ID] = true
	}
	var cands []*overlay.Member
	var walk func(m *overlay.Member)
	walk = func(m *overlay.Member) {
		if !taken[m.ID] && usableRecoveryNode(m, pt.self, pt.banned) {
			cands = append(cands, m)
		}
		for _, c := range pt.children[m.ID] {
			walk(c)
		}
	}
	walk(pt.root)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
}
