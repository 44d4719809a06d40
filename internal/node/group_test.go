package node

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"omcast/internal/cer"
	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/wire"
	"omcast/internal/xrand"
)

// memberAddr names an overlay member as a live address.
func memberAddr(m *overlay.Member) wire.Addr { return wire.Addr(fmt.Sprintf("m%d", m.ID)) }

// rootPath is m's ancestor path as a live node advertises it: parent first,
// the source last.
func rootPath(m *overlay.Member) []wire.Addr {
	var path []wire.Addr
	for p := m.Parent(); p != nil; p = p.Parent() {
		path = append(path, memberAddr(p))
	}
	return path
}

// randomTree attaches 20-60 members under random parents with spare degree.
func randomTree(t *testing.T, rng *xrand.Source) (*overlay.Tree, []*overlay.Member) {
	t.Helper()
	tree, err := overlay.NewTree(0, float64(2+rng.Intn(3)), func(a, b topology.NodeID) time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	members := []*overlay.Member{tree.Root()}
	for n := 20 + rng.Intn(41); len(members) <= n; {
		if p := members[rng.Intn(len(members))]; p.HasSpare() {
			m := tree.NewMember(topology.NodeID(len(members)), float64(1+rng.Intn(3)), 0)
			if err := tree.Attach(m.Slot(), p.Slot()); err != nil {
				t.Fatal(err)
			}
			members = append(members, m)
		}
	}
	return tree, members
}

// TestRecoveryGroupIsAlgorithm1 holds the live node's recovery group to the
// simulator's Algorithm 1 over 60 random trees: a node whose view is exactly
// one member's membership sample, with true root paths and viewOrder equal to
// sample order, must pick cer.MLC's group on the tree itself, address for
// address, when both draw from the same seeded stream. The simulator side
// bans what the node cannot use: every slot outside the sample.
func TestRecoveryGroupIsAlgorithm1(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		tree, members := randomTree(t, rng)
		self := members[1+rng.Intn(len(members)-1)]
		sample := tree.SampleSlots(rng, 8+rng.Intn(40), self.Slot(), nil)
		k := 1 + rng.Intn(4)

		cfg := fast
		cfg.RecoveryGroup, cfg.Seed = k, seed
		w := newWorld(t)
		nd := w.node(memberAddr(self), cfg)
		nd.attached, nd.parent, nd.ancestors = true, memberAddr(self.Parent()), rootPath(self)
		v := tree.SlotView()
		now := w.clock.Now()
		for i, slot := range sample {
			m := v.Member(slot)
			nd.viewAdd(memberAddr(m), now.Add(-time.Duration(i)*time.Millisecond))
			nd.peers[memberAddr(m)].info.Ancestors = rootPath(m)
		}

		var mlc cer.MLC
		parent, depth := tree.Shape()
		mlc.Reset(parent, depth, tree.Root().Slot(), self.Slot())
		for _, m := range members {
			if !slices.Contains(sample, m.Slot()) {
				mlc.Ban(m.Slot())
			}
		}
		var want []wire.Addr
		for _, slot := range mlc.Group(sample, k, xrand.NewNamed(seed, "node:select:"+string(memberAddr(self)))) {
			want = append(want, memberAddr(v.Member(slot)))
		}
		if got := nd.recoveryGroup(); !slices.Equal(got, want) {
			t.Fatalf("seed %d (%d members, sample %d, K=%d): node group %v, Algorithm 1 %v",
				seed, len(members), len(sample), k, got, want)
		}
	}
}

// groupNode is a never-started node attached under p, whose own path is
// [p, src].
func groupNode(t *testing.T, k int) *Node {
	t.Helper()
	n, _ := newGuardNode(func(cfg *Config) { cfg.RecoveryGroup = k })
	attachTo(n, "p")
	n.ancestors = []wire.Addr{"p", "src"}
	return n
}

// viewPath puts addr in n's view with the given ancestor path.
func viewPath(n *Node, addr wire.Addr, path ...wire.Addr) {
	n.viewAdd(addr, n.now())
	n.peers[addr].info.Ancestors = path
}

// TestRecoveryGroupExcludesDescendants: members whose path runs through this
// node receive the stream through it and lost the same packets, so
// Algorithm 1 never picks them, however many the group has room for.
func TestRecoveryGroupExcludesDescendants(t *testing.T) {
	n := groupNode(t, 4)
	viewPath(n, "kid", "self", "p", "src")
	viewPath(n, "grandkid", "kid", "self", "p", "src")
	viewPath(n, "cousin", "q", "src")
	viewPath(n, "uncle", "src")
	group := n.recoveryGroup()
	slices.Sort(group)
	if want := []wire.Addr{"cousin", "uncle"}; !slices.Equal(group, want) {
		t.Fatalf("recovery group = %v, want %v", group, want)
	}
}

// TestRecoveryGroupSurvivesContradictoryPaths feeds the view gossip no
// honest tree produces: a 2-cycle, paths through this node, a path of
// wire.MaxAncestors unknown addresses and one address twice on one path.
// Each time the group must be distinct in-view members that may serve — with
// room for all of them, exactly the members that are neither banned nor this
// node's descendants — and the partial tree must stay within the peer
// table's bound.
func TestRecoveryGroupSurvivesContradictoryPaths(t *testing.T) {
	long := make([]wire.Addr, wire.MaxAncestors)
	for i := range long {
		long[i] = wire.Addr(fmt.Sprintf("u%d", i))
	}
	cases := map[string]struct {
		add  func(n *Node)
		want []wire.Addr
	}{
		"2-cycle": {func(n *Node) {
			viewPath(n, "a", "b", "src")
			viewPath(n, "b", "a", "src")
		}, []wire.Addr{"a", "b", "ok"}},
		"through self": {func(n *Node) {
			viewPath(n, "x", "self", "p", "src")
			viewPath(n, "y", "x", "self", "src")
		}, []wire.Addr{"ok"}},
		"unknown path": {func(n *Node) { viewPath(n, "far", long...) }, []wire.Addr{"far", "ok"}},
		"duplicate":    {func(n *Node) { viewPath(n, "z", "a", "b", "a", "src") }, []wire.Addr{"ok", "z"}},
	}
	for name, c := range cases {
		n := groupNode(t, 8)
		now := n.now()
		viewPath(n, "ok", "src")
		viewPath(n, "p", "src")
		viewPath(n, "stale", "src")
		n.peers["stale"].seen = now.Add(-2 * n.tm.memberStaleAfter)
		viewPath(n, "convict", "src")
		n.peers["convict"].quarantinedUntil = now.Add(time.Hour)
		c.add(n)
		group := n.recoveryGroup()
		seen := map[wire.Addr]bool{}
		for _, a := range group {
			p, ok := n.peers[a]
			switch {
			case seen[a]:
				t.Errorf("%s: %s picked twice in %v", name, a, group)
			case !ok || !p.inView:
				t.Errorf("%s: %s is not in the view (%v)", name, a, group)
			case a == n.Addr() || a == n.parent || p.quarantined(now) || now.Sub(p.seen) > n.tm.memberStaleAfter:
				t.Errorf("%s: banned %s picked (%v)", name, a, group)
			}
			seen[a] = true
		}
		slices.Sort(group)
		if !slices.Equal(group, c.want) {
			t.Errorf("%s: recovery group %v, want %v", name, group, c.want)
		}
		if got, bound := len(n.group.addrs), n.tm.peerCap*(wire.MaxAncestors+1); got > bound {
			t.Errorf("%s: partial tree holds %d indices, bound %d", name, got, bound)
		}
	}
}
