package overlay

import (
	"testing"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// walkStats counts what a churned tree went through, so a test can refuse a
// workload too tame to exercise what it claims to.
type walkStats struct {
	recycled, detachedWalks int
}

// churnDetached drives steps random operations into tree: arrivals onto
// random routers, some left detached and many landing in recycled slots;
// removals whose orphans keep their subtrees detached about half the time;
// detaches of attached subtrees; and re-attaches of detached ones. It calls
// check after every step with a random live member, attached or not.
func churnDetached(t *testing.T, tree *Tree, seed int64, steps int, check func(step int, m *Member)) walkStats {
	t.Helper()
	rng := xrand.New(seed)
	var live []*Member
	var st walkStats
	// parentFor returns a random attached member with a spare slot, or nil.
	parentFor := func(m *Member) *Member {
		for k := 0; k < 8 && len(live) > 0; k++ {
			if p := live[rng.Intn(len(live))]; p != m && view(tree).Attached(p.Slot()) && p.HasSpare() {
				return p
			}
		}
		if tree.Root().HasSpare() {
			return tree.Root()
		}
		return nil
	}
	attach := func(step int, m, p *Member) {
		if err := tree.Attach(m.Slot(), p.Slot()); err != nil {
			t.Fatalf("step %d: attach %d under %d: %v", step, m.ID, p.ID, err)
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Float64(); {
		case len(live) < 8 || len(live) < 300 && op < 0.45:
			slots := int32(len(tree.handle))
			m := tree.NewMember(topology.NodeID(rng.Intn(1000)), float64(rng.Intn(4)), time.Duration(step))
			if m.Slot() < slots {
				st.recycled++
			}
			live = append(live, m)
			if p := parentFor(m); p != nil && rng.Float64() < 0.9 {
				attach(step, m, p)
			}
		case op < 0.7:
			k := rng.Intn(len(live))
			m := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			orphans, err := tree.Remove(m.Slot())
			if err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			for _, o := range orphans {
				om := view(tree).Member(o)
				if p := parentFor(om); p != nil && rng.Float64() < 0.5 {
					attach(step, om, p)
				}
			}
		case op < 0.85:
			if m := live[rng.Intn(len(live))]; m.Parent() != nil {
				if err := tree.Detach(m.Slot()); err != nil {
					t.Fatalf("step %d: detach: %v", step, err)
				}
			}
		default:
			if m := live[rng.Intn(len(live))]; m.Parent() == nil && !view(tree).Attached(m.Slot()) {
				if p := parentFor(m); p != nil {
					for a := p; a != nil; a = a.Parent() {
						if a == m {
							p = nil // p sits in m's own detached subtree
							break
						}
					}
					if p != nil {
						attach(step, m, p)
					}
				}
			}
		}
		m := tree.Root()
		if len(live) > 0 && rng.Intn(2) == 0 {
			m = live[rng.Intn(len(live))]
		}
		if !view(tree).Attached(m.Slot()) && m.NumChildren() > 0 {
			st.detachedWalks++
		}
		check(step, m)
	}
	return st
}

// TestSlotWalkMatchesVisitSubtree holds the slot walk the tree sample uses —
// SlotView.Next with SlotView.PathDelay and SlotView.Attach — to
// VisitSubtree's pre-order of (path delay, Member.Attach) through the
// handles, from
// the source and from random members, detached subtrees included, over a tree
// whose slots are recycled throughout. A recycled slot that kept its previous
// occupant's router fails here.
func TestSlotWalkMatchesVisitSubtree(t *testing.T) {
	tree, err := NewTree(0, 4, testDelay)
	if err != nil {
		t.Fatal(err)
	}
	type visit struct {
		delay time.Duration
		at    topology.NodeID
	}
	var want, got []visit
	st := churnDetached(t, tree, 21, 4000, func(step int, m *Member) {
		want, got = want[:0], got[:0]
		tree.VisitSubtree(m, func(c *Member) { want = append(want, visit{view(tree).PathDelay(c.Slot()), c.Attach()}) })
		v, top := tree.SlotView(), m.Slot()
		for i := top; i >= 0; i = v.Next(i, top) {
			got = append(got, visit{v.PathDelay(i), v.Attach(i)})
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: slot walk from member %d visits %d slots, VisitSubtree %d", step, m.ID, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("step %d: slot walk from member %d, position %d: %+v, VisitSubtree %+v", step, m.ID, k, got[k], want[k])
			}
		}
	})
	if st.recycled < 500 || st.detachedWalks < 100 {
		t.Fatalf("workload too tame: %d recycled slots, %d walks of detached subtrees", st.recycled, st.detachedWalks)
	}
	checkInv(t, tree)
}

// TestUnindexedTreeKeepsNoLevelLists churns a tree nobody asks for a level
// index and requires that it kept no level lists, no level counter and no
// level slots at any point.
func TestUnindexedTreeKeepsNoLevelLists(t *testing.T) {
	tree, err := NewTree(0, 4, testDelay)
	if err != nil {
		t.Fatal(err)
	}
	churnDetached(t, tree, 22, 3000, func(step int, m *Member) {
		if tree.levels != nil || tree.levelCount != 0 || m.LevelPos() != -1 {
			t.Fatalf("step %d: an unindexed tree keeps %d level lists, counter %d, member %d at level slot %d",
				step, len(tree.levels), tree.levelCount, m.ID, m.LevelPos())
		}
	})
	if tree.levelIdx != nil {
		t.Fatalf("an unindexed tree keeps %d level slots", len(tree.levelIdx))
	}
	if tree.MaxDepth() < 3 {
		t.Fatalf("workload too tame: the tree is %d levels deep", tree.MaxDepth())
	}
	checkInv(t, tree)
}

// TestFirstLevelIndexOnPopulatedTree asks for the level index only once the
// tree is populated and churned: the lists it starts must hold the attached
// members in pre-order, the full checker must pass at once, and it must keep
// passing as churn goes on under the index.
func TestFirstLevelIndexOnPopulatedTree(t *testing.T) {
	for _, order := range []LevelOrder{ByBandwidth, ByJoinTime} {
		tree, err := NewTree(0, 4, testDelay)
		if err != nil {
			t.Fatal(err)
		}
		churnDetached(t, tree, 23, 2000, func(int, *Member) {})
		maxDepth := tree.MaxDepth()
		tree.LevelIndex(order, nil)
		checkInv(t, tree)
		if tree.MaxDepth() != maxDepth || maxDepth < 3 {
			t.Fatalf("order %d: MaxDepth %d from the lists, %d from the scan", order, tree.MaxDepth(), maxDepth)
		}
		pos := make([]int, maxDepth+1)
		tree.VisitSubtree(tree.Root(), func(m *Member) {
			d := m.Depth()
			if level := tree.Level(d); pos[d] >= len(level) || level[pos[d]] != m || m.LevelPos() != pos[d] {
				t.Fatalf("order %d: member %d is not at position %d of level %d", order, m.ID, pos[d], d)
			}
			pos[d]++
		})
		for d, n := range pos {
			if len(tree.Level(d)) != n {
				t.Fatalf("order %d: level %d lists %d members, the walk found %d", order, d, len(tree.Level(d)), n)
			}
		}
		churnDetached(t, tree, 24, 2000, func(step int, _ *Member) {
			if step%25 == 0 {
				checkInv(t, tree)
			}
		})
		checkInv(t, tree)
	}
}
