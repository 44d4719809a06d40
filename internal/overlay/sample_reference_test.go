package overlay

import (
	"fmt"
	"testing"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// refSample is the membership sample as it was drawn while the order list
// held handles and the draw deduplicated through a map: the oracle
// SampleSlots must match draw for draw.
func refSample(t *Tree, rng *xrand.Source, n int, exclude *Member) []*Member {
	order := make([]*Member, len(t.order))
	for k, r := range t.order {
		order[k] = t.handle[r.slot]
	}
	if n <= 0 || len(order) == 0 {
		return nil
	}
	var out []*Member
	if n >= len(order) {
		for _, m := range order {
			if m != exclude {
				out = append(out, m)
			}
		}
		return out
	}
	seen := make(map[int]bool)
	attempts := 0
	for len(out) < n && attempts < 20*n {
		attempts++
		i := rng.Intn(len(order))
		if seen[i] {
			continue
		}
		seen[i] = true
		if order[i] == exclude {
			continue
		}
		out = append(out, order[i])
	}
	return out
}

// TestSampleSlotsMatchesReference churns one tree — arrivals into recycled
// slots, attaches, detaches, removals — and after every step draws the same
// request two ways from two equally seeded streams: refSample and SampleSlots
// behind a non-empty prefix. The requests cover n = 0, small n, n just below,
// at and above the membership, and the exclusion of nobody, the source, an
// attached member, a detached one and a removed one (whose slot reads -1).
// Both must list the same members in the same order, and the streams must
// stand at the same point afterwards.
func TestSampleSlotsMatchesReference(t *testing.T) {
	tree := newTestTree(t)
	ops := xrand.New(11)
	draws := [2]*xrand.Source{xrand.New(5), xrand.New(5)}
	var live, removed []*Member
	recycled, partial := 0, 0
	prefix := []int32{-7, -8}
	for step := 0; step < 3000; step++ {
		switch op := ops.Float64(); {
		case len(live) < 5 || len(live) < 400 && op < 0.45:
			slots := int32(len(tree.handle))
			m := tree.NewMember(topology.NodeID(ops.Intn(50)), float64(ops.Intn(4)), time.Duration(step))
			if m.Slot() < slots {
				recycled++
			}
			live = append(live, m)
			if ops.Float64() < 0.8 {
				p := live[ops.Intn(len(live))]
				if p == m || !view(tree).Attached(p.Slot()) || !p.HasSpare() {
					p = tree.Root()
				}
				if p.HasSpare() {
					if err := tree.Attach(m.Slot(), p.Slot()); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		case op < 0.8:
			k := ops.Intn(len(live))
			m := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := tree.Remove(m.Slot()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			removed = append(removed, m)
		default:
			if m := live[ops.Intn(len(live))]; m.Parent() != nil {
				if err := tree.Detach(m.Slot()); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}

		size := len(tree.order)
		n := []int{0, 1, 7, 60, size - 1, size, size + 3}[ops.Intn(7)]
		var exclude *Member
		switch ops.Intn(5) {
		case 1:
			exclude = tree.Root()
		case 2, 3:
			exclude = live[ops.Intn(len(live))] // attached or not
		case 4:
			if len(removed) > 0 {
				exclude = removed[ops.Intn(len(removed))]
			}
		}
		exSlot := int32(-1)
		if exclude != nil {
			exSlot = exclude.Slot()
		}
		if n > 0 && n < size {
			partial++
		}

		want := refSample(tree, draws[0], n, exclude)
		slots := tree.SampleSlots(draws[1], n, exSlot, append([]int32(nil), prefix...))
		if slots[0] != prefix[0] || slots[1] != prefix[1] {
			t.Fatalf("step %d: SampleSlots overwrote dst's prefix: %v", step, slots[:2])
		}
		if err := sameMembers(want, tree, slots[len(prefix):]); err != nil {
			t.Fatalf("step %d: n=%d exclude %v: SampleSlots %v", step, n, exclude != nil, err)
		}
		if a, b := draws[0].Int63(), draws[1].Int63(); a != b {
			t.Fatalf("step %d: streams diverged after the draw: %d %d", step, a, b)
		}
	}
	if recycled < 500 || partial < 1000 || len(removed) < 500 {
		t.Fatalf("workload too tame: %d recycled slots, %d partial draws, %d removals", recycled, partial, len(removed))
	}
}

// sameMembers compares the reference draw with the members in slots.
func sameMembers(want []*Member, tree *Tree, slots []int32) error {
	if len(slots) != len(want) {
		return fmt.Errorf("drew %d members, the reference %d", len(slots), len(want))
	}
	for k, w := range want {
		if got := tree.handle[slots[k]]; got != w {
			return fmt.Errorf("draw %d is member %d, the reference's %d", k, got.ID, w.ID)
		}
	}
	return nil
}
