package overlay

import "omcast/internal/topology"

// LevelOrder names the rank a level index keeps its weakest-occupant heaps
// under. The centralized relaxed algorithms replace the weakest occupant of a
// layer with a joining member that outranks it.
type LevelOrder uint8

const (
	// ByBandwidth ranks a larger outbound Bandwidth higher (relaxed BO).
	ByBandwidth LevelOrder = iota + 1
	// ByJoinTime ranks an earlier JoinTime, an older member, higher (relaxed TO).
	ByJoinTime
)

// Outranks reports whether a ranks strictly above b, two live members of one
// tree: a strict weak order, which is what makes a level's weakest occupant
// the only eviction candidate.
func (o LevelOrder) Outranks(a, b *Member) bool { return o.outranks(a.tree, a.idx, b.idx) }

// outranks is Outranks on slots a and b of t: it reads the keys from the
// slot arrays.
func (o LevelOrder) outranks(t *Tree, a, b int32) bool {
	if o == ByBandwidth {
		return t.bandwidth[a] > t.bandwidth[b]
	}
	return t.joinTime[a] < t.joinTime[b]
}

// LevelIndex summarises each level list for the top-down eviction scan: the
// weakest occupant under one LevelOrder and the occupants with spare degree,
// filed by their home transit router in the underlay so a nearest-parent
// search can visit them near to far. The tree maintains it, and the level
// lists it summarises, at its level- and child-list mutation sites once
// Tree.LevelIndex has built it; a tree nobody asks never pays for either.
type LevelIndex struct {
	t        *Tree
	order    LevelOrder
	underlay *topology.Topology
	// buckets is the number of home buckets per level: the underlay's transit
	// routers, or one without an underlay.
	buckets int
	// heaps[d] is a binary heap over the slots of level d's occupants (the
	// source excluded: it cannot be evicted) whose top is the weakest and,
	// among equals, the one earliest in Level(d); its compares read the rank
	// keys by slot. spare[d*buckets+h] holds level d's occupants with
	// kidCount < outDeg whose home is h, unordered; spareN[d] counts them over
	// every bucket. heapPos/sparePos give a slot's position in its heap and its
	// bucket, or none.
	heaps             [][]int32
	spare             [][]*Member
	spareN            []int
	heapPos, sparePos []int32
}

// LevelIndex returns the tree's level index under order o with spare members
// filed by their home in underlay (all in bucket 0 when underlay is nil),
// building it on first use and rebuilding it when the tree last indexed a
// different order or underlay, so one strategy's view is never served to
// another. Callers fetch it per join and do not retain it.
//
// The first call also starts the level lists (Level, LevelPos): it lists the
// members attached at that moment in pre-order, and every later placement
// appends. The relaxed strategies ask at their first join, while only the
// source is attached; a rebuild keeps the lists as they are.
func (t *Tree) LevelIndex(o LevelOrder, underlay *topology.Topology) *LevelIndex {
	if t.lx == nil {
		t.levelIdx = make([]int32, len(t.handle), cap(t.handle))
		for i := range t.levelIdx {
			t.levelIdx[i] = none
		}
		for n := t.root.idx; n != none; n = t.next(n, t.root.idx) {
			t.levelInsert(n)
		}
	}
	if t.lx == nil || t.lx.order != o || t.lx.underlay != underlay {
		t.lx = &LevelIndex{t: t, order: o, underlay: underlay, buckets: 1}
		if underlay != nil {
			t.lx.buckets = underlay.TransitCount()
		}
		for _, level := range t.levels {
			for _, m := range level {
				t.lx.insert(m.idx)
			}
		}
	}
	return t.lx
}

// Weakest returns the lowest-ranked occupant of level d, the first in Level(d)
// order among equals, or nil when the level has nobody evictable.
func (x *LevelIndex) Weakest(d int) *Member {
	if d >= len(x.heaps) || len(x.heaps[d]) == 0 {
		return nil
	}
	return x.t.handle[x.heaps[d][0]]
}

// SpareCount returns how many of level d's occupants can accept one more
// child.
func (x *LevelIndex) SpareCount(d int) int {
	if d >= len(x.spareN) {
		return 0
	}
	return x.spareN[d]
}

// Spare returns level d's occupants whose home is h and that can accept one
// more child, in no particular order (Member.LevelPos recovers Level(d)
// order). Without an underlay every one of them is in bucket 0. The slice is
// owned by the tree and valid until the next mutation.
func (x *LevelIndex) Spare(d int, h topology.NodeID) []*Member {
	if d >= len(x.spareN) {
		return nil
	}
	return x.spare[d*x.buckets+int(h)]
}

// bucket returns the index in spare of the bucket the attached member at slot
// n is filed in: its level's, under its home.
func (x *LevelIndex) bucket(n int32) int {
	b := int(x.t.depth[n]) * x.buckets
	if x.underlay != nil {
		b += int(x.underlay.Home(x.t.attach[n]))
	}
	return b
}

// LevelPos returns the member's position in Level(Depth()), or -1 when it is
// not attached or its tree keeps no level lists.
func (m *Member) LevelPos() int {
	if m.tree == nil || m.idx < 0 || m.tree.lx == nil {
		return -1
	}
	return int(m.tree.levelIdx[m.idx])
}

// insert adds the member at slot n, just appended to its level list.
func (x *LevelIndex) insert(n int32) {
	t, d := x.t, int(x.t.depth[n])
	for len(x.heaps) <= d {
		x.heaps, x.spareN = append(x.heaps, nil), append(x.spareN, 0)
		x.spare = append(x.spare, make([][]*Member, x.buckets)...)
	}
	for len(x.heapPos) <= int(n) {
		x.heapPos, x.sparePos = append(x.heapPos, none), append(x.sparePos, none)
	}
	if t.parent[n] != none {
		x.heapPos[n] = int32(len(x.heaps[d]))
		x.heaps[d] = append(x.heaps[d], n)
		x.up(x.heaps[d], x.heapPos[n])
	}
	x.spareSync(n, t.kidCount[n] < t.outDeg[n])
}

// remove drops the member at slot n from both sets just before levelRemove
// takes it out of its level list, and ranks the list's tail, which that
// swap-remove is about to move into n's position, at its new position.
func (x *LevelIndex) remove(n int32) {
	t, d := x.t, x.t.depth[n]
	if k := x.heapPos[n]; k != none {
		h := x.heaps[d]
		last := int32(len(h) - 1)
		h[k] = h[last]
		x.heapPos[h[k]] = k
		x.heaps[d], x.heapPos[n] = h[:last], none
		if k < last {
			x.up(h[:last], k)
			x.down(h[:last], k)
		}
	}
	x.spareSync(n, false)
	if tail := t.levels[d][len(t.levels[d])-1]; tail.idx != n && x.heapPos[tail.idx] != none {
		t.levelIdx[tail.idx] = t.levelIdx[n] // as levelRemove will set it
		x.up(x.heaps[d], x.heapPos[tail.idx])
	}
}

// spareSync makes the attached member at slot n's presence in its level's
// spare set equal want.
func (x *LevelIndex) spareSync(n int32, want bool) {
	k := x.sparePos[n]
	if want == (k != none) {
		return
	}
	d, b := x.t.depth[n], x.bucket(n)
	s := x.spare[b]
	if want {
		x.sparePos[n] = int32(len(s))
		x.spare[b] = append(s, x.t.handle[n])
		x.spareN[d]++
		return
	}
	last := len(s) - 1
	s[k] = s[last]
	x.sparePos[s[k].idx] = k
	s[last] = nil
	x.spare[b], x.sparePos[n] = s[:last], none
	x.spareN[d]--
}

// weaker is the heap order over slots: lower rank first, then earlier level
// position.
func (x *LevelIndex) weaker(a, b int32) bool {
	if x.order.outranks(x.t, b, a) {
		return true
	}
	return !x.order.outranks(x.t, a, b) && x.t.levelIdx[a] < x.t.levelIdx[b]
}

func (x *LevelIndex) up(h []int32, k int32) {
	for k > 0 {
		p := (k - 1) / 2
		if !x.weaker(h[k], h[p]) {
			return
		}
		h[k], h[p] = h[p], h[k]
		x.heapPos[h[k]], x.heapPos[h[p]] = k, p
		k = p
	}
}

func (x *LevelIndex) down(h []int32, k int32) {
	for {
		c := 2*k + 1
		if int(c) >= len(h) {
			return
		}
		if int(c)+1 < len(h) && x.weaker(h[c+1], h[c]) {
			c++
		}
		if !x.weaker(h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		x.heapPos[h[k]], x.heapPos[h[c]] = k, c
		k = c
	}
}
