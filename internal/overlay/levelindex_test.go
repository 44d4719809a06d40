package overlay

import (
	"testing"
	"time"
)

// TestLevelIndexRebuildsOnOrderChange: two strategies sharing a tree each get
// their own ranking and their own filing of spare members, never the other's.
func TestLevelIndexRebuildsOnOrderChange(t *testing.T) {
	tree := newTestTree(t)
	oldWeak := mustJoin(t, tree, tree.Root(), 1, 1, 0)                 // oldest, least bandwidth
	youngStrong := mustJoin(t, tree, tree.Root(), 2, 5, 9*time.Second) // youngest, most bandwidth
	mustJoin(t, tree, tree.Root(), 3, 3, 5*time.Second)
	if got := tree.LevelIndex(ByBandwidth, nil).Weakest(1); got != oldWeak {
		t.Fatalf("weakest by bandwidth is member %d, want %d", got.ID, oldWeak.ID)
	}
	if got := tree.LevelIndex(ByJoinTime, nil).Weakest(1); got != youngStrong {
		t.Fatalf("weakest by join time is member %d, want %d", got.ID, youngStrong.ID)
	}
	checkInv(t, tree)
	if got := tree.LevelIndex(ByBandwidth, nil).Weakest(1); got != oldWeak {
		t.Fatalf("back under bandwidth the weakest is member %d, want %d", got.ID, oldWeak.ID)
	}
	checkInv(t, tree)
	if tree.LevelIndex(ByBandwidth, nil).Weakest(0) != nil || tree.LevelIndex(ByBandwidth, nil).Weakest(7) != nil {
		t.Fatal("the source's level or an empty level offers someone to evict")
	}
	if spare := tree.LevelIndex(ByBandwidth, nil).Spare(0, 0); len(spare) != 1 || spare[0] != tree.Root() {
		t.Fatalf("level 0's spare set is %v, want the source alone", spare)
	}
	// Under an underlay the same order files spare members by home instead.
	underlay := testUnderlay(t)
	x := tree.LevelIndex(ByBandwidth, underlay)
	if x.SpareCount(1) != 3 || len(x.Spare(1, underlay.Home(oldWeak.Attach()))) == 0 {
		t.Fatalf("level 1 under the underlay: %d spare, none under member %d's home", x.SpareCount(1), oldWeak.ID)
	}
	checkInv(t, tree)
}
