package overlay

import (
	"testing"
	"time"
)

// TestLevelIndexRebuildsOnOrderChange: two strategies sharing a tree each get
// their own ranking, never the other's.
func TestLevelIndexRebuildsOnOrderChange(t *testing.T) {
	tree := newTestTree(t)
	oldWeak := mustJoin(t, tree, tree.Root(), 1, 1, 0)                 // oldest, least bandwidth
	youngStrong := mustJoin(t, tree, tree.Root(), 2, 5, 9*time.Second) // youngest, most bandwidth
	mustJoin(t, tree, tree.Root(), 3, 3, 5*time.Second)
	if got := tree.LevelIndex(ByBandwidth).Weakest(1); got != oldWeak {
		t.Fatalf("weakest by bandwidth is member %d, want %d", got.ID, oldWeak.ID)
	}
	if got := tree.LevelIndex(ByJoinTime).Weakest(1); got != youngStrong {
		t.Fatalf("weakest by join time is member %d, want %d", got.ID, youngStrong.ID)
	}
	checkInv(t, tree)
	if got := tree.LevelIndex(ByBandwidth).Weakest(1); got != oldWeak {
		t.Fatalf("back under bandwidth the weakest is member %d, want %d", got.ID, oldWeak.ID)
	}
	checkInv(t, tree)
	if tree.LevelIndex(ByBandwidth).Weakest(0) != nil || tree.LevelIndex(ByBandwidth).Weakest(7) != nil {
		t.Fatal("the source's level or an empty level offers someone to evict")
	}
	if spare := tree.LevelIndex(ByBandwidth).Spare(0); len(spare) != 1 || spare[0] != tree.Root() {
		t.Fatalf("level 0's spare set is %v, want the source alone", spare)
	}
}
