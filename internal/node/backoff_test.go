package node

import (
	"fmt"
	"testing"
	"time"

	"omcast/internal/wire"
	"omcast/internal/xrand"
)

// TestBackoffDelayPolicy pins the shared backoff shape: deterministic for a
// given (seed, streak), doubling from base, capped at max, jittered within
// [d/2, d).
func TestBackoffDelayPolicy(t *testing.T) {
	base, max := 100*time.Millisecond, 800*time.Millisecond
	a := xrand.NewNamed(7, "node:join:x")
	b := xrand.NewNamed(7, "node:join:x")
	for streak := 0; streak < 10; streak++ {
		da := backoffDelay(base, max, streak, a)
		db := backoffDelay(base, max, streak, b)
		if da != db {
			t.Fatalf("streak %d: %s vs %s — jitter not deterministic", streak, da, db)
		}
		full := base << streak
		if full > max || streak >= 3 {
			full = max
		}
		if da < full/2 || da >= full {
			t.Fatalf("streak %d: delay %s outside [%s, %s)", streak, da, full/2, full)
		}
	}
	// Different node addresses must draw different jitter streams.
	c := xrand.NewNamed(7, "node:join:y")
	same := 0
	for streak := 0; streak < 8; streak++ {
		if backoffDelay(base, max, streak, a) == backoffDelay(base, max, streak, c) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("distinct nodes drew identical jitter streams")
	}
}

// TestJoinBackoffGrows boots a node with an unreachable bootstrap and checks
// that its join attempts slow down: the gap between consecutive attempts
// must grow toward the cap rather than staying at heartbeat cadence.
func TestJoinBackoffGrows(t *testing.T) {
	w := newWorld(t)
	cfg := fast
	cfg.Bandwidth = 1
	cfg.Bootstrap = []wire.Addr{"nobody-home"}
	// The join backoff runs from one heartbeat to eight: 10 ms to 80 ms here.
	cfg.HeartbeatInterval = 10 * time.Millisecond
	nd := w.node("loner", cfg)
	nd.Start()

	// With base 10 ms capped at 80 ms, 1 s admits at most ~1000/40 + a few
	// early fast attempts; without backoff (heartbeat cadence) it would be
	// ~100.
	w.advance(time.Second)
	nd.mu.Lock()
	streak := nd.joinStreak
	nd.mu.Unlock()
	if streak < 5 {
		t.Fatalf("join streak = %d after 1s of futile attempts, want >= 5", streak)
	}
	low := nd.tm.joinBackoffMax / 2
	d := backoffDelay(nd.tm.joinBackoffBase, nd.tm.joinBackoffMax, streak, xrand.NewNamed(cfg.Seed, "node:join:loner"))
	if d < low {
		t.Fatalf("delay at streak %d = %s, want >= %s (cap reached)", streak, d, low)
	}
}

// TestJoinBackoffResetsOnAttach: once accepted, the streak clears so a later
// detachment retries at base cadence.
func TestJoinBackoffResetsOnAttach(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.eventually(5*time.Second, "all attached", c.allAttached)
	for _, nd := range c.nodes {
		nd.mu.Lock()
		streak := nd.joinStreak
		nd.mu.Unlock()
		if streak != 0 {
			t.Fatalf("node %s: joinStreak = %d after attach, want 0", nd.Addr(), streak)
		}
	}
}

// TestRecoveryGroupExcludesStaleMembers injects a membership view where one
// member's record stopped refreshing: CER candidate selection must skip it,
// while fresh members with identical scores stay eligible.
func TestRecoveryGroupExcludesStaleMembers(t *testing.T) {
	cfg := fast
	cfg.Bandwidth = 1
	cfg.RecoveryGroup = 3
	// Members go stale after 10 gossip rounds: 1 s.
	cfg.GossipInterval = 100 * time.Millisecond
	w := newWorld(t)
	nd := w.node("self", cfg) // never Started: recoveryGroup is a pure read

	now := w.clock.Now()
	nd.mu.Lock()
	nd.attached = true
	nd.parent = "parent"
	for i := 0; i < 4; i++ {
		nd.viewAdd(wire.Addr(fmt.Sprintf("fresh%d", i)), now)
	}
	nd.viewAdd("stale", now.Add(-10*time.Second)) // stopped heartbeating long ago
	nd.mu.Unlock()

	group := nd.recoveryGroup()
	if len(group) != 3 {
		t.Fatalf("group size = %d, want 3", len(group))
	}
	for _, addr := range group {
		if addr == "stale" {
			t.Fatalf("stale member selected into recovery group: %v", group)
		}
	}
	// Sanity: staleness is what kept it out — heard from again, the same
	// member is eligible (K widens to all five usable members, so whatever
	// Algorithm 1 draws, the group holds every one of them).
	nd.mu.Lock()
	nd.peers["stale"].seen = w.clock.Now()
	nd.cfg.RecoveryGroup = 5
	nd.mu.Unlock()
	group = nd.recoveryGroup()
	found := false
	for _, addr := range group {
		if addr == "stale" {
			found = true
		}
	}
	if !found {
		t.Fatalf("refreshed member still excluded: %v", group)
	}
}
