package node

import (
	"testing"
	"time"

	"omcast/internal/tracing"
	"omcast/internal/tracing/flight"
)

// attrVal extracts one attribute from a span ("" when absent).
func attrVal(sp tracing.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

// TestSpanInstrumentation boots a traced overlay, kills an interior node and
// asserts the causal span chain the flight recorders captured: every member
// completes a boot join episode, and at least one orphan records a rejoin
// episode (cause=timeout) whose attempt child links back to it.
func TestSpanInstrumentation(t *testing.T) {
	rings := make(map[int]*flight.Ring)
	c := newCluster(t, 12, func(i int, cfg *Config) {
		r := flight.NewRing(0)
		rings[i] = r
		cfg.Trace = r
	})
	c.eventually(5*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "stream warm", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().HighestPacket < 20 {
				return false
			}
		}
		return true
	})

	// Every member's ring holds its completed boot join episode.
	for i, nd := range c.nodes {
		var joined bool
		for _, sp := range rings[i].Snapshot() {
			if sp.Kind == tracing.KindJoin && sp.Outcome == "attached" {
				joined = true
				if sp.Node != string(nd.Addr()) {
					t.Fatalf("join span node = %q, want %q", sp.Node, nd.Addr())
				}
				if attrVal(sp, "cause") != "boot" {
					t.Fatalf("join span cause = %q, want boot", attrVal(sp, "cause"))
				}
			}
		}
		if !joined {
			t.Fatalf("node %d recorded no completed join span", i)
		}
	}

	var victim *Node
	for _, nd := range c.nodes {
		if nd.Stats().Children > 0 {
			victim = nd
			break
		}
	}
	if victim == nil {
		t.Skip("no interior member in this layout")
	}
	victim.Kill()
	c.eventually(8*time.Second, "survivors re-attached", func() bool {
		for _, nd := range c.nodes {
			if nd == victim {
				continue
			}
			s := nd.Stats()
			if !s.Attached || s.Parent == victim.Addr() {
				return false
			}
		}
		return true
	})

	// At least one survivor completed a rejoin episode caused by the
	// heartbeat timeout, with an accepted attempt child inside it.
	var sawRejoin, sawLinkedAttempt bool
	for i, nd := range c.nodes {
		if nd == victim {
			continue
		}
		spans := rings[i].Snapshot()
		episodes := make(map[string]bool)
		for _, sp := range spans {
			if sp.Kind == tracing.KindRejoin && sp.Outcome == "reattached" {
				sawRejoin = true
				episodes[sp.ID] = true
				if cause := attrVal(sp, "cause"); cause != "timeout" && cause != "stall" {
					t.Fatalf("rejoin cause = %q, want timeout or stall", cause)
				}
				if sp.End < sp.Start {
					t.Fatalf("rejoin span ends before it starts: %+v", sp)
				}
			}
		}
		for _, sp := range spans {
			if sp.Kind == tracing.KindAttempt && sp.Outcome == "accepted" && episodes[sp.Parent] {
				sawLinkedAttempt = true
			}
		}
	}
	if !sawRejoin {
		t.Fatal("no survivor recorded a completed rejoin span")
	}
	if !sawLinkedAttempt {
		t.Fatal("no accepted attempt span links to a rejoin episode")
	}
}

// TestRepairSpanRoundTrip kills an interior node (opening stream gaps below
// it) and asserts some survivor's flight recorder captured a completed
// repair round-trip span: striped request out, first repair data back.
func TestRepairSpanRoundTrip(t *testing.T) {
	rings := make(map[int]*flight.Ring)
	c := newCluster(t, 14, func(i int, cfg *Config) {
		r := flight.NewRing(0)
		rings[i] = r
		cfg.Trace = r
	})
	c.eventually(5*time.Second, "all attached", c.allAttached)
	c.eventually(5*time.Second, "stream warm", func() bool {
		for _, nd := range c.nodes {
			if nd.Stats().HighestPacket < 30 {
				return false
			}
		}
		return true
	})
	var victim *Node
	victimIdx := -1
	for i, nd := range c.nodes {
		if nd.Stats().Children > 0 {
			victim, victimIdx = nd, i
			break
		}
	}
	if victim == nil {
		t.Skip("no interior member")
	}
	victim.Kill()
	c.eventually(8*time.Second, "a repair span completed", func() bool {
		for i, r := range rings {
			if i == victimIdx {
				continue
			}
			for _, sp := range r.Snapshot() {
				if sp.Kind == tracing.KindRepair && sp.Outcome == "repaired" {
					return true
				}
			}
		}
		return false
	})
}
