package main

import "testing"

// TestSamplesBelowOneRejected: the delay profile needs at least one pair, and
// a negative count would reach make() as a capacity and panic. Both are usage
// errors (exit 2) caught before the topology is built.
func TestSamplesBelowOneRejected(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if code := cmdTopo([]string{"-samples", n}); code != 2 {
			t.Errorf("topo -samples %s = %d, want 2", n, code)
		}
	}
}

// TestSmallTopologyRuns drives the whole report on a tiny underlay.
func TestSmallTopologyRuns(t *testing.T) {
	args := []string{"-transit-domains", "2", "-transit-nodes", "2", "-stub-domains", "1", "-stub-nodes", "2", "-samples", "50", "-verify"}
	if code := cmdTopo(args); code != 0 {
		t.Fatalf("topo %v = %d, want 0", args, code)
	}
}
