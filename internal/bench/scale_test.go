package bench

import (
	"os"
	"testing"

	"omcast"
)

// ScaleBytesPerMemberCeiling is the committed memory budget for the
// struct-of-arrays core: retained heap per steady-state member at M=10^5,
// full underlay, ROST. The 2026-10 measurement on the reference container
// was ~400 B/member (tree arrays, churn bookkeeping, kernel queue and the
// ID-map growth from the 30-minute window's churn included; the shared
// underlay is built before the window and not counted); the ceiling leaves
// ~2.5x headroom for legitimate growth while still catching a per-member map
// or pointer-graph regression, which costs multiples.
const ScaleBytesPerMemberCeiling = 1024.0

// ScaleAllocPerMemberCeiling is the committed garbage budget of the same
// run: bytes allocated over the whole run (seeding and 30 minutes of churn;
// not the underlay build) per steady-state member. The 2026-10 measurement
// was 182 MB at M=10^5, ~1 780 B/member; the ceiling sits ~3.5x above it.
// What it catches is a per-join or per-event cost that scales with M: the one
// it was written for (Sample re-making its dedup scratch on every join of a
// growing tree) allocated ~20 GB here, ~200 000 B/member, without moving the
// retained-heap figure above at all.
const ScaleAllocPerMemberCeiling = 6144.0

// TestScaleQuickPoint exercises the scale runner end to end at a tiny size:
// every observable must be populated and the deterministic event count must
// repeat across runs, within one point's runs and across points.
func TestScaleQuickPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("scale point skipped in -short mode")
	}
	run := func() ScalePoint {
		pts, err := RunScale([]int{300}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 || pts[0].Runs != scaleRuns {
			t.Fatalf("got %d points, want 1 of %d runs: %+v", len(pts), scaleRuns, pts)
		}
		return pts[0]
	}
	p := run()
	if p.Events == 0 || p.AvgSize <= 0 {
		t.Fatalf("empty scale point: %+v", p)
	}
	if p.HeapBytes == 0 || p.BytesPerMember <= 0 || p.AllocBytes < p.HeapBytes {
		t.Fatalf("no memory observables: %+v", p)
	}
	// Every member created costs at least its handle.
	if p.Mallocs == 0 || p.MallocsPerArrival < 1 {
		t.Fatalf("no allocation-count observables: %+v", p)
	}
	if p.WallNs <= 0 || p.NsPerEvent <= 0 {
		t.Fatalf("no time observables: %+v", p)
	}
	if q := run(); q.Events != p.Events || q.AvgSize != p.AvgSize || q.AvgDisruptions != p.AvgDisruptions {
		t.Fatalf("deterministic fields differ across runs: %+v vs %+v", p, q)
	}
}

// orderSeed is the seed of the next underlay TestScalePointsIndependentOfOrder
// asks for. No other test in the package uses it, and each run of the test
// takes the next one, so its first point always meets a cold underlay.
var orderSeed int64 = 1_000_001

// TestScalePointsIndependentOfOrder: two identical points in one process
// measure the same. Sessions share the underlay through topology.Shared, so
// only the first run on a config builds it; were that inside the measurement
// window, the first point alone would carry the build and the retained tables
// (~4 MB at M = 1 000 on the full underlay, against ~0.4 MB for the session).
// The points run on an underlay nothing else in the process has built (see
// orderSeed): on a warm topology.Shared memo neither point would build it,
// and the test would pass without checking anything, alone, in a whole
// package run or under -count alike.
func TestScalePointsIndependentOfOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full-underlay scale points skipped in -short mode")
	}
	cfg := scaleConfig(1000, false)
	cfg.Seed = orderSeed
	orderSeed++
	var pts [2]omcast.ScaleResult
	for i := range pts {
		res, err := omcast.RunScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = res
	}
	first, second := pts[0], pts[1]
	if first.Events != second.Events {
		t.Fatalf("events %d then %d on the same config", first.Events, second.Events)
	}
	within := func(x, y uint64) bool { return float64(max(x, y)) <= 1.1*float64(min(x, y)) }
	if !within(first.HeapBytes, second.HeapBytes) || !within(first.AllocBytes, second.AllocBytes) {
		t.Fatalf("the first point measured differently from the second: heap %d vs %d B, allocated %d vs %d B",
			first.HeapBytes, second.HeapBytes, first.AllocBytes, second.AllocBytes)
	}
}

// TestScaleSmokeMemoryBudget is the CI scale-smoke gate: one M=10^5 run on
// the full underlay asserting the committed retained-bytes/member and
// allocated-bytes/member ceilings. Gated on
// OMCAST_SCALE_SMOKE=1 because the run takes minutes (more under -race);
// the scale-smoke CI job sets the variable.
func TestScaleSmokeMemoryBudget(t *testing.T) {
	if os.Getenv("OMCAST_SCALE_SMOKE") != "1" {
		t.Skip("set OMCAST_SCALE_SMOKE=1 to run the M=100000 smoke")
	}
	p, err := omcast.RunScale(scaleConfig(100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	if p.AvgSize < 90_000 {
		t.Fatalf("steady-state size %.0f never reached the 100k target", p.AvgSize)
	}
	if p.BytesPerMember > ScaleBytesPerMemberCeiling {
		t.Fatalf("bytes/member = %.0f exceeds the committed ceiling %.0f (heap %d over %.0f members)",
			p.BytesPerMember, ScaleBytesPerMemberCeiling, p.HeapBytes, p.AvgSize)
	}
	allocPerMember := float64(p.AllocBytes) / p.AvgSize
	if allocPerMember > ScaleAllocPerMemberCeiling {
		t.Fatalf("allocated bytes/member = %.0f exceeds the committed ceiling %.0f (%d bytes allocated over %.0f members)",
			allocPerMember, ScaleAllocPerMemberCeiling, p.AllocBytes, p.AvgSize)
	}
	t.Logf("scale smoke: %.0f B/member retained (ceiling %.0f), %.0f B/member allocated (ceiling %.0f), %.1f ns/event over %d events",
		p.BytesPerMember, ScaleBytesPerMemberCeiling, allocPerMember, ScaleAllocPerMemberCeiling, p.NsPerEvent, p.Events)
}
