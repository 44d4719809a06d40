package bench

import (
	"os"
	"testing"
)

// ScaleBytesPerMemberCeiling is the committed memory budget for the
// struct-of-arrays core: retained heap per steady-state member at M=10^5,
// full underlay, ROST. The 2026-08 measurement on the reference container
// was ~440 B/member (tree arrays, churn bookkeeping, kernel queue and the
// ID-map growth from the 30-minute window's churn included); the ceiling
// leaves ~2.3x headroom for legitimate growth while still catching a
// per-member map or pointer-graph regression, which costs multiples.
const ScaleBytesPerMemberCeiling = 1024.0

// ScaleAllocPerMemberCeiling is the committed garbage budget of the same
// run: bytes allocated over the whole run (underlay build, seeding, 30
// minutes of churn) per steady-state member. The 2026-10 measurement was
// 192 MB at M=10^5, ~1 900 B/member; the ceiling sits ~3x above it. What it
// catches is a per-join or per-event cost that scales with M: the one it was
// written for (Sample re-making its dedup scratch on every join of a growing
// tree) allocated ~20 GB here, ~200 000 B/member, without moving the
// retained-heap figure above at all.
const ScaleAllocPerMemberCeiling = 6144.0

// TestScaleQuickPoint exercises the scale runner end to end at a tiny size:
// every observable must be populated and the deterministic event count must
// repeat across runs.
func TestScaleQuickPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("scale point skipped in -short mode")
	}
	run := func() ScalePoint {
		pts, err := RunScale([]int{300}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 {
			t.Fatalf("got %d points, want 1", len(pts))
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
	if p.WallNs <= 0 || p.NsPerEvent <= 0 {
		t.Fatalf("no time observables: %+v", p)
	}
	if q := run(); q.Events != p.Events || q.AvgSize != p.AvgSize || q.AvgDisruptions != p.AvgDisruptions {
		t.Fatalf("deterministic fields differ across runs: %+v vs %+v", p, q)
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
	pts, err := RunScale([]int{100_000}, false, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
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
