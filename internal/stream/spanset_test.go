package stream

import (
	"testing"

	"omcast/internal/xrand"
)

func freshSet() spanSet { return spanSet{watermark: -1} }

func wantWatermark(t *testing.T, s *spanSet, watermark int64) {
	t.Helper()
	if s.watermark != watermark {
		t.Fatalf("watermark = %d, want %d", s.watermark, watermark)
	}
}

func wantUncovered(t *testing.T, s *spanSet, from, to int64, want span) {
	t.Helper()
	if got := s.uncovered(from, to); got != want {
		t.Fatalf("uncovered(%d,%d) = %v, want %v (watermark %d)", from, to, got, want, s.watermark)
	}
}

func TestSpanSetZeroLengthIsNoOp(t *testing.T) {
	s := freshSet()
	s.add(0) // nothing below 0
	wantWatermark(t, &s, -1)
	wantUncovered(t, &s, 5, 5, span{5, 5})
	wantUncovered(t, &s, 7, 3, span{3, 3})
}

func TestSpanSetWatermarkExtension(t *testing.T) {
	s := freshSet()
	s.add(10)
	wantWatermark(t, &s, 9)
	s.add(20) // a later window extends it
	wantWatermark(t, &s, 19)
	s.add(15) // entirely at or below: no change
	wantWatermark(t, &s, 19)
}

// TestSpanSetMergeAndAbsorb: a window that overlaps the accounted prefix
// contributes only its tail, and accounting it folds it into the prefix.
func TestSpanSetMergeAndAbsorb(t *testing.T) {
	s := freshSet()
	wantUncovered(t, &s, 10, 20, span{10, 20})
	s.add(20)
	wantUncovered(t, &s, 18, 32, span{20, 32})
	s.add(32)
	wantWatermark(t, &s, 31)
	wantUncovered(t, &s, 25, 32, span{32, 32})
}

func TestSpanSetAppendUncovered(t *testing.T) {
	s := spanSet{watermark: 9}
	cases := []struct {
		from, to int64
		want     span
	}{
		{0, 40, span{10, 40}},  // clipped at the watermark
		{9, 11, span{10, 11}},  // straddles it by one
		{12, 20, span{12, 20}}, // wholly above it
		{0, 5, span{5, 5}},     // fully below the watermark
		{0, 10, span{10, 10}},  // ends exactly at watermark+1
	}
	for _, tc := range cases {
		wantUncovered(t, &s, tc.from, tc.to, tc.want)
	}
}

// TestSpanSetSeal: accounting a window forgets everything below it, so a
// disjoint later window is wholly uncovered and leaves no residue.
func TestSpanSetSeal(t *testing.T) {
	s := freshSet()
	wantUncovered(t, &s, 1000, 1150, span{1000, 1150})
	s.add(1150)
	wantWatermark(t, &s, 1149)
	wantUncovered(t, &s, 1100, 1250, span{1150, 1250}) // overlapping later episode
	s.add(1250)
	wantUncovered(t, &s, 5000, 5100, span{5000, 5100}) // disjoint later episode
	s.add(5100)
	wantWatermark(t, &s, 5099)
}

// TestSpanSetMatchesNaive is the property test behind the watermark: for
// episode windows whose starts never decrease — as failure times never do —
// including zero-length, adjacent, overlapping and disjoint windows, the
// uncovered range of each window must be exactly the packets a naive
// per-packet boolean model has not yet accounted.
func TestSpanSetMatchesNaive(t *testing.T) {
	const domain = 240
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		s := freshSet()
		naive := make([]bool, domain)
		from := int64(0)
		for op := 0; op < 60; op++ {
			from = min(from+int64(rng.Intn(domain/16)), domain)
			to := min(from+int64(rng.Intn(domain/4)), domain) // zero-length allowed
			u := s.uncovered(from, to)
			if u.from < from || u.from > u.to || u.to != to {
				t.Fatalf("trial %d op %d: uncovered(%d,%d) = %v outside the window", trial, op, from, to, u)
			}
			for n := from; n < to; n++ {
				if inU := n >= u.from; inU == naive[n] {
					t.Fatalf("trial %d op %d: seq %d uncovered=%v but naive accounted=%v", trial, op, n, inU, naive[n])
				}
			}
			s.add(to)
			for n := from; n < to; n++ {
				naive[n] = true
			}
		}
	}
}
