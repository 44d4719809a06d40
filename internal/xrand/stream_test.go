package xrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// streamSeeds are the seeds the stream-identity tests replay: zero (which
// math/rand maps to its own default), small and large negatives, multiples
// and neighbours of 2^31-1 (math/rand reduces seeds modulo it), the
// extremes of int64, a spread of ordinary values and the seeds NewNamed
// derives for the simulator's stream names.
func streamSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, -2, m, -m, 2 * m, -3 * m, m - 1, m + 1, 1 << 31, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i := int64(0); i < 120; i++ {
		seeds = append(seeds, i*7919+3, -i*104729-11)
	}
	for _, name := range []string{"strategy", "cer.select", "churn.arrival", "churn.bandwidth", "stream.residual", "source.attach"} {
		for seed := int64(-3); seed <= 6; seed++ {
			seeds = append(seeds, namedSeed(seed, name))
		}
	}
	return seeds
}

// namedSeed repeats NewNamed's derivation (TestNamedSeedIsNewNamed pins the
// two together) so the tests can hand the seed to math/rand directly.
func namedSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

func TestNamedSeedIsNewNamed(t *testing.T) {
	for _, name := range []string{"strategy", "churn.bandwidth", ""} {
		s, ref := NewNamed(9, name), New(namedSeed(9, name))
		for i := 0; i < 10; i++ {
			if s.Int63() != ref.Int63() {
				t.Fatalf("namedSeed(9, %q) is not NewNamed's seed", name)
			}
		}
	}
}

// checkSameStream draws every distribution the simulator uses from s and from
// the math/rand reference ref in lockstep, well past the 607 values a
// take-over replays, and fails on the first difference.
func checkSameStream(t *testing.T, seed int64, s *Source, ref *rand.Rand) {
	t.Helper()
	exp := Exponential{Rate: 3}
	for i := 0; i < 100; i++ {
		if got, want := s.Float64(), ref.Float64(); got != want {
			t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, got, want)
		}
		if got, want := s.NormFloat64(), ref.NormFloat64(); got != want {
			t.Fatalf("seed %d draw %d: NormFloat64 %v, math/rand %v", seed, i, got, want)
		}
		if got, want := exp.Sample(s), ref.ExpFloat64()/3; got != want {
			t.Fatalf("seed %d draw %d: Exponential %v, math/rand %v", seed, i, got, want)
		}
		if got, want := s.UniformDuration(time.Millisecond, time.Hour), time.Millisecond+time.Duration(ref.Int63n(int64(time.Hour-time.Millisecond))); got != want {
			t.Fatalf("seed %d draw %d: UniformDuration %v, math/rand %v", seed, i, got, want)
		}
		if got, want := s.Intn(10007+i), ref.Intn(10007+i); got != want {
			t.Fatalf("seed %d draw %d: Intn %d, math/rand %d", seed, i, got, want)
		}
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, got, want)
		}
		a, b := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
		s.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !slices.Equal(a, b) {
			t.Fatalf("seed %d draw %d: Shuffle %v, math/rand %v", seed, i, a, b)
		}
		got := s.AppendIntn(nil, 1000+i, i%5)
		for k, v := range got {
			if want := ref.Intn(1000 + i); v != want {
				t.Fatalf("seed %d draw %d: AppendIntn[%d] %d, math/rand %d", seed, i, k, v, want)
			}
		}
	}
}

// TestTakeOverKeepsTheStream pins the batched draw's generator to math/rand's
// stream: over every seed, a Source whose generator AppendIntn took over at
// position 0, or after a seed-dependent run of draws, keeps returning
// math/rand's values from every method.
func TestTakeOverKeepsTheStream(t *testing.T) {
	seeds := streamSeeds()
	if len(seeds) < 200 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	for _, seed := range seeds {
		for _, skip := range []int{0, 1 + int(uint64(seed)%1500)} {
			s, ref := New(seed), rand.New(rand.NewSource(seed))
			for range skip {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: stream differs from math/rand before the take-over", seed)
				}
			}
			if got, want := s.AppendIntn(nil, 3, 1)[0], ref.Intn(3); got != want {
				t.Fatalf("seed %d, take-over after %d draws: first batched draw %d, math/rand %d", seed, skip, got, want)
			}
			if s.gen == nil {
				t.Fatalf("seed %d: AppendIntn did not take the generator over", seed)
			}
			checkSameStream(t, seed, s, ref)
		}
	}
}

// TestAppendIntnMatchesIntn pins AppendIntn to count calls of Intn: the same
// values after an untouched prefix, and the two streams at the same point
// afterwards. The bounds cover powers of two, where Int31n masks instead of
// rejecting, a rejection rate near one half (2^30+3), the largest 31-bit n
// and, where int has the bits, the fallback to Intn beyond 31 bits.
func TestAppendIntnMatchesIntn(t *testing.T) {
	ns := []int{1, 2, 3, 64, 10007, 1 << 30, 1<<30 + 3, 1<<31 - 1}
	if math.MaxInt > math.MaxInt32 {
		ns = append(ns, 1<<31, 1<<40+5)
	}
	for _, n := range ns {
		s, ref := New(int64(n)), New(int64(n))
		prefix := []int{-1, -2}
		for count := 0; count <= 300; count++ {
			got := s.AppendIntn(prefix, n, count)
			if len(got) != len(prefix)+count || got[0] != -1 || got[1] != -2 {
				t.Fatalf("n=%d count=%d: appended %d values to the prefix %v", n, count, len(got)-len(prefix), got[:2])
			}
			for k, v := range got[len(prefix):] {
				if want := ref.Intn(n); v != want {
					t.Fatalf("n=%d count=%d: value %d is %d, Intn %d", n, count, k, v, want)
				}
			}
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("n=%d count=%d: streams apart after the batch", n, count)
			}
		}
	}
}

// paretoPerDraw is BoundedPareto.Sample's inverse transform with the bounds'
// powers computed for the one draw.
func paretoPerDraw(p BoundedPareto, u float64) float64 {
	la, ha := math.Pow(p.Lo, p.Shape), math.Pow(p.Hi, p.Shape)
	return math.Min(math.Max(math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Shape), p.Lo), p.Hi)
}

// TestBoundedParetoHoistedPowers pins Sample, whose stream keeps L^a and
// H^a between draws, to the per-draw formula bit for bit. One stream samples
// distributions that differ in one parameter each, switching every 777
// draws, and then a copy edited after it sampled, so neither an edit nor a
// second distribution on the stream may draw with the old powers. The zero
// value comes first, while the stream has no powers yet.
func TestBoundedParetoHoistedPowers(t *testing.T) {
	ps := []BoundedPareto{
		{},
		paperBandwidth,
		{Shape: 1.2, Lo: 0.5, Hi: 2.2},
		{Shape: 0.7, Lo: 0.5, Hi: 2.2},
		{Shape: 0.7, Lo: 0.3, Hi: 2.2},
		{Shape: 0.7, Lo: 0.3, Hi: 41},
	}
	s, ref := New(13), New(13)
	for i := 0; i < 100000; i++ {
		p := ps[i/777%len(ps)]
		want := paretoPerDraw(p, ref.Float64())
		if got := p.Sample(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v draw %d: %v, per-draw formula %v", p, i, got, want)
		}
	}
	bw := paperBandwidth
	for _, hi := range []float64{100, 2.2} {
		bw.Hi = hi
		want := paretoPerDraw(bw, ref.Float64())
		if got := bw.Sample(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Hi %v after sampling: %v, per-draw formula %v", hi, got, want)
		}
	}
}
