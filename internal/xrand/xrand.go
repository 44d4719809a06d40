// Package xrand supplies the random workload models used throughout the
// simulator: bounded Pareto member bandwidths, lognormal member lifetimes and
// exponential (Poisson-process) inter-arrival gaps, all drawn from
// deterministic named sub-streams of a single master seed so that every
// experiment is exactly replayable.
package xrand

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Source is a deterministic random stream: math/rand's value stream, with the
// distribution samplers the paper's workload requires and a batched bounded
// draw.
type Source struct {
	rng *rand.Rand
	// gen is the stream's own generator once AppendIntn has taken it over
	// from math/rand's source (nil until then); rng draws from it too.
	gen *lfib
	// pow holds the bounds' powers of the BoundedPareto this stream last
	// sampled.
	pow paretoPowers
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// NewNamed derives an independent sub-stream from a master seed and a stream
// name. Different names yield uncorrelated streams; the same (seed, name)
// pair always yields the same stream. This keeps, e.g., topology randomness
// independent of churn randomness so that changing one experiment knob does
// not perturb unrelated draws.
func NewNamed(seed int64, name string) *Source {
	h := fnv.New64a()
	// hash.Hash64 writes never fail; ignore the error per its contract.
	_, _ = h.Write([]byte(name))
	return New(seed ^ int64(h.Sum64()))
}

// math/rand's source is the additive lagged Fibonacci generator
// x[n] = x[n-607] + x[n-273] (mod 2^64), read as the low 63 bits of each term.
// The low 63 bits of a term depend only on the low 63 bits of earlier terms,
// so any 607 consecutive outputs fix every later one, and the recurrence run
// backwards over them restores the state that produced them.
const (
	lfibLen = 607
	lfibTap = lfibLen - 273 // ring offset of x[n-273] from x[n-607]
)

// lfib is that generator with its state in the open, so a batched draw can
// step it without an interface call. The term it replaces next sits at
// vec[pos], and vec[(pos+k) % lfibLen] holds x[n-607+k].
type lfib struct {
	pos int
	vec [lfibLen]uint64
}

// takeOver returns a generator that continues src from where it stands. It
// reads src's next 607 outputs, which leave the ring full of them at position
// 0, then undoes those 607 steps, newest first.
func takeOver(src rand.Source) *lfib {
	g := &lfib{}
	for k := range g.vec {
		g.vec[k] = uint64(src.Int63())
	}
	for k := lfibLen - 1; k >= 0; k-- {
		g.vec[k] -= g.vec[(k+lfibTap)%lfibLen]
	}
	return g
}

// next computes the term at ring position pos and returns it with the
// position of the term after it.
func (g *lfib) next(pos int) (uint64, int) {
	j := pos + lfibTap
	if j >= lfibLen {
		j -= lfibLen
	}
	x := g.vec[pos] + g.vec[j]
	g.vec[pos] = x
	if pos++; pos == lfibLen {
		pos = 0
	}
	return x, pos
}

// Int63 and Seed make lfib the rand.Source behind a taken-over stream.
func (g *lfib) Int63() int64 {
	x, pos := g.next(g.pos)
	g.pos = pos
	return int64(x & (1<<63 - 1))
}

// Seed is never called: Source does not reseed its rand.Rand.
func (g *lfib) Seed(int64) { panic("xrand: a taken-over stream is not reseeded") }

// AppendIntn appends to dst what count successive calls of Intn(n) would
// return and returns the extended slice; the stream ends where those calls
// would leave it. The first call takes the stream's generator over from
// math/rand (takeOver), after which every method draws from it. Each draw is
// Int31n's, with its rejection bound computed once per batch and its v % n
// replaced by Lemire's multiply ("Faster remainder by direct computation",
// 2019). For a power of two n the bound rejects nothing and the multiply is
// v & (n-1), which is Int31n's own path there. n beyond 31 bits, and n <= 0,
// which panics, draw through Intn.
func (s *Source) AppendIntn(dst []int, n, count int) []int {
	if n <= 0 || n > math.MaxInt32 {
		for range count {
			dst = append(dst, s.Intn(n))
		}
		return dst
	}
	g := s.gen
	if g == nil {
		g = takeOver(s.rng)
		s.gen, s.rng = g, rand.New(g)
	}
	bound := uint32(1<<31 - 1 - (1<<31)%uint32(n))
	inv := ^uint64(0)/uint64(n) + 1
	pos := g.pos
	for range count {
		var v uint32
		for {
			var x uint64
			x, pos = g.next(pos)
			if v = uint32(x << 1 >> 33); v <= bound { // Int31: bits 32..62
				break
			}
		}
		r, _ := bits.Mul64(inv*uint64(v), uint64(n))
		dst = append(dst, int(r))
	}
	g.pos = pos
	return dst
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform draw in [0,n). It panics if n <= 0, matching
// math/rand.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
//
//lint:ignore test-only-export reason: the reference tests of overlay, cer and construct compare two streams' positions through it
func (s *Source) Int63() int64 { return s.rng.Int63() }

// UniformDuration returns a uniform draw in [lo, hi).
func (s *Source) UniformDuration(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.rng.Int63n(int64(hi-lo)))
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// NormFloat64 returns a standard normal draw.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// BoundedPareto models member outbound bandwidths. The paper uses shape 1.2
// with bounds [0.5, 100] (in units of the stream rate), which makes 55.5 % of
// members free-riders (bandwidth < 1) and leaves a small population of
// super-nodes with out-degrees above 20.
type BoundedPareto struct {
	Shape float64 // alpha > 0
	Lo    float64 // L > 0
	Hi    float64 // H > L
}

// paretoPowers is L^a and H^a for the distribution p; ok is false until the
// first computation.
type paretoPowers struct {
	p      BoundedPareto
	la, ha float64
	ok     bool
}

// Sample draws one value by inverting the bounded Pareto CDF
// F(x) = (1-(L/x)^a) / (1-(L/H)^a). The stream keeps L^a and H^a between
// draws, and computes them again when p differs from the last distribution
// it sampled.
func (p BoundedPareto) Sample(s *Source) float64 {
	u := s.Float64()
	if c := &s.pow; !c.ok || c.p != p {
		*c = paretoPowers{p: p, la: math.Pow(p.Lo, p.Shape), ha: math.Pow(p.Hi, p.Shape), ok: true}
	}
	la, ha := s.pow.la, s.pow.ha
	// Inverse transform: x = (-(u*H^a - u*L^a - H^a) / (H^a * L^a))^(-1/a).
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Shape)
	// Guard against floating-point excursions just outside the support.
	return math.Min(math.Max(x, p.Lo), p.Hi)
}

// Lognormal models member lifetimes. The paper sets location 5.5 and shape
// 2.0 (seconds), giving a mean lifetime of exp(5.5+2) ~ 1808 s with the heavy
// tail observed in live-streaming workload studies.
type Lognormal struct {
	Mu    float64 // location
	Sigma float64 // shape > 0
}

// Sample draws one value: exp(mu + sigma*Z).
func (l Lognormal) Sample(s *Source) float64 {
	return math.Exp(l.Mu + l.Sigma*s.NormFloat64())
}

// Mean returns the distribution mean exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// CDF evaluates the lognormal distribution function at x.
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Exponential models inter-arrival gaps of the Poisson member-arrival
// process. Rate is in events per second.
type Exponential struct {
	Rate float64 // lambda > 0
}

// Sample draws one gap in seconds.
func (e Exponential) Sample(s *Source) float64 {
	return s.rng.ExpFloat64() / e.Rate
}

// SampleDuration draws one gap as a time.Duration.
func (e Exponential) SampleDuration(s *Source) time.Duration {
	return time.Duration(e.Sample(s) * float64(time.Second))
}
