// Package xrand supplies the random workload models used throughout the
// simulator: bounded Pareto member bandwidths, lognormal member lifetimes and
// exponential (Poisson-process) inter-arrival gaps, all drawn from
// deterministic named sub-streams of a single master seed so that every
// experiment is exactly replayable.
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distribution samplers the paper's workload requires.
type Source struct {
	rng *rand.Rand
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

// Sample draws one value by inverting the bounded Pareto CDF
// F(x) = (1-(L/x)^a) / (1-(L/H)^a).
func (p BoundedPareto) Sample(s *Source) float64 {
	u := s.Float64()
	la := math.Pow(p.Lo, p.Shape)
	ha := math.Pow(p.Hi, p.Shape)
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
