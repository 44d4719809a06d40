package xrand

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// paperBandwidth is the bandwidth distribution from the paper's setup
// (Section 5): shape 1.2, bounds [0.5, 100].
var paperBandwidth = BoundedPareto{Shape: 1.2, Lo: 0.5, Hi: 100}

// paperLifetime is the lifetime distribution from the paper's setup:
// lognormal with location 5.5 and shape 2.0.
var paperLifetime = Lognormal{Mu: 5.5, Sigma: 2.0}

// paretoCDF is the bounded Pareto distribution function
// F(x) = (1-(L/x)^a) / (1-(L/H)^a), the oracle the sampler is checked
// against.
func paretoCDF(p BoundedPareto, x float64) float64 {
	switch {
	case x <= p.Lo:
		return 0
	case x >= p.Hi:
		return 1
	}
	num := 1 - math.Pow(p.Lo/x, p.Shape)
	den := 1 - math.Pow(p.Lo/p.Hi, p.Shape)
	return num / den
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestNamedStreamsIndependent(t *testing.T) {
	a := NewNamed(42, "topology")
	b := NewNamed(42, "churn")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently named streams agreed on %d of 1000 draws", same)
	}
}

func TestNamedStreamsReproducible(t *testing.T) {
	a := NewNamed(7, "x")
	b := NewNamed(7, "x")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed,name) produced diverging streams")
		}
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	s := New(1)
	for i := 0; i < 100000; i++ {
		x := paperBandwidth.Sample(s)
		if x < paperBandwidth.Lo || x > paperBandwidth.Hi {
			t.Fatalf("sample %g outside [%g,%g]", x, paperBandwidth.Lo, paperBandwidth.Hi)
		}
	}
}

// TestBoundedParetoFreeRiderFraction checks the paper's headline workload
// property: with shape 1.2 and bounds [0.5,100], 55.5% of members have
// bandwidth below the stream rate of 1 and are therefore free-riders.
func TestBoundedParetoFreeRiderFraction(t *testing.T) {
	// The exact F(1) for these parameters is 0.5657; the paper rounds this
	// to "55.5%". Accept the analytic value within 2% of the quoted figure.
	want := paretoCDF(paperBandwidth, 1.0)
	if math.Abs(want-0.555) > 0.02 {
		t.Fatalf("analytic F(1) = %.4f, paper says 0.555", want)
	}
	s := New(2)
	const n = 200000
	free := 0
	for i := 0; i < n; i++ {
		if paperBandwidth.Sample(s) < 1.0 {
			free++
		}
	}
	got := float64(free) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical free-rider fraction %.4f, want %.4f", got, want)
	}
}

// TestBoundedParetoSuperNodes checks that a small population of super-nodes
// with out-degree above 20 exists, as the paper states.
func TestBoundedParetoSuperNodes(t *testing.T) {
	s := New(3)
	const n = 200000
	super := 0
	for i := 0; i < n; i++ {
		if paperBandwidth.Sample(s) > 20 {
			super++
		}
	}
	frac := float64(super) / n
	if frac <= 0 || frac > 0.05 {
		t.Fatalf("super-node fraction %.5f, want small but positive", frac)
	}
}

// TestBoundedParetoCDFMatch compares the empirical CDF against the analytic
// CDF at several quantiles (a Kolmogorov-style check).
func TestBoundedParetoCDFMatch(t *testing.T) {
	s := New(4)
	const n = 100000
	points := []float64{0.6, 1, 2, 5, 10, 50}
	counts := make([]int, len(points))
	for i := 0; i < n; i++ {
		x := paperBandwidth.Sample(s)
		for j, p := range points {
			if x <= p {
				counts[j]++
			}
		}
	}
	for j, p := range points {
		emp := float64(counts[j]) / n
		ana := paretoCDF(paperBandwidth, p)
		if math.Abs(emp-ana) > 0.01 {
			t.Errorf("at x=%g: empirical CDF %.4f vs analytic %.4f", p, emp, ana)
		}
	}
}

func TestBoundedParetoCDFProperties(t *testing.T) {
	// The oracle is monotone and maps the support onto [0,1].
	f := func(a, b float64) bool {
		x := 0.5 + math.Mod(math.Abs(a), 99.5)
		y := 0.5 + math.Mod(math.Abs(b), 99.5)
		if x > y {
			x, y = y, x
		}
		cx, cy := paretoCDF(paperBandwidth, x), paretoCDF(paperBandwidth, y)
		return cx >= 0 && cy <= 1 && cx <= cy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLognormalMean checks the paper's claim that the mean lifetime is 1809
// seconds (it quotes Little's law with that mean).
func TestLognormalMean(t *testing.T) {
	if m := paperLifetime.Mean(); math.Abs(m-1808.04) > 1 {
		t.Fatalf("analytic mean %.2f, want ~1808", m)
	}
}

func TestLognormalMedian(t *testing.T) {
	// Median of lognormal is exp(mu) ~ 245 s; check the empirical median.
	s := New(5)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = paperLifetime.Sample(s)
	}
	below := 0
	want := math.Exp(paperLifetime.Mu)
	for _, x := range xs {
		if x < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below analytic median = %.4f, want ~0.5", frac)
	}
}

func TestLognormalCDF(t *testing.T) {
	if got := paperLifetime.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %g, want 0", got)
	}
	if got := paperLifetime.CDF(math.Exp(5.5)); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("CDF(median) = %g, want 0.5", got)
	}
	if got := paperLifetime.CDF(1e12); got < 0.999 {
		t.Fatalf("CDF(huge) = %g, want ~1", got)
	}
}

func TestLognormalSamplesPositive(t *testing.T) {
	s := New(6)
	for i := 0; i < 10000; i++ {
		if x := paperLifetime.Sample(s); x <= 0 {
			t.Fatalf("non-positive lifetime %g", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(7)
	e := Exponential{Rate: 4.42} // ~ 8000/1809, the paper's arrival rate at M=8000
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += e.Sample(s)
	}
	mean := sum / n
	want := 1 / e.Rate
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("empirical mean gap %.5f, want %.5f", mean, want)
	}
}

func TestExponentialDuration(t *testing.T) {
	s := New(8)
	e := Exponential{Rate: 1}
	for i := 0; i < 1000; i++ {
		if d := e.SampleDuration(s); d < 0 {
			t.Fatalf("negative duration %v", d)
		}
	}
}

func TestUniformDuration(t *testing.T) {
	s := New(9)
	lo, hi := 15*time.Millisecond, 25*time.Millisecond
	for i := 0; i < 10000; i++ {
		d := s.UniformDuration(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("draw %v outside [%v,%v)", d, lo, hi)
		}
	}
	// Degenerate range returns lo.
	if d := s.UniformDuration(lo, lo); d != lo {
		t.Fatalf("degenerate range returned %v, want %v", d, lo)
	}
}

func TestIntn(t *testing.T) {
	s := New(20)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(21)
	for i := 0; i < 1000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63 = %d", v)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(22)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if v < 0 || v >= len(xs) || seen[v] {
			t.Fatalf("shuffle broke the permutation: %v", xs)
		}
		seen[v] = true
	}
}

// TestLognormalSamplePropertyPositive: any (mu, sigma) within a sane range
// yields positive samples.
func TestLognormalSamplePropertyPositive(t *testing.T) {
	f := func(muRaw, sigmaRaw float64, seed int64) bool {
		mu := math.Mod(math.Abs(muRaw), 10)
		sigma := 0.1 + math.Mod(math.Abs(sigmaRaw), 3)
		l := Lognormal{Mu: mu, Sigma: sigma}
		s := New(seed)
		for i := 0; i < 20; i++ {
			if l.Sample(s) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedParetoSamplePropertySupport: samples stay within [Lo, Hi] for
// arbitrary valid parameters.
func TestBoundedParetoSamplePropertySupport(t *testing.T) {
	f := func(shapeRaw, loRaw, spanRaw float64, seed int64) bool {
		shape := 0.2 + math.Mod(math.Abs(shapeRaw), 3)
		lo := 0.1 + math.Mod(math.Abs(loRaw), 5)
		hi := lo + 0.5 + math.Mod(math.Abs(spanRaw), 100)
		p := BoundedPareto{Shape: shape, Lo: lo, Hi: hi}
		s := New(seed)
		for i := 0; i < 20; i++ {
			if x := p.Sample(s); x < lo || x > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
