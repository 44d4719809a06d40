package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic set is 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %g, want %g", got, want)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %g", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-sample variance should be 0")
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("Max(nil) should return ErrEmpty")
	}
	xs := []float64{3, -2, 8, 0}
	mx, err := Max(xs)
	if err != nil || mx != 8 {
		t.Fatalf("Max = %g, %v", mx, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%g): %v", c.p, err)
		}
		if !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty percentile should return ErrEmpty")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("percentile above 100 should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Fatal("negative percentile should error")
	}
	if got, _ := Percentile([]float64{7}, 50); got != 7 {
		t.Fatalf("single-sample percentile = %g, want 7", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 2, 4}
	points := CDFAt(xs, []float64{0, 1, 2, 3, 4, 5})
	wantFrac := []float64{0, 0.25, 0.75, 0.75, 1, 1}
	for i, p := range points {
		if !almostEq(p.Fraction, wantFrac[i], 1e-12) {
			t.Errorf("CDFAt(%g) = %g, want %g", p.Value, p.Fraction, wantFrac[i])
		}
	}
	empty := CDFAt(nil, []float64{1})
	if len(empty) != 1 || empty[0].Fraction != 0 {
		t.Fatal("CDFAt with no samples should report 0 everywhere")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		// Evaluated at its own samples in increasing order, the CDF never
		// falls and reaches 1 at the largest.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		points := CDFAt(xs, sorted)
		prevF := 0.0
		for _, p := range points {
			if p.Fraction < prevF || p.Fraction > 1 {
				return false
			}
			prevF = p.Fraction
		}
		return len(points) == 0 || points[len(points)-1].Fraction == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceInterval95(t *testing.T) {
	// Known case: n=5 samples, df=4 => t = 2.776.
	xs := []float64{10, 12, 14, 16, 18}
	iv := ConfidenceInterval95(xs)
	if iv.Mean != 14 || iv.N != 5 {
		t.Fatalf("interval mean/N = %g/%d", iv.Mean, iv.N)
	}
	se := StdDev(xs) / math.Sqrt(5)
	if !almostEq(iv.Radius, 2.776*se, 1e-9) {
		t.Fatalf("radius = %g, want %g", iv.Radius, 2.776*se)
	}
}

func TestConfidenceIntervalDegenerate(t *testing.T) {
	if iv := ConfidenceInterval95(nil); iv.Radius != 0 || iv.Mean != 0 {
		t.Fatalf("empty CI = %+v", iv)
	}
	if iv := ConfidenceInterval95([]float64{3}); iv.Radius != 0 || iv.Mean != 3 {
		t.Fatalf("single-sample CI = %+v", iv)
	}
}

// TestConfidenceIntervalCoverage draws many sample sets from a normal
// distribution and checks the 95% CI covers the true mean about 95% of the
// time.
func TestConfidenceIntervalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const trials = 2000
	const n = 10
	covered := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = 5 + 2*rng.NormFloat64()
		}
		iv := ConfidenceInterval95(xs)
		if iv.Mean-iv.Radius <= 5 && 5 <= iv.Mean+iv.Radius {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("CI coverage = %.3f, want ~0.95", rate)
	}
}

func TestTCritical(t *testing.T) {
	if !math.IsInf(tCritical95(0), 1) {
		t.Fatal("df=0 should be +Inf")
	}
	if got := tCritical95(1); got != 12.706 {
		t.Fatalf("t(1) = %g", got)
	}
	if got := tCritical95(1000); got != 1.960 {
		t.Fatalf("t(1000) = %g", got)
	}
	// Monotone non-increasing in df.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCritical95(df)
		if v > prev {
			t.Fatalf("t critical increased at df=%d", df)
		}
		prev = v
	}
}

// TestPercentileSortedProperty: percentile of any slice lies within [min,max].
func TestPercentileSortedProperty(t *testing.T) {
	f := func(raw []float64, pRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Mod(math.Abs(pRaw), 100)
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
