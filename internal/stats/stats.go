// Package stats provides the summary statistics the evaluation reports:
// means, standard deviations, percentiles, empirical CDFs and Student-t 95%
// confidence intervals (Figure 14 plots its results with 95% CIs over
// independent simulation seeds).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries that need at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the largest sample. It returns ErrEmpty for no samples.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns ErrEmpty for no samples
// and an error for p outside [0,100].
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %g outside [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// CDFPoint is one step of an empirical CDF: the fraction of samples <= Value.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDFAt returns the empirical CDF of xs evaluated at the given thresholds
// (fraction of samples <= threshold), one output per threshold, preserving
// threshold order.
func CDFAt(xs []float64, thresholds []float64) []CDFPoint {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	points := make([]CDFPoint, 0, len(thresholds))
	n := float64(len(sorted))
	for _, t := range thresholds {
		idx := sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1)))
		frac := 0.0
		if n > 0 {
			frac = float64(idx) / n
		}
		points = append(points, CDFPoint{Value: t, Fraction: frac})
	}
	return points
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	Mean   float64
	Radius float64 // half-width; the interval is Mean +/- Radius
	N      int
}

// ConfidenceInterval95 returns the Student-t 95% confidence interval for the
// mean of xs. With fewer than two samples the radius is zero.
func ConfidenceInterval95(xs []float64) Interval {
	n := len(xs)
	iv := Interval{Mean: Mean(xs), N: n}
	if n < 2 {
		return iv
	}
	se := StdDev(xs) / math.Sqrt(float64(n))
	iv.Radius = tCritical95(n-1) * se
	return iv
}

// tCritical95 returns the two-sided 95% critical value of the Student-t
// distribution with df degrees of freedom. Values for small df are tabulated;
// large df fall back to the normal critical value 1.960.
func tCritical95(df int) float64 {
	table := []float64{
		// df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
