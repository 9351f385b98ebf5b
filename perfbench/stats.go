package main

import (
	"math"
	"sort"
	"time"
)

// pct returns the p-th percentile (0..100) of xs by linear interpolation
// between order statistics; NaN when xs is empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileType7(s, p/100)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0 (a ratio with nothing to count).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// matches reports whether an exact answer matches its reference up to the
// rounding a different summation order can cause.
func matches(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
