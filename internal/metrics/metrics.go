// Package metrics provides the aggregation helpers the paper's methodology
// uses: geometric means across workloads, improvement percentages, and
// zero-guarded ratios.
package metrics

import (
	"errors"
	"math"
)

// Geomean returns the geometric mean of xs. It returns an error when xs is
// empty or contains a non-positive value (geometric means are undefined
// there, and a silent zero would corrupt a result table).
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("metrics: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("metrics: geomean requires positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// MustGeomean is Geomean for call sites with statically valid inputs.
func MustGeomean(xs []float64) float64 {
	g, err := Geomean(xs)
	if err != nil {
		panic(err)
	}
	return g
}

// ImprovementPct converts a ratio new/old into a percentage improvement of
// new over old: 1.30 -> +30%.
func ImprovementPct(ratio float64) float64 { return (ratio - 1) * 100 }

// Availability returns the fraction of accesses that succeeded,
// ok/(ok+failed). With no accesses at all there is nothing unavailable,
// so it returns 1.
func Availability(ok, failed uint64) float64 {
	if ok+failed == 0 {
		return 1
	}
	return float64(ok) / float64(ok+failed)
}

// Per returns the zero-guarded ratio n/d for per-unit counter figures —
// journal bytes per checkpoint epoch, retries per fault, and the like (0
// when d is 0).
func Per(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
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

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
