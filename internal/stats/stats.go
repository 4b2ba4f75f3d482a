// Package stats provides the summary statistics the paper's tables report:
// min, median, standard deviation, max (Table IV), spreads and geometric
// means.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample in the shape of the paper's Table IV rows.
type Summary struct {
	N      int
	Min    float64
	Median float64
	Mean   float64
	StdDev float64
	Max    float64
}

// Summarize computes summary statistics of xs. An empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:   len(xs),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
	}
	if n := len(sorted); n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// SummarizeInts converts and summarizes an int64 sample.
func SummarizeInts(xs []int64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Spread returns Max/Min, the paper's "n-x spread" notion (e.g. "6.9x").
// A zero minimum yields +Inf unless the maximum is also zero.
func (s Summary) Spread() float64 {
	if s.Min == 0 {
		if s.Max == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// GeoMean returns the geometric mean of positive values; zero or negative
// entries are skipped.
func GeoMean(xs []float64) float64 {
	var logs float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}
