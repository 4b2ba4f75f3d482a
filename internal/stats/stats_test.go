package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Median != 2.5 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
	if s.Mean != 2.5 {
		t.Errorf("mean = %v", s.Mean)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Max != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int64{10, 20})
	if s.Mean != 15 {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestSpread(t *testing.T) {
	if sp := Summarize([]float64{2, 4, 8}).Spread(); sp != 4 {
		t.Errorf("spread = %v", sp)
	}
	if sp := Summarize([]float64{0, 5}).Spread(); !math.IsInf(sp, 1) {
		t.Errorf("zero-min spread = %v", sp)
	}
	if sp := Summarize([]float64{0, 0}).Spread(); sp != 1 {
		t.Errorf("all-zero spread = %v", sp)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Errorf("degenerate geomean = %v", g)
	}
}

// Property: Min ≤ Median ≤ Max and Min ≤ Mean ≤ Max.
func TestSummaryOrderingQuick(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// keep magnitudes small enough that the sum cannot overflow
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
