package stat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 7, 1, 100}, 7},
	} {
		if got := Median(c.in); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("Median reordered its argument")
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(xs, n=4): the contract's driver computes spread
// with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{5, 1}, 0, 6}, // two points: Python extrapolates past both
		{[]float64{2, 4, 4, 5, 7, 9, 30}, 4, 9},
	} {
		q1, q3 := Quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestIQRFrac(t *testing.T) {
	if got := IQRFrac([]float64{10, 20, 30, 40, 50}); !near(got, 1.0) {
		t.Errorf("IQRFrac = %v, want 1", got)
	}
	if got := IQRFrac([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("IQRFrac of a constant = %v, want 0", got)
	}
	if !math.IsInf(IQRFrac([]float64{-1, 0, 1}), 1) {
		t.Error("a zero median must not pass as steady")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}
