package perf

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// The expected values are those of Python's statistics.quantiles (the
// exclusive method) and statistics.median on the same data.
func TestSummarizeQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs                []float64
		p25, p50, p75, mu float64
	}{
		{seq(10), 2.75, 5.5, 8.25, 5.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 3},
		{[]float64{7}, 7, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if !near(s.P25, tc.p25) || !near(s.P50, tc.p50) || !near(s.P75, tc.p75) || !near(s.Mean, tc.mu) {
			t.Errorf("summarize(%v) = %+v, want quartiles %v %v %v mean %v", tc.xs, s, tc.p25, tc.p50, tc.p75, tc.mu)
		}
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		value float64
	}{
		{10000, "p99.9", 9990.999},
		{1000, "p99", 990.99},
		{999, "p95", 950},
		{200, "p95", 190.95},
		{199, "p90", 180},
		{20, "p50", 10.5},
		{19, "", 0},
	} {
		s := summarize(seq(tc.n))
		if s.TailLabel != tc.label || !near(s.Tail, tc.value) {
			t.Errorf("n=%d: tail %s = %v, want %s = %v", tc.n, s.TailLabel, s.Tail, tc.label, tc.value)
		}
	}
	if p99 := summarize(seq(999)).P99; p99 != 0 {
		t.Errorf("p99 of 999 samples reported as %v; only 9 lie beyond it", p99)
	}
	if p99 := summarize(seq(1000)).P99; !near(p99, 990.99) {
		t.Errorf("p99 of 1..1000 = %v, want 990.99", p99)
	}
}
