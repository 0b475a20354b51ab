package perf

import (
	"fmt"
	"slices"
)

// summary is the order statistics of one sample.
type summary struct {
	N             int
	P25, P50, P75 float64
	Mean          float64
	// P99 is the 99th percentile, and 0 when fewer than ten samples lie
	// beyond it, too few for it to mean anything.
	P99 float64
	// TailLabel names the highest percentile with at least ten samples
	// beyond it ("p99" for 1000 samples, "p95" for 200) and Tail is its
	// value; TailLabel is empty when the sample is too small for any.
	TailLabel string
	Tail      float64
}

// tailPermille lists the candidate tail percentiles, highest first, in
// tenths of a percent.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// summarize computes the order statistics of xs (which it does not
// modify). Quantiles use the exclusive method of Python's
// statistics.quantiles, so quartiles printed here match a check made
// with it.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s.P25 = quantile(sorted, 0.25)
	s.P50 = quantile(sorted, 0.5)
	s.P75 = quantile(sorted, 0.75)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	if tailOK(len(sorted), 990) {
		s.P99 = quantile(sorted, 0.99)
	}
	for _, pm := range tailPermille {
		if tailOK(len(sorted), pm) {
			s.TailLabel = permilleLabel(pm)
			s.Tail = quantile(sorted, float64(pm)/1000)
			break
		}
	}
	return s
}

// median returns the median of xs.
func median(xs []float64) float64 { return summarize(xs).P50 }

// tailOK reports whether at least ten of n samples lie strictly beyond
// the pm-per-mille percentile. Integer arithmetic keeps the boundary
// cases exact: 200 samples leave exactly ten beyond p95.
func tailOK(n, pm int) bool {
	below := (n*pm + 999) / 1000
	return n-below >= 10
}

func permilleLabel(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%d.%d", pm/10, pm%10)
}

// quantile interpolates the q-quantile of a sorted sample at 1-based
// position q*(n+1), clamped to the sample's ends.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	if pos <= 1 {
		return sorted[0]
	}
	if pos >= float64(n) {
		return sorted[n-1]
	}
	j := int(pos)
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}
