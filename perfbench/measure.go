package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two unlucky operations.
const minBeyond = 10

// quantile returns the q-quantile (0 < q <= 1) of xs as the sample at
// rank ceil(q*n), and whether at least minBeyond samples lie beyond it.
// The median (q = 0.5) is the exception: it is the usual midpoint mean
// for an even count and is valid for any non-empty sample.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 {
		if n%2 == 1 {
			return s[n/2], true
		}
		return (s[n/2-1] + s[n/2]) / 2, true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// highestTail returns the highest percentile of xs that still has
// minBeyond samples beyond it, with its value: rank n-minBeyond, so
// percentile (n-minBeyond)/n. ok is false when n <= minBeyond.
func highestTail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - minBeyond
	return 100 * float64(rank) / float64(n), s[rank-1], true
}

// errorRate is failed (or incorrect) operations over attempted ones;
// refused operations count as failed.
func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// unattributedFrac is the share of a parent's time per unit of work that
// its measured children do not account for: 1 - sum(children)/parent.
// Negative when the children, timed alone, cost more than the parent.
func unattributedFrac(parent float64, children ...float64) float64 {
	sum := 0.0
	for _, c := range children {
		sum += c
	}
	return 1 - sum/parent
}

// frac is the share of yes among yes+no outcomes, such as cache hits
// among lookups.
func frac(yes, no int64) float64 { return float64(yes) / float64(yes+no) }

// busyFrac is worker busy time over the capacity the workers had:
// busy / (wall * workers).
func busyFrac(busyNs, wallNs float64, workers int) float64 {
	return busyNs / (wallNs * float64(workers))
}
