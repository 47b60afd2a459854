package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// minBeyond is how many samples must lie strictly above the reported tail
// rank for the tail to be reported at that percentile.
const minBeyond = 10

// rank returns the 1-based nearest rank of percentile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least minBeyond of n samples beyond its nearest rank, and false when
// even the median does not.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailLadder {
		if n-rank(q, n) >= minBeyond {
			best, ok = q, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile q of xs (xs is not
// modified). It returns NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the value and level of the tail percentile of xs: the
// highest ladder percentile with minBeyond samples beyond it, or the
// median when there are too few samples for any.
func tail(xs []float64) (value, level float64) {
	q, ok := tailPercentile(len(xs))
	if !ok {
		q = 50
	}
	return percentile(xs, q), q
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
}

// add records one operation; ok=false counts it as failed.
func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedShare is failed/attempted (0 when nothing was attempted).
func (t tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// sameFloat reports whether a and b agree to a relative 1e-9, the
// tolerance for periods recomputed with a different summation order.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
