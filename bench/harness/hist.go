// Package harness is the measurement library behind bench/killbench: a
// log-bucket latency histogram, a sliced measurement window, an open-loop
// pacer with an injectable clock, an in-memory span buffer, quartile
// statistics, the environment stamp and the result-file schema. It knows
// nothing about the system under test.
package harness

import "math/bits"

// Hist is a log-bucket histogram of nanosecond values: exact below 64 ns,
// then 32 linear sub-buckets per power of two, so a bucket is never wider
// than 1/32 of its lower bound. Quantile interpolates inside the bucket,
// which keeps the error well under the 5 % budget and — as important for a
// benchmark whose numbers are compared run to run — makes the result a
// continuous value instead of one of a few bucket bounds.
type Hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histExact   = 2 * histSub // values below this index themselves
	histMaxExp  = 40          // 2^40 ns ≈ 18 min; larger values clamp
	histBuckets = histExact + (histMaxExp-histSubBits-1)*histSub
)

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histExact {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	s := int(v>>(e-histSubBits)) & (histSub - 1)
	return histExact + (e-histSubBits-1)*histSub + s
}

// histLower returns bucket i's lower bound; histLower(i+1) is its upper.
func histLower(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	j := i - histExact
	e := j/histSub + histSubBits + 1
	s := j % histSub
	return int64(histSub+s) << (e - histSubBits)
}

// Add records one value.
func (h *Hist) Add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count is the number of recorded values.
func (h *Hist) Count() int64 { return h.n }

// Quantile returns the q-th quantile (0..1) in nanoseconds, interpolated
// linearly inside the bucket that holds it; 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(histLower(histBuckets))
}
