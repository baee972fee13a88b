package harness

import (
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// Now is the harness clock: monotonic nanoseconds since process start.
func Now() int64 { return int64(time.Since(epoch)) }

// Window is one measured interval cut into equal slices (one second each
// for any run of three seconds or more). Workers record into their own
// Recorder; only operations that complete inside the open window count,
// so warm-up and wind-down traffic needs no separate code path.
type Window struct {
	start   atomic.Int64 // 0 while closed
	end     atomic.Int64
	sliceNs int64
	slices  int
}

// NewWindow plans a window of dur: round(dur/1s) slices, at least three.
func NewWindow(dur time.Duration) *Window {
	n := int((dur + time.Second/2) / time.Second)
	if n < 3 {
		n = 3
	}
	return &Window{sliceNs: int64(dur) / int64(n), slices: n}
}

// Open starts the window now and returns its start and end times.
func (w *Window) Open() (start, end int64) {
	start = Now()
	end = start + w.sliceNs*int64(w.slices)
	w.end.Store(end)
	w.start.Store(start)
	return start, end
}

// End is the close time of an open window.
func (w *Window) End() int64 { return w.end.Load() }

// Slices is the number of slices; SliceSeconds the length of one.
func (w *Window) Slices() int           { return w.slices }
func (w *Window) SliceSeconds() float64 { return float64(w.sliceNs) / 1e9 }

// slice maps a completion time to its slice index, or -1 outside the
// window.
func (w *Window) slice(t int64) int {
	s := w.start.Load()
	if s == 0 || t < s || t >= w.end.Load() {
		return -1
	}
	return int((t - s) / w.sliceNs)
}

// Recorder is one worker's view of a window. It is not safe for
// concurrent use: give each worker slot its own and merge with Summarize.
type Recorder struct {
	w      *Window
	good   []int64
	hists  []Hist
	Failed int64 // operations that completed wrongly inside the window
	Killed int64 // operations cut short by a kill the benchmark issued
}

// NewRecorder creates a recorder on w.
func NewRecorder(w *Window) *Recorder {
	return &Recorder{w: w, good: make([]int64, w.slices), hists: make([]Hist, w.slices)}
}

// Good records n correct operations that completed at end; latNs, if not
// negative, is one latency sample for them.
func (r *Recorder) Good(end, latNs, n int64) {
	i := r.w.slice(end)
	if i < 0 {
		return
	}
	r.good[i] += n
	if latNs >= 0 {
		r.hists[i].Add(latNs)
	}
}

// Fail records one operation that completed wrongly at end.
func (r *Recorder) Fail(end int64) {
	if r.w.slice(end) >= 0 {
		r.Failed++
	}
}

// Kill records one operation that was in flight on a thread or session the
// benchmark itself killed at end.
func (r *Recorder) Kill(end int64) {
	if r.w.slice(end) >= 0 {
		r.Killed++
	}
}

// Summary is the merged result of a window.
type Summary struct {
	Good, Failed, Killed int64
	Samples              int64   // latency samples behind P50/P99
	GoodputOpsS          float64 // median over slices of good ops per second
	P50us, P99us         float64 // median over slices of the slice quantile
}

// Summarize merges the recorders of one window. Goodput and the latency
// quantiles are medians over slices, so one noisy second cannot move them.
func Summarize(w *Window, recs ...*Recorder) Summary {
	var s Summary
	good := make([]int64, w.slices)
	hists := make([]Hist, w.slices)
	for _, r := range recs {
		s.Failed += r.Failed
		s.Killed += r.Killed
		for i := range good {
			good[i] += r.good[i]
			hists[i].Merge(&r.hists[i])
		}
	}
	var rates, p50, p99 []float64
	for i := range good {
		s.Good += good[i]
		s.Samples += hists[i].Count()
		rates = append(rates, float64(good[i])/w.SliceSeconds())
		if hists[i].Count() > 0 {
			p50 = append(p50, hists[i].Quantile(0.50)/1e3)
			p99 = append(p99, hists[i].Quantile(0.99)/1e3)
		}
	}
	s.GoodputOpsS = Median(rates)
	s.P50us, s.P99us = Median(p50), Median(p99)
	return s
}
