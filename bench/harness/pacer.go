package harness

import (
	"runtime"
	"time"
)

// Clock is what the open-loop pacer needs from time. The real clock is
// RealClock; tests drive the pacer with a fake one.
type Clock interface {
	Now() int64          // nanoseconds, same origin as the due times
	SleepUntil(ns int64) // return at or after ns (may return early: the pacer re-checks)
}

// RealClock waits by yielding, after one short nap. A Go timer on a small
// virtual machine wakes its goroutine up to a millisecond late — several
// served requests — so the wait itself is a yield loop, which also keeps
// one P of the process awake and so spares the program under test the
// cost of waking an idle one. But a goroutine that only ever yields keeps
// its P from polling the network; the nap at the start of each wait hands
// the P to the scheduler once per operation. If the nap oversleeps, the
// operation is sent late and the lateness is reported.
type RealClock struct{ Nap time.Duration }

func (RealClock) Now() int64 { return Now() }

func (c RealClock) SleepUntil(ns int64) {
	if c.Nap > 0 && ns-Now() > 2*int64(c.Nap) {
		time.Sleep(c.Nap)
	}
	for Now() < ns {
		runtime.Gosched()
	}
}

// FixedRate returns n due times, one every 1/rate seconds from start.
func FixedRate(start int64, rate float64, n int) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = start + int64(float64(i)*1e9/rate)
	}
	return due
}

// Pace is the open-loop generator: it calls send(i, due[i]) at each due
// time, in order, from the calling goroutine. The due times are fixed
// before the first send, so a slow reply — or a slow send — never moves a
// later operation's intended time: the caller measures latency from
// due[i], and whatever the generator itself adds is returned as lateness
// (actual send start minus due time) instead of being folded into latency
// silently. It stops early when stop returns true.
func Pace(c Clock, due []int64, send func(i int, due int64), stop func() bool) (late *Hist, sent int) {
	late = &Hist{}
	for i, d := range due {
		if stop != nil && stop() {
			return late, i
		}
		for c.Now() < d {
			c.SleepUntil(d)
		}
		l := c.Now() - d
		if l < 0 {
			l = 0
		}
		late.Add(l)
		send(i, d)
	}
	return late, len(due)
}
