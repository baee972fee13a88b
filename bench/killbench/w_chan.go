package main

import (
	"fmt"
	"sync/atomic"

	killsafe "repro"
	"repro/bench/harness"
	"repro/internal/obs"
)

// chan_pingpong: two thread pairs, each on its own killsafe.Channel, in a
// closed loop. One op is a round trip — the pinger's Send then Recv
// against the ponger's Recv then Send — so two rendezvous. Nothing but
// core's single-event Sync path runs.

const (
	chanPairs  = 2
	chanSample = 64 // one round trip in 64 is timed on its own
	chanProbes = 300
)

type chanInst struct {
	cfg   *runCfg
	rt    *killsafe.Runtime
	obs   *obs.Obs
	win   *harness.Window
	recs  [chanPairs]*harness.Recorder
	wrong [chanPairs]atomic.Int64
	stop  atomic.Bool
	first atomic.Int32 // pairs that have completed a round trip
	pings [chanPairs]*killsafe.Thread
}

func buildChan(cfg *runCfg) (instance, error) {
	in := &chanInst{cfg: cfg, rt: killsafe.NewRuntime(), win: harness.NewWindow(cfg.window)}
	if cfg.traced() {
		in.obs = obs.New()
		in.obs.Attach(in.rt)
	}
	for p := 0; p < chanPairs; p++ {
		p := p
		in.recs[p] = harness.NewRecorder(in.win)
		ch := killsafe.NewChannel[int](in.rt)
		in.rt.Spawn("pong", func(th *killsafe.Thread) {
			for {
				v, err := ch.Recv(th)
				if err != nil {
					return
				}
				if ch.Send(th, v+1) != nil {
					return
				}
			}
		})
		in.pings[p] = in.rt.Spawn("ping", func(th *killsafe.Thread) {
			rec := in.recs[p]
			for i := 0; !in.stop.Load(); i++ {
				sample := i%chanSample == 0
				var t0 int64
				if sample {
					t0 = harness.Now()
				}
				if ch.Send(th, i) != nil {
					return
				}
				v, err := ch.Recv(th)
				if err != nil {
					return
				}
				if v != i+1 {
					in.wrong[p].Add(1)
				}
				if sample {
					t1 := harness.Now()
					rec.Good(t1, t1-t0, chanSample)
					if cfg.traced() {
						cfg.spans.Add(spRoundTrip, uint64(p)<<32|uint64(i), t0, t1)
					}
				}
				if i == 0 {
					in.first.Add(1)
				}
			}
		})
	}
	return in, nil
}

func (in *chanInst) snap() counters {
	var c counters
	if in.obs != nil {
		c.obs = in.obs.Snapshot()
	}
	return c
}

func (in *chanInst) measure() (*outcome, error) {
	o := &outcome{layer: metrics{}}
	o.before, o.after, o.goPeak = in.cfg.timeline(in.win, in.snap)
	if in.first.Load() != chanPairs {
		return nil, fmt.Errorf("chan_pingpong: a pair never completed a round trip")
	}
	in.stop.Store(true)
	for _, t := range in.pings {
		waitDone(in.rt, t)
	}
	o.sum = harness.Summarize(in.win, in.recs[:]...)
	for p := range in.wrong {
		o.violations += in.wrong[p].Load()
	}
	in.killProbe(o)
	return o, nil
}

// killProbe measures how long a kill takes to give a channel back: a
// thread parked in Recv on a fresh channel is killed, and the clock stops
// when a replacement receiver has taken a value over the same channel —
// the dead waiter must not wedge it.
func (in *chanInst) killProbe(o *outcome) {
	err := in.rt.Run(func(th *killsafe.Thread) {
		ch := killsafe.NewChannel[int](in.rt)
		for i := 0; i < chanProbes; i++ {
			parked := make(chan struct{})
			victim := th.Spawn("victim", func(x *killsafe.Thread) {
				close(parked)
				_, _ = ch.Recv(x)
			})
			<-parked
			_ = th.Yield() // let the victim reach its Sync
			t0 := harness.Now()
			victim.Kill()
			_, _ = killsafe.Sync(th, killsafe.DoneEvt(victim))
			got := make(chan int, 1)
			th.Spawn("replacement", func(x *killsafe.Thread) {
				if v, err := ch.Recv(x); err == nil {
					got <- v
				}
			})
			if ch.Send(th, i) != nil || <-got != i {
				o.violations++
			}
			o.reclaim.add(harness.Now() - t0)
		}
	})
	if err != nil {
		o.violations++
		o.notes = append(o.notes, "kill probe: "+err.Error())
	}
}

func (in *chanInst) close() {
	in.stop.Store(true)
	in.rt.Shutdown()
}

// waitDone blocks the calling goroutine until t has terminated.
func waitDone(rt *killsafe.Runtime, t *killsafe.Thread) {
	_ = rt.Run(func(th *killsafe.Thread) {
		_, _ = killsafe.Sync(th, killsafe.DoneEvt(t))
	})
}
