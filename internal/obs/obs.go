// Package obs is the runtime observability layer: always-on metrics and
// an optional lock-free flight recorder, packaged as a passive
// core.Instrumentation. An Obs attached to a runtime counts every
// scheduler event for the lifetime of the runtime at the cost of a few
// uncontended atomic adds per event, and — when the recorder is enabled
// — keeps the most recent scheduler decisions in a fixed ring, dumpable
// on demand in the explore trace format.
//
// Obs never influences execution: Deterministic() is false, every tap
// returns promptly, and no tap allocates or calls back into the runtime
// (per the Instrumentation locking contract).
package obs

import (
	"sync/atomic"

	"repro/internal/core"
)

// Obs is a passive instrumentation: a metrics block plus an optional
// flight recorder. The zero value is usable; Attach installs it on a
// runtime (live runtimes included).
type Obs struct {
	m   Metrics
	rec atomic.Pointer[Recorder]
}

// New creates an Obs with metrics only; call EnableRecorder to add the
// flight recorder.
func New() *Obs { return &Obs{} }

// Attach installs o on rt. If rt already has an instrumentation (e.g.
// the deterministic explorer's controller), o is teed after it, so both
// observe every tap. Passive installation is legal on a live runtime:
// threads already alive at attach time are adopted into the spawn count,
// so the spawns/dones/live books balance from the first snapshot. (For
// exact adoption, attach at a moment when nothing is concurrently
// spawning — e.g. server bootstrap; a spawn racing Attach itself can be
// missed.)
func (o *Obs) Attach(rt *core.Runtime) {
	o.m.Spawns.Add(int64(rt.LiveThreads()))
	if existing := rt.Instrumentation(); existing != nil {
		rt.SetInstrumentation(core.TeeInstrumentation(existing, o))
		return
	}
	rt.SetInstrumentation(o)
}

// EnableRecorder turns on the flight recorder with capacity for the
// most recent n events (DefaultRecorderSize if n <= 0). Enabling is
// atomic; events begin recording with the next tap.
func (o *Obs) EnableRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderSize
	}
	r := NewRecorder(n)
	o.rec.Store(r)
	return r
}

// Recorder returns the flight recorder, or nil if not enabled.
func (o *Obs) Recorder() *Recorder { return o.rec.Load() }

// Metrics returns the live counter block.
func (o *Obs) Metrics() *Metrics { return &o.m }

// Snapshot copies the current counters.
func (o *Obs) Snapshot() Snapshot { return o.m.Snapshot() }

// Instrumentation tap implementations. Each is a counter add plus, when
// the recorder is on, one wait-free ring write.

func (o *Obs) Spawned(th *core.Thread) {
	o.m.Spawns.Add(1)
	if r := o.rec.Load(); r != nil {
		r.record(EvSpawn, th.ID(), 0)
	}
}

func (o *Obs) Runnable(th *core.Thread) {
	o.m.CommitWakes.Add(1)
	if r := o.rec.Load(); r != nil {
		r.record(EvRunnable, th.ID(), 0)
	}
}

func (o *Obs) Blocked(th *core.Thread) {
	o.m.Blocks.Add(1)
	if r := o.rec.Load(); r != nil {
		r.record(EvBlocked, th.ID(), 0)
	}
}

func (o *Obs) Done(th *core.Thread) {
	o.m.Dones.Add(1)
	if r := o.rec.Load(); r != nil {
		r.record(EvDone, th.ID(), 0)
	}
}

func (o *Obs) Pause(th *core.Thread) {
	o.m.Pauses.Add(1)
}

func (o *Obs) Lifecycle(kind core.TraceKind, th *core.Thread) {
	var ev EvKind
	switch kind {
	case core.TraceKill:
		o.m.Kills.Add(1)
		ev = EvKill
	case core.TraceSuspend:
		o.m.Suspends.Add(1)
		ev = EvSuspend
	case core.TraceResume:
		o.m.Resumes.Add(1)
		ev = EvResume
	case core.TraceCondemned:
		o.m.Condemned.Add(1)
		ev = EvCondemn
	case core.TraceYoke:
		o.m.Yokes.Add(1)
		ev = EvYoke
	case core.TraceBreak:
		o.m.Breaks.Add(1)
		ev = EvBreak
	default:
		return
	}
	if r := o.rec.Load(); r != nil {
		var id int64
		if th != nil {
			id = th.ID()
		}
		r.record(ev, id, 0)
	}
}

func (o *Obs) SyncCommit(th *core.Thread, cases, chosen int) {
	o.m.Syncs.Add(1)
	if cases == 1 {
		o.m.SyncFast.Add(1)
	} else {
		o.m.SyncMulti.Add(1)
	}
	if r := o.rec.Load(); r != nil {
		r.record(EvSync, th.ID(), SyncArg(cases, chosen))
	}
}

func (o *Obs) CustodianShutdown(id int64, threads int) {
	o.m.CustodianShutdowns.Add(1)
	o.m.CustodianSwept.Add(int64(threads))
	if r := o.rec.Load(); r != nil {
		r.record(EvShutdown, id, int64(threads))
	}
}

func (o *Obs) AlarmFire(th *core.Thread) {
	o.m.AlarmFires.Add(1)
	if r := o.rec.Load(); r != nil {
		r.record(EvAlarm, th.ID(), 0)
	}
}

// Deterministic is false: Obs observes, it never schedules.
func (o *Obs) Deterministic() bool { return false }

var _ core.Instrumentation = (*Obs)(nil)
