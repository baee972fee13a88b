package core

import "sync/atomic"

// Instrumentation is the runtime's unified observer interface: one tap
// set covering scheduling, thread lifecycle, rendezvous commits,
// custodian teardown, and alarms. The
// deterministic explorer (internal/explore) implements it with
// Deterministic() == true and drives the runtime sequentially through
// the scheduler taps — and adds the passive taps that power the
// always-on metrics and flight-recorder layer (internal/obs), which
// implements it with Deterministic() == false and never influences
// scheduling.
//
// Cost contract: when no instrumentation is installed every tap site is
// a single atomic pointer load and a nil check, so the uninstrumented
// hot paths are unchanged (the single-event Sync fast path stays
// 0 allocs/op — fenced by TestSingleEventSyncAllocFree). Tap arguments
// are pointers and integers only; calling a tap never allocates.
//
// Locking contract: taps fire from the paths that produce them — some
// under the runtime bookkeeping lock (lifecycle, custodian shutdown),
// some from lock-free commit finalization, possibly with an event lock
// held (SyncCommit, Runnable, AlarmFire), and some from a bare thread
// goroutine (Blocked, Pause). A tap must not block and must not call
// back into the runtime; it may take the implementation's own lock,
// which is always innermost. Outside deterministic mode taps can fire
// concurrently from many goroutines, so a passive implementation must be
// thread-safe (internal/obs uses atomics and a seqlock); a deterministic
// scheduler serializes execution, so its taps arrive sequentially. Pause
// is where a deterministic scheduler blocks the thread until granted; a
// passive observer must return promptly.
type Instrumentation interface {
	// Scheduler taps — the surface a sequential scheduler drives.

	// Spawned reports a newly created thread. The thread is considered
	// runnable; its goroutine will reach a Pause call before touching
	// user code.
	Spawned(th *Thread)
	// Runnable reports that a parked thread may be able to proceed: its
	// sync committed or aborted, it was killed, broken, or resumed.
	// Every wake-up of a parked thread is preceded by a Runnable call
	// under the same critical section — in metrics terms, Runnable is
	// the commit-wake counter.
	Runnable(th *Thread)
	// Blocked reports that a thread is about to park on its condition
	// variable and cannot proceed until a Runnable call.
	Blocked(th *Thread)
	// Done reports that a thread finished (returned or unwound from a
	// kill).
	Done(th *Thread)
	// Pause is the safe point: called (without the runtime lock) each
	// time a thread passes a gate or wakes from a park. A deterministic
	// scheduler blocks the thread here until granted; a passive
	// observer just counts and returns.
	Pause(th *Thread)

	// Lifecycle reports a thread lifecycle transition that is not
	// covered by the scheduler taps: TraceKill, TraceSuspend,
	// TraceResume, TraceCondemned, TraceYoke, TraceBreak. Spawn, finish
	// and custodian shutdown have their own taps (Spawned, Done,
	// CustodianShutdown).
	Lifecycle(kind TraceKind, th *Thread)

	// SyncCommit reports a committed rendezvous: th's in-flight sync
	// chose case chosen out of cases flattened alternatives. cases == 1
	// is the single-event fast path.
	SyncCommit(th *Thread, cases, chosen int)

	// CustodianShutdown reports a custodian shutdown: its creation-order
	// id and the number of threads it directly controlled at death.
	CustodianShutdown(id int64, threads int)

	// AlarmFire reports an alarm (real timer or virtual clock) waking a
	// parked sync waiter on th.
	AlarmFire(th *Thread)

	// Deterministic reports whether this instrumentation is a
	// sequential scheduler: installing a deterministic instrumentation
	// switches the runtime to deterministic mode (virtual clock, queued
	// External delivery, explicit grants).
	Deterministic() bool
}

// NopInstrumentation is a no-op Instrumentation for embedding:
// implementations override only the taps they care about.
type NopInstrumentation struct{}

func (NopInstrumentation) Spawned(*Thread)              {}
func (NopInstrumentation) Runnable(*Thread)             {}
func (NopInstrumentation) Blocked(*Thread)              {}
func (NopInstrumentation) Done(*Thread)                 {}
func (NopInstrumentation) Pause(*Thread)                {}
func (NopInstrumentation) Lifecycle(TraceKind, *Thread) {}
func (NopInstrumentation) SyncCommit(*Thread, int, int) {}
func (NopInstrumentation) CustodianShutdown(int64, int) {}
func (NopInstrumentation) AlarmFire(*Thread)            {}
func (NopInstrumentation) Deterministic() bool          { return false }

// teeInstrumentation fans every tap out to two instrumentations, a is
// called first. Deterministic if either is (the usual composition is a
// deterministic controller plus a passive recorder).
type teeInstrumentation struct {
	a, b Instrumentation
}

// TeeInstrumentation composes two instrumentations: every tap reaches
// both, a first. It lets a passive observer (an *obs.Obs with its
// flight recorder) ride along with the deterministic explorer, so a
// systematic run can be recorded with the same vocabulary as a live
// server.
func TeeInstrumentation(a, b Instrumentation) Instrumentation {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &teeInstrumentation{a: a, b: b}
}

func (t *teeInstrumentation) Spawned(th *Thread)  { t.a.Spawned(th); t.b.Spawned(th) }
func (t *teeInstrumentation) Runnable(th *Thread) { t.a.Runnable(th); t.b.Runnable(th) }
func (t *teeInstrumentation) Blocked(th *Thread)  { t.a.Blocked(th); t.b.Blocked(th) }
func (t *teeInstrumentation) Done(th *Thread)     { t.a.Done(th); t.b.Done(th) }
func (t *teeInstrumentation) Pause(th *Thread)    { t.a.Pause(th); t.b.Pause(th) }
func (t *teeInstrumentation) Lifecycle(k TraceKind, th *Thread) {
	t.a.Lifecycle(k, th)
	t.b.Lifecycle(k, th)
}
func (t *teeInstrumentation) SyncCommit(th *Thread, cases, chosen int) {
	t.a.SyncCommit(th, cases, chosen)
	t.b.SyncCommit(th, cases, chosen)
}
func (t *teeInstrumentation) CustodianShutdown(id int64, threads int) {
	t.a.CustodianShutdown(id, threads)
	t.b.CustodianShutdown(id, threads)
}
func (t *teeInstrumentation) AlarmFire(th *Thread) { t.a.AlarmFire(th); t.b.AlarmFire(th) }
func (t *teeInstrumentation) Deterministic() bool {
	return t.a.Deterministic() || t.b.Deterministic()
}

// insBox wraps the interface value so it can be swapped atomically: the
// tap sites load it lock-free (gate and Pause run outside the runtime
// lock), which is what lets a passive instrumentation be installed on a
// live runtime.
type insBox struct{ i Instrumentation }

// hook returns the installed instrumentation, or nil. It is a single
// atomic load; every tap site guards with it so the uninstrumented path
// costs one predictable branch.
func (rt *Runtime) hook() Instrumentation {
	if b := rt.ins.Load(); b != nil {
		return b.i
	}
	return nil
}

// Instrumentation returns the currently installed instrumentation, or
// nil. internal/obs uses it to attach to (or reuse the attachment on) a
// runtime it did not create.
func (rt *Runtime) Instrumentation() Instrumentation { return rt.hook() }

// SetInstrumentation installs (or, with nil, removes) the runtime's
// instrumentation.
//
// A deterministic instrumentation (Deterministic() == true) switches
// the runtime to sequential deterministic mode — the virtual clock
// replaces the wall clock for alarms and External completions are
// queued for explicit delivery — and must be installed before any
// thread is created; so must its removal. A passive instrumentation
// (Deterministic() == false) may be installed or swapped at any time,
// including on a live serving runtime; taps begin flowing with the next
// event on each code path (installation is atomic, not synchronized
// with in-flight operations).
func (rt *Runtime) SetInstrumentation(i Instrumentation) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	det := i != nil && i.Deterministic()
	if det != rt.det.Load() && len(rt.threads) > 0 {
		panic("core: SetInstrumentation cannot change deterministic mode after threads were created")
	}
	if det {
		rt.vnow.Store(detEpoch.UnixNano())
	}
	rt.det.Store(det)
	if i == nil {
		rt.ins.Store(nil)
		return
	}
	rt.ins.Store(&insBox{i: i})
}

// Compile-time checks that the composable pieces satisfy the interface.
var (
	_ Instrumentation = NopInstrumentation{}
	_ Instrumentation = (*teeInstrumentation)(nil)
)

// atomicInsPointer is a type alias kept close to the insBox definition;
// the Runtime field uses it so runtime.go stays focused on scheduling
// state.
type atomicInsPointer = atomic.Pointer[insBox]
