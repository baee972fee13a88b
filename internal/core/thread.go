package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Thread is a runtime thread: a unit of execution that, unlike a raw
// goroutine, can be suspended, resumed, killed, and sent break signals by
// other threads, and whose right to execute is governed by custodians.
//
// A thread is suspended when it has been explicitly suspended (Suspend) or
// when every custodian controlling it has been shut down. Suspension takes
// effect at the thread's next safe point; every runtime primitive is a safe
// point. A suspended thread cannot commit a rendezvous.
//
// Thread state is split across three synchronization domains:
//
//   - Bookkeeping (custodian sets, yoking, suspension, done) lives under
//     the runtime's bookkeeping lock rt.mu, which no rendezvous path takes.
//   - Flags the lock-free commit and abort paths consult — killed,
//     matchable, breaksOn, pendingBreak, the in-flight op — are atomics.
//     matchable is the single predicate peers check before committing
//     against this thread ("not done, not killed, not suspended"); it is
//     recomputed under rt.mu whenever an input changes.
//   - The park/wake channel is a per-thread mutex + condvar guarding a
//     wake sequence number. A waker bumps the sequence and signals; a
//     parker re-checks the sequence under the park lock, so a wake-up
//     between "read token" and "park" is never lost. The park lock is a
//     leaf: wake() is safe to call from any context, including commit
//     finalization with event locks held.
type Thread struct {
	rt   *Runtime
	id   int64
	name string

	// Park/wake machinery. wakeSeq counts wake-ups; parkCond (on parkMu)
	// carries the signal. Invariant: at most one goroutine — the thread's
	// own — ever parks, so wake-ups use the cheaper targeted Signal.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	wakeSeq  atomic.Uint64

	// killed is set once, under rt.mu, and read lock-free by the owner's
	// sync loop and safe points. matchable is maintained by
	// updateMatchableLocked. breaksOn and pendingBreak are the break
	// machinery: breaksOn is the thread's break-enabled parameter (dynamic
	// extent managed by WithBreaks; written only by the owner outside the
	// wait loop, read by Break), pendingBreak a delivered but not yet
	// raised break signal.
	killed       atomic.Bool
	matchable    atomic.Bool
	breaksOn     atomic.Bool
	pendingBreak atomic.Bool

	// op is the thread's in-flight sync operation, if it is blocked in
	// Sync; published with release ordering after the op is initialized,
	// so Break and Kill can abort it through the claim protocol. opFree
	// caches one finished sync op for reuse (owner-only), so steady-state
	// syncing allocates no op records.
	op     atomic.Pointer[syncOp]
	opFree *syncOp

	// doneSig fires (with Unit) when the thread terminates; DoneEvt is its
	// event view.
	doneSig oneshot

	// ---- Fields below are guarded by rt.mu. ----

	// Controlling custodians (live ones only). Empty set => suspended.
	custodians map[*Custodian]struct{}
	// current is the thread's current custodian parameter: the custodian
	// that controls resources the thread allocates. It is not necessarily
	// one of the thread's own controllers.
	current *Custodian

	// beneficiaries are threads yoked to this one by ResumeVia: whenever
	// this thread acquires a custodian or is resumed, so are they.
	// yokedOwners is the reverse index, used to unlink finished threads.
	beneficiaries map[*Thread]struct{}
	yokedOwners   map[*Thread]struct{}
	// walkMark is the number of the last yoke-graph walk that visited
	// the thread (see Runtime.newWalkLocked).
	walkMark uint64

	explicitSuspend bool
	done            bool
	err             *ThreadPanicError
}

// ID returns the thread's runtime-unique identifier.
func (t *Thread) ID() int64 { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Runtime returns the runtime that owns the thread.
func (t *Thread) Runtime() *Runtime { return t.rt }

func (t *Thread) String() string { return fmt.Sprintf("thread(%s#%d)", t.name, t.id) }

// wakeToken samples the wake sequence. The owner reads it before checking
// any state it might park on; parkUntilWake with that token returns
// immediately if any wake landed in between.
func (t *Thread) wakeToken() uint64 { return t.wakeSeq.Load() }

// wake unparks the thread's goroutine (if parked) and invalidates any
// token read before this call. Callable from any goroutine; parkMu is a
// leaf lock.
func (t *Thread) wake() {
	t.parkMu.Lock()
	t.wakeSeq.Add(1)
	t.parkCond.Signal()
	t.parkMu.Unlock()
}

// parkUntilWake blocks until a wake invalidates tok. Owner goroutine only.
func (t *Thread) parkUntilWake(tok uint64) {
	t.parkMu.Lock()
	for t.wakeSeq.Load() == tok {
		t.parkCond.Wait()
	}
	t.parkMu.Unlock()
}

// parkBlocked is parkUntilWake with the instrumentation protocol around
// it: the thread reports itself blocked first and, in deterministic mode,
// waits to be granted its turn (Pause) before acting on what it observed.
func (t *Thread) parkBlocked(tok uint64) {
	if h := t.rt.hook(); h != nil {
		h.Blocked(t)
		t.parkUntilWake(tok)
		if t.rt.det.Load() {
			h.Pause(t)
		}
		return
	}
	t.parkUntilWake(tok)
}

// suspendedLocked reports whether the thread may not run. Caller holds rt.mu.
func (t *Thread) suspendedLocked() bool {
	return t.explicitSuspend || len(t.custodians) == 0
}

// updateMatchableLocked recomputes the lock-free matchable flag from the
// bookkeeping state. Caller holds rt.mu and calls it after every change to
// done, killed, explicit suspension, or the custodian set. A commit that
// validated matchable just before it flips false linearizes before the
// suspension, which takes effect at the thread's next safe point — the
// same order a global lock would have produced.
func (t *Thread) updateMatchableLocked() {
	t.matchable.Store(!t.done && !t.killed.Load() && !t.suspendedLocked())
}

// Spawn creates a new thread running fn, controlled by this thread's
// current custodian (the custodian parameter, not necessarily this thread's
// own controller). If the current custodian is dead, the new thread is
// returned already terminated and fn never runs.
func (t *Thread) Spawn(name string, fn func(*Thread)) *Thread {
	t.rt.mu.Lock()
	c := t.current
	t.rt.mu.Unlock()
	return t.rt.spawn(name, c, fn)
}

// CurrentCustodian returns the thread's custodian parameter.
func (t *Thread) CurrentCustodian() *Custodian {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	return t.current
}

// SetCurrentCustodian sets the thread's custodian parameter, controlling
// where subsequently allocated resources (threads, registered closers) are
// placed. It does not change which custodians control this thread.
func (t *Thread) SetCurrentCustodian(c *Custodian) {
	t.rt.mu.Lock()
	t.current = c
	t.rt.mu.Unlock()
}

// WithCustodian runs fn with the thread's custodian parameter set to c,
// restoring the previous value afterwards. It models MzScheme's
// (parameterize ([current-custodian c]) ...).
func (t *Thread) WithCustodian(c *Custodian, fn func()) {
	t.rt.mu.Lock()
	prev := t.current
	t.current = c
	t.rt.mu.Unlock()
	defer func() {
		t.rt.mu.Lock()
		t.current = prev
		t.rt.mu.Unlock()
	}()
	fn()
}

// gate blocks while the thread is suspended and panics with the kill
// sentinel if the thread has been killed. It is the core safe point; in
// deterministic mode it is also a scheduling decision: the thread pauses
// and runs on only when the scheduler hook grants it.
func (t *Thread) gate() {
	t.gateWait()
	if h := t.rt.hook(); h != nil {
		h.Pause(t)
	}
}

// gateWait is gate without the trailing Pause; Checkpoint uses it so the
// Pause lands after the break check, as a single safe-point decision.
func (t *Thread) gateWait() {
	for {
		tok := t.wakeToken()
		t.rt.mu.Lock()
		if t.killed.Load() {
			t.rt.mu.Unlock()
			// The unwind mutates shared state (custodian release, done
			// waiters); in deterministic mode it must wait its turn like
			// any other step.
			if h := t.rt.hook(); h != nil {
				h.Pause(t)
			}
			panic(killSentinel{t})
		}
		if !t.suspendedLocked() {
			t.rt.mu.Unlock()
			return
		}
		t.rt.mu.Unlock()
		if h := t.rt.hook(); h != nil {
			h.Blocked(t)
		}
		t.parkUntilWake(tok)
	}
}

// Checkpoint is an explicit safe point: it blocks while the thread is
// suspended, unwinds if the thread has been killed, and returns ErrBreak
// if a break is pending and breaks are enabled. Long-running computations
// that do not otherwise touch runtime primitives should call it
// periodically to remain controllable.
func (t *Thread) Checkpoint() error {
	t.gateWait()
	brk := t.breaksOn.Load() && t.pendingBreak.CompareAndSwap(true, false)
	if h := t.rt.hook(); h != nil {
		h.Pause(t)
	}
	if brk {
		return ErrBreak
	}
	return nil
}

// Yield is Checkpoint under a friendlier name.
func (t *Thread) Yield() error { return t.Checkpoint() }

// Suspend explicitly suspends the thread at its next safe point. The
// thread stays suspended until Resume (and, as always, a thread with no
// live custodian cannot run regardless).
func (t *Thread) Suspend() {
	t.rt.mu.Lock()
	if !t.done {
		t.explicitSuspend = true
		t.updateMatchableLocked()
		t.rt.traceLocked(TraceSuspend, t)
	}
	t.rt.mu.Unlock()
}

// Kill terminates the thread: it will never run again and cannot be
// resumed. It models MzScheme's kill-thread and, together with
// Runtime.TerminateCondemned, the collection of unreachable suspended
// threads. Pending nack events of the thread's in-flight sync fire.
func (t *Thread) Kill() {
	t.rt.mu.Lock()
	t.killLocked()
	t.rt.mu.Unlock()
}

func (t *Thread) killLocked() {
	if t.done || t.killed.Load() {
		return
	}
	t.killed.Store(true)
	t.updateMatchableLocked()
	t.rt.traceLocked(TraceKill, t)
	if op := t.op.Load(); op != nil {
		if op.claimAbort(opAbortedKill) {
			// Fire the in-flight sync's nacks immediately so that servers
			// waiting on gave-up events learn of the termination promptly;
			// the killed goroutine unwinds at its next wake-up.
			op.fireAllNacks()
		}
	}
	t.wake()
	if h := t.rt.hook(); h != nil {
		h.Runnable(t) // the goroutine must run once more, to unwind
	}
}

// markDoneLocked finalizes a finished or killed thread. Caller holds rt.mu.
func (t *Thread) markDoneLocked() {
	if t.done {
		return
	}
	t.done = true
	t.killed.Store(true)
	t.updateMatchableLocked()
	for c := range t.custodians {
		delete(c.threads, t)
	}
	clear(t.custodians)
	for owner := range t.yokedOwners {
		delete(owner.beneficiaries, t)
	}
	clear(t.yokedOwners)
	for b := range t.beneficiaries {
		delete(b.yokedOwners, t)
	}
	clear(t.beneficiaries)
	delete(t.rt.threads, t.id)
	t.doneSig.fire(Unit{})
	t.wake()
	if h := t.rt.hook(); h != nil {
		h.Done(t)
	}
}

// Done reports whether the thread has terminated (returned or killed).
// A suspended thread is not done: it is "only mostly dead".
func (t *Thread) Done() bool {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	return t.done
}

// Killed reports whether the thread has been killed, whether or not its
// goroutine has finished unwinding yet. Done implies Killed.
func (t *Thread) Killed() bool { return t.killed.Load() }

// Suspended reports whether the thread is currently suspended.
func (t *Thread) Suspended() bool {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	return !t.done && t.suspendedLocked()
}

// Err returns the panic error recorded for the thread, if user code
// running on it panicked.
func (t *Thread) Err() error {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.err == nil {
		return nil
	}
	return t.err
}

// Custodians returns a snapshot of the custodians currently controlling
// the thread.
func (t *Thread) Custodians() []*Custodian {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	out := make([]*Custodian, 0, len(t.custodians))
	for c := range t.custodians {
		out = append(out, c)
	}
	return out
}

// addCustodianLocked grants the thread a (live) controlling custodian and
// propagates the grant to the thread's beneficiaries, per the yoking
// semantics of two-argument thread-resume. Caller holds rt.mu.
func (t *Thread) addCustodianLocked(c *Custodian, walk uint64) {
	if c == nil || c.dead || t.done || t.visitLocked(walk) {
		return
	}
	if _, ok := t.custodians[c]; !ok {
		t.custodians[c] = struct{}{}
		c.threads[t] = struct{}{}
		t.wakeIfRunnableLocked()
	}
	if t.rt.det.Load() {
		// Wake-ups can commit syncs; visit beneficiaries in id order so
		// deterministic runs do not depend on map iteration order.
		for _, b := range sortedThreads(t.beneficiaries) {
			b.addCustodianLocked(c, walk)
		}
		return
	}
	for b := range t.beneficiaries {
		b.addCustodianLocked(c, walk)
	}
}

// visitLocked marks the thread as visited by walk and reports whether
// the walk had already visited it. Caller holds rt.mu.
func (t *Thread) visitLocked(walk uint64) bool {
	if t.walkMark == walk {
		return true
	}
	t.walkMark = walk
	return false
}

// wakeIfRunnableLocked re-enables a thread that may have just stopped
// being suspended: recomputes matchable, wakes a parked goroutine, and
// re-polls an in-flight sync so that the newly matchable thread can pair
// with waiting peers. Caller holds rt.mu; the re-poll takes each event's
// own lock underneath, per the lock hierarchy.
func (t *Thread) wakeIfRunnableLocked() {
	t.updateMatchableLocked()
	if t.done || t.suspendedLocked() {
		return
	}
	t.wake()
	if h := t.rt.hook(); h != nil {
		h.Runnable(t)
	}
	// No re-poll here: the woken thread's own sync loop re-polls its
	// registered cases (owner-side re-poll). A remote re-poll would have to
	// read op.cases, which only the owner — or a claim holder — may do.
}

// resumeLocked clears explicit suspension (the thread still cannot run if
// it has no custodian) and recursively resumes beneficiaries.
func (t *Thread) resumeLocked(walk uint64) {
	if t.visitLocked(walk) {
		return
	}
	if !t.done {
		if t.explicitSuspend {
			t.rt.traceLocked(TraceResume, t)
		}
		t.explicitSuspend = false
		t.wakeIfRunnableLocked()
	}
	if t.rt.det.Load() {
		for _, b := range sortedThreads(t.beneficiaries) {
			b.resumeLocked(walk)
		}
		return
	}
	for b := range t.beneficiaries {
		b.resumeLocked(walk)
	}
}

// Break delivers a break signal to the thread: an asynchronous, polite
// request to unwind, manifest as ErrBreak from the thread's next blocking
// primitive executed with breaks enabled. A break delivered while one is
// already pending has no effect.
func (t *Thread) Break() {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.done || !t.pendingBreak.CompareAndSwap(false, true) {
		return
	}
	t.rt.traceLocked(TraceBreak, t)
	if op := t.op.Load(); op != nil && op.breakable.Load() {
		// Abort via claim-then-verify rather than a direct CAS to the
		// aborted state: between the breakable read above and the CAS, the
		// owner can finish this sync, recycle the op record, and start a
		// new sync on it — and the new sync may be running with breaks
		// disabled. Holding the claim freezes the record (the owner's loop
		// cannot exit while the op is claimed), so re-checking that the
		// record is still the thread's current op and still breakable
		// decides against the sync that would actually receive the abort.
		// Either the abort lands (the sync returns ErrBreak and consumes
		// the pending flag) or it is withheld — a lost race to a commit, a
		// kill, or a non-breakable successor — and the pending flag
		// survives for the thread's next breakable safe point.
		if op.claim() {
			if t.op.Load() == op && op.breakable.Load() {
				op.state.Store(opAbortedBreak)
			} else {
				op.unclaim()
			}
		}
	}
	// Wake a parked thread (sync wait or gate) so Checkpoint or the sync
	// loop can deliver.
	t.wake()
	if h := t.rt.hook(); h != nil {
		h.Runnable(t)
	}
}

// BreaksEnabled reports the thread's break-enabled parameter.
func (t *Thread) BreaksEnabled() bool { return t.breaksOn.Load() }

// WithBreaks runs fn with the thread's break-enabled parameter set to
// enabled, restoring the previous value afterwards. It models
// (parameterize ([break-enabled v]) ...). Note that merely enabling breaks
// around Sync does not provide SyncEnableBreak's exclusive-or guarantee.
func (t *Thread) WithBreaks(enabled bool, fn func()) {
	prev := t.breaksOn.Load()
	t.breaksOn.Store(enabled)
	defer t.breaksOn.Store(prev)
	fn()
}

// Resume resumes the thread if it is explicitly suspended and still has a
// live custodian. Resuming a thread whose custodians have all been shut
// down has no effect (use ResumeWith or ResumeVia to supply one).
func Resume(t *Thread) {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if len(t.custodians) == 0 {
		return
	}
	t.resumeLocked(t.rt.newWalkLocked())
}

// ResumeWith adds custodian c to the thread's set of controllers (and, by
// yoking, to its beneficiaries') and then resumes it.
func ResumeWith(t *Thread, c *Custodian) {
	if c.rt != t.rt {
		panic("core: ResumeWith with a custodian from a different runtime; custodians must not be shared across runtimes")
	}
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	t.addCustodianLocked(c, t.rt.newWalkLocked())
	if len(t.custodians) > 0 {
		t.resumeLocked(t.rt.newWalkLocked())
	}
}

// ResumeVia is the paper's two-argument thread-resume with a thread as the
// second argument: every custodian of by is added to t's controllers, t is
// registered as a beneficiary of by — so that whenever by is resumed or
// acquires a new custodian, so does t — and then t is resumed if it now
// has a live custodian. The overall effect is that t survives at least as
// long as by: a custodian-based suspension of t entails the suspension of
// by, and t gains no more privilege to run than by has.
//
// Guarding each operation of a shared abstraction with
// ResumeVia(managerThread, currentThread) is the key to kill-safety.
func ResumeVia(t, by *Thread) {
	if t == by {
		return
	}
	if t.rt != by.rt {
		panic("core: ResumeVia across runtimes; threads must not be shared across runtimes")
	}
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.done {
		return
	}
	if !by.done {
		if _, ok := by.beneficiaries[t]; !ok {
			t.rt.traceLocked(TraceYoke, t)
		}
		by.beneficiaries[t] = struct{}{}
		t.yokedOwners[by] = struct{}{}
	}
	if t.rt.det.Load() {
		for _, c := range sortedCustodians(by.custodians) {
			t.addCustodianLocked(c, t.rt.newWalkLocked())
		}
	} else {
		for c := range by.custodians {
			t.addCustodianLocked(c, t.rt.newWalkLocked())
		}
	}
	if len(t.custodians) > 0 {
		t.resumeLocked(t.rt.newWalkLocked())
	}
}

// DoneEvt returns an event that becomes ready (with Unit) when the thread
// terminates — returns or is killed. Suspension is not termination.
func (t *Thread) DoneEvt() Event {
	return &doneEvt{th: t}
}

// SpawnYoked creates a thread that is yoked to owner from birth: it is
// controlled by every custodian currently controlling owner and by every
// custodian owner later acquires, and it is resumed whenever owner is.
// It is the right way for an abstraction's manager thread to spawn helper
// threads (reply deliverers and the like): a plain Spawn would place the
// helper under the manager's creation-time current custodian, which may
// long since be dead even though the manager itself has been promoted
// into its surviving users' custodians.
func SpawnYoked(owner *Thread, name string, fn func(*Thread)) *Thread {
	rt := owner.rt
	rt.mu.Lock()
	if rt.down || owner.done {
		th := rt.newThreadLocked(name, nil)
		th.markDoneLocked()
		rt.mu.Unlock()
		return th
	}
	th := rt.newThreadLocked(name, nil)
	th.current = owner.current
	owner.beneficiaries[th] = struct{}{}
	th.yokedOwners[owner] = struct{}{}
	if rt.det.Load() {
		for _, c := range sortedCustodians(owner.custodians) {
			th.addCustodianLocked(c, rt.newWalkLocked())
		}
	} else {
		for c := range owner.custodians {
			th.addCustodianLocked(c, rt.newWalkLocked())
		}
	}
	rt.wg.Add(1)
	rt.mu.Unlock()

	go func() {
		defer rt.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if ks, ok := r.(killSentinel); ok && ks.th == th {
					rt.finishThread(th, nil)
					return
				}
				rt.finishThread(th, &ThreadPanicError{Value: r})
				return
			}
			rt.finishThread(th, nil)
		}()
		th.gate()
		fn(th)
	}()
	return th
}
