package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sync engine: flatten → poll → enroll → park → commit/abort.
//
// Matching state is no longer protected by one runtime-wide lock. Each
// event source (channel, semaphore, one-shot signal) owns its waiter queue
// under its own small mutex, and the unit of commitment is the sync
// operation itself: syncOp.state is an atomic state machine and a commit
// is a CAS "claim" of every participating op followed by a release store
// of the final state. Two threads rendezvousing on disjoint events touch
// disjoint locks and disjoint ops and never contend.
//
// The claim protocol (see DESIGN S21 for the full argument):
//
//   - opSyncing → opClaimed is the only transition available to a
//     committer, and only via CAS, so at most one committer ever holds an
//     op. The claimer either finalizes (→ opCommitted) or rolls back
//     (→ opSyncing); kill and break bypass opClaimed and CAS straight to
//     their terminal aborted states.
//   - A claim attempt that observes opClaimed spins (the claim is
//     transient: its holder finalizes or rolls back without blocking on
//     any event lock), and gives up only on a terminal state. Skipping a
//     transiently claimed peer instead of spinning would lose rendezvous:
//     both parties could park with matching waiters enqueued.
//   - Two-party commits claim both ops in thread-id order, so spin-wait
//     edges always point toward higher ids and cannot form a cycle.
//
// Lock hierarchy (outer to inner): runtime bookkeeping lock (rt.mu) →
// per-event lock (Chan.mu, Semaphore.mu, oneshot.mu, External state) →
// op claim (CAS spin) → op.nackMu → per-thread park mutex. Commit paths
// never take rt.mu or any event lock, which is what makes spinning on a
// claim safe from any context, including while holding an event lock.
//
// The rendezvous path is allocation-conscious: syncOp records are pooled
// per thread (a thread has at most one op in flight, plus rare nested ops
// from guard procedures), flattened cases and their waiters live in small
// arrays inside the op, and a sync over a single base event with at most
// one wrap — the overwhelmingly common shape on serving paths — completes
// without any heap allocation at all.

const (
	opSyncing int32 = iota
	opClaimed
	opCommitted
	opAbortedBreak
	opAbortedKill
)

// syncInline is the number of flattened cases (and their waiters) stored
// inline in a syncOp. Serving-path syncs are choices of 1–3 alternatives;
// larger choices spill to the heap.
const syncInline = 4

// syncOp is one in-flight Sync call.
type syncOp struct {
	th    *Thread
	state atomic.Int32
	// breakable: a pending break aborts the wait phase. Atomic because
	// Break reads it through th.op while the record may be mid-recycle on
	// the owner — the read alone is therefore unreliable (the record may
	// already carry the owner's *next* sync, which may have breaks
	// disabled), so Break treats it only as a fast-path filter and
	// re-verifies it under a claim, which freezes the record, before
	// storing the abort (see Thread.Break).
	breakable atomic.Bool
	chosen    int // case index; written by the claimer before the opCommitted store
	result    Value
	prev      *syncOp // saved th.op (nested sync inside a guard procedure)
	cases     []flatCase
	waiters   []*waiter

	// nacks are the nack signals created for this sync's nack-guards.
	// flatten appends to the list while a kill can fire it concurrently,
	// so the slice is guarded by nackMu; nnacks mirrors the length so the
	// overwhelmingly common zero-nack case skips the lock entirely (a
	// fire racing a concurrent append may miss the new signal, which is
	// safe: finish fires every nack of an abandoned op).
	nackMu sync.Mutex
	nnacks atomic.Int32
	nacks  []*nackSignal

	casebuf [syncInline]flatCase
	wbuf    [syncInline]waiter
	wptrbuf [syncInline]*waiter
}

// waiter is a registration of one sync case in a base event's wait queue.
// Its queue position (seg/slot) is guarded by the owning event's lock;
// gen is atomic because alarm callbacks read it from timer goroutines.
type waiter struct {
	op   *syncOp
	idx  int
	base baseEvent
	seg  *wseg // waitq segment holding this waiter, nil when not enqueued
	slot int   // slot index within seg
	// gen invalidates references that can outlive the sync: a real alarm
	// timer callback and a virtual-clock alarm registration both capture
	// the waiter together with its generation, and fire only if the
	// generation still matches. finish bumps it, so a recycled waiter
	// record can never be committed by a stale alarm.
	gen   atomic.Uint32
	timer *time.Timer // real-clock alarm timer, stopped at deregistration
}

// claim moves the op from syncing to claimed, spinning out a transient
// claim held by another committer. It returns false if the op has reached
// a terminal state (committed or aborted). On success the caller owns the
// op and must either finalize or unclaim it without blocking on any event
// lock (spinners may be holding one).
func (op *syncOp) claim() bool {
	for {
		if op.state.CompareAndSwap(opSyncing, opClaimed) {
			return true
		}
		if s := op.state.Load(); s != opClaimed && s != opSyncing {
			return false
		}
		runtime.Gosched()
	}
}

// unclaim rolls a claimed op back to syncing (the commit attempt found the
// pairing invalid — e.g. the peer thread is suspended).
func (op *syncOp) unclaim() { op.state.Store(opSyncing) }

// claimAbort CASes a syncing op directly to an aborted terminal state,
// spinning out transient claims. A committer that wins the race commits
// first — the kill or break then linearizes after the commit, exactly as
// it would have under a global lock.
func (op *syncOp) claimAbort(target int32) bool {
	for {
		if op.state.CompareAndSwap(opSyncing, target) {
			return true
		}
		if s := op.state.Load(); s != opClaimed && s != opSyncing {
			return false
		}
		runtime.Gosched()
	}
}

// acquireOp returns a reset sync op, reusing the thread's cached record
// when available. Owner goroutine only; no lock held.
func (t *Thread) acquireOp() *syncOp {
	op := t.opFree
	if op == nil {
		op = &syncOp{}
	} else {
		t.opFree = nil
	}
	op.th = t
	op.chosen = 0
	op.result = nil
	op.cases = op.casebuf[:0]
	op.waiters = op.wptrbuf[:0]
	// The Syncing store is the fence that makes recycling safe against
	// stale alarm callbacks: a callback that claims a recycled op
	// synchronizes with this store and re-checks the waiter generation
	// (bumped in finish, before the op returned to the pool) afterwards.
	op.state.Store(opSyncing)
	return op
}

// releaseOp clears the op's references and caches it on the thread for
// reuse. Owner goroutine only; no base event holds a pointer to the op or
// its waiters anymore (finish deregistered them), and stale alarm
// references are fenced by the waiter generations bumped in finish.
//
// The quiesce loop below is the recycling fence for transient claims:
// Break's claim-verify (thread.go) can hold the op claimed at a moment
// when the owner is about to recycle it — the pending-break return at
// sync entry, or a guard-procedure panic that user code recovers from.
// Waiting for the claim to resolve here guarantees the holder's final
// state store (abort or rollback) lands before the record can be re-armed
// for a successor sync, so a lagging rollback can never clobber the
// successor's state. Claim holders never block on the owner, so the spin
// terminates; on the fast path this is one uncontended atomic load.
func (t *Thread) releaseOp(op *syncOp) {
	for op.state.Load() == opClaimed {
		runtime.Gosched()
	}
	for i := range op.cases {
		op.cases[i] = flatCase{}
	}
	op.cases = nil
	op.waiters = nil
	if op.nnacks.Load() != 0 {
		op.nackMu.Lock()
		for i := range op.nacks {
			op.nacks[i] = nil
		}
		op.nacks = op.nacks[:0]
		op.nnacks.Store(0)
		op.nackMu.Unlock()
	}
	op.result = nil
	op.prev = nil
	t.opFree = op
}

// newWaiter returns a waiter for case idx, stored inline in the op when a
// slot is free. Owner goroutine only; the record is published to other
// goroutines by the event lock released inside enroll.
func (op *syncOp) newWaiter(idx int) *waiter {
	var w *waiter
	if i := len(op.waiters); i < syncInline {
		w = &op.wbuf[i]
	} else {
		w = &waiter{}
	}
	w.op = op
	w.idx = idx
	w.base = op.cases[idx].base
	w.seg = nil
	w.slot = 0
	w.timer = nil
	return w
}

// finalizeCommit completes a commit: the caller has claimed op (state ==
// opClaimed) and validated the pairing. It publishes the chosen case and
// value, fires the nacks that do not cover the chosen case — promptly, so
// that watchers (e.g. a manager thread's gave-up events) learn of the
// outcome even before the syncing thread is rescheduled — and wakes the
// op's thread.
//
// The opCommitted store is the publication point: the owner's sync loop
// may observe it at any moment (it does not need the wake if it is mid
// loop rather than parked) and race ahead into finish and op recycling.
// Everything the tail needs — the thread, the case count, the losing
// nacks — is therefore snapshotted while the claim is still held, and the
// op is never touched after the store.
func finalizeCommit(op *syncOp, idx int, v Value) {
	th := op.th
	ncases := len(op.cases)
	losers := op.losingNacks(idx)
	op.chosen = idx
	op.result = v
	op.state.Store(opCommitted)
	for _, n := range losers {
		n.fire()
	}
	if h := th.rt.hook(); h != nil {
		h.SyncCommit(th, ncases, idx)
		h.Runnable(th)
	}
	th.wake()
}

// commitPair completes a two-party rendezvous: the caller has claimed and
// validated both ops. Both terminal states are stored before either side's
// nacks fire, so the post-commit cascade (nack fires → further commits →
// further claims) runs with no claim held anywhere — a cascade that
// reaches back to either op observes opCommitted and backs off instead of
// spinning on a claim its own goroutine holds. As in finalizeCommit, the
// post-store tail works only on pre-store snapshots, because either owner
// may observe its commit and recycle its op immediately. a is finalized
// (nacks, hooks, wake) before b, which is the order deterministic traces
// were recorded with (peer first, then self).
func commitPair(a *syncOp, aIdx int, av Value, b *syncOp, bIdx int, bv Value) {
	ath, bth := a.th, b.th
	an, bn := len(a.cases), len(b.cases)
	alosers := a.losingNacks(aIdx)
	blosers := b.losingNacks(bIdx)
	a.chosen, a.result = aIdx, av
	b.chosen, b.result = bIdx, bv
	a.state.Store(opCommitted)
	b.state.Store(opCommitted)
	for _, n := range alosers {
		n.fire()
	}
	if h := ath.rt.hook(); h != nil {
		h.SyncCommit(ath, an, aIdx)
		h.Runnable(ath)
	}
	ath.wake()
	for _, n := range blosers {
		n.fire()
	}
	if h := bth.rt.hook(); h != nil {
		h.SyncCommit(bth, bn, bIdx)
		h.Runnable(bth)
	}
	bth.wake()
}

// losingNacks snapshots the nack signals that a commit of case idx must
// fire (those not covering idx). Called while the op is claimed, before
// the commit is published, so reading op.cases and op.nacks is safe.
func (op *syncOp) losingNacks(idx int) []*nackSignal {
	if op.nnacks.Load() == 0 {
		return nil
	}
	op.nackMu.Lock()
	covered := op.cases[idx].nackIdx
	var out []*nackSignal
	for i, n := range op.nacks {
		if !containsIdx(covered, i) {
			out = append(out, n)
		}
	}
	op.nackMu.Unlock()
	return out
}

// fireLosingNacks fires every nack of a committed op that does not cover
// the chosen case. Owner-only (finish); remote committers snapshot via
// losingNacks instead. The cover check scans the chosen case's (tiny)
// nack-index list directly; no per-sync map is built.
func (op *syncOp) fireLosingNacks() {
	if op.nnacks.Load() == 0 {
		return
	}
	op.nackMu.Lock()
	var covered []int
	if op.state.Load() == opCommitted {
		covered = op.cases[op.chosen].nackIdx
	}
	for i, n := range op.nacks {
		if !containsIdx(covered, i) {
			n.fire()
		}
	}
	op.nackMu.Unlock()
}

func containsIdx(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// fireAllNacks fires every unfired nack of an abandoned op.
func (op *syncOp) fireAllNacks() {
	if op.nnacks.Load() == 0 {
		return
	}
	op.nackMu.Lock()
	for _, n := range op.nacks {
		n.fire()
	}
	op.nackMu.Unlock()
}

// addNack records a nack signal created during flatten. The lock is
// against a concurrent kill firing the list mid-flatten.
func (op *syncOp) addNack(sig *nackSignal) int {
	op.nackMu.Lock()
	op.nacks = append(op.nacks, sig)
	idx := len(op.nacks) - 1
	op.nnacks.Store(int32(len(op.nacks)))
	op.nackMu.Unlock()
	return idx
}

// finish is the single exit path of syncImpl: restore the op stack,
// deregister waiters from their event queues, fire the nacks appropriate
// to the outcome (all of them if the sync was abandoned; the losers only
// if it committed — those already fired at commit time, and firing is
// idempotent), and recycle the op record.
func (op *syncOp) finish() {
	th := op.th
	th.op.Store(op.prev)
	for _, w := range op.waiters {
		if w.timer != nil {
			w.timer.Stop()
			w.timer = nil
		}
		w.base.cancel(w)
		w.gen.Add(1)
		w.base = nil
	}
	if op.state.Load() == opCommitted {
		op.fireLosingNacks()
	} else {
		op.fireAllNacks()
	}
	th.releaseOp(op)
}

// Sync blocks until one of the communications described by e is ready,
// commits it, applies its wrap functions (with breaks implicitly disabled
// from the commit until the outermost wrap completes), and returns the
// resulting value.
//
// If a break signal is delivered while the thread waits with breaks
// enabled, Sync returns ErrBreak and no event is chosen; every nack
// created for this sync fires. If the thread is killed while waiting, the
// sync's nacks fire and the thread unwinds.
//
// Every event synced must belong to th's runtime: sharing a channel,
// semaphore, custodian, or other event source across runtimes is not
// merely unsupported, it is diagnosed — Sync panics with a clear message
// rather than corrupting the foreign runtime's state under the wrong lock.
func Sync(th *Thread, e Event) (Value, error) {
	return syncImpl(th, e, false)
}

// SyncEnableBreak is Sync with breaks enabled during the wait even if the
// thread's break parameter is off, with an exclusive-or guarantee: either
// a break is delivered (ErrBreak, no event chosen) or an event is chosen
// (no break consumed) — never both. Merely wrapping Sync in WithBreaks
// does not provide this guarantee.
func SyncEnableBreak(th *Thread, e Event) (Value, error) {
	return syncImpl(th, e, true)
}

func syncImpl(th *Thread, e Event, enableBreak bool) (Value, error) {
	th.gate() // safe point: honor suspension and kill before doing anything

	rt := th.rt

	op := th.acquireOp()
	op.breakable.Store(enableBreak || th.breaksOn.Load())
	op.prev = th.op.Load() // nested sync inside a guard procedure
	th.op.Store(op)
	// A break that is already pending is delivered at sync entry, before
	// any event can be chosen.
	if op.breakable.Load() && th.pendingBreak.CompareAndSwap(true, false) {
		th.op.Store(op.prev)
		th.releaseOp(op)
		return nil, ErrBreak
	}

	defer op.finish()

	// Flatten before touching any queue: guard procedures are arbitrary
	// user code and may block, sync, or spawn. A kill or break arriving
	// during flatten is observed below.
	flatten(th, op, e, nil, nil, nil, 0)

	for {
		// The wake token is read before the state checks: any wake-up
		// that lands after this point bumps the token and makes the park
		// below return immediately, so a commit, kill, break, or resume
		// can never slip between the checks and the park.
		tok := th.wakeToken()
		if th.killed.Load() {
			panic(killSentinel{th})
		}
		switch op.state.Load() {
		case opAbortedBreak:
			th.pendingBreak.Store(false)
			return nil, ErrBreak
		case opAbortedKill:
			panic(killSentinel{th})
		case opCommitted:
			return applyWraps(th, op)
		}
		// A suspended thread must not poll or commit; park until resumed
		// (peers skip it meanwhile — matchable is false).
		if !th.matchable.Load() {
			th.parkBlocked(tok)
			continue
		}
		if len(op.waiters) > 0 {
			// Woken while registered but not decided: the wake was a
			// resume (or a break with breaks disabled). Readiness may have
			// accrued while the thread was unmatchable — peers skip a
			// suspended waiter but keep its registration, and level-
			// triggered sources (a fired signal, a passed alarm deadline)
			// drop it — so re-poll every case. Owner-side re-polling is
			// what keeps this race-free: only the owning goroutine ever
			// reads op.cases outside a claim, so a remote resume path never
			// touches an op that its owner may concurrently recycle. Case
			// order, no fairness tick: this mirrors the re-poll the old
			// global-lock design ran from the resume path itself.
			repolled := false
			for i := range op.cases {
				if op.cases[i].base.poll(op, i) {
					repolled = true
					break
				}
			}
			if repolled || op.state.Load() != opSyncing {
				continue
			}
			th.parkBlocked(tok)
			continue
		}
		{
			// First pass (or re-entry after a lost claim race).
			committed := false
			switch n := len(op.cases); {
			case n == 1:
				// Single-event fast path: no choice bookkeeping. The
				// fairness counter still ticks exactly as in the general
				// path so deterministic-mode schedules (which depend on
				// the rotation state of later multi-way choices) replay
				// unchanged.
				rt.seq.Add(1)
				if op.cases[0].base.poll(op, 0) {
					continue
				}
				if op.state.Load() != opSyncing {
					continue // decided while polling (kill, break, peer)
				}
				// enroll re-polls under the event's own lock, closing the
				// poll-then-register window a global lock used to cover.
				w := op.newWaiter(0)
				if op.cases[0].base.enroll(w) {
					continue
				}
				op.waiters = append(op.waiters, w)
			case n > 1:
				// Poll cases in rotating order for fairness across
				// choice alternatives.
				start := int(rt.seq.Add(1)) % n
				for k := 0; k < n; k++ {
					i := (start + k) % n
					if op.cases[i].base.poll(op, i) {
						committed = true
						break
					}
				}
				if committed {
					continue
				}
				// Nothing ready: enroll in case order. An enroll may
				// itself commit (an event became ready since its poll);
				// later cases are then never registered.
				for i := range op.cases {
					if op.state.Load() != opSyncing {
						committed = true
						break
					}
					w := op.newWaiter(i)
					if op.cases[i].base.enroll(w) {
						committed = true
						break
					}
					op.waiters = append(op.waiters, w)
				}
				if committed {
					continue
				}
			}
		}
		th.parkBlocked(tok)
	}
}

// applyWraps runs the chosen case's wrap procedures, innermost first, with
// breaks implicitly disabled (the paper's rule: a break cannot interrupt
// the post-commit phase unless a wrap explicitly re-enables breaks).
// breaksOn is written only by the owning thread, so the save/restore needs
// no lock.
func applyWraps(th *Thread, op *syncOp) (Value, error) {
	c := &op.cases[op.chosen]
	v := op.result
	if c.wrap1 == nil && len(c.wraps) == 0 {
		return v, nil
	}
	prev := th.breaksOn.Load()
	th.breaksOn.Store(false)
	defer th.breaksOn.Store(prev)
	if c.wraps != nil {
		// wraps were collected outside-in during flatten; apply inside-out.
		for i := len(c.wraps) - 1; i >= 0; i-- {
			v = c.wraps[i](th, v)
		}
		return v, nil
	}
	return c.wrap1(th, v), nil
}

// checkSameRuntime panics if a base event being synced belongs to a
// different runtime than the syncing thread. Multiple runtimes may
// coexist (one per shard in a sharded server), but their channels,
// semaphores, custodians, and threads must never be shared: the match
// would mutate the foreign runtime's queues under the wrong lock, which
// in the best case deadlocks and in the worst silently corrupts a
// rendezvous. The check is one type switch per flattened case.
func checkSameRuntime(th *Thread, b baseEvent) {
	o := eventRuntime(b)
	if o != nil && o != th.rt {
		panic(fmt.Sprintf(
			"core: %T belongs to a different runtime than the syncing thread %v; "+
				"channels, semaphores, externals, and custodians must not be shared across runtimes "+
				"(in a sharded server, shard-local state only — share plain Go state outside the VM instead)",
			b, th))
	}
}

// eventRuntime reports the runtime an event source belongs to, or nil for
// runtime-agnostic events (Always, nack signals created by this very
// sync).
func eventRuntime(b baseEvent) *Runtime {
	switch e := b.(type) {
	case *chanSendEvt:
		return e.ch.rt
	case *chanRecvEvt:
		return e.ch.rt
	case *semEvt:
		return e.s.rt
	case *extEvt:
		return e.x.rt
	case *alarmEvt:
		return e.rt
	case *doneEvt:
		return e.th.rt
	case *custodianDeadEvt:
		return e.c.rt
	}
	return nil
}
