package core

import (
	"sync"
	"sync/atomic"
)

// oneshot is the shared core of every level-triggered, fire-once event
// source: nack signals, External completion cells, thread done events, and
// custodian dead events. Once fired it stays ready forever with a fixed
// value.
//
// Firing uses the swap pattern: the waiter queue is detached under the
// signal's own lock, and the commits run after the lock is released. A
// commit can cascade (committing an op fires its losing nacks, which
// commit further ops …), and the cascade may in principle reach this very
// signal again; because the fired flag is set before any commit and the
// queue is already empty, the re-entry is a cheap no-op instead of a
// self-deadlock.
type oneshot struct {
	mu    sync.Mutex
	fired atomic.Bool
	v     Value
	q     waitq
}

// commitRef is a waiter's (op, case) pair and generation, snapshotted
// under the owning event's lock. The commit runs after the lock is
// released, by which time the owner may have finished the sync and reused
// the pooled op (and the waiter record) for its next one — so the ref
// carries the generation the waiter had while it was enqueued, and the
// commit is fenced on it exactly as a real alarm callback is (alarm.go).
// The generation read under the lock is current: finish cancels the
// waiter under this same lock before it bumps the generation.
type commitRef struct {
	w   *waiter
	op  *syncOp
	idx int
	gen uint32
}

// fire makes the signal ready with v and commits every waiter that can
// commit right now. A suspended waiter is dropped from the queue but not
// lost: the signal is level-triggered, so the resume path's re-poll
// observes it ready. Idempotent; returns true if this call fired it.
func (s *oneshot) fire(v Value) bool {
	s.mu.Lock()
	if s.fired.Load() {
		s.mu.Unlock()
		return false
	}
	s.v = v
	s.fired.Store(true)
	var refs []commitRef
	s.q.visit(func(w *waiter) (drop, cont bool) {
		refs = append(refs, commitRef{w, w.op, w.idx, w.gen.Load()})
		return true, true
	})
	s.mu.Unlock()
	for _, r := range refs {
		r.commit(v)
	}
	return true
}

// commit commits r's case unless the waiter has been recycled since the
// snapshot. The generation is checked twice: before the claim as a cheap
// filter, and under it — the claim's CAS synchronizes with acquireOp's
// opSyncing store, which the owner issues after finish's generation bump,
// so a stale ref that claims a recycled op observes the bump and rolls
// back instead of committing a case of the wrong sync.
func (r commitRef) commit(v Value) {
	if r.w.gen.Load() != r.gen || !r.op.claim() {
		return
	}
	if r.w.gen.Load() != r.gen || !r.op.th.matchable.Load() {
		r.op.unclaim()
		return
	}
	finalizeCommit(r.op, r.idx, v)
}

// poll attempts an immediate commit of op's case idx if the signal has
// fired. The fired flag is an acquire load, so the value stored before
// the release in fire is visible.
func (s *oneshot) poll(op *syncOp, idx int) bool {
	if !s.fired.Load() {
		return false
	}
	if !op.claim() {
		return false
	}
	finalizeCommit(op, idx, s.v)
	return true
}

// enroll atomically either commits w (the signal fired) or enqueues it.
// The fired check runs under the lock, so a concurrent fire either sees
// the enqueued waiter or the enroll sees fired — never neither.
func (s *oneshot) enroll(w *waiter) bool {
	s.mu.Lock()
	if s.fired.Load() {
		s.mu.Unlock()
		// Commit outside the lock: finalize may cascade through nack
		// signals and the signal lock must stay a leaf.
		if !w.op.claim() {
			return false
		}
		finalizeCommit(w.op, w.idx, s.v)
		return true
	}
	s.q.enqueue(w)
	s.mu.Unlock()
	return false
}

// cancel deregisters an abandoned waiter.
func (s *oneshot) cancel(w *waiter) {
	s.mu.Lock()
	s.q.cancel(w)
	s.mu.Unlock()
}
