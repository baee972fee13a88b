package core

import "sync"

// Semaphore is a counting semaphore integrated with the event system. A
// wait event is ready when the count is positive; committing it decrements
// the count atomically with the choice, so a semaphore wait can be
// multiplexed with other events. A suspended thread cannot take a post.
//
// The count and waiter queue live under the semaphore's own mutex;
// disjoint semaphores never contend. Commits go through the op claim
// protocol (sync.go), so posting hands counts only to ops that are still
// undecided and whose threads are matchable.
type Semaphore struct {
	rt    *Runtime
	mu    sync.Mutex
	count int
	q     waitq
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(rt *Runtime, count int) *Semaphore {
	if count < 0 {
		count = 0
	}
	return &Semaphore{rt: rt, count: count}
}

// Post increments the count and wakes a blocked waiter if one can commit.
func (s *Semaphore) Post() {
	s.mu.Lock()
	s.count++
	s.drainLocked()
	s.mu.Unlock()
}

// drainLocked hands available counts to committable blocked waiters.
// Caller holds s.mu. A suspended waiter stays registered (the resume path
// re-polls); a decided waiter's slot is cleared.
func (s *Semaphore) drainLocked() {
	if s.count == 0 {
		return
	}
	s.q.visit(func(w *waiter) (drop, cont bool) {
		if s.count == 0 {
			return false, false
		}
		if !w.op.claim() {
			return true, true // spent registration
		}
		if !w.op.th.matchable.Load() {
			w.op.unclaim()
			return false, true
		}
		s.count--
		finalizeCommit(w.op, w.idx, Unit{})
		return true, true
	})
}

// Count returns the current count.
func (s *Semaphore) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// TryWait decrements the count if it is positive, without blocking.
func (s *Semaphore) TryWait() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// WaitEvt returns an event that is ready when the count is positive and
// decrements it upon commit.
func (s *Semaphore) WaitEvt() Event { return &semEvt{s: s} }

// Wait performs Sync on WaitEvt.
func (s *Semaphore) Wait(th *Thread) error {
	_, err := Sync(th, s.WaitEvt())
	return err
}

type semEvt struct {
	s *Semaphore
}

func (*semEvt) isEvent() {}

func (e *semEvt) poll(op *syncOp, idx int) bool {
	s := e.s
	s.mu.Lock()
	committed := s.takeLocked(op, idx)
	s.mu.Unlock()
	return committed
}

// takeLocked attempts to hand one count to op. Caller holds s.mu. The
// count is decremented only after the claim succeeds, so a failed claim
// (op decided elsewhere) never loses a count.
func (s *Semaphore) takeLocked(op *syncOp, idx int) bool {
	if s.count == 0 {
		return false
	}
	if !op.claim() {
		return false
	}
	s.count--
	finalizeCommit(op, idx, Unit{})
	return true
}

func (e *semEvt) enroll(w *waiter) bool {
	s := e.s
	s.mu.Lock()
	committed := s.takeLocked(w.op, w.idx)
	if !committed {
		// Enqueue unless the op is already terminal. opClaimed is a
		// transient state — a concurrent committer's claim can roll back
		// (a two-party pairing that fails on the peer, a oneshot commit that
		// finds the thread unmatchable) — so skipping the registration in
		// that window would let the op return to opSyncing with no queue
		// entry: a later Post would find no waiter and the thread would
		// sleep forever. A registration enqueued for an op that turns out
		// terminal is harmless — drainLocked drops spent entries.
		if st := w.op.state.Load(); st == opSyncing || st == opClaimed {
			s.q.enqueue(w)
		}
	}
	s.mu.Unlock()
	return committed
}

func (e *semEvt) cancel(w *waiter) {
	e.s.mu.Lock()
	e.s.q.cancel(w)
	e.s.mu.Unlock()
}
