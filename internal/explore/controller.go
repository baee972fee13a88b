// Package explore is a systematic concurrency-testing subsystem for the
// kill-safe runtime, in the spirit of CHESS and loom, built on the
// runtime's own safe points. It runs a scenario in sequential
// deterministic mode — exactly one runtime thread executes at a time, a
// pluggable Picker chooses the next step at every safe point, alarms fire
// on a virtual clock, and External completions land through a FIFO
// delivery queue — so every interleaving the picker produces is
// reproducible. Each decision (thread granted, fault injected, clock
// advanced) is recorded as a Trace that replays bit-identically, and a
// greedy shrinker minimizes failing traces. Fault injection (Kill,
// Suspend, Resume, Break, custodian Shutdown at explorer-chosen safe
// points) turns the runtime's chaos tests into a search: a sweep
// (fleet.Run) runs N seeded schedules and hands back a shrunk replay
// file for the first failure.
package explore

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// threadStatus is the controller's view of one runtime thread.
type threadStatus int

const (
	statusReady   threadStatus = iota // may run (or is unwinding a kill)
	statusBlocked                     // parked on its condition variable
	statusDone                        // finished
)

// tstate tracks one thread. waiting means the goroutine is parked at a
// Pause call, i.e. it is at a safe point and a grant will take effect
// immediately. A thread that is ready but not waiting is "in limbo":
// its wake-up has been signalled but its goroutine has not yet reached
// the next Pause or Blocked call; the controller waits out limbo before
// making decisions so that every decision sees a settled world.
type tstate struct {
	th      *core.Thread
	status  threadStatus
	waiting bool
}

// controller implements core.Instrumentation: the sequential scheduler
// that owns the run token. It overrides the scheduler taps and inherits
// no-ops (via NopInstrumentation) for the passive ones; Deterministic()
// is true, which is what switches the runtime into sequential mode. All
// picking happens on the driver goroutine (in Run); the hook callbacks
// only update state and signal.
//
// Lock order: core's runtime lock → controller.mu. Hook methods are
// called with the runtime lock held and take only controller.mu; driver
// code never calls into core while holding controller.mu.
type controller struct {
	core.NopInstrumentation

	mu      sync.Mutex
	cv      *sync.Cond
	threads map[int64]*tstate
	grantee *core.Thread // thread granted but not yet running
	current *core.Thread // thread currently holding the run token
	free    bool         // teardown: all Pause calls return immediately
	hung    bool         // watchdog tripped; settle/grant return errors
}

func newController() *controller {
	c := &controller{threads: make(map[int64]*tstate)}
	c.cv = sync.NewCond(&c.mu)
	return c
}

// Deterministic marks the controller as a sequential scheduler:
// installing it switches the runtime to deterministic mode (virtual
// clock, queued External delivery, explicit grants).
func (c *controller) Deterministic() bool { return true }

func (c *controller) Spawned(th *core.Thread) {
	c.mu.Lock()
	c.threads[th.ID()] = &tstate{th: th, status: statusReady}
	c.cv.Broadcast()
	c.mu.Unlock()
}

func (c *controller) Runnable(th *core.Thread) {
	c.mu.Lock()
	if st := c.threads[th.ID()]; st != nil && st.status != statusDone {
		st.status = statusReady
	}
	c.cv.Broadcast()
	c.mu.Unlock()
}

func (c *controller) Blocked(th *core.Thread) {
	c.mu.Lock()
	if st := c.threads[th.ID()]; st != nil && st.status != statusDone {
		st.status = statusBlocked
		st.waiting = false
	}
	if c.current == th {
		c.current = nil
	}
	c.cv.Broadcast()
	c.mu.Unlock()
}

func (c *controller) Done(th *core.Thread) {
	c.mu.Lock()
	if st := c.threads[th.ID()]; st != nil {
		st.status = statusDone
		st.waiting = false
	}
	if c.current == th {
		c.current = nil
	}
	if c.grantee == th {
		c.grantee = nil
	}
	c.cv.Broadcast()
	c.mu.Unlock()
}

func (c *controller) Pause(th *core.Thread) {
	c.mu.Lock()
	if c.free {
		c.mu.Unlock()
		return
	}
	st := c.threads[th.ID()]
	if st == nil { // thread from before the controller was installed; run free
		c.mu.Unlock()
		return
	}
	st.waiting = true
	if c.current == th {
		c.current = nil
	}
	c.cv.Broadcast()
	for !c.free && c.grantee != th {
		c.cv.Wait()
	}
	if c.free {
		c.mu.Unlock()
		return
	}
	c.grantee = nil
	c.current = th
	st.waiting = false
	c.cv.Broadcast()
	c.mu.Unlock()
}

// watchdog arms a real-time guard against a scheduling bug (or a thread
// spinning without safe points) hanging the driver forever. It is purely
// an error path: it never influences a healthy run's decisions.
func (c *controller) watchdog(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		c.mu.Lock()
		c.hung = true
		c.cv.Broadcast()
		c.mu.Unlock()
	})
}

// settle blocks until no thread is in limbo and the token is free: every
// thread is parked at a Pause, parked blocked, or done. Decisions made on
// a settled world are a pure function of prior decisions.
func (c *controller) settle(timeout time.Duration) error {
	t := c.watchdog(timeout)
	defer t.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.hung {
			return fmt.Errorf("explore: scheduler failed to settle within %v (thread without safe points?)", timeout)
		}
		settled := c.current == nil && c.grantee == nil
		if settled {
			for _, st := range c.threads {
				if st.status == statusReady && !st.waiting {
					settled = false
					break
				}
			}
		}
		if settled {
			return nil
		}
		c.cv.Wait()
	}
}

// grant hands the run token to th and blocks until th relinquishes it at
// its next safe point (Pause, Blocked, or Done).
func (c *controller) grant(th *core.Thread, timeout time.Duration) error {
	t := c.watchdog(timeout)
	defer t.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grantee = th
	c.cv.Broadcast()
	for !c.hung && (c.grantee != nil || c.current != nil) {
		c.cv.Wait()
	}
	if c.hung {
		return fmt.Errorf("explore: thread %v did not reach a safe point within %v", th, timeout)
	}
	return nil
}

// release switches to free-run mode for teardown: every parked and future
// Pause returns immediately, restoring ordinary concurrent execution so
// Runtime.Shutdown can reap the world.
func (c *controller) release() {
	c.mu.Lock()
	c.free = true
	c.cv.Broadcast()
	c.mu.Unlock()
}

// runnable returns the threads eligible for a grant, in id order: parked
// at a Pause and, per the controller's bookkeeping, ready. The caller
// filters against core state (suspension) without holding c.mu.
func (c *controller) runnable() []*core.Thread {
	c.mu.Lock()
	ids := make([]int64, 0, len(c.threads))
	for id, st := range c.threads {
		if st.status == statusReady && st.waiting {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*core.Thread, 0, len(ids))
	c.mu.Lock()
	for _, id := range ids {
		out = append(out, c.threads[id].th)
	}
	c.mu.Unlock()
	return out
}

// thread looks up a live thread by id (nil if unknown or done).
func (c *controller) thread(id int64) *core.Thread {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.threads[id]; st != nil && st.status != statusDone {
		return st.th
	}
	return nil
}
