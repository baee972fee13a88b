package core

import "io"

// Custodian is a resource controller. Every thread and every registered
// resource is controlled by at least one custodian; shutting a custodian
// down suspends the threads it controls (a thread with several custodians
// is suspended only when all of them are shut down), closes its registered
// resources, shuts down its sub-custodians, and prevents further resource
// allocation under it.
type Custodian struct {
	rt       *Runtime
	id       int64 // creation order; deterministic-mode iteration key
	parent   *Custodian
	children map[*Custodian]struct{}
	threads  map[*Thread]struct{}
	closers  []io.Closer
	dead     bool

	// deadSig fires (with Unit) when the custodian is shut down; DeadEvt
	// is its event view. A custodian created dead fires it at birth.
	deadSig oneshot
}

// NewCustodian creates a sub-custodian of parent. Shutting down the parent
// shuts down the child. If parent is already dead, the new custodian is
// created dead.
func NewCustodian(parent *Custodian) *Custodian {
	rt := parent.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextCustID++
	c := &Custodian{
		rt:       rt,
		id:       rt.nextCustID,
		parent:   parent,
		children: make(map[*Custodian]struct{}),
		threads:  make(map[*Thread]struct{}),
	}
	if parent.dead {
		c.dead = true
		c.deadSig.fire(Unit{})
	} else {
		parent.children[c] = struct{}{}
	}
	return c
}

// Runtime returns the runtime that owns the custodian.
func (c *Custodian) Runtime() *Runtime { return c.rt }

// Dead reports whether the custodian has been shut down.
func (c *Custodian) Dead() bool {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	return c.dead
}

// Register places a closable resource under the custodian's control: it
// will be closed when the custodian is shut down. Registering a resource
// with a dead custodian closes it immediately and returns ErrCustodianDead.
// The Close method must not call back into the runtime.
func (c *Custodian) Register(r io.Closer) error {
	c.rt.mu.Lock()
	if c.dead {
		c.rt.mu.Unlock()
		_ = r.Close()
		return ErrCustodianDead
	}
	c.closers = append(c.closers, r)
	c.rt.mu.Unlock()
	return nil
}

// Unregister removes a previously registered resource without closing it.
func (c *Custodian) Unregister(r io.Closer) {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	for i, x := range c.closers {
		if x == r {
			c.closers = append(c.closers[:i], c.closers[i+1:]...)
			return
		}
	}
}

// Shutdown shuts the custodian down: all controlled threads lose this
// custodian (threads left with no live custodian become suspended), all
// registered resources are closed, all sub-custodians are shut down, and
// no further resources can be allocated under it. Shutting down a dead
// custodian has no effect.
//
// Per the paper, shutdown suspends rather than kills threads: a suspended
// thread is "only mostly dead" and a surviving task that shares an
// abstraction with it can resurrect the abstraction's manager thread via
// ResumeVia. Use Runtime.TerminateCondemned to model the eventual
// collection of threads nobody can revive.
func (c *Custodian) Shutdown() {
	c.rt.mu.Lock()
	closers := c.shutdownLocked(nil)
	c.rt.mu.Unlock()
	// Close resources outside the runtime lock; closers must not call
	// back into the runtime, but they may do I/O.
	for _, r := range closers {
		_ = r.Close()
	}
}

func (c *Custodian) shutdownLocked(closers []io.Closer) []io.Closer {
	if c.dead {
		return closers
	}
	c.dead = true
	if h := c.rt.hook(); h != nil {
		h.CustodianShutdown(c.id, len(c.threads))
	}
	c.deadSig.fire(Unit{})
	if c.parent != nil {
		delete(c.parent.children, c)
	}
	for th := range c.threads {
		delete(th.custodians, c)
		// A thread that just lost its last custodian is now suspended. The
		// cached matchable flag must be recomputed here — it is what peers
		// consult, without rt.mu, before committing a rendezvous with this
		// thread. No wake: the thread itself has nothing to do about
		// becoming unmatchable (a parked sync stays parked; peers skip it),
		// and the resume path re-wakes it.
		th.updateMatchableLocked()
		if len(th.custodians) == 0 {
			c.rt.traceLocked(TraceCondemned, th)
		}
	}
	clear(c.threads)
	closers = append(closers, c.closers...)
	c.closers = nil
	if c.rt.det.Load() {
		// Child shutdowns fire dead-event commits; order them by id so
		// deterministic runs do not depend on map iteration order.
		for _, child := range sortedCustodians(c.children) {
			closers = child.shutdownLocked(closers)
		}
	} else {
		for child := range c.children {
			closers = child.shutdownLocked(closers)
		}
	}
	clear(c.children)
	return closers
}

// DeadEvt returns an event that becomes ready (with Unit) when the
// custodian is shut down; it is ready immediately for a custodian that is
// already dead. Like a nack signal it is level-triggered: once the
// custodian dies the event stays ready forever. Watchdog threads use it
// to observe an administrator's custodian shutdown promptly — e.g. to
// close the terminated session's half of a shared stream — without
// polling, and without requiring the dying threads to cooperate.
func (c *Custodian) DeadEvt() Event { return &custodianDeadEvt{c: c} }

type custodianDeadEvt struct {
	c *Custodian
}

func (*custodianDeadEvt) isEvent() {}

func (e *custodianDeadEvt) poll(op *syncOp, idx int) bool { return e.c.deadSig.poll(op, idx) }
func (e *custodianDeadEvt) enroll(w *waiter) bool         { return e.c.deadSig.enroll(w) }
func (e *custodianDeadEvt) cancel(w *waiter)              { e.c.deadSig.cancel(w) }

// ManagedThreads returns the number of live threads directly controlled by
// the custodian.
func (c *Custodian) ManagedThreads() int {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	return len(c.threads)
}

// Subcustodians returns the number of live direct sub-custodians.
func (c *Custodian) Subcustodians() int {
	c.rt.mu.Lock()
	defer c.rt.mu.Unlock()
	return len(c.children)
}

// CustodianInfo is a point-in-time description of one live custodian,
// for the observability surface.
type CustodianInfo struct {
	ID       int64 `json:"id"`
	Parent   int64 `json:"parent"` // 0 for the root custodian
	Threads  int   `json:"threads"`
	Children int   `json:"children"`
	Closers  int   `json:"closers"`
}

// CustodianSnapshot walks the live custodian tree from the root and
// returns one entry per custodian, parents before children, siblings in
// creation order. It is the per-custodian live-thread gauge behind the
// admin surface: gauges are read from the runtime's own accounting, not
// from derived counters.
func (rt *Runtime) CustodianSnapshot() []CustodianInfo {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []CustodianInfo
	var walk func(c *Custodian, parent int64)
	walk = func(c *Custodian, parent int64) {
		out = append(out, CustodianInfo{
			ID:       c.id,
			Parent:   parent,
			Threads:  len(c.threads),
			Children: len(c.children),
			Closers:  len(c.closers),
		})
		for _, child := range sortedCustodians(c.children) {
			walk(child, c.id)
		}
	}
	walk(rt.root, 0)
	return out
}
