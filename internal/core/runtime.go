package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Value is the type carried by events and channels in the untyped core.
// The public killsafe package layers Go generics on top.
type Value = any

// Unit is the value produced by events whose result carries no information
// (send events, nack events, alarm events, and so on).
type Unit struct{}

// Runtime is an instance of the task runtime: a scheduler for suspendable
// threads, a custodian hierarchy, and the event system. Multiple runtimes
// may coexist; threads, custodians, channels, and events must not be shared
// across runtimes.
//
// The runtime lock mu guards *bookkeeping only*: the thread registry, the
// custodian tree, suspension and yoking state, tracing, and the
// deterministic-mode queues. No rendezvous path takes it — matching state
// lives under per-event locks (Chan.mu, Semaphore.mu, oneshot.mu) and
// commits go through the per-op claim protocol (sync.go) — so threads
// rendezvousing on disjoint events scale across cores instead of
// serializing on a global lock. mu is the outermost lock in the hierarchy:
// holders may take event locks (the resume re-poll does) but never the
// reverse.
type Runtime struct {
	mu sync.Mutex

	root    *Custodian
	threads map[int64]*Thread // live (not done) threads
	nextID  int64
	down    bool

	// seq rotates poll order for fair choice. Atomic: the sync engine
	// ticks it outside any lock, once per poll pass, exactly as the old
	// global-lock engine did per pass — deterministic schedules depend on
	// that rotation sequence.
	seq atomic.Uint64

	wg sync.WaitGroup // tracks spawned goroutines

	// externals counts in-flight External.Start helper goroutines. They
	// are deliberately not part of wg: a helper stuck in a blocking OS
	// call can only be reclaimed by closing its fd (via a custodian), and
	// Shutdown must not wait on resources nobody registered.
	externals atomic.Int64

	// panicHandler, if non-nil, observes panics raised by user code in
	// runtime threads (after the panic is recorded on the thread).
	panicHandler func(*Thread, *ThreadPanicError)

	// Instrumentation state (see instrument.go) and deterministic-mode
	// state (see sched.go). ins is nil in normal operation; every tap
	// site is nil-guarded so the uninstrumented path is unchanged. It is
	// an atomic pointer because taps fire from lock-free commit paths and
	// a passive instrumentation may be installed on a live runtime. det
	// is true iff the installed instrumentation is a deterministic
	// scheduler; it is atomic so lock-free fast paths (Now, alarm
	// registration) can test it cheaply. vnow is the virtual clock in
	// UnixNano form — atomic so alarm polls (which run under event locks
	// and from the rt.mu-holding resume re-poll) never need a lock for it.
	ins        atomicInsPointer
	det        atomic.Bool
	vnow       atomic.Int64
	valarms    []valarm    // virtual alarm registrations, guarded by mu
	extq       []*External // queued external completions, guarded by mu
	nextCustID int64

	// walkSeq numbers the walks over the yoke graph (custodian grants
	// and resumes); a thread whose walkMark equals the current walk's
	// number has been visited. Guarded by mu.
	walkSeq uint64
}

// NewRuntime creates a fresh runtime with a root custodian.
func NewRuntime() *Runtime {
	rt := &Runtime{threads: make(map[int64]*Thread)}
	rt.nextCustID++
	rt.root = &Custodian{
		rt:       rt,
		id:       rt.nextCustID,
		children: make(map[*Custodian]struct{}),
		threads:  make(map[*Thread]struct{}),
	}
	return rt
}

// RootCustodian returns the runtime's root custodian. Shutting it down
// terminates every task in the runtime.
func (rt *Runtime) RootCustodian() *Custodian { return rt.root }

// SetPanicHandler installs a callback invoked when user code in a runtime
// thread panics. The default behaviour records the panic on the thread
// (see Thread.Err) and otherwise continues.
func (rt *Runtime) SetPanicHandler(h func(*Thread, *ThreadPanicError)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.panicHandler = h
}

// newWalkLocked starts a yoke-graph walk and returns its mark. Caller
// holds rt.mu.
func (rt *Runtime) newWalkLocked() uint64 {
	rt.walkSeq++
	return rt.walkSeq
}

func (rt *Runtime) nextThreadID() int64 {
	rt.nextID++
	return rt.nextID
}

// Run binds the calling goroutine to a fresh runtime thread controlled by
// the root custodian, runs fn, and returns after fn does. It is the bridge
// from ordinary Go code (main functions, tests) into the runtime. If the
// bound thread is killed while fn runs, Run returns ErrKilled wrapped in a
// ThreadPanicError-free error; if fn panics, Run re-panics.
func (rt *Runtime) Run(fn func(*Thread)) error {
	return rt.RunIn(rt.root, fn)
}

// RunIn is Run with an explicit controlling custodian.
func (rt *Runtime) RunIn(c *Custodian, fn func(*Thread)) (err error) {
	rt.mu.Lock()
	if rt.down {
		rt.mu.Unlock()
		return ErrRuntimeDown
	}
	if c.dead {
		rt.mu.Unlock()
		return ErrCustodianDead
	}
	th := rt.newThreadLocked("main", c)
	rt.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			if ks, ok := r.(killSentinel); ok && ks.th == th {
				rt.finishThread(th, nil)
				err = fmt.Errorf("core: thread %q was killed", th.name)
				return
			}
			rt.finishThread(th, nil)
			panic(r)
		}
		rt.finishThread(th, nil)
	}()
	fn(th)
	return nil
}

// Spawn creates a thread controlled by the root custodian. See
// Thread.Spawn for spawning under the current custodian of a running
// thread, which is the common case inside the runtime.
func (rt *Runtime) Spawn(name string, fn func(*Thread)) *Thread {
	return rt.spawn(name, rt.root, fn)
}

// spawn creates and starts a thread under custodian c. If c is already
// dead, the returned thread is created in the done state and fn never runs
// (resources cannot be allocated to a dead custodian).
func (rt *Runtime) spawn(name string, c *Custodian, fn func(*Thread)) *Thread {
	if c != nil && c.rt != rt {
		panic(fmt.Sprintf("core: spawn %q under a custodian from a different runtime; custodians must not be shared across runtimes", name))
	}
	rt.mu.Lock()
	if rt.down || c.dead {
		th := rt.newThreadLocked(name, nil)
		th.markDoneLocked()
		rt.mu.Unlock()
		return th
	}
	th := rt.newThreadLocked(name, c)
	rt.wg.Add(1)
	rt.mu.Unlock()

	go func() {
		defer rt.wg.Done()
		var perr *ThreadPanicError
		defer func() {
			if r := recover(); r != nil {
				if ks, ok := r.(killSentinel); ok && ks.th == th {
					rt.finishThread(th, nil)
					return
				}
				perr = &ThreadPanicError{Value: r}
				rt.finishThread(th, perr)
				return
			}
			rt.finishThread(th, nil)
		}()
		// A thread spawned while its custodian is being shut down (or
		// while explicitly suspended) must not run until allowed to.
		th.gate()
		fn(th)
	}()
	return th
}

// newThreadLocked allocates a thread record. c may be nil for a dead-on-
// arrival thread. Caller holds rt.mu.
func (rt *Runtime) newThreadLocked(name string, c *Custodian) *Thread {
	th := &Thread{
		rt:            rt,
		id:            rt.nextThreadID(),
		name:          name,
		custodians:    make(map[*Custodian]struct{}),
		beneficiaries: make(map[*Thread]struct{}),
		yokedOwners:   make(map[*Thread]struct{}),
	}
	th.parkCond = sync.NewCond(&th.parkMu)
	th.breaksOn.Store(true)
	if c != nil {
		th.custodians[c] = struct{}{}
		c.threads[th] = struct{}{}
		th.current = c
	}
	th.updateMatchableLocked()
	rt.threads[th.id] = th
	if h := rt.hook(); h != nil {
		h.Spawned(th)
	}
	return th
}

// SpawnIn creates a thread controlled by an explicit custodian. It is the
// plain-Go (no current thread) counterpart of Thread.Spawn, used by test
// drivers and the deterministic explorer to place scenario threads under
// specific custodians.
func (rt *Runtime) SpawnIn(c *Custodian, name string, fn func(*Thread)) *Thread {
	return rt.spawn(name, c, fn)
}

// finishThread moves a thread to the done state, releases its custodians,
// fires its done events, and reports any panic.
func (rt *Runtime) finishThread(th *Thread, perr *ThreadPanicError) {
	rt.mu.Lock()
	th.err = perr
	th.markDoneLocked()
	h := rt.panicHandler
	rt.mu.Unlock()
	if perr != nil && h != nil {
		h(th, perr)
	}
}

// TerminateCondemned kills every live thread that currently has no live
// custodian. It is the deterministic substitute for MzScheme's collection
// of unreachable suspended threads: calling it asserts that no surviving
// task will revive the condemned threads with a new custodian. Pending
// nack events of the condemned threads' in-flight syncs fire, so manager
// threads observing gave-up events see the terminations. It returns the
// number of threads terminated.
func (rt *Runtime) TerminateCondemned() int {
	rt.mu.Lock()
	var doomed []*Thread
	for _, th := range rt.threads {
		if !th.done && len(th.custodians) == 0 {
			doomed = append(doomed, th)
		}
	}
	// Kill in id order: the pending-nack fires triggered by each kill can
	// commit watcher syncs, and deterministic mode needs that sequence to
	// be a function of runtime state, not of map iteration order.
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].id < doomed[j].id })
	for _, th := range doomed {
		th.killLocked()
	}
	rt.mu.Unlock()
	return len(doomed)
}

// Shutdown shuts down the root custodian, kills every remaining thread,
// and waits for all thread goroutines to exit. The runtime cannot be used
// afterwards. It is safe to call from ordinary Go code (not from inside a
// runtime thread).
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.down {
		rt.mu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.down = true
	rt.mu.Unlock()

	rt.root.Shutdown()

	rt.mu.Lock()
	var rest []*Thread
	for _, th := range rt.threads {
		if !th.done {
			rest = append(rest, th)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].id < rest[j].id })
	for _, th := range rest {
		th.killLocked()
	}
	rt.mu.Unlock()
	rt.wg.Wait()
}

// LiveThreads reports the number of threads that have not finished
// (running, blocked, or suspended).
func (rt *Runtime) LiveThreads() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, th := range rt.threads {
		if !th.done {
			n++
		}
	}
	return n
}

// SuspendedThreads reports the number of live threads that are currently
// suspended (explicitly or because all their custodians are shut down).
func (rt *Runtime) SuspendedThreads() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, th := range rt.threads {
		if !th.done && th.suspendedLocked() {
			n++
		}
	}
	return n
}
