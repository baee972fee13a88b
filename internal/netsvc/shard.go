package netsvc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/web"
)

// ShardedServer is a share-nothing-per-core serving fleet: one listener,
// Config.Shards independent runtimes behind it. Each shard is a whole
// paper-faithful VM — its own core.Runtime, custodian tree, supervisor,
// and servlet instance — so the per-runtime global rendezvous lock is
// contended only by the sessions of one shard, and throughput scales
// with shards (given cores to run them on).
//
// The isolation boundary is strict: channels, semaphores, externals, and
// custodians belong to one runtime and must never be shared across
// shards; the core panics on any attempt (see core's cross-runtime
// guard). Kill-safety is therefore per-shard — an administrator killing
// sessions, or a custodian avalanche, on shard 0 cannot perturb shard 3,
// by construction rather than by care. State that must be visible across
// shards lives outside the runtimes in plain Go, guarded by ordinary
// sync primitives (see SharedState in the package example).
//
// Shards are also individually replaceable under traffic: DrainShard
// retires one shard's runtime — custodian shutdown is the reclamation
// story — and boots a fresh engine in its place without dropping the
// fleet's listener.
type ShardedServer struct {
	cfg      Config
	setup    func(th *core.Thread, shard int) *web.Server
	ln       net.Listener
	shards   []*shard
	next     atomic.Uint64 // round-robin cursor for shard assignment
	pumpDone chan struct{} // closed when the accept pump exits

	// opMu serializes shard lifecycle operations: at most one
	// DrainShard runs at a time, and Shutdown's teardown waits for an
	// in-flight drain to finish its handoff (or observe down and bail)
	// before walking the shard list.
	opMu sync.Mutex

	mu         sync.Mutex
	down       bool
	drains     int64         // completed drain/handoff cycles
	retired    StatsSnapshot // folded counters of retired shard engines
	retiredObs obs.Snapshot  // folded runtime metrics of retired engines
}

// shard is one slot in the fleet: a runtime plus its serving engine,
// both replaceable by DrainShard.
type shard struct {
	idx      int
	draining atomic.Bool // drain in progress: the assigner routes around it
	retired  atomic.Bool // engine reaped and folded, no replacement yet; skip everywhere

	// gate is the drain handshake with the accept pump: the pump holds
	// it shared from its draining check to the end of its submit, and
	// DrainShard takes it exclusively once after raising draining, which
	// waits out any submit already past the check (see DrainShard).
	gate sync.RWMutex

	// srvP is the current serving engine, read lock-free on the accept
	// hot path and swapped by startShard.
	srvP atomic.Pointer[Server]

	// Lifecycle fields: written by startShard under m.mu, read by the
	// accessors under m.mu and by DrainShard/Shutdown under m.opMu.
	rt      *core.Runtime
	ws      *web.Server
	stop    *core.External // completed with the grace time.Duration to begin drain
	runDone chan error     // the shard main thread's rt.Run result
	sdErr   error          // the shard's Shutdown error; read only after runDone
}

// server returns the shard's current serving engine.
func (sh *shard) server() *Server { return sh.srvP.Load() }

// ServeSharded opens one TCP listener and serves it with cfg.Shards
// independent runtimes. setup runs once per shard, on that shard's main
// runtime thread, and must build and return the shard's own *web.Server —
// servlet instances are per-shard (see the package's servlet state
// contract); cross-shard state goes through an external Go-side store.
// setup is retained: DrainShard calls it again to build a drained
// shard's replacement engine, so it must be safe to run more than once
// per shard index.
//
// MaxConns and MaxPending are per-shard limits. The accept pump assigns
// each connection round-robin, stepping aside to a strictly less loaded
// shard when the fleet is unbalanced (load = conns being served plus
// conns accepted-but-unclaimed on that shard).
func ServeSharded(cfg Config, setup func(th *core.Thread, shard int) *web.Server) (*ShardedServer, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	m := &ShardedServer{cfg: cfg, setup: setup, ln: ln, pumpDone: make(chan struct{})}
	for i := 0; i < cfg.Shards; i++ {
		m.shards = append(m.shards, &shard{idx: i})
	}
	var setupErrs []error
	for _, sh := range m.shards {
		if err := m.startShard(sh); err != nil {
			setupErrs = append(setupErrs, err)
		}
	}
	if len(setupErrs) > 0 {
		_ = ln.Close()
		close(m.pumpDone) // never started
		m.mu.Lock()
		m.down = true
		m.mu.Unlock()
		for _, sh := range m.shards {
			sh.stop.Complete(time.Duration(0))
			<-sh.runDone
			sh.rt.Shutdown()
		}
		return nil, errors.Join(setupErrs...)
	}
	go m.acceptPump()
	return m, nil
}

// startShard boots one shard engine — a fresh runtime, custodian tree,
// supervisor, and servlet instance — and wires it into the fleet. It is
// used both at fleet startup and by DrainShard to build a replacement;
// it returns once the engine is serving (or its setup failed, in which
// case the runtime has exited and the caller owns reaping runDone).
func (m *ShardedServer) startShard(sh *shard) error {
	rt := core.NewRuntime()
	stop := core.NewExternal(rt)
	runDone := make(chan error, 1)
	m.mu.Lock()
	sh.rt, sh.stop, sh.runDone, sh.sdErr = rt, stop, runDone, nil
	m.mu.Unlock()
	ready := make(chan error, 1)
	go func() {
		runDone <- rt.Run(func(th *core.Thread) {
			ws := m.setup(th, sh.idx)
			srv, err := serveOn(th, ws, m.cfg, nil)
			if err != nil {
				ready <- fmt.Errorf("shard %d: %w", sh.idx, err)
				return
			}
			srv.shard = sh.idx
			srv.sharded = m
			srv.rehome = func(c net.Conn) bool { return m.rehome(c, sh.idx) }
			m.mu.Lock()
			sh.ws = ws
			m.mu.Unlock()
			sh.srvP.Store(srv)
			ready <- nil
			// The shard main thread now just waits for the drain order;
			// the serving engine runs in its own threads.
			for {
				v, err := core.Sync(th, stop.Evt())
				if err != nil {
					continue // stray break
				}
				sh.sdErr = srv.Shutdown(th, v.(time.Duration))
				return
			}
		})
	}()
	return <-ready
}

// acceptPump is the fleet's single accept(2) loop: it owns the listener
// and hands each connection to a shard. Registration with the shard's
// custodian, shedding, and backpressure all happen inside submit, on the
// chosen shard's own terms.
func (m *ShardedServer) acceptPump() {
	defer close(m.pumpDone)
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown)
		}
		m.dispatch(c)
	}
}

// dispatch hands one accepted conn to a healthy shard. The draining check
// and the submit run under the shard's gate, so a shard seen healthy here
// cannot finish its drain handshake until the conn is in its queue (where
// the drain rehomes it); a shard whose drain began after pick backs out
// and the conn is re-picked. With no healthy shard at all — a single-shard
// fleet mid-handoff — the conn is refused at the fleet level, booked with
// the retired engines' counters since no live engine saw it.
func (m *ShardedServer) dispatch(c net.Conn) {
	for {
		sh := m.pick()
		if sh == nil {
			_ = c.Close()
			m.mu.Lock()
			m.retired.Accepted++
			m.retired.Rejected++
			m.mu.Unlock()
			return
		}
		sh.gate.RLock()
		if !sh.draining.Load() {
			srv := sh.server()
			srv.stats.accepted.Add(1)
			srv.submit(c)
			sh.gate.RUnlock()
			return
		}
		sh.gate.RUnlock()
	}
}

// pick chooses the shard for the next connection: round-robin, with a
// least-loaded override — the cursor's shard is kept unless some shard
// scores strictly lower, so a balanced fleet rotates evenly and a stalled
// shard (slow servlet, drained slots) stops receiving new work. The score
// is load-aware, not just the draining flag: pending-queue depth is
// over-weighted (see assignScore), so a shard whose acceptor has fallen
// behind sheds new-conn assignment to its siblings while it catches up.
// A draining shard is routed around entirely; pick returns nil if every
// shard is draining (a single-shard fleet mid-handoff).
func (m *ShardedServer) pick() *shard {
	n := uint64(len(m.shards))
	cursor := m.shards[m.next.Add(1)%n]
	var best *shard
	var bestScore int64
	if !cursor.draining.Load() && !cursor.retired.Load() {
		best, bestScore = cursor, cursor.server().assignScore()
	}
	for _, sh := range m.shards {
		if sh.draining.Load() || sh.retired.Load() {
			continue
		}
		if l := sh.server().assignScore(); best == nil || l < bestScore {
			best, bestScore = sh, l
		}
	}
	return best
}

// rehome moves one conn off a draining shard onto the least-loaded
// healthy sibling (called by the draining shard's acceptor via the
// engine's rehome hook). The sibling registers the conn with its own
// custodian inside submit before the caller releases it, so the fd is
// never uncontrolled. Returns false when no sibling can take it — fleet
// going down, or a single-shard fleet.
func (m *ShardedServer) rehome(c net.Conn, from int) bool {
	m.mu.Lock()
	down := m.down
	m.mu.Unlock()
	if down {
		return false
	}
	var best *shard
	var bestLoad int64
	for _, sh := range m.shards {
		if sh.idx == from || sh.draining.Load() || sh.retired.Load() {
			continue
		}
		if l := sh.server().assignScore(); best == nil || l < bestLoad {
			best, bestLoad = sh, l
		}
	}
	if best == nil {
		return false
	}
	// Not counted accepted again: the conn was counted when the OS
	// listener produced it.
	best.server().submit(c)
	return true
}

// Addr returns the fleet listener's address.
func (m *ShardedServer) Addr() net.Addr { return m.ln.Addr() }

// NumShards reports the number of shards.
func (m *ShardedServer) NumShards() int { return len(m.shards) }

// Shard returns shard i's current serving engine, for diagnostics and
// tests. After a DrainShard the engine is a different *Server.
func (m *ShardedServer) Shard(i int) *Server { return m.shards[i].server() }

// Web returns shard i's servlet server (each shard has its own instance).
func (m *ShardedServer) Web(i int) *web.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shards[i].ws
}

// Runtime returns shard i's runtime.
func (m *ShardedServer) Runtime(i int) *core.Runtime {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shards[i].rt
}

// walk is the fleet's one read of its books, behind Stats, ObsSnapshot
// and the admin documents. It reads the retired fold and every live
// engine in one m.mu section, and DrainShard folds a reaped engine and
// marks it retired in one m.mu section, so every reader counts each
// engine exactly once — live while it serves and drains, folded after —
// and no fleet counter goes backwards across a handoff.
//
// Lock order: m.mu, then an engine's admission lock (its only lock the
// read takes; the rest are atomics). The admission lock is a leaf that
// never waits for m.mu, so the walk cannot deadlock against a drain.
func (m *ShardedServer) walk() adminStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	doc := adminStats{Shards: len(m.shards), Serving: m.retired}
	if !m.cfg.DisableObs {
		retiredObs := m.retiredObs
		doc.Runtime = &retiredObs
	}
	for _, sh := range m.shards {
		if !sh.retired.Load() {
			doc.add(sh.server())
		}
	}
	doc.Serving.ShardsDrained = m.drains
	return doc
}

// Stats returns the fleet-wide aggregate of the per-shard counters,
// including the folded totals of every engine retired by a drain — a
// handoff never makes served work disappear from the books.
func (m *ShardedServer) Stats() StatsSnapshot { return m.walk().Serving }

// ErrBadShard reports a shard index out of range (or a shard already
// retired without replacement).
var ErrBadShard = errors.New("netsvc: no such shard")

// DrainShard retires shard i's runtime under traffic and replaces it
// with a fresh engine — zero-downtime handoff, driven entirely through
// the custodian tree:
//
//  1. the shard is marked draining, so the assigner routes new
//     connections to its siblings;
//  2. the engine's migrate cell is completed: its acceptor thread stops
//     serving its accept queue and rehomes every queued connection to
//     the least-loaded healthy sibling (register-with-sibling before
//     release, so no fd is ever uncontrolled);
//  3. once the queue is empty, the shard's graceful Shutdown is ordered
//     through its main thread — in-flight sessions finish under the
//     grace window, stragglers are reclaimed by custodian shutdown;
//  4. the old runtime is reaped and its counters fold into the fleet
//     aggregate (Stats never loses served work to a handoff);
//  5. a replacement engine boots on a fresh runtime (setup runs again
//     for this shard index) and the shard rejoins the rotation.
//
// DrainShard is callable only from plain Go, not from a runtime thread
// of this fleet (step 3 waits on sessions that could be the caller).
// Drains serialize; a drain racing the fleet's Shutdown is safe —
// whichever takes the shard first wins and the loser reports
// ErrServerDown.
func (m *ShardedServer) DrainShard(i int, grace time.Duration) error {
	if i < 0 || i >= len(m.shards) {
		return ErrBadShard
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	if m.isDown() {
		return ErrServerDown
	}
	sh := m.shards[i]
	if sh.retired.Load() {
		return ErrBadShard
	}
	old := sh.server()
	sh.draining.Store(true)
	old.migrate.Complete(core.Unit{})
	// Handshake with the accept pump. The pump checks draining under the
	// gate's read lock and submits before releasing it; this exclusive
	// acquire therefore returns only after every submit that saw the
	// shard healthy has queued its conn, and any later check (ordered
	// after the Unlock) sees draining and re-picks. From here on the
	// pending count can only fall. A submit held up by accept
	// backpressure keeps the gate meanwhile; the migrating acceptor,
	// already woken above, is what empties the queue it waits on. Sibling
	// rehomes need no gate: drains serialize on opMu, so no sibling is
	// draining now.
	sh.gate.Lock()
	sh.gate.Unlock()
	// Wait for the acceptor to rehome its queue. It kicks migrated each
	// time it sees the count at zero while migrating; a kick from before
	// the handshake is stale, hence the re-check. The pump's exit (fleet
	// Shutdown closed the listener) ends the wait: leave the engine to
	// the teardown, which reaps every non-retired shard after taking opMu.
	for old.pendingN.Load() != 0 {
		select {
		case <-old.migrated:
		case <-m.pumpDone:
			return ErrServerDown
		}
	}
	if m.isDown() {
		return ErrServerDown
	}
	// Order the graceful shutdown through the shard's main thread — the
	// same custodian-tree path a fleet Shutdown uses — and reap the old
	// runtime. The engine stays live in the books for the whole grace
	// window; once reaped its counters are final, and the fold and the
	// retired mark land in one m.mu section (see walk).
	sh.stop.Complete(grace)
	var errs []error
	if err := <-sh.runDone; err != nil {
		errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
	} else if sh.sdErr != nil {
		errs = append(errs, fmt.Errorf("shard %d: %w", i, sh.sdErr))
	}
	m.mu.Lock()
	m.retired = addStats(m.retired, old.Stats())
	if old.obs != nil {
		m.retiredObs = m.retiredObs.Add(old.obs.Snapshot())
	}
	m.drains++
	sh.retired.Store(true)
	m.mu.Unlock()
	sh.rt.Shutdown()
	if m.isDown() {
		// The fleet died while the old engine drained: no replacement.
		// The shard stays retired; teardown skips it.
		return ErrServerDown
	}
	if err := m.startShard(sh); err != nil {
		// Replacement failed to boot. Reap its runtime and leave the
		// shard retired — the fleet serves on with one shard fewer.
		<-sh.runDone
		sh.rt.Shutdown()
		errs = append(errs, fmt.Errorf("shard %d replacement: %w", i, err))
		return errors.Join(errs...)
	}
	sh.retired.Store(false)
	sh.draining.Store(false)
	return errors.Join(errs...)
}

// isDown reports whether the fleet Shutdown has begun.
func (m *ShardedServer) isDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// Shutdown gracefully drains the fleet: stop accepting, then order every
// shard to drain concurrently under the shared grace deadline, wait for
// all of them, and tear the runtimes down. Callable from plain Go code
// (it is not a runtime-thread operation — each shard's drain runs on
// that shard's own main thread).
func (m *ShardedServer) Shutdown(grace time.Duration) error {
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		return ErrServerDown
	}
	m.down = true
	m.mu.Unlock()

	_ = m.ln.Close()
	<-m.pumpDone
	// An in-flight DrainShard holds opMu: wait for it to finish its
	// handoff (or observe down and bail) so the shard list is stable.
	m.opMu.Lock()
	defer m.opMu.Unlock()
	// Fan the drain order out first so every shard's grace window runs
	// concurrently — total shutdown time is one grace period, not Shards
	// of them.
	for _, sh := range m.shards {
		if !sh.retired.Load() {
			sh.stop.Complete(grace)
		}
	}
	var errs []error
	for _, sh := range m.shards {
		if sh.retired.Load() {
			continue
		}
		if err := <-sh.runDone; err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", sh.idx, err))
		} else if sh.sdErr != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", sh.idx, sh.sdErr))
		}
		sh.rt.Shutdown()
	}
	return errors.Join(errs...)
}
