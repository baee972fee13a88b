// Package netsvc is the kill-safe TCP serving layer: it bridges the
// runtime's safe-point world to real OS sockets, turning the paper's
// closed-world servlet scenario (internal/web, which speaks only
// in-process pipes) into a servable system.
//
// The bridging problem is the one CQS-style production frameworks call
// the hard part: abortable waiting on external resources. A goroutine
// blocked in accept(2) or read(2) cannot be suspended or killed, so no
// runtime thread ever issues a blocking OS call. Instead:
//
//   - A plain *pump* goroutine per listener (and per connection) performs
//     the blocking call and hands results across a buffered Go channel,
//     signalling availability through a core.Semaphore — Post is callable
//     from outside the runtime, and a semaphore wait is an ordinary
//     event, so runtime threads multiplex socket readiness with alarms,
//     drain signals, and anything else via Choice.
//   - One-shot calls go through a core.External completion cell
//     (NewExternal(rt).Start / .StartEvt).
//   - Every fd is registered with a custodian. The pump goroutines are
//     unstoppable by construction, but closing the fd forces their
//     blocking call to return; custodian shutdown is therefore exactly
//     the reclamation story the paper gives for MzScheme's ports.
//
// Each accepted connection is served by a runtime thread under a fresh
// per-connection custodian (a child of the server's), registered with the
// mounted web.Server as a session — so the administrator's Terminate
// closes the socket and reclaims the session without endangering any
// shared kill-safe abstraction, exactly as in the in-process scenario.
//
// A connection has one owner and one end-of-life path (diagram in DESIGN
// S13): the session returning, its thread being killed, and its
// custodian being shut down all funnel into endConn, which only
// announces the end; the server's one reaper thread does the cleanup,
// exactly once. A connection costs one runtime thread and two goroutines
// (session, read pump); a write pump joins them only once the socket
// pushes back (see connWriter).
package netsvc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/supervise"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/web"
	"repro/internal/wire"
)

// Config carries the serving knobs.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// MaxConns caps concurrently served connections; further accepted
	// connections wait (and eventually the OS listen backlog fills, which
	// is the backpressure story). Default 64.
	MaxConns int
	// IdleTimeout bounds the wait for (the rest of) a request on an open
	// connection; an idle connection is closed with 408. Default 10s.
	IdleTimeout time.Duration
	// AcceptBacklog bounds connections accepted by the pump but not yet
	// claimed by the acceptor thread. Default 16.
	AcceptBacklog int
	// MaxPending caps connections that have been accepted but are not yet
	// being served (queued for the acceptor or waiting for a MaxConns
	// slot). Past the cap the pump sheds load: it answers 503 directly and
	// closes, instead of queueing without bound while the service is
	// wedged. The zero value means "default" (32); any negative value
	// means "unlimited" — shedding is disabled and the pump applies pure
	// backpressure (it blocks on a full handoff queue and the kernel
	// listen backlog absorbs the rest). This static cap is a backstop;
	// AdmitTarget replaces the cliff with delay-based shedding.
	MaxPending int
	// AdmitTarget enables CoDel-style adaptive admission control: each
	// request's queue sojourn (accept-to-dispatch for a connection's first
	// request, arrival-to-dispatch for later ones) is measured, and when
	// it stays above AdmitTarget for a full AdmitInterval the server
	// sheds — every bulk request, and normal requests at CoDel's paced
	// rate — until delay falls back under the target. Admin-class
	// requests are never shed. Shed responses are whole frames in the
	// listener's protocol (HTTP 503 + Retry-After, RESP -OVERLOADED) and
	// do not cost the client its connection. Zero disables adaptive
	// admission; the static MaxPending backstop still applies.
	AdmitTarget time.Duration
	// AdmitInterval is the admission controller's control window: how
	// long sojourn must stay above AdmitTarget before shedding engages,
	// and the base gap of the paced shed schedule. Default 100ms.
	AdmitInterval time.Duration
	// Classifier assigns each parsed request a priority class for
	// admission control. Nil means the default: paths under /debug/,
	// /admin/, /chaos/ and the /healthz path are ClassAdmin; a
	// "class=bulk" query parameter or a /bulk/ path prefix is ClassBulk;
	// everything else is ClassNormal. Classification is per request, so
	// one keep-alive connection may mix classes.
	Classifier func(*web.Request) Priority
	// RequestTimeout bounds a single servlet dispatch: the handler runs in
	// a worker thread and is killed if the deadline (a core.After event,
	// so virtual-clock drivable) fires first; the client gets 503. Zero
	// means unlimited — handlers may block indefinitely, as the paper's
	// servlet scenario assumes.
	RequestTimeout time.Duration
	// Shards is the number of independent runtime shards for ServeSharded:
	// each shard is a whole paper-faithful VM (its own core.Runtime,
	// custodian tree, supervisor, and servlet instance), and the accept
	// pump spreads connections across them. Default min(GOMAXPROCS, 8).
	// MaxConns and MaxPending are per-shard limits. Serve ignores a value
	// of 1 and rejects larger ones — a single *web.Server cannot be
	// sharded; use ServeSharded with a setup function instead.
	Shards int
	// DisableObs turns off the observability layer. By default every
	// serving runtime gets an obs.Obs attached (always-on metrics: a few
	// uncontended atomic adds per scheduler event), backing the
	// /debug/killsafe/* admin surface. Disabling it is for overhead
	// measurement, not production.
	DisableObs bool
	// FlightRecorder, when non-zero, enables the lock-free flight
	// recorder on each serving runtime, keeping the most recent n
	// scheduler events (negative means obs.DefaultRecorderSize) for
	// /debug/killsafe/trace. Requires the obs layer (ignored under
	// DisableObs).
	FlightRecorder int
	// Protocol selects the listener's wire protocol: "http" (the default;
	// HTTP/1.1 with persistent connections and pipelining) or "resp"
	// (Redis-style commands mapped onto the KV servlet mounted at
	// RESPPrefix). Under ServeSharded every shard speaks the same
	// protocol. See internal/wire.
	Protocol string
	// RESPPrefix is the servlet mount point the RESP codec's commands
	// address (default "/kv"). Ignored for HTTP.
	RESPPrefix string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 16
	}
	// MaxPending: 0 means default, negative means unlimited (kept
	// negative so the submit path can distinguish "no cap" cheaply).
	if c.MaxPending == 0 {
		c.MaxPending = 32
	}
	if c.AdmitInterval <= 0 {
		c.AdmitInterval = 100 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	return c
}

// Server is a live TCP serving layer mounted on a web.Server's routes.
// In sharded operation (ServeSharded) a Server is one shard: it owns no
// listener of its own — the sharded accept pump feeds it via submit — but
// is otherwise the complete serving engine for its runtime.
type Server struct {
	rt    *core.Runtime
	cfg   Config
	web   *web.Server
	cust  *core.Custodian // server custodian; conn custodians are children
	ln    net.Listener    // nil for a shard (the ShardedServer owns the listener)
	shard int             // shard index, 0 for a standalone server

	// sharded, when set, is the fleet this server is one shard of; the
	// admin surface reports the fleet's walk instead of this engine alone.
	sharded *ShardedServer

	obs *obs.Obs // runtime observability; nil under Config.DisableObs

	newCodec  wire.Factory // mints the per-connection protocol codec
	protoName string       // codec name, for the stats surface

	adm      *admission // adaptive admission; nil unless Config.AdmitTarget > 0
	classify func(*web.Request) Priority

	stats    *Stats
	sup      *supervise.Supervisor
	slots    *core.Semaphore // MaxConns tokens; one held per served conn
	pending  *core.Semaphore // counts conns handed off in connCh
	pendingN atomic.Int64    // accepted-but-unserved conns, for load shedding
	connCh   chan pendingConn
	quit     chan struct{}       // closed by custodian shutdown; unblocks the pump's handoff
	drain    *core.External      // completed when Shutdown begins
	migrate  *core.External      // completed by DrainShard: the acceptor rehomes instead of serving
	migrated chan struct{}       // cap 1: the migrating acceptor's "queue empty" kick to DrainShard
	rehome   func(net.Conn) bool // sharded: move a queued conn to a healthy sibling shard
	pumpRet  *core.External      // completed when the accept pump exits

	reap   *core.Semaphore // one token per entry of ended
	reaper *core.Thread    // the server's one reaper thread, under cust

	mu     sync.Mutex
	conns  map[int64]*connState // every started connection, until the reaper retires it
	ended  []*connState         // connections whose end was announced, awaiting the reaper
	idle   *core.External       // IdleEvt's cell: completed when conns next empties; nil if nobody waits
	nextID int64
}

// connState is the server's record of one live connection.
type connState struct {
	id       int64
	c        net.Conn
	queuedAt time.Time // accept time; first-request admission sojourn baseline
	cust     *core.Custodian
	sess     *web.Session
	th       *core.Thread  // session thread
	done     chan struct{} // closed by endConn: the pumps' exit signal
	idle     idleTimer     // the session's idle timeout; stopped by endConn

	// Guarded by s.mu.
	worker    *core.Thread // latest RequestTimeout worker (possibly finished); nil before the first
	completed bool         // the session ended cleanly
	ended     bool         // endConn has run
}

// pendingConn is one accepted connection in flight to the acceptor,
// stamped with its accept time so the admission controller can charge
// the first request for its whole accept-queue wait.
type pendingConn struct {
	c        net.Conn
	queuedAt time.Time
}

// closerFunc adapts a func to io.Closer for Custodian.Register.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// Serve opens a TCP listener and starts serving ws's routes through the
// runtime. The server's custodian is a child of th's current custodian.
//
// Serve runs everything on th's runtime: one VM, one global rendezvous
// lock, so throughput does not scale with client concurrency. For a
// server that should scale across cores, use ServeSharded, which spins up
// Config.Shards independent runtimes. Serve rejects Config.Shards > 1:
// the caller's single *web.Server is bound to the caller's runtime and
// cannot be instantiated once per shard.
func Serve(th *core.Thread, ws *web.Server, cfg Config) (*Server, error) {
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("netsvc: Serve cannot shard a single *web.Server (Shards=%d); use ServeSharded", cfg.Shards)
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s, err := serveOn(th, ws, cfg, ln)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	go s.acceptPump()
	return s, nil
}

// serveOn builds the serving engine for one runtime. ln may be nil: a
// shard has no listener of its own, and its accept pump duties (and
// pumpRet) are the ShardedServer's. cfg has defaults applied.
func serveOn(th *core.Thread, ws *web.Server, cfg Config, ln net.Listener) (*Server, error) {
	rt := th.Runtime()
	codec, err := wire.New(cfg.Protocol, wire.Options{KVPrefix: cfg.RESPPrefix})
	if err != nil {
		return nil, err
	}
	// The handoff channel must hold every conn shedding lets through, so
	// the pump only ever blocks when shedding is disabled.
	capacity := cfg.AcceptBacklog
	if cfg.MaxPending > capacity {
		capacity = cfg.MaxPending
	}
	s := &Server{
		rt:      rt,
		cfg:     cfg,
		web:     ws,
		cust:    core.NewCustodian(th.CurrentCustodian()),
		ln:      ln,
		stats:   &Stats{},
		slots:   core.NewSemaphore(rt, cfg.MaxConns),
		pending: core.NewSemaphore(rt, 0),
		connCh:  make(chan pendingConn, capacity),
		quit:    make(chan struct{}),
		drain:   core.NewExternal(rt),
		migrate: core.NewExternal(rt),
		pumpRet: core.NewExternal(rt),
		reap:    core.NewSemaphore(rt, 0),
		conns:   make(map[int64]*connState),
	}
	s.migrated = make(chan struct{}, 1)
	s.newCodec = codec
	s.protoName = codec().Name()
	if cfg.AdmitTarget > 0 {
		s.adm = newAdmission(cfg.AdmitTarget, cfg.AdmitInterval)
	}
	s.classify = cfg.Classifier
	if s.classify == nil {
		s.classify = defaultClassify
	}
	if !cfg.DisableObs {
		s.obs = obs.New()
		if cfg.FlightRecorder != 0 {
			s.obs.EnableRecorder(cfg.FlightRecorder)
		}
		s.obs.Attach(rt)
	}
	if ln != nil {
		if err := s.cust.Register(ln); err != nil {
			return nil, err
		}
	} else {
		s.pumpRet.Complete(core.Unit{}) // no pump of our own to wait for
	}
	quit := s.quit
	if err := s.cust.Register(closerFunc(func() error { close(quit); return nil })); err != nil {
		return nil, err
	}
	// The acceptor runs under a supervisor: if it dies abnormally (a stray
	// kill, a panic in the accept path) it is restarted with backoff
	// rather than silently leaving the server deaf. A normal return (the
	// drain path) is final — Transient. The supervisor's custodian is a
	// child of the server's, so both shutdown paths take it down too.
	th.WithCustodian(s.cust, func() {
		s.sup = supervise.New(th, supervise.Options{
			MaxRestarts: 8,
			Window:      time.Minute,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
			OnRestart:   func(string, int) { s.stats.restarts.Add(1) },
		})
	})
	s.sup.Start(th, supervise.ChildSpec{
		Name:   "netsvc-accept",
		Policy: supervise.Transient,
		Start:  s.acceptLoop,
	})
	th.WithCustodian(s.cust, func() {
		s.reaper = th.Spawn("netsvc-reaper", s.reapLoop)
	})
	return s, nil
}

// Supervisor exposes the accept-loop supervisor for tests and
// diagnostics.
func (s *Server) Supervisor() *supervise.Supervisor { return s.sup }

// Addr returns the listener's address (useful with Addr "host:0"). A
// shard has no listener of its own; use ShardedServer.Addr.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Custodian returns the server custodian. Shutting it down is the abrupt
// ("administrator kills the whole server") path: every fd closes and every
// serving thread is suspended; pair it with Runtime.TerminateCondemned or
// use Shutdown for the graceful path.
func (s *Server) Custodian() *core.Custodian { return s.cust }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.snapshot()
	snap.Protocol = s.protoName
	if s.adm != nil {
		snap.SojournEWMAus = s.adm.sojournEWMA().Microseconds()
		snap.Overloaded = s.adm.overloaded()
	}
	return snap
}

// Obs returns the server's runtime observability layer, or nil if the
// config disabled it.
func (s *Server) Obs() *obs.Obs { return s.obs }

// acceptPump is the plain goroutine that owns the blocking accept(2)
// loop of a standalone (unsharded) server.
func (s *Server) acceptPump() {
	defer s.pumpRet.Complete(core.Unit{})
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain or custodian shutdown)
		}
		s.stats.accepted.Add(1)
		s.submit(c)
	}
}

// submit hands an accepted connection to this server's acceptor thread.
// It is called from a plain pump goroutine — the standalone server's own
// accept pump, or the ShardedServer's. The conn is registered with the
// server custodian *before* the handoff so an fd is never outside
// custodian control. A full connCh blocks the pump — and, transitively,
// the OS listen backlog — which is the accept backpressure.
func (s *Server) submit(c net.Conn) {
	if s.cust.Register(c) != nil {
		// Server custodian already dead: Register closed the conn.
		s.stats.rejected.Add(1)
		return
	}
	// Load shedding: past MaxPending accepted-but-unserved conns the
	// service is wedged or overwhelmed; answer 503 now rather than
	// queueing a request that would only time out later.
	if s.cfg.MaxPending > 0 && s.pendingN.Load() >= int64(s.cfg.MaxPending) {
		s.shedConn(c)
		return
	}
	s.pendingN.Add(1)
	select {
	case s.connCh <- pendingConn{c: c, queuedAt: time.Now()}:
		s.pending.Post()
	case <-s.quit:
		s.pendingN.Add(-1)
		_ = c.Close()
		s.stats.rejected.Add(1)
	}
}

// pendingLoadWeight over-weights accepted-but-unclaimed connections in the
// shard-assignment score. An active session may be an idle keep-alive, but
// a deep pending queue means the engine's acceptor is not keeping up —
// slots exhausted, servlets stalled, runtime busy — so a queued conn
// predicts far more added latency than a served one. The weight makes the
// fleet's least-loaded override shed assignment away from a hot shard well
// before its pending backstop (MaxPending) starts refusing connections.
const pendingLoadWeight = 4

// assignScore is the load figure the sharded assigner compares: conns
// being served plus pending-queue depth, the latter re-weighted.
func (s *Server) assignScore() int64 {
	return s.stats.active.Load() + pendingLoadWeight*s.pendingN.Load()
}

// shedConn answers an over-capacity connection straight from the pump
// goroutine — a plain blocking write with a short deadline; the conn
// never enters the runtime's world — and closes it. The refusal speaks
// the listener's own protocol (a fresh codec, used once).
func (s *Server) shedConn(c net.Conn) {
	// Count the decision before the refusal is written: a client that has
	// read the 503 must already observe it in Stats.
	s.stats.shed.Add(1)
	msg := s.newCodec().AppendFault(nil, 503, "server busy\n")
	_ = c.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = c.Write(msg)
	s.cust.Unregister(c)
	_ = c.Close()
}

// acceptLoop is the acceptor runtime thread: it claims pumped
// connections, enforces the connection cap, and spawns a session per
// connection. Being a runtime thread, it is suspendable and
// killable at every Sync.
func (s *Server) acceptLoop(th *core.Thread) {
	// Hoisted once per acceptor lifetime: no per-connection event allocs.
	drainEvt := core.Wrap(s.drain.Evt(), func(core.Value) core.Value { return "drain" })
	connEvt := core.Wrap(s.pending.WaitEvt(), func(core.Value) core.Value { return "conn" })
	connChoice := core.Choice(
		connEvt,
		drainEvt,
		core.Wrap(s.migrate.Evt(), func(core.Value) core.Value { return "migrate" }),
	)
	// Once migration has begun its completed External is always ready;
	// from then on wait without that arm.
	migConnChoice := core.Choice(connEvt, drainEvt)
	slotChoice := core.Choice(
		core.Wrap(s.slots.WaitEvt(), func(core.Value) core.Value { return "slot" }),
		drainEvt,
	)
	// Checked on entry, not just learned from the event: the supervisor
	// may restart the acceptor in the middle of a drain-triggered
	// migration, and the restarted incarnation must keep rehoming.
	migrating := s.migrate.Completed()
	for {
		choice := connChoice
		if migrating {
			choice = migConnChoice
			if s.pendingN.Load() == 0 {
				select {
				case s.migrated <- struct{}{}:
				default: // a kick is already waiting; DrainShard re-checks the count
				}
			}
		}
		v, err := core.Sync(th, choice)
		if err != nil {
			continue // stray break
		}
		switch v {
		case "drain":
			return
		case "migrate":
			migrating = true
			continue
		}
		// pending.Post happens only after the conn is in connCh, so this
		// receive cannot block.
		pc := <-s.connCh
		if migrating {
			// This shard is being drained: hand the queued conn to a
			// sibling instead of serving it here.
			s.rehomeConn(pc.c)
			continue
		}

		// Respect the connection cap before spawning: while no slot is
		// free we also stop claiming, connCh fills, the pump blocks, and
		// the kernel's backlog does the rest.
		for {
			v, err = core.Sync(th, slotChoice)
			if err == nil {
				break
			}
		}
		if v == "drain" {
			s.pendingN.Add(-1)
			_ = pc.c.Close()
			s.stats.rejected.Add(1)
			return
		}
		s.startConn(th, pc)
	}
}

// rehomeConn moves one accepted-but-unclaimed conn off a draining shard.
// The sharded assigner resubmits it to the least-loaded healthy sibling,
// which registers it with its own custodian before this shard lets go,
// so the fd is never uncontrolled. With no sibling available (fleet
// going down, or a single-shard fleet) the conn is refused.
//
// The pending count drops only once the hand-off is over, so a DrainShard
// waiting for an empty queue also waits out a rehome still submitting to
// the sibling.
func (s *Server) rehomeConn(c net.Conn) {
	defer s.pendingN.Add(-1)
	if s.rehome != nil && s.rehome(c) {
		s.cust.Unregister(c)
		s.stats.migrated.Add(1)
		return
	}
	s.cust.Unregister(c)
	_ = c.Close()
	s.stats.rejected.Add(1)
}

// startConn places the conn under a fresh per-connection custodian,
// attaches a web session, and spawns the session thread.
func (s *Server) startConn(th *core.Thread, pc pendingConn) {
	c := pc.c
	// The conn leaves the pending count only once it is published in
	// s.conns or refused. DrainShard drains the engine only after the
	// count reaches zero, so a conn the acceptor already holds is served
	// (its first request is owed) instead of being refused by the drain
	// check below.
	defer s.pendingN.Add(-1)
	ccust := core.NewCustodian(s.cust)
	// Move the fd under the connection custodian (register first so the
	// conn is never uncontrolled; double close on races is harmless).
	if ccust.Register(c) != nil {
		s.cust.Unregister(c)
		_ = c.Close()
		s.stats.rejected.Add(1)
		s.slots.Post()
		return
	}
	s.cust.Unregister(c)
	cs := &connState{c: c, queuedAt: pc.queuedAt, cust: ccust, done: make(chan struct{})}
	cs.idle.sem = core.NewSemaphore(s.rt, 0)

	// Spawn under s.mu: a session that ends instantly announces itself
	// through endConn, which needs s.mu, so the reaper cannot see cs before
	// cs.th is set and cs is in s.conns. The drain check sits in the same
	// section so that once Shutdown has begun the set it waits on, and
	// finally sweeps, only shrinks.
	s.mu.Lock()
	if s.drain.Completed() {
		s.mu.Unlock()
		ccust.Shutdown() // closes c
		s.stats.rejected.Add(1)
		s.slots.Post()
		return
	}
	s.nextID++
	cs.id = s.nextID
	cs.sess = s.web.AttachSession(ccust)
	th.WithCustodian(ccust, func() {
		cs.th = th.Spawn(fmt.Sprintf("netsvc-conn-%d", cs.id), func(x *core.Thread) {
			// clean is still false when a Kill unwinds (by panic) through
			// the defer. Only a Kill before the body starts would skip it,
			// and cs.th is not reachable from outside this package.
			clean := false
			defer func() { s.endConn(cs, clean) }()
			clean = s.serveConn(x, cs)
		})
	})
	s.conns[cs.id] = cs
	s.stats.active.Add(1)
	s.mu.Unlock()
	// Shutting ccust down (web.Terminate, the server custodian, Shutdown's
	// straggler pass) announces the end too. Registered outside s.mu: a
	// custodian that is already dead runs the closer on the spot.
	_ = ccust.Register(closerFunc(func() error { s.endConn(cs, false); return nil }))
}

// endConn announces, once, that a connection is over: it releases the
// pumps, stops the idle timer, and queues cs for the reaper. It runs in a
// custodian closer, so it stays plain Go — a mutex-guarded append and a
// Semaphore.Post, the same outside-the-runtime signalling the pumps use —
// and never calls back into the runtime.
func (s *Server) endConn(cs *connState, clean bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs.completed = cs.completed || clean
	if cs.ended {
		return
	}
	cs.ended = true
	close(cs.done)
	cs.idle.stop()
	s.ended = append(s.ended, cs)
	s.reap.Post()
}

// reapLoop is the server's one reaper thread, the only place a connection
// is cleaned up: close the fd (via custodian shutdown), drop the session
// from the administrator's view, classify the outcome, release the slot,
// and kill the threads the connection owned. It lives under the server
// custodian, so the abrupt path (Custodian().Shutdown()) suspends it with
// everything else and the accounting of connections still open is lost;
// the graceful Shutdown ends stragglers while it is live.
func (s *Server) reapLoop(th *core.Thread) {
	ended := s.reap.WaitEvt() // hoisted: no per-connection event allocs
	for {
		if _, err := core.Sync(th, ended); err != nil {
			continue // stray break
		}
		s.mu.Lock()
		cs := s.ended[0] // one token per entry: never empty here
		s.ended = s.ended[1:]
		s.mu.Unlock()

		cs.cust.Shutdown() // idempotent; closes the fd when the session ended on its own
		s.web.Detach(cs.sess.ID)
		s.mu.Lock()
		delete(s.conns, cs.id)
		completed, worker := cs.completed, cs.worker
		var idle *core.External
		if len(s.conns) == 0 {
			idle, s.idle = s.idle, nil
		}
		s.mu.Unlock()
		s.stats.active.Add(-1)
		if completed {
			s.stats.drained.Add(1)
		} else {
			s.stats.killed.Add(1)
		}
		s.slots.Post()
		// The session thread and its deadline worker are condemned (their
		// only custodian is dead); kill them so a long-running server does
		// not accumulate suspended threads — TerminateCondemned, scoped to
		// one connection. Killing a finished thread is a no-op.
		cs.th.Kill()
		if worker != nil {
			worker.Kill()
		}
		if idle != nil {
			idle.Complete(core.Unit{})
		}
	}
}

// IdleEvt returns an event that is ready once the server has no
// connection left to reap: every connection started before the call has
// been cleaned up — counters ticked, slot released, threads killed (they
// finish unwinding on their own time). It is the reaper's quiescence
// signal; Shutdown and tests wait on it instead of polling the counters.
func (s *Server) IdleEvt() core.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) == 0 {
		return core.Always(core.Unit{})
	}
	if s.idle == nil {
		s.idle = core.NewExternal(s.rt)
	}
	return s.idle.Evt()
}

// ErrServerDown is returned by Shutdown if called twice.
var ErrServerDown = errors.New("netsvc: server is shut down")

// reapBound caps Shutdown's wait for the reaper to retire the stragglers.
// The reaper never blocks on a connection, so the bound is a backstop.
const reapBound = 5 * time.Second

// Shutdown gracefully drains the server from a runtime thread: stop
// accepting, let in-flight sessions finish for up to grace, then shut the
// server custodian down (closing every remaining fd) and reap every
// serving thread. On return no netsvc-owned runtime thread is live and no
// netsvc-owned goroutine remains (pumps unblock as their fds close). A
// break sent to th cuts a wait short; the shutdown still completes.
func (s *Server) Shutdown(th *core.Thread, grace time.Duration) error {
	if !s.drain.Complete(core.Unit{}) {
		return ErrServerDown
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	// startConn refuses from here on, so one idle event covers the whole
	// shutdown. A dead server custodian is the other way out: the reaper
	// is suspended with it and idle would never come.
	quiet := core.Choice(s.IdleEvt(), s.cust.DeadEvt())
	_, _ = supervise.SyncWithDeadline(th, quiet, grace)
	// Grace expired (or every session finished): end stragglers through
	// their own custodians while the reaper is still live, so the normal
	// cleanup runs and the stats classify them as killed.
	s.mu.Lock()
	strays := make([]*connState, 0, len(s.conns))
	for _, cs := range s.conns {
		strays = append(strays, cs)
	}
	s.mu.Unlock()
	for _, cs := range strays {
		cs.cust.Shutdown()
	}
	_, _ = supervise.SyncWithDeadline(th, quiet, reapBound)
	s.cust.Shutdown()
	// Every thread netsvc owns hangs off the supervisor (the acceptor and
	// its monitor), is the reaper, or belongs to a connection the reaper
	// did not get to; all are condemned now, so kill them.
	s.sup.Stop()
	s.reaper.Kill()
	s.mu.Lock()
	for _, cs := range s.conns {
		cs.th.Kill()
		if cs.worker != nil {
			cs.worker.Kill()
		}
	}
	s.mu.Unlock()
	// Wait for the accept pump to exit so "no goroutines leaked" holds
	// the moment Shutdown returns.
	_, err := core.Sync(th, s.pumpRet.Evt())
	return err
}
