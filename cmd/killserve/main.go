// Command killserve serves the kill-safe servlet router over real TCP
// sockets via internal/netsvc — the paper's administrator scenario made
// concrete: every connection is a session thread under its own custodian,
// and an administrator can terminate any live session mid-request
// (closing its socket, reclaiming its thread) without wedging the shared
// abstractions or the server.
//
// Run:
//
//	go run ./cmd/killserve -addr 127.0.0.1:8080
//
// then from another terminal:
//
//	curl http://127.0.0.1:8080/                    # route index
//	curl http://127.0.0.1:8080/slow?ms=30000 &     # a long-running session
//	curl http://127.0.0.1:8080/admin/sessions      # find its ID
//	curl "http://127.0.0.1:8080/admin/kill?id=N"   # kill it mid-request
//	curl http://127.0.0.1:8080/debug/killsafe/stats # "serving": killed ticks
//
// The stats document (/debug/killsafe/stats) is the one stats surface:
// serving counters and runtime metrics, fleet totals plus a per-shard
// breakdown. With -admin HOST:PORT the /debug/killsafe/* routes are also
// served out-of-band on a separate plain HTTP listener, reachable even
// when every serving slot is busy, and its /debug/vars shows the same
// stats document as the one expvar variable "killsafe"; with
// -flight-recorder N each shard keeps its last N scheduler decisions,
// dumpable at /debug/killsafe/trace in the explore replay format.
//
// The server is always a sharded fleet behind one listener;
// -shards N (default 1) sets its size. Each shard is a whole VM with its
// own custodian tree and servlet instance, so /admin/kill reaches only
// the sessions of the shard that serves the request, while the stats
// document reports the whole fleet from any shard.
//
// With -protocol resp the listener speaks RESP instead of HTTP/1.1:
// GET/SET/DEL/STATS map onto the transactional KV store mounted at /kv
// (one store, shared by every shard through a Gateway), MULTI/EXEC runs
// an atomic batch, and CALL <path> reaches any servlet route — so
// redis-cli-style sessions and /admin/kill coexist on one socket:
//
//	go run ./cmd/killserve -protocol resp
//	printf 'SET k 1\r\nGET k\r\nCALL /admin/sessions\r\n' | nc 127.0.0.1 8080
//
// The same /kv servlet routes are mounted in HTTP mode too
// (/kv?key=..., /kv/multi?ops=..., /kv/stats).
//
// SIGINT/SIGTERM drains gracefully (in-flight requests finish within the
// grace period; stragglers are killed). See examples/killserve/demo.sh
// for a scripted walkthrough.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// buildRoutes registers the demo routes on ws. It is called once per
// shard: each shard gets its own web.Server instance and its own route
// closures, bound to that shard's runtime. The KV
// gateway is shared: every shard mounts the same gw, so /kv reads and
// writes hit one transactional store regardless of which shard (or
// which protocol) carried the request.
// The fleet pointer is late-bound: ServeSharded runs setup (and thus
// buildRoutes) before it returns the *ShardedServer, so the /admin/drain
// closure loads it at request time.
func buildRoutes(rt *core.Runtime, ws *web.Server, shard, shards int, gw *kvtxn.Gateway,
	fleet *atomic.Pointer[netsvc.ShardedServer], grace time.Duration) {
	kvtxn.Mount(ws, gw, "/kv")
	ws.Handle("/", func(_ *core.Thread, _ *web.Session, _ *web.Request) web.Response {
		return web.Response{Status: 200, Body: strings.Join([]string{
			"killserve — kill-safe TCP serving demo",
			"  /hello               greet",
			"  /slow?ms=N           hold the request open N milliseconds (default 30000)",
			"  /whoami              this connection's session ID (and shard)",
			"  /admin/sessions      live session IDs on this shard ('you' is this request's own)",
			"  /admin/kill?id=N     terminate session N mid-request (this shard only)",
			"  /admin/drain?shard=N retire shard N's runtime and hand off to a replacement (sharded mode)",
			"  /kv?key=K            transactional KV store (PUT/DELETE too; shared across shards)",
			"  /kv/multi?ops=...    atomic batch (w:k:v,r:k,d:k)",
			"  /kv/stats            store commit/abort counters",
			"  /debug/killsafe/stats      serving counters and runtime metrics, fleet totals + per shard",
			"  /debug/killsafe/custodians live custodian trees",
			"  /debug/killsafe/trace      flight-recorder dump (?shard=N)",
			"",
		}, "\n")}
	})
	ws.Handle("/hello", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
		name := req.Query["name"]
		if name == "" {
			name = "world"
		}
		return web.Response{Status: 200, Body: "hello, " + name + "\n"}
	})
	ws.Handle("/whoami", func(_ *core.Thread, s *web.Session, _ *web.Request) web.Response {
		return web.Response{Status: 200, Body: fmt.Sprintf("session %d on shard %d/%d\n", s.ID, shard, shards)}
	})
	ws.Handle("/slow", func(x *core.Thread, s *web.Session, req *web.Request) web.Response {
		ms := 30000
		if n, err := strconv.Atoi(req.Query["ms"]); err == nil && n >= 0 {
			ms = n
		}
		// The session thread blocks here at a safe point: an
		// /admin/kill lands cleanly, closing this socket.
		if err := core.Sleep(x, time.Duration(ms)*time.Millisecond); err != nil {
			return web.Response{Status: 500, Body: "interrupted\n"}
		}
		return web.Response{Status: 200, Body: fmt.Sprintf("session %d survived %dms\n", s.ID, ms)}
	})
	ws.Handle("/admin/sessions", func(_ *core.Thread, s *web.Session, _ *web.Request) web.Response {
		ids := ws.Sessions()
		sort.Ints(ids)
		var b strings.Builder
		fmt.Fprintf(&b, "you: %d (shard %d)\n", s.ID, shard)
		for _, id := range ids {
			fmt.Fprintf(&b, "session %d\n", id)
		}
		return web.Response{Status: 200, Body: b.String()}
	})
	ws.Handle("/admin/kill", func(_ *core.Thread, s *web.Session, req *web.Request) web.Response {
		id, err := strconv.Atoi(req.Query["id"])
		if err != nil {
			return web.Response{Status: 400, Body: "usage: /admin/kill?id=N\n"}
		}
		ws.Terminate(id)
		rt.TerminateCondemned()
		note := ""
		if id == s.ID {
			note = " (that was this session — the closed connection is the proof)"
		}
		return web.Response{Status: 200, Body: fmt.Sprintf("terminated session %d%s\n", id, note)}
	})
	ws.Handle("/admin/drain", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
		m := fleet.Load()
		if m == nil || m.NumShards() < 2 {
			return web.Response{Status: 400, Body: "live drain requires -shards > 1\n"}
		}
		n, err := strconv.Atoi(req.Query["shard"])
		if err != nil || n < 0 || n >= m.NumShards() {
			return web.Response{Status: 400, Body: "usage: /admin/drain?shard=N\n"}
		}
		// The handoff waits for in-flight sessions — possibly including
		// this one — so it must not run on a serving thread: fire it from
		// plain Go and answer 202 immediately.
		go func() {
			if err := m.DrainShard(n, grace); err != nil {
				fmt.Fprintf(os.Stderr, "killserve: drain shard %d: %v\n", n, err)
			}
		}()
		return web.Response{Status: 202, Body: fmt.Sprintf("draining shard %d (grace %s)\n", n, grace)}
	})
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	maxConns := flag.Int("max-conns", 64, "maximum concurrently served connections per shard (excess wait in the accept queue)")
	maxPending := flag.Int("max-pending", 32, "connections allowed to wait for a serving slot before new ones are shed with 503 (negative disables shedding)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request handler deadline; over-budget requests get 503 (0 = unlimited)")
	idle := flag.Duration("idle-timeout", 10*time.Second, "per-connection idle/read deadline")
	grace := flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight requests")
	shards := flag.Int("shards", 1, "independent runtime shards behind the listener (1 = single runtime)")
	admin := flag.String("admin", "", "out-of-band admin listen address serving /debug/killsafe/{stats,trace,custodians} and /debug/vars (empty disables)")
	recorder := flag.Int("flight-recorder", 0, "flight-recorder ring size per shard for /debug/killsafe/trace (0 disables, negative = default size)")
	protocol := flag.String("protocol", "http", "wire protocol spoken on the listener: http (HTTP/1.1 keep-alive) or resp (Redis serialization protocol; GET/SET/DEL/MULTI/EXEC map onto /kv)")
	admitTarget := flag.Duration("admit-target", 0, "adaptive admission queue-delay target: sustained sojourn above it sheds by class — admin never, normal paced, bulk outright (0 disables; try 5ms)")
	drainEvery := flag.Duration("drain-interval", 0, "rolling live drain: every interval retire the next shard in rotation and hand off to a fresh runtime (0 disables; requires -shards > 1)")
	flag.Parse()

	cfg := netsvc.Config{
		Addr:           *addr,
		MaxConns:       *maxConns,
		MaxPending:     *maxPending,
		IdleTimeout:    *idle,
		RequestTimeout: *reqTimeout,
		Shards:         max(*shards, 1),
		FlightRecorder: *recorder,
		Protocol:       *protocol,
		AdmitTarget:    *admitTarget,
	}

	// One transactional store behind a Gateway, shared by every shard and
	// both protocols. Ops issued before the store's home shard has bound
	// the gateway queue safely.
	gw := kvtxn.NewGateway()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	// The store lives on its own runtime, outside the serving shards: a
	// shard drain retires the shard's whole runtime, and the store must
	// outlive whichever engine happens to carry its requests.
	storeRt := core.NewRuntime()
	storeStop := core.NewExternal(storeRt)
	storeReady := make(chan struct{})
	storeDone := make(chan struct{})
	go func() {
		defer close(storeDone)
		_ = storeRt.Run(func(th *core.Thread) {
			gw.Bind(th, kvtxn.NewWith(th, kvtxn.Options{
				Strategy: kvtxn.Locking,
				Shards:   8,
				LockWait: 50 * time.Millisecond,
			}))
			close(storeReady)
			for {
				if _, err := core.Sync(th, storeStop.Evt()); err == nil {
					return
				}
			}
		})
	}()
	<-storeReady

	var fleet atomic.Pointer[netsvc.ShardedServer]
	m, err := netsvc.ServeSharded(cfg, func(th *core.Thread, shard int) *web.Server {
		ws := web.NewServer(th)
		buildRoutes(th.Runtime(), ws, shard, cfg.Shards, gw, &fleet, *grace)
		return ws
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "killserve: %v\n", err)
		os.Exit(1)
	}
	fleet.Store(m)
	fmt.Printf("killserve: listening on %s://%s (shards=%d, max-conns=%d/shard, idle-timeout=%s)\n",
		*protocol, m.Addr(), m.NumShards(), *maxConns, *idle)

	// The out-of-band admin surface: a plain net/http listener, reachable
	// even with every serving slot wedged. One handler hands every
	// /debug/killsafe/* path to the same dispatcher the in-band routes
	// use, and expvar's one "killsafe" variable renders the same stats
	// document. Shard 0 answers for the fleet; Shard is re-read per
	// request, so the answers follow drains.
	if *admin != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/killsafe/", func(w http.ResponseWriter, r *http.Request) {
			query := map[string]string{}
			for k, v := range r.URL.Query() {
				query[k] = v[0]
			}
			status, body, ok := m.Shard(0).Admin(r.URL.Path, query)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.WriteHeader(status)
			fmt.Fprint(w, body)
		})
		expvar.Publish("killsafe", expvar.Func(func() any {
			_, body, _ := m.Shard(0).Admin("/debug/killsafe/stats", nil)
			return json.RawMessage(body)
		}))
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			if err := http.ListenAndServe(*admin, mux); err != nil {
				fmt.Fprintf(os.Stderr, "killserve: admin listener: %v\n", err)
			}
		}()
		fmt.Printf("killserve: admin surface on http://%s/debug/killsafe/stats\n", *admin)
	}

	if *drainEvery > 0 && m.NumShards() > 1 {
		go func() {
			for i := 0; ; i++ {
				time.Sleep(*drainEvery)
				if err := m.DrainShard(i%m.NumShards(), *grace); err != nil {
					return // fleet shutting down
				}
			}
		}()
		fmt.Printf("killserve: rolling drain every %s across %d shards\n", *drainEvery, m.NumShards())
	}
	v := <-sigc
	fmt.Printf("killserve: received %v, draining %d shards (grace %s)...\n", v, m.NumShards(), *grace)
	if err := m.Shutdown(*grace); err != nil {
		fmt.Fprintf(os.Stderr, "killserve: shutdown: %v\n", err)
	}
	storeStop.Complete(core.Unit{})
	<-storeDone
	storeRt.Shutdown()
	// The counters are plain atomics on each shard's Server, so the
	// per-shard breakdown stays readable after the runtimes are down —
	// and includes the sessions the drain itself had to kill.
	st := m.Stats()
	fmt.Printf("killserve: done — accepted=%d drained=%d killed=%d timed_out=%d rejected=%d shed=%d adm_shed=%d migrated=%d shards_drained=%d deadlined=%d restarts=%d\n",
		st.Accepted, st.Drained, st.Killed, st.TimedOut, st.Rejected, st.Shed, st.AdmShed, st.Migrated, st.ShardsDrained, st.Deadlined, st.Restarts)
	for i := 0; i < m.NumShards(); i++ {
		ss := m.Shard(i).Stats()
		fmt.Printf("killserve:   shard %d — accepted=%d drained=%d killed=%d timed_out=%d rejected=%d shed=%d deadlined=%d restarts=%d\n",
			i, ss.Accepted, ss.Drained, ss.Killed, ss.TimedOut, ss.Rejected, ss.Shed, ss.Deadlined, ss.Restarts)
	}
}
