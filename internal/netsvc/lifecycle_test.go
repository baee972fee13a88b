package netsvc_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// lifecycleServlets mounts /hello (answers at once) and /block (reports
// its session ID on ids, then holds the request open until killed).
func lifecycleServlets(th *core.Thread, ids chan<- int) *web.Server {
	ws := web.NewServer(th)
	ws.Handle("/hello", func(*core.Thread, *web.Session, *web.Request) web.Response {
		return web.Response{Status: 200, Body: "hello"}
	})
	ws.Handle("/block", func(x *core.Thread, s *web.Session, _ *web.Request) web.Response {
		ids <- s.ID
		_ = core.Sleep(x, time.Hour)
		return web.Response{Status: 200, Body: "late"}
	})
	return ws
}

// dialKeepAlive opens a connection and sends one HTTP/1.1 request; with
// wait it also reads the response, so the session is parked for the next.
func dialKeepAlive(t *testing.T, addr, path string, wait bool) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	if wait {
		if status, _, err := readResponse(r); err != nil || !strings.Contains(status, "200") {
			t.Fatalf("GET %s: %q / %v", path, status, err)
		}
	}
	return c, r
}

// serverThreads is what a standalone server costs in runtime threads,
// connections aside: the acceptor, its supervisor monitor, and the reaper.
const serverThreads = 3

// awaitThreads waits for the runtime's live-thread count to settle at
// want: killed threads finish unwinding, and the supervisor spawns the
// acceptor, on their own time.
func awaitThreads(t *testing.T, rt *core.Runtime, want int) {
	t.Helper()
	pollUntil(t, fmt.Sprintf("%d live threads", want), func() bool { return rt.LiveThreads() == want })
}

// awaitIdle waits on the reaper's quiescence signal: once it fires, every
// ended connection's counters, slot and kills are done.
func awaitIdle(t *testing.T, th *core.Thread, s *netsvc.Server) {
	t.Helper()
	if _, err := core.Sync(th, s.IdleEvt()); err != nil {
		t.Fatalf("waiting for the reaper: %v", err)
	}
}

// TestConnLifecycleEndsOnce drives a connection to each of its possible
// endings and checks the single cleanup path ran exactly once: nothing
// active, exactly one of drained/killed ticked, the only connection slot
// reusable, and no runtime thread left behind.
func TestConnLifecycleEndsOnce(t *testing.T) {
	type env struct {
		t    *testing.T
		th   *core.Thread
		ws   *web.Server
		s    *netsvc.Server
		addr string
		ids  chan int
	}
	cases := []struct {
		name    string
		cfg     netsvc.Config
		end     func(e env) // drives one connection to its end
		killed  bool        // the ending counts as killed, not drained
		shutsUp bool        // the ending is the server's own Shutdown
	}{
		{name: "clean close", end: func(e env) {
			c, _ := dialKeepAlive(e.t, e.addr, "/hello", true)
			c.Close()
		}},
		{name: "idle timeout", cfg: netsvc.Config{IdleTimeout: 30 * time.Millisecond}, end: func(e env) {
			c, r := dialKeepAlive(e.t, e.addr, "/hello", true)
			defer c.Close()
			if status, _, err := readResponse(r); err != nil || !strings.Contains(status, "408") {
				e.t.Fatalf("idle connection: %q / %v, want 408", status, err)
			}
		}},
		{name: "web.Terminate", killed: true, end: func(e env) {
			c, r := dialKeepAlive(e.t, e.addr, "/block", false)
			defer c.Close()
			e.ws.Terminate(<-e.ids)
			if _, err := r.ReadByte(); err != io.EOF {
				e.t.Fatalf("terminated session: read err %v, want EOF", err)
			}
		}},
		{name: "session thread killed", killed: true, end: func(e env) {
			c, r := dialKeepAlive(e.t, e.addr, "/hello", true)
			defer c.Close()
			ths := e.s.SessionThreads()
			if len(ths) != 1 {
				e.t.Fatalf("%d session threads, want 1", len(ths))
			}
			ths[0].Kill()
			if _, err := r.ReadByte(); err != io.EOF {
				e.t.Fatalf("killed session: read err %v, want EOF", err)
			}
		}},
		{name: "Shutdown past grace", killed: true, shutsUp: true, end: func(e env) {
			c, r := dialKeepAlive(e.t, e.addr, "/block", false)
			defer c.Close()
			<-e.ids
			if err := e.s.Shutdown(e.th, 20*time.Millisecond); err != nil {
				e.t.Fatalf("Shutdown: %v", err)
			}
			if _, err := r.ReadByte(); err != io.EOF {
				e.t.Fatalf("straggler: read err %v, want EOF", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
				ids := make(chan int, 1)
				ws := lifecycleServlets(th, ids)
				bare := rt.LiveThreads() // before the server exists
				tc.cfg.MaxConns = 1
				s, err := netsvc.Serve(th, ws, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}

				tc.end(env{t, th, ws, s, s.Addr().String(), ids})
				awaitIdle(t, th, s)
				st := s.Stats()
				wantDrained, wantKilled := int64(1), int64(0)
				if tc.killed {
					wantDrained, wantKilled = 0, 1
				}
				if st.Active != 0 || st.Drained != wantDrained || st.Killed != wantKilled {
					t.Fatalf("active/drained/killed = %d/%d/%d, want 0/%d/%d", st.Active, st.Drained, st.Killed, wantDrained, wantKilled)
				}
				if tc.shutsUp {
					awaitThreads(t, rt, bare)
					return
				}
				// The one slot was released exactly once: the next
				// connection is served, and it is alone.
				if status, body, err := get(s.Addr().String(), "/hello"); err != nil || !strings.Contains(status, "200") || body != "hello" {
					t.Fatalf("following connection: %q / %q / %v", status, body, err)
				}
				awaitIdle(t, th, s)
				if st := s.Stats(); st.Active != 0 || st.Drained+st.Killed != 2 {
					t.Fatalf("after the following connection: active %d, drained+killed %d, want 0 and 2", st.Active, st.Drained+st.Killed)
				}
				awaitThreads(t, rt, bare+serverThreads)
				if err := s.Shutdown(th, time.Second); err != nil {
					t.Fatalf("Shutdown: %v", err)
				}
			})
		})
	}
}

// TestTerminateReclaimsDeadlineWorker: with RequestTimeout set a dispatch
// runs in a worker thread under the connection's custodian. Terminating
// sessions mid-dispatch must reclaim those workers along with the session
// threads, without waiting for a server Shutdown to sweep them up.
func TestTerminateReclaimsDeadlineWorker(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		const n = 8
		ids := make(chan int, n)
		ws := lifecycleServlets(th, ids)
		bare := rt.LiveThreads()
		s, err := netsvc.Serve(th, ws, netsvc.Config{RequestTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			c, _ := dialKeepAlive(t, s.Addr().String(), "/block", false)
			defer c.Close()
		}
		for i := 0; i < n; i++ {
			ws.Terminate(<-ids)
		}
		awaitIdle(t, th, s)
		if st := s.Stats(); st.Active != 0 || st.Killed != n {
			t.Fatalf("active/killed = %d/%d, want 0/%d", st.Active, st.Killed, n)
		}
		awaitThreads(t, rt, bare+serverThreads) // every session thread and every worker
		if err := s.Shutdown(th, time.Second); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// TestConnCostIsOneThreadTwoGoroutines mirrors killbench's per-layer
// count in the repo's own suite: an idle keep-alive connection costs
// exactly one runtime thread and two goroutines (session thread, read
// pump). The write pump is lazy: responses are written inline while the
// socket has room, and the pump goroutine starts only at a connection's
// first backpressure (TestBackpressureStartsWritePump), which small
// responses never reach.
func TestConnCostIsOneThreadTwoGoroutines(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		const n = 32
		ws := lifecycleServlets(th, nil)
		bare := rt.LiveThreads()
		s, err := netsvc.Serve(th, ws, netsvc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)
		awaitThreads(t, rt, bare+serverThreads) // the acceptor is up: the baseline is complete
		threads, goroutines := rt.LiveThreads(), runtime.NumGoroutine()
		for i := 0; i < n; i++ {
			// The response is written only after the session thread and
			// the read pump exist, so the counts below are already settled.
			c, _ := dialKeepAlive(t, s.Addr().String(), "/hello", true)
			defer c.Close()
		}
		if got := rt.LiveThreads() - threads; got != n {
			t.Errorf("%d idle connections added %d runtime threads, want %d", n, got, n)
		}
		if got := runtime.NumGoroutine() - goroutines; got != 2*n {
			t.Errorf("%d idle connections added %d goroutines, want %d", n, got, 2*n)
		}
	})
}

// TestIdleTimeoutLazyRearm pins the idle deadline's meaning under the
// per-connection timer, which is re-armed only when it fires: the
// deadline is the start of the current wait plus IdleTimeout, whenever
// the timer happened to be armed. A servlet slower than IdleTimeout
// leaves a token behind that must not turn into a 408 for the next
// request, and a connection kept busy for several timer periods still
// times out one IdleTimeout after it goes quiet — not sooner, and not
// a whole extra period later.
func TestIdleTimeoutLazyRearm(t *testing.T) {
	const idle = 200 * time.Millisecond
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		ws.Handle("/hello", func(*core.Thread, *web.Session, *web.Request) web.Response {
			return web.Response{Status: 200, Body: "hello"}
		})
		ws.Handle("/slow", func(x *core.Thread, _ *web.Session, _ *web.Request) web.Response {
			_ = core.Sleep(x, 2*idle)
			return web.Response{Status: 200, Body: "slow"}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{IdleTimeout: idle})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)
		addr := s.Addr().String()
		send := func(c net.Conn, path string) {
			t.Helper()
			if _, err := fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", path); err != nil {
				t.Fatal(err)
			}
		}
		expect := func(r *bufio.Reader, want string) {
			t.Helper()
			if status, _, err := readResponse(r); err != nil || !strings.Contains(status, want) {
				t.Fatalf("got %q / %v, want %s", status, err, want)
			}
		}

		// A servlet slower than IdleTimeout, then a second request at once.
		c, r := dialKeepAlive(t, addr, "/slow", true)
		send(c, "/hello")
		expect(r, "200")
		c.Close()

		// Busy for more than two timer periods, then quiet.
		c, r = dialKeepAlive(t, addr, "/hello", true)
		defer c.Close()
		busy := time.Now()
		for time.Since(busy) < 5*idle/2 {
			send(c, "/hello")
			expect(r, "200")
		}
		last := time.Now()
		send(c, "/hello")
		expect(r, "200")
		expect(r, "408")
		if quiet := time.Since(last); quiet < idle || quiet >= 2*idle {
			t.Fatalf("408 came %v after the last request, want within [%v, %v)", quiet, idle, 2*idle)
		}
		if st := s.Stats(); st.TimedOut != 1 {
			t.Fatalf("%d idle timeouts, want 1", st.TimedOut)
		}
	})
}
