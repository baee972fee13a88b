package netsvc_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

func withRuntime(t *testing.T, fn func(*core.Runtime, *core.Thread)) {
	t.Helper()
	rt := core.NewRuntime()
	defer rt.Shutdown()
	if err := rt.Run(func(th *core.Thread) { fn(rt, th) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// get dials addr and performs one HTTP/1.0 request, returning status line
// and body.
func get(addr, target string) (status string, body string, err error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", "", err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.0\r\n\r\n", target); err != nil {
		return "", "", err
	}
	return readResponse(bufio.NewReader(c))
}

// servingOf decodes the fleet-total "serving" object of a
// /debug/killsafe/stats response body.
func servingOf(t *testing.T, body string) netsvc.StatsSnapshot {
	t.Helper()
	var doc struct {
		Serving netsvc.StatsSnapshot `json:"serving"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats document is not JSON: %v\n%s", err, body)
	}
	return doc.Serving
}

// readResponse parses one response off r: status line, headers
// (Content-Length honored), body.
func readResponse(r *bufio.Reader) (status, body string, err error) {
	status, err = r.ReadString('\n')
	if err != nil {
		return "", "", err
	}
	status = strings.TrimRight(status, "\r\n")
	n := -1
	for {
		ln, err := r.ReadString('\n')
		if err != nil {
			return status, "", err
		}
		ln = strings.TrimRight(ln, "\r\n")
		if ln == "" {
			break
		}
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.EqualFold(k, "Content-Length") {
			fmt.Sscanf(strings.TrimSpace(v), "%d", &n)
		}
	}
	if n < 0 {
		b, err := io.ReadAll(r)
		return status, string(b), err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return status, string(buf), err
	}
	return status, string(buf), nil
}

// waitGoroutines waits for the goroutine count to return to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%s: %d goroutines, baseline %d\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1 // not Linux; skip fd accounting
	}
	return len(ents)
}

// TestEndToEndKillMidRequest is the acceptance scenario: real TCP,
// concurrent requests, one session's custodian killed mid-request. The
// killed client's conn closes, every other request completes correctly,
// and a graceful shutdown leaves zero leaked goroutines.
func TestEndToEndKillMidRequest(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		g0 := runtime.NumGoroutine()
		fd0 := openFDs(t)

		ws := web.NewServer(th)
		ws.Handle("/hello", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
			return web.Response{Status: 200, Body: "hello " + req.Query["n"]}
		})
		blocked := core.NewExternal(rt)
		ws.Handle("/block", func(x *core.Thread, s *web.Session, _ *web.Request) web.Response {
			blocked.Complete(s.ID)
			_ = core.Sleep(x, time.Hour) // hold the request open until killed
			return web.Response{Status: 200, Body: "late"}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{MaxConns: 16})
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Addr().String()

		// The victim: a request that blocks server-side.
		victim := make(chan error, 1)
		go func() {
			_, body, err := get(addr, "/block")
			if err == nil && body == "late" {
				victim <- fmt.Errorf("killed request completed normally")
				return
			}
			victim <- nil // closed early: expected
		}()

		// Concurrent survivors, issued while the victim is in flight.
		if _, err := core.Sync(th, blocked.Evt()); err != nil {
			t.Fatal(err)
		}
		const survivors = 8
		results := make(chan error, survivors)
		for i := 0; i < survivors; i++ {
			i := i
			go func() {
				status, body, err := get(addr, fmt.Sprintf("/hello?n=%d", i))
				if err != nil {
					results <- err
					return
				}
				if !strings.Contains(status, "200") || body != fmt.Sprintf("hello %d", i) {
					results <- fmt.Errorf("got (%q, %q)", status, body)
					return
				}
				results <- nil
			}()
		}

		// The administrator kills the blocked session mid-request.
		v, err := core.Sync(th, blocked.Evt())
		if err != nil {
			t.Fatal(err)
		}
		ws.Terminate(v.(int))

		select {
		case err := <-victim:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("killed client's connection did not close")
		}
		for i := 0; i < survivors; i++ {
			if err := <-results; err != nil {
				t.Fatalf("survivor: %v", err)
			}
		}

		// Killed and Drained tick at session teardown, which can lag the
		// client-observed response or close; poll rather than snapshot.
		deadline := time.Now().Add(5 * time.Second)
		st := s.Stats()
		for (st.Killed < 1 || st.Drained < survivors) && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
			st = s.Stats()
		}
		if st.Killed < 1 {
			t.Errorf("stats.Killed = %d, want >= 1", st.Killed)
		}
		if st.Drained < survivors {
			t.Errorf("stats.Drained = %d, want >= %d", st.Drained, survivors)
		}

		// Graceful shutdown drains with zero leaked goroutines or fds.
		if err := s.Shutdown(th, time.Second); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, g0, "after shutdown")
		if fd0 >= 0 {
			deadline := time.Now().Add(5 * time.Second)
			for openFDs(t) > fd0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			if n := openFDs(t); n > fd0 {
				t.Errorf("%d fds open after shutdown, baseline %d", n, fd0)
			}
		}
		if n := rt.PendingExternals(); n != 0 {
			t.Errorf("%d external helpers still pending", n)
		}
	})
}

func TestIdleTimeoutClosesConnection(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		s, err := netsvc.Serve(th, ws, netsvc.Config{IdleTimeout: 30 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)

		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		// Send nothing: the idle deadline must answer 408 and close.
		status, body, err := readResponse(bufio.NewReader(c))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !strings.Contains(status, "408") {
			t.Fatalf("status %q, want 408", status)
		}
		if !strings.Contains(body, "timeout") {
			t.Fatalf("body %q", body)
		}
		if st := s.Stats(); st.TimedOut < 1 {
			t.Fatalf("stats.TimedOut = %d", st.TimedOut)
		}
	})
}

func TestKeepAliveServesSequentialRequests(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		ws.Handle("/n", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
			return web.Response{Status: 200, Body: "n=" + req.Query["v"]}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)

		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(c)
		for i := 0; i < 3; i++ {
			if _, err := fmt.Fprintf(c, "GET /n?v=%d HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", i); err != nil {
				t.Fatal(err)
			}
			status, body, err := readResponse(r)
			if err != nil || !strings.Contains(status, "200") || body != fmt.Sprintf("n=%d", i) {
				t.Fatalf("request %d: (%q, %q, %v)", i, status, body, err)
			}
		}
		// One connection, three requests.
		if st := s.Stats(); st.Accepted != 1 {
			t.Fatalf("stats.Accepted = %d, want 1", st.Accepted)
		}
	})
}

func TestDebugStatsRoute(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		s, err := netsvc.Serve(th, ws, netsvc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)
		// The serving counters are the stats document's "serving" object.
		status, body, err := get(s.Addr().String(), "/debug/killsafe/stats")
		if err != nil || !strings.Contains(status, "200") {
			t.Fatalf("(%q, %v)", status, err)
		}
		for _, key := range []string{`"accepted"`, `"active"`, `"drained"`, `"killed"`, `"timed_out"`, `"rejected"`} {
			if !strings.Contains(body, key) {
				t.Fatalf("stats body %q missing %s", body, key)
			}
		}
		if serving := servingOf(t, body); serving.Accepted != 1 || !strings.HasPrefix(serving.Protocol, "http") {
			t.Fatalf("serving = %+v, want this one connection over http", serving)
		}
	})
}

// TestMaxConnsBackpressure: with a cap of 2 and both slots held by
// blocked sessions, a third connection is accepted by the pump but not
// served until a slot frees.
func TestMaxConnsBackpressure(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		gate := core.NewChan(rt)
		ws.Handle("/gate", func(x *core.Thread, _ *web.Session, _ *web.Request) web.Response {
			v, err := gate.Recv(x)
			if err != nil {
				return web.Response{Status: 500, Body: "gate error"}
			}
			return web.Response{Status: 200, Body: fmt.Sprintf("gated %v", v)}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{MaxConns: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)
		addr := s.Addr().String()

		results := make(chan error, 3)
		for i := 0; i < 3; i++ {
			go func() {
				status, _, err := get(addr, "/gate")
				if err == nil && !strings.Contains(status, "200") {
					err = fmt.Errorf("status %q", status)
				}
				results <- err
			}()
		}
		// Both slots fill; the third conn must stay unserved.
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Active < 2 && time.Now().Before(deadline) {
			if err := core.Sleep(th, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if err := core.Sleep(th, 30*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if a := s.Stats().Active; a != 2 {
			t.Fatalf("active = %d, want 2 (cap)", a)
		}
		// Release everyone; all three must complete.
		for i := 0; i < 3; i++ {
			if err := gate.Send(th, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := <-results; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestServerCustodianShutdownAbrupt: killing the server's custodian (the
// administrator's whole-server hammer) closes the listener and every
// conn; TerminateCondemned then reaps the suspended serving threads and
// no goroutines leak.
func TestServerCustodianShutdownAbrupt(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		g0 := runtime.NumGoroutine()
		ws := web.NewServer(th)
		ws.Handle("/spin", func(x *core.Thread, _ *web.Session, _ *web.Request) web.Response {
			_ = core.Sleep(x, time.Hour)
			return web.Response{Status: 200, Body: "never"}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Addr().String()
		clients := make(chan struct{}, 4)
		for i := 0; i < 4; i++ {
			go func() {
				_, _, _ = get(addr, "/spin") // will be cut off
				clients <- struct{}{}
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Active < 4 && time.Now().Before(deadline) {
			if err := core.Sleep(th, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		s.Custodian().Shutdown()
		for i := 0; i < 4; i++ {
			select {
			case <-clients:
			case <-time.After(10 * time.Second):
				t.Fatal("client connection not closed by custodian shutdown")
			}
		}
		rt.TerminateCondemned()
		waitGoroutines(t, g0, "after custodian shutdown + reap")
	})
}
