package netsvc_test

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// readRESP reads one RESP reply off r: simple lines verbatim, bulk
// strings as their contents ("(nil)" for null bulk), arrays bracketed.
func readRESP(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return "", fmt.Errorf("empty reply line")
	}
	switch line[0] {
	case '+', '-', ':':
		return line, nil
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return "", err
		}
		if n < 0 {
			return "(nil)", nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf[:n]), nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return "", err
		}
		parts := make([]string, n)
		for i := range parts {
			if parts[i], err = readRESP(r); err != nil {
				return "", err
			}
		}
		return "[" + strings.Join(parts, " ") + "]", nil
	}
	return "", fmt.Errorf("bad reply line %q", line)
}

// TestHTTP11PipelinedKeepAlive: an HTTP/1.1 client pipelines a burst of
// requests down one persistent connection; every response comes back in
// order, on the same connection, with the request's version echoed.
func TestHTTP11PipelinedKeepAlive(t *testing.T) {
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

		const burst = 16
		var pipeline strings.Builder
		for i := 0; i < burst; i++ {
			fmt.Fprintf(&pipeline, "GET /n?v=%d HTTP/1.1\r\n\r\n", i)
		}
		if _, err := c.Write([]byte(pipeline.String())); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(c)
		for i := 0; i < burst; i++ {
			status, body, err := readResponse(r)
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			if !strings.HasPrefix(status, "HTTP/1.1 200") || body != fmt.Sprintf("n=%d", i) {
				t.Fatalf("response %d: (%q, %q)", i, status, body)
			}
		}
		st := s.Stats()
		if st.Accepted != 1 {
			t.Errorf("Accepted = %d, want 1 (one pipelined conn)", st.Accepted)
		}
		if st.Protocol != "http/1.1" {
			t.Errorf("Protocol = %q", st.Protocol)
		}
		if st.Requests < burst || st.Responses < burst {
			t.Errorf("Requests/Responses = %d/%d, want >= %d", st.Requests, st.Responses, burst)
		}
		// The burst outruns a socket round-trip per response, so at least
		// one batch must have coalesced more than one response.
		if st.PipelineHWM < 1 {
			t.Errorf("PipelineHWM = %d, want >= 1", st.PipelineHWM)
		}
	})
}

// TestRESPEndToEnd drives the transactional KV store through the RESP
// front end on a standalone server: plain commands, a MULTI/EXEC
// transaction, STATS, and the serving layer's own routes via CALL.
func TestRESPEndToEnd(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		kvtxn.Mount(ws, kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4}), "/kv")
		s, err := netsvc.Serve(th, ws, netsvc.Config{Protocol: "resp"})
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
		send := func(cmd string) string {
			t.Helper()
			if _, err := fmt.Fprintf(c, "%s\r\n", cmd); err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
			reply, err := readRESP(r)
			if err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
			return reply
		}

		steps := []struct{ cmd, want string }{
			{"PING", "+PONG"},
			{"SET a 1", "+OK"},
			{"GET a", "1"},
			{"GET missing", "(nil)"},
			{"MULTI", "+OK"},
			{"SET b 2", "+QUEUED"},
			{"GET a", "+QUEUED"},
			{"EXEC", "[+COMMITTED 1]"},
			{"GET b", "2"},
			{"DEL a", ":1"},
			{"GET a", "(nil)"},
		}
		for _, tc := range steps {
			if got := send(tc.cmd); got != tc.want {
				t.Fatalf("%s: got %q, want %q", tc.cmd, got, tc.want)
			}
		}
		// Multi-bulk framing of the same commands.
		if _, err := c.Write([]byte("*3\r\n$3\r\nSET\r\n$1\r\nc\r\n$7\r\nwith sp\r\n")); err != nil {
			t.Fatal(err)
		}
		if reply, err := readRESP(r); err != nil || reply != "+OK" {
			t.Fatalf("multi-bulk SET: %q %v", reply, err)
		}
		if got := send("GET c"); got != "with sp" {
			t.Fatalf("GET c: %q", got)
		}
		// STATS reaches the store's counters; CALL reaches any route.
		if got := send("STATS"); !strings.Contains(got, `"commits"`) {
			t.Fatalf("STATS: %q", got)
		}
		if got := send("CALL /debug/killsafe/stats"); !strings.Contains(got, `"protocol": "resp"`) {
			t.Fatalf("CALL /debug/killsafe/stats: %q", got)
		}
		// QUIT answers +OK and closes.
		if got := send("QUIT"); got != "+OK" {
			t.Fatalf("QUIT: %q", got)
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("after QUIT: %v, want EOF", err)
		}
	})
}

// TestRESPSharded runs the RESP front end over ServeSharded: every shard
// speaks RESP, the store lives on shard 0, and transactions from
// connections landing on any shard commit through the gateway.
func TestRESPSharded(t *testing.T) {
	gw := kvtxn.NewGateway()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2, Protocol: "resp"},
		func(th *core.Thread, shard int) *web.Server {
			ws := web.NewServer(th)
			if shard == 0 {
				gw.Bind(th, kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4}))
			}
			kvtxn.Mount(ws, gw, "/kv")
			return ws
		})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(time.Second)

	// Several connections, so both shards serve some.
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", m.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(c)
		fmt.Fprintf(c, "MULTI\r\nSET k%d v%d\r\nEXEC\r\nGET k%d\r\n", i, i, i)
		replies := make([]string, 4)
		for j := range replies {
			if replies[j], err = readRESP(r); err != nil {
				t.Fatalf("conn %d reply %d: %v", i, j, err)
			}
		}
		want := []string{"+OK", "+QUEUED", "[+COMMITTED]", fmt.Sprintf("v%d", i)}
		for j := range want {
			if replies[j] != want[j] {
				t.Fatalf("conn %d: replies %v, want %v", i, replies, want)
			}
		}
		_ = c.Close()
	}
	if st := m.Stats(); st.Protocol != "resp" || st.Requests < 16 {
		t.Errorf("fleet stats: %+v", st)
	}
}

// killMidPipeline is the strict no-torn-frame scenario for one protocol:
// a client pipelines requests with a blocker at position blockAt, waits
// until every response ahead of the blocker has arrived (the write pump
// is then idle), and the administrator kills the session. The wire must
// carry exactly the whole responses that were flushed and then EOF —
// not one byte of a torn frame.
func killMidPipeline(t *testing.T, protocol string) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		var blockedSlot atomic.Pointer[core.External]
		ws := web.NewServer(th)
		ws.Handle("/hello", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
			return web.Response{Status: 200, Body: "hello " + req.Query["i"]}
		})
		ws.Handle("/block", func(x *core.Thread, sess *web.Session, _ *web.Request) web.Response {
			blockedSlot.Load().Complete(sess.ID)
			_ = core.Sleep(x, time.Hour) // parked until killed
			return web.Response{Status: 200, Body: "late"}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{Protocol: protocol})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(th, time.Second)
		addr := s.Addr().String()

		const depth = 6
		for blockAt := 0; blockAt < 4; blockAt++ {
			blocked := core.NewExternal(rt)
			blockedSlot.Store(blocked)

			var pipeline strings.Builder
			for i := 0; i < depth; i++ {
				target := fmt.Sprintf("/hello?i=%d", i)
				if i == blockAt {
					target = "/block"
				}
				if protocol == "resp" {
					fmt.Fprintf(&pipeline, "CALL %s\r\n", target)
				} else {
					fmt.Fprintf(&pipeline, "GET %s HTTP/1.1\r\n\r\n", target)
				}
			}

			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write([]byte(pipeline.String())); err != nil {
				t.Fatal(err)
			}

			// The client drains the responses ahead of the blocker, then
			// reports how many extra bytes follow before EOF.
			type tail struct {
				extra int
				err   error
			}
			done := make(chan tail, 1)
			gotPrefix := make(chan struct{})
			go func() {
				r := bufio.NewReader(c)
				for i := 0; i < blockAt; i++ {
					if protocol == "resp" {
						body, err := readRESP(r)
						if err != nil || body != fmt.Sprintf("hello %d", i) {
							done <- tail{err: fmt.Errorf("reply %d: %q %v", i, body, err)}
							return
						}
					} else {
						status, body, err := readResponse(r)
						if err != nil || !strings.Contains(status, "200") || body != fmt.Sprintf("hello %d", i) {
							done <- tail{err: fmt.Errorf("response %d: (%q, %q, %v)", i, status, body, err)}
							return
						}
					}
				}
				close(gotPrefix)
				rest, err := io.ReadAll(r)
				if err != nil {
					done <- tail{err: err}
					return
				}
				done <- tail{extra: len(rest)}
			}()

			// Kill only once the blocker's handler is parked AND the client
			// has confirmed receipt of every response ahead of it: nothing
			// is then in flight, so the extra-byte count is exact.
			v, err := core.Sync(th, blocked.Evt())
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-gotPrefix:
			case res := <-done:
				t.Fatalf("%s blockAt=%d: prefix: %v", protocol, blockAt, res.err)
			}
			ws.Terminate(v.(int))
			rt.TerminateCondemned()

			res := <-done
			if res.err != nil {
				t.Fatalf("%s blockAt=%d: %v", protocol, blockAt, res.err)
			}
			if res.extra != 0 {
				t.Fatalf("%s blockAt=%d: %d torn bytes after %d whole responses",
					protocol, blockAt, res.extra, blockAt)
			}
			_ = c.Close()
		}
	})
}

func TestKillMidPipelineNoTornFrameHTTP(t *testing.T) { killMidPipeline(t, "http") }
func TestKillMidPipelineNoTornFrameRESP(t *testing.T) { killMidPipeline(t, "resp") }

// TestChaosKillMidPipeline randomizes the strict scenario: random
// pipeline depths, random blocker positions, kills issued without
// waiting for the client to drain. The received byte stream must always
// be a prefix of whole, in-order responses — a complete response for
// request i must say "hello i" — with any torn bytes confined to the
// very tail (the fd can close mid-write; nothing may follow).
func TestChaosKillMidPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for _, protocol := range []string{"http", "resp"} {
		withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
			var blockedSlot atomic.Pointer[core.External]
			ws := web.NewServer(th)
			ws.Handle("/hello", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
				return web.Response{Status: 200, Body: "hello " + req.Query["i"]}
			})
			ws.Handle("/block", func(x *core.Thread, sess *web.Session, _ *web.Request) web.Response {
				blockedSlot.Load().Complete(sess.ID)
				_ = core.Sleep(x, time.Hour)
				return web.Response{Status: 200, Body: "late"}
			})
			s, err := netsvc.Serve(th, ws, netsvc.Config{Protocol: protocol})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(th, time.Second)
			addr := s.Addr().String()

			for round := 0; round < 8; round++ {
				depth := 2 + rng.Intn(8)
				blockAt := rng.Intn(depth)
				blocked := core.NewExternal(rt)
				blockedSlot.Store(blocked)

				var pipeline strings.Builder
				for i := 0; i < depth; i++ {
					target := fmt.Sprintf("/hello?i=%d", i)
					if i == blockAt {
						target = "/block"
					}
					if protocol == "resp" {
						fmt.Fprintf(&pipeline, "CALL %s\r\n", target)
					} else {
						fmt.Fprintf(&pipeline, "GET %s HTTP/1.1\r\n\r\n", target)
					}
				}

				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				_ = c.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := c.Write([]byte(pipeline.String())); err != nil {
					t.Fatal(err)
				}
				received := make(chan []byte, 1)
				go func() {
					all, _ := io.ReadAll(c)
					received <- all
				}()

				// Kill as soon as the blocker is parked — flushed bytes may
				// still be in flight, so the client may see any prefix.
				v, err := core.Sync(th, blocked.Evt())
				if err != nil {
					t.Fatal(err)
				}
				ws.Terminate(v.(int))
				rt.TerminateCondemned()

				all := <-received
				_ = c.Close()
				// Greedy-parse whole responses off the front; each must be
				// correct and in order. Whatever remains is tail truncation,
				// which is legal — but it must not hide a complete frame
				// (greedy parsing guarantees that by construction).
				r := bufio.NewReader(strings.NewReader(string(all)))
				for i := 0; ; i++ {
					if i > blockAt {
						t.Fatalf("%s round %d: response beyond the blocker (depth=%d blockAt=%d)",
							protocol, round, depth, blockAt)
					}
					var body string
					var err error
					if protocol == "resp" {
						body, err = readRESP(r)
					} else {
						_, body, err = readResponse(r)
					}
					if err != nil {
						break // incomplete tail (or clean EOF): stop parsing
					}
					if body != fmt.Sprintf("hello %d", i) {
						t.Fatalf("%s round %d: response %d reads %q (depth=%d blockAt=%d)",
							protocol, round, i, body, depth, blockAt)
					}
				}
			}
		})
	}
}
