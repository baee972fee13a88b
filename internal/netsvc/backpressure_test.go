package netsvc_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// A response is written inline while the socket has room; the write pump
// only ever runs when it has none. These tests make a client stop
// reading so the pump has to run, and check what it puts on the wire.

const (
	bigFrames   = 32        // pipelined requests, far more than the socket buffers hold
	bigBodySize = 256 << 10 // bytes per response body
)

// bigBody is response i's body: its index, then filler that differs from
// its neighbours', so a frame out of place or cut short shows.
func bigBody(i int) []byte {
	b := bytes.Repeat([]byte{'a' + byte(i%26)}, bigBodySize)
	copy(b, fmt.Sprintf("frame %d\n", i))
	return b
}

// bigFrame is the whole response frame for request i.
func bigFrame(i int) []byte {
	head := "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(bigBodySize) +
		"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: keep-alive\r\n\r\n"
	return append([]byte(head), bigBody(i)...)
}

// stallWritePump serves /big, opens a keep-alive connection, pipelines
// bigFrames requests for large responses and reads none of them. It
// returns once the session has gained its write pump goroutine — the
// socket is full and the rest of a batch is with the pump.
func stallWritePump(t *testing.T, th *core.Thread) (*netsvc.Server, net.Conn) {
	t.Helper()
	ws := web.NewServer(th)
	ws.Handle("/hello", func(*core.Thread, *web.Session, *web.Request) web.Response {
		return web.Response{Status: 200, Body: "hello"}
	})
	ws.Handle("/big", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
		i, _ := strconv.Atoi(req.Query["i"])
		return web.Response{Status: 200, BodyBytes: bigBody(i)}
	})
	s, err := netsvc.Serve(th, ws, netsvc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, r := dialKeepAlive(t, s.Addr().String(), "/hello", true)
	if r.Buffered() != 0 {
		t.Fatalf("%d stray bytes after the first response", r.Buffered())
	}
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	// The small response went out inline, with no write pump (a previous
	// test's may still be on its way out).
	pollUntil(t, "no write pump", func() bool { return writePumps() == 0 })
	var pipeline strings.Builder
	for i := 0; i < bigFrames; i++ {
		fmt.Fprintf(&pipeline, "GET /big?i=%d HTTP/1.1\r\nHost: t\r\n\r\n", i)
	}
	if _, err := c.Write([]byte(pipeline.String())); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "the write pump goroutine", func() bool { return writePumps() == 1 })
	return s, c
}

// writePumps counts the goroutines running a connection's write pump.
func writePumps() int {
	buf := make([]byte, 1<<20)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf)) // the dump was cut short
	}
	return bytes.Count(buf, []byte("netsvc.(*connWriter).startPump.func1("))
}

// TestBackpressureWritePump: a client that stops reading makes the
// connection start its write pump; once it reads again, every response
// arrives whole and in order.
func TestBackpressureWritePump(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		s, c := stallWritePump(t, th)
		defer s.Shutdown(th, time.Second)
		defer c.Close()
		r := bufio.NewReaderSize(c, 64<<10)
		for i := 0; i < bigFrames; i++ {
			status, body, err := readResponse(r)
			if err != nil || !strings.Contains(status, "200") {
				t.Fatalf("response %d: %q / %v", i, status, err)
			}
			if body != string(bigBody(i)) {
				t.Fatalf("response %d: body starts %q, want %q", i, body[:min(len(body), 16)], bigBody(i)[:16])
			}
		}
		// Still a working keep-alive connection.
		if _, err := fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		if status, body, err := readResponse(r); err != nil || !strings.Contains(status, "200") || body != "hello" {
			t.Fatalf("after the stall: %q / %q / %v", status, body, err)
		}
	})
}

// TestBackpressureKillNoTornFrame kills the session while its socket is
// stalled and the pump holds the rest of a batch. The kill lands at the
// session's safe point and the fd closes under the pump, so what the
// client reads is a prefix of the in-order response stream and then EOF:
// whole frames, of which only the last can be cut short — by the close,
// inside a write(2) of bytes the server had handed over whole — and no
// byte of any other frame after it.
func TestBackpressureKillNoTornFrame(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		s, c := stallWritePump(t, th)
		defer s.Shutdown(th, time.Second)
		defer c.Close()
		ths := s.SessionThreads()
		if len(ths) != 1 {
			t.Fatalf("%d session threads, want 1", len(ths))
		}
		ths[0].Kill()
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("read after the kill: %v (after %d bytes)", err, len(got))
		}
		var want []byte
		for i := 0; i < bigFrames && len(want) < len(got); i++ {
			want = append(want, bigFrame(i)...)
		}
		if len(got) > len(want) {
			t.Fatalf("%d bytes after the kill, more than all %d frames (%d bytes)", len(got), bigFrames, len(want))
		}
		if !bytes.Equal(got, want[:len(got)]) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("byte %d of %d differs from the in-order response stream", i, len(got))
		}
		whole := len(got) / len(bigFrame(0))
		if whole == bigFrames {
			t.Fatalf("every response arrived: the session was not stalled when killed")
		}
		t.Logf("%d whole frames and %d bytes of the next before EOF", whole, len(got)%len(bigFrame(0)))
		awaitIdle(t, th, s)
		if st := s.Stats(); st.Killed != 1 {
			t.Fatalf("killed %d, want 1", st.Killed)
		}
	})
}
