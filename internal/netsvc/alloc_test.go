package netsvc_test

import (
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// requestAllocBudget is what one keep-alive GET /ping may cost in heap
// allocations, counted process-wide: the HTTP codec's head copy and
// frame, and the servlet request with its query map. netsvc's own
// plumbing — the read hand-off, the idle timeout, the response write —
// allocates nothing. Before the plumbing and the head parse stopped
// allocating, a request cost 15.
const requestAllocBudget = 4

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestKeepAliveRequestAllocs is the request-path allocation fence: a
// client that allocates nothing itself (a fixed request, a fixed-size
// read) drives sequential keep-alive requests, and the process-wide
// malloc count per request must stay within requestAllocBudget.
func TestKeepAliveRequestAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates on its own")
	}
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		ws.Handle("/ping", func(*core.Thread, *web.Session, *web.Request) web.Response {
			return web.Response{Status: 200, Body: "pong"}
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
		_ = c.SetDeadline(time.Now().Add(30 * time.Second))
		req := []byte("GET /ping HTTP/1.1\r\nHost: t\r\n\r\n")
		const resp = "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: keep-alive\r\n\r\npong"
		got := make([]byte, len(resp))
		ping := func() {
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != resp {
				t.Fatalf("response %q", got)
			}
		}
		// Warm up: pools filled, buffers grown, the idle timer created.
		for i := 0; i < 200; i++ {
			ping()
		}
		const n = 2000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			ping()
		}
		runtime.ReadMemStats(&m1)
		per := float64(m1.Mallocs-m0.Mallocs) / n
		t.Logf("%.2f allocations per keep-alive request", per)
		if per > requestAllocBudget+0.5 {
			t.Errorf("%.2f allocations per keep-alive request, budget %d", per, requestAllocBudget)
		}
	})
}
