package netsvc_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// shardSetup builds a per-shard servlet server with a fast route and a
// slow (long-held) route, as ServeSharded's setup callback.
func shardSetup(th *core.Thread, shard int) *web.Server {
	ws := web.NewServer(th)
	ws.Handle("/ping", func(_ *core.Thread, _ *web.Session, _ *web.Request) web.Response {
		return web.Response{Status: 200, Body: fmt.Sprintf("pong from shard %d\n", shard)}
	})
	ws.Handle("/slow", func(x *core.Thread, s *web.Session, _ *web.Request) web.Response {
		if err := core.Sleep(x, 30*time.Second); err != nil {
			return web.Response{Status: 500, Body: "interrupted\n"}
		}
		return web.Response{Status: 200, Body: "done\n"}
	})
	return ws
}

// dialSlow opens a connection and fires a /slow request without waiting
// for the response, returning the conn.
func dialSlow(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = c.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := fmt.Fprintf(c, "GET /slow HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	return c
}

// shardStats reads every shard engine's own counters.
func shardStats(m *netsvc.ShardedServer) []netsvc.StatsSnapshot {
	out := make([]netsvc.StatsSnapshot, m.NumShards())
	for i := range out {
		out[i] = m.Shard(i).Stats()
	}
	return out
}

// waitShardActive polls until every shard serves at least want sessions.
func waitShardActive(t *testing.T, m *netsvc.ShardedServer, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, s := range shardStats(m) {
			if s.Active < want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("shards never reached %d active sessions each: %+v", want, shardStats(m))
}

// waitTotalActive polls until the fleet serves want sessions in total.
func waitTotalActive(t *testing.T, m *netsvc.ShardedServer, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var total int64
		for _, s := range shardStats(m) {
			total += s.Active
		}
		if total == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d active sessions: %+v", want, shardStats(m))
}

func TestServeShardedBasic(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	if m.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", m.NumShards())
	}
	addr := m.Addr().String()
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		status, body, err := get(addr, "/ping")
		if err != nil || !strings.Contains(status, "200") {
			t.Fatalf("get /ping: %q %v", status, err)
		}
		seen[strings.TrimSpace(body)] = true
	}
	// Round-robin assignment must have exercised both servlet instances.
	if len(seen) != 2 {
		t.Fatalf("8 requests reached %d distinct shards, want 2: %v", len(seen), seen)
	}
	// The stats document's serving object is the fleet aggregate,
	// answered by any shard.
	_, body, err := get(addr, "/debug/killsafe/stats")
	if err != nil {
		t.Fatalf("get /debug/killsafe/stats: %v", err)
	}
	if serving := servingOf(t, body); serving.Accepted != 9 {
		t.Fatalf("aggregate stats should count all 9 conns across shards, got %+v", serving)
	}
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := m.Shutdown(time.Second); err != netsvc.ErrServerDown {
		t.Fatalf("second Shutdown = %v, want ErrServerDown", err)
	}
	waitGoroutines(t, base, "after sharded shutdown")
}

func TestServeRejectsShardsConfig(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		if _, err := netsvc.Serve(th, ws, netsvc.Config{Shards: 4}); err == nil {
			t.Fatal("Serve accepted Shards=4; want an error pointing at ServeSharded")
		} else if !strings.Contains(err.Error(), "ServeSharded") {
			t.Fatalf("Serve error %q should point at ServeSharded", err)
		}
	})
}

// TestShardChaosIsolation is the kill-storm independence test: with a
// 4-shard fleet under load, an administrator repeatedly terminating every
// session on shard 0 never perturbs shard 3 — its sessions stay live and
// its killed counter stays zero. Isolation is by construction (disjoint
// runtimes and custodian trees), and this pins it.
func TestShardChaosIsolation(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 4}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()

	conns := make([]net.Conn, 0, 16)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < 16; i++ {
		conns = append(conns, dialSlow(t, addr))
	}
	waitShardActive(t, m, 1)
	// Every dialed conn must be assigned before the pre-storm snapshot: a
	// straggler landing on shard 3 mid-storm would read as cross-shard
	// perturbation when it is really just late accept-pump delivery.
	waitTotalActive(t, m, int64(len(conns)))
	before := shardStats(m)

	// The storm: five rounds of "terminate every session on shard 0".
	// Each Terminate shuts the session's custodian down from plain Go —
	// the administrator thread of the paper's scenario — and
	// TerminateCondemned reaps the unwound threads.
	storms := 0
	for round := 0; round < 5; round++ {
		for _, id := range m.Web(0).Sessions() {
			m.Web(0).Terminate(id)
			storms++
		}
		m.Runtime(0).TerminateCondemned()
		time.Sleep(5 * time.Millisecond)
	}
	if storms == 0 {
		t.Fatal("kill storm found no sessions on shard 0; load was not spread")
	}

	// Shard 0 took the hits...
	deadline := time.Now().Add(10 * time.Second)
	for m.Shard(0).Stats().Killed < int64(before[0].Active) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	s0 := m.Shard(0).Stats()
	if s0.Killed == 0 {
		t.Fatalf("shard 0 killed = 0 after storm; stats %+v", s0)
	}
	// ...and shard 3 never noticed: same live sessions, nothing killed.
	s3 := m.Shard(3).Stats()
	if s3.Killed != 0 {
		t.Fatalf("shard 3 killed = %d, want 0 (cross-shard perturbation)", s3.Killed)
	}
	if s3.Active != before[3].Active {
		t.Fatalf("shard 3 active %d -> %d across shard-0 storm", before[3].Active, s3.Active)
	}
	// The fleet still serves.
	if status, _, err := get(addr, "/ping"); err != nil || !strings.Contains(status, "200") {
		t.Fatalf("fleet dead after shard-0 storm: %q %v", status, err)
	}

	if err := m.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	conns = nil
	waitGoroutines(t, base, "after chaos shutdown")
}

// TestShardedShutdownUnderLoad pins the drain contract: with slow
// sessions live on every shard, Shutdown's grace window runs on all
// shards concurrently — the whole fleet is down in ~one grace period,
// stragglers killed, nothing leaked.
func TestShardedShutdownUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 4}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()
	conns := make([]net.Conn, 0, 8)
	for i := 0; i < 8; i++ {
		conns = append(conns, dialSlow(t, addr))
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	waitShardActive(t, m, 1)

	const grace = 200 * time.Millisecond
	start := time.Now()
	if err := m.Shutdown(grace); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// /slow holds sessions for 30s; well-under-30s completion proves the
	// grace deadline cut them off, and a loose multiple of grace proves
	// the shards drained concurrently, not in sequence.
	if d := time.Since(start); d > 10*grace+2*time.Second {
		t.Fatalf("sharded drain took %v; shards did not drain concurrently under grace %v", d, grace)
	}
	st := m.Stats()
	if st.Active != 0 {
		t.Fatalf("active = %d after shutdown, want 0 (stats %+v)", st.Active, st)
	}
	if st.Killed == 0 {
		t.Fatal("no sessions were killed; /slow sessions should have outlived the grace window")
	}
	waitGoroutines(t, base, "after shutdown under load")
}
