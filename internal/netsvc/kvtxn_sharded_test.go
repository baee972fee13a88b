package netsvc_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// reqMethod is get() for arbitrary HTTP methods.
func reqMethod(method, addr, target string) (status string, body string, err error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", "", err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c, "%s %s HTTP/1.0\r\n\r\n", method, target); err != nil {
		return "", "", err
	}
	return readResponse(bufio.NewReader(c))
}

// kvFleet serves the transactional store on shard 0 of a sharded fleet
// speaking protocol; every shard reaches it through the cross-runtime
// gateway. Each shard also mounts /chaos/kill, which terminates one other
// session of its own shard. The store is returned for audits, which run
// on shard 0's runtime.
func kvFleet(t *testing.T, shards int, protocol string) (*netsvc.ShardedServer, *kvtxn.Store) {
	t.Helper()
	gw := kvtxn.NewGateway()
	var store *kvtxn.Store
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: shards, Protocol: protocol}, func(th *core.Thread, shard int) *web.Server {
		ws := web.NewServer(th)
		if shard == 0 {
			// Ops submitted by other shards before this Bind queue up in
			// the gateway; no cross-setup synchronization is needed.
			store = kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4})
			gw.Bind(th, store)
		}
		kvtxn.Mount(ws, gw, "/kv")
		rt := th.Runtime()
		ws.Handle("/chaos/kill", func(_ *core.Thread, sess *web.Session, _ *web.Request) web.Response {
			for _, id := range ws.Sessions() {
				if id != sess.ID {
					ws.Terminate(id)
					rt.TerminateCondemned()
					return web.Response{Status: 200, Body: "killed\n"}
				}
			}
			return web.Response{Status: 200, Body: "none\n"}
		})
		return ws
	})
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	t.Cleanup(func() { _ = m.Shutdown(time.Second) })
	return m, store
}

// TestKVTxnSharded runs the transactional store under the sharded server:
// the store lives on shard 0's runtime; every shard's servlet reaches it
// through the cross-runtime gateway, so writes accepted by one shard are
// visible to reads served by another. The kill-storm subtests then check
// the store's kill-safety over the wire in both protocols.
func TestKVTxnSharded(t *testing.T) {
	m, _ := kvFleet(t, 3, "http")
	addr := m.Addr().String()

	// Connections round-robin across shards; issue enough that every
	// shard serves at least one.
	for i := 0; i < 6; i++ {
		status, _, err := reqMethod("PUT", addr, fmt.Sprintf("/kv?key=k%d&val=v%d", i, i))
		if err != nil || !strings.Contains(status, "200") {
			t.Fatalf("PUT k%d: %s %v", i, status, err)
		}
	}
	for i := 0; i < 6; i++ {
		status, body, err := reqMethod("GET", addr, fmt.Sprintf("/kv?key=k%d", i))
		if err != nil || !strings.Contains(status, "200") || body != fmt.Sprintf("v%d", i) {
			t.Fatalf("GET k%d: %s %q %v", i, status, body, err)
		}
	}

	// A multi-key transaction through the wire, across whichever shard
	// picks up the connection.
	status, body, err := reqMethod("GET", addr, "/kv/multi?ops=r:k0,w:sum:done,d:k1")
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("multi: %s %v", status, err)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if lines[0] != "COMMITTED" || lines[1] != "k0=v0" {
		t.Fatalf("multi body: %q", body)
	}
	if status, _, _ := reqMethod("GET", addr, "/kv?key=k1"); !strings.Contains(status, "404") {
		t.Fatalf("k1 survived wire DELETE: %s", status)
	}
	if _, body, _ := reqMethod("GET", addr, "/kv?key=sum"); body != "done" {
		t.Fatalf("sum = %q", body)
	}

	for _, protocol := range []string{"http", "resp"} {
		t.Run("kill-storm/"+protocol, func(t *testing.T) { kvKillStorm(t, protocol) })
	}
}

// kvKillStorm is the store's kill-safety oracle over the wire. Each
// plain-goroutine client owns one key pair, seeded 500/500, and commits
// transfers within it (MULTI/EXEC in RESP, /kv/multi in HTTP), so every
// transaction keeps the pair's sum at 1000; meanwhile a killer terminates
// sessions through /chaos/kill. After the storm the store must audit
// clean — no lock, waiter, prepare stash or registry entry left behind by
// a killed session — and every pair must still sum to 1000: a session
// killed mid-transaction committed both writes or neither.
func kvKillStorm(t *testing.T, protocol string) {
	const workers, kills = 8, 60
	m, store := kvFleet(t, 2, protocol)
	addr := m.Addr().String()

	transfer := func(w, a, b int) string {
		if protocol == "resp" {
			return fmt.Sprintf("MULTI\r\nSET p%d %d\r\nSET p%d %d\r\nEXEC\r\n", 2*w, a, 2*w+1, b)
		}
		return fmt.Sprintf("GET /kv/multi?ops=w:p%d:%d,w:p%d:%d HTTP/1.1\r\n\r\n", 2*w, a, 2*w+1, b)
	}
	// committed reads one transfer's replies; an error means the session
	// was cut mid-exchange.
	committed := func(r *bufio.Reader) (bool, error) {
		if protocol == "resp" {
			var last string
			for i := 0; i < 4; i++ {
				rep, err := readRESP(r)
				if err != nil {
					return false, err
				}
				last = rep
			}
			return strings.HasPrefix(last, "[+COMMITTED"), nil
		}
		status, body, err := readResponse(r)
		return strings.Contains(status, " 200") && strings.HasPrefix(body, "COMMITTED"), err
	}
	dial := func() (net.Conn, *bufio.Reader, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, nil, err
		}
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		return c, bufio.NewReader(c), nil
	}

	// Seed every pair before the storm.
	c, r, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		fmt.Fprint(c, transfer(w, 500, 500))
		if ok, err := committed(r); !ok || err != nil {
			t.Fatalf("seed pair %d: committed=%v err=%v", w, ok, err)
		}
	}
	c.Close()

	var stop atomic.Bool
	var commits atomic.Int64
	progress := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var c net.Conn
			var r *bufio.Reader
			for !stop.Load() {
				if c == nil {
					var err error
					if c, r, err = dial(); err != nil {
						continue
					}
				}
				d := rng.Intn(400)
				ok, err := false, error(nil)
				if _, err = fmt.Fprint(c, transfer(w, 500-d, 500+d)); err == nil {
					ok, err = committed(r)
				}
				if err != nil { // killed mid-exchange: redial
					c.Close()
					c = nil
					continue
				}
				if ok {
					commits.Add(1)
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
			if c != nil {
				c.Close()
			}
		}(w)
	}
	// Kill over the wire, letting transfers land between kills; a storm
	// that stops all progress is a wedge.
	for k := 0; k < kills; k++ {
		for i := 0; i < 2; i++ {
			select {
			case <-progress:
			case <-time.After(10 * time.Second):
				stop.Store(true)
				t.Fatalf("no transfer completed for 10s after %d kills: clients wedged", k)
			}
		}
		if c, r, err := dial(); err == nil {
			if protocol == "resp" {
				fmt.Fprint(c, "CALL /chaos/kill\r\n")
				_, _ = readRESP(r)
			} else {
				fmt.Fprint(c, "GET /chaos/kill HTTP/1.1\r\nConnection: close\r\n\r\n")
				_, _, _ = readResponse(r)
			}
			c.Close()
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiescence: every shard has reaped its sessions, then the store
	// audits clean once the transaction manager's death watch has
	// released what the killed sessions held.
	for i := 0; i < m.NumShards(); i++ {
		if err := m.Runtime(i).Run(func(th *core.Thread) {
			_, _ = core.Sync(th, m.Shard(i).IdleEvt())
		}); err != nil {
			t.Fatal(err)
		}
	}
	err = m.Runtime(0).Run(func(th *core.Thread) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			a, err := store.Audit(th)
			if err != nil {
				t.Errorf("audit: %v", err)
				return
			}
			if a == (kvtxn.Integrity{}) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("store never audited clean after the storm: %+v", a)
				return
			}
		}
		for w := 0; w < workers; w++ {
			sum := 0
			for _, k := range []int{2 * w, 2*w + 1} {
				v, found, err := store.Get(th, fmt.Sprintf("p%d", k))
				n, _ := strconv.Atoi(v)
				if err != nil || !found {
					t.Errorf("p%d after storm: found=%v err=%v", k, found, err)
				}
				sum += n
			}
			if sum != 1000 {
				t.Errorf("pair %d sums to %d, want 1000: a killed session half-committed", w, sum)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Killed == 0 || commits.Load() == 0 {
		t.Fatalf("storm did not exercise the store: killed=%d commits=%d", st.Killed, commits.Load())
	}
	t.Logf("%s: %d commits, %d sessions killed", protocol, commits.Load(), st.Killed)
}
