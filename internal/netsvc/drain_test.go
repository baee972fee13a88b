package netsvc_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// rawGet issues one HTTP/1.0 request on a fresh conn and returns the
// full raw response (the server closes the conn after answering).
func rawGet(addr, target string) (string, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.0\r\n\r\n", target); err != nil {
		return "", err
	}
	raw, err := io.ReadAll(c)
	return string(raw), err
}

// Adaptive admission end to end: a storm of slow requests on a one-slot
// server pushes queue sojourn past the target; normal traffic gets paced
// 503s with Retry-After, bulk is shed outright, and admin requests ride
// through the whole storm unshedded — the priority fences of an overload
// far beyond capacity: zero admin 503s, bulk shedding engaged.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		ws := web.NewServer(th)
		ws.Handle("/work", func(x *core.Thread, _ *web.Session, _ *web.Request) web.Response {
			_ = core.Sleep(x, 10*time.Millisecond)
			return web.Response{Status: 200, Body: "done\n"}
		})
		s, err := netsvc.Serve(th, ws, netsvc.Config{
			MaxConns:      1,
			MaxPending:    -1, // unlimited queue: admission, not the cliff, must shed
			AdmitTarget:   time.Millisecond,
			AdmitInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Addr().String()

		var ok200, shed503, bulk503, other atomic.Int64
		var sawRetryAfter atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 20; w++ {
			target := "/work"
			if w%2 == 1 {
				target = "/work?class=bulk"
			}
			wg.Add(1)
			go func(target string) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					raw, err := rawGet(addr, target)
					switch {
					case err != nil:
						other.Add(1)
					case strings.HasPrefix(raw, "HTTP/1.1 200") || strings.HasPrefix(raw, "HTTP/1.0 200"):
						ok200.Add(1)
					case strings.Contains(raw, " 503 "):
						shed503.Add(1)
						if strings.HasSuffix(target, "bulk") {
							bulk503.Add(1)
						}
						if strings.Contains(raw, "Retry-After:") {
							sawRetryAfter.Store(true)
						}
					default:
						other.Add(1)
					}
				}
			}(target)
		}

		// Admin requests issued throughout the storm must never be shed:
		// they queue like everyone else but admission always admits the
		// class.
		stormDone := make(chan struct{})
		adminDone := make(chan error, 1)
		var admins int
		go func() {
			for admins = 0; ; admins++ {
				select {
				case <-stormDone:
					if admins >= 5 {
						adminDone <- nil
						return
					}
				default:
				}
				raw, err := rawGet(addr, "/debug/killsafe/stats")
				if err != nil {
					adminDone <- fmt.Errorf("admin get %d: %v", admins, err)
					return
				}
				if !strings.Contains(raw, " 200 ") && !strings.Contains(raw, " 200\r\n") {
					adminDone <- fmt.Errorf("admin get %d not 200: %.80q", admins, raw)
					return
				}
			}
		}()

		wg.Wait()
		close(stormDone)
		if err := <-adminDone; err != nil {
			t.Fatal(err)
		}

		stats := s.Stats()
		if stats.AdmShed == 0 {
			t.Fatalf("admission never shed under a 20-worker storm: %+v", stats)
		}
		if stats.AdmShedBulk == 0 || bulk503.Load() == 0 {
			t.Fatalf("no bulk request was shed (clients saw %d): %+v", bulk503.Load(), stats)
		}
		if shed503.Load() == 0 || !sawRetryAfter.Load() {
			t.Fatalf("clients saw %d shed responses (retry-after seen: %v), want >0 with Retry-After",
				shed503.Load(), sawRetryAfter.Load())
		}
		if ok200.Load() == 0 {
			t.Fatal("no request succeeded: admission shed everything")
		}
		if stats.ReqAdmin < int64(admins) {
			t.Fatalf("admin class count = %d, want >= %d", stats.ReqAdmin, admins)
		}
		if err := s.Shutdown(th, time.Second); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// DrainShard under live traffic, every shard in turn — a rolling restart
// nobody may notice. Keep-alive clients and fresh-connection clients load
// the fleet while each shard's runtime is replaced. Oracles: every drain
// returns nil and replaces the runtime, no session is killed, every
// response frame is whole and correct, a fresh connection's request never
// fails, a keep-alive connection ends only on a frame boundary — a
// clean close, or a whole 503 with Connection: close — after which the
// client redials, and no fleet counter ever goes backwards.
func TestDrainShardUnderLoad(t *testing.T) {
	const shards = 2
	base := runtime.NumGoroutine()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: shards}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()

	stop := make(chan struct{})
	progress := make(chan struct{}, 1)
	var served, refused, loadErrs atomic.Int64
	var firstErr atomic.Value
	fail := func(format string, args ...any) {
		loadErrs.Add(1)
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	ok := func(status, body string) bool {
		var shard int
		_, err := fmt.Sscanf(body, "pong from shard %d\n", &shard)
		return strings.Contains(status, " 200 ") && err == nil && body == fmt.Sprintf("pong from shard %d\n", shard)
	}
	tick := func() {
		served.Add(1)
		select {
		case progress <- struct{}{}:
		default:
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(keepAlive bool) {
			defer wg.Done()
			var c net.Conn
			var r *bufio.Reader
			for {
				select {
				case <-stop:
					if c != nil {
						c.Close()
					}
					return
				default:
				}
				if !keepAlive {
					if status, body, err := get(addr, "/ping"); err != nil || !ok(status, body) {
						fail("fresh connection: %q %q %v", status, body, err)
					} else {
						tick()
					}
					continue
				}
				if c == nil {
					var err error
					if c, err = net.Dial("tcp", addr); err != nil {
						fail("dial: %v", err)
						continue
					}
					_ = c.SetDeadline(time.Now().Add(10 * time.Second))
					r = bufio.NewReader(c)
				}
				_, _ = fmt.Fprint(c, "GET /ping HTTP/1.1\r\n\r\n")
				status, body, err := "", "", error(nil)
				if _, err = r.Peek(1); err == nil {
					status, body, err = readResponse(r)
				} else {
					status = "closed" // clean close on a frame boundary
				}
				switch {
				case status == "closed", strings.Contains(status, " 503 ") && err == nil:
					if status != "closed" {
						refused.Add(1)
					}
					c.Close()
					c = nil
				case err != nil || !ok(status, body):
					fail("keep-alive: torn or wrong frame %q %q %v", status, body, err)
					c.Close()
					c = nil
				default:
					tick()
				}
			}
		}(w%3 != 0)
	}
	// The books reader: Stats and the admin document are sampled all
	// through the drains, and served work never leaves the books — a
	// draining engine counts live until its fold — so no counter may
	// read lower than it did the sample before.
	var backwards atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		var last, lastDoc netsvc.StatsSnapshot
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			st := m.Stats()
			_, body, _ := m.Shard(0).Admin("/debug/killsafe/stats", nil)
			var doc struct {
				Serving netsvc.StatsSnapshot `json:"serving"`
			}
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				backwards.CompareAndSwap(nil, fmt.Sprintf("stats document: %v", err))
				return
			}
			if st.Accepted < last.Accepted || st.Requests < last.Requests || doc.Serving.Requests < lastDoc.Requests {
				backwards.CompareAndSwap(nil, fmt.Sprintf(
					"Stats accepted %d -> %d, requests %d -> %d; document requests %d -> %d",
					last.Accepted, st.Accepted, last.Requests, st.Requests, lastDoc.Requests, doc.Serving.Requests))
			}
			last, lastDoc = st, doc.Serving
		}
	}()
	awaitProgress := func(n int) {
		for i := 0; i < n; i++ {
			select {
			case <-progress:
			case <-time.After(10 * time.Second):
				close(stop)
				t.Fatalf("fleet stopped serving (served %d)", served.Load())
			}
		}
	}
	for i := 0; i < shards; i++ {
		awaitProgress(20)
		rt := m.Runtime(i)
		if err := m.DrainShard(i, 2*time.Second); err != nil {
			t.Fatalf("DrainShard(%d): %v", i, err)
		}
		if m.Runtime(i) == rt {
			t.Fatalf("DrainShard(%d) did not replace the shard's runtime", i)
		}
	}
	awaitProgress(20) // the replacement engines serve
	close(stop)
	wg.Wait()

	stats := m.Stats()
	if b := backwards.Load(); b != nil {
		t.Fatalf("fleet books went backwards during a drain: %v", b)
	}
	if n := loadErrs.Load(); n != 0 {
		t.Fatalf("%d requests failed across the drains, first: %v (stats %+v)", n, firstErr.Load(), stats)
	}
	if stats.ShardsDrained != shards {
		t.Fatalf("ShardsDrained = %d, want %d", stats.ShardsDrained, shards)
	}
	if stats.Killed != 0 {
		t.Fatalf("drains killed %d sessions, want 0", stats.Killed)
	}
	// Served-work accounting survived the handoffs: the folded totals
	// include everything the retired engines served.
	if stats.Responses < served.Load() {
		t.Fatalf("aggregate responses %d < client-observed %d: retired counters lost",
			stats.Responses, served.Load())
	}
	t.Logf("served %d, keep-alive requests refused by a draining shard %d", served.Load(), refused.Load())
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitGoroutines(t, base, "after drains + shutdown")
}

// Repeated drains of the same shard: each replaces the previous
// replacement and the fleet aggregate counts every cycle.
func TestDrainShardRepeated(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()
	for i := 0; i < 3; i++ {
		if _, _, err := get(addr, "/ping"); err != nil {
			t.Fatalf("get before drain %d: %v", i, err)
		}
		if err := m.DrainShard(0, time.Second); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if got := m.Stats().ShardsDrained; got != 3 {
		t.Fatalf("ShardsDrained = %d, want 3", got)
	}
	if status, _, err := get(addr, "/ping"); err != nil || !strings.Contains(status, "200") {
		t.Fatalf("fleet not serving after repeated drains: %q %v", status, err)
	}
	// The in-band admin document must carry the same fleet-level facts:
	// the drains counter and the retired engines' folded counters (a
	// handoff must not make served work disappear from /debug/killsafe).
	raw, err := rawGet(addr, "/debug/killsafe/stats")
	if err != nil {
		t.Fatalf("admin stats after drains: %v", err)
	}
	if !strings.Contains(raw, `"shards_drained": 3`) {
		t.Fatalf("admin stats document lost the fleet drain count:\n%s", raw)
	}
	fleet := m.Stats()
	var admin struct {
		Serving netsvc.StatsSnapshot `json:"serving"`
	}
	if i := strings.Index(raw, "{"); i < 0 {
		t.Fatalf("no JSON body in admin stats response:\n%s", raw)
	} else if err := json.Unmarshal([]byte(raw[i:]), &admin); err != nil {
		t.Fatalf("decode admin stats: %v", err)
	}
	if admin.Serving.Requests < fleet.Requests-2 {
		t.Fatalf("admin document requests %d < fleet aggregate %d: retired counters lost",
			admin.Serving.Requests, fleet.Requests)
	}
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// DrainShard validates its input and refuses after fleet shutdown.
func TestDrainShardErrors(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	if err := m.DrainShard(-1, time.Second); err != netsvc.ErrBadShard {
		t.Fatalf("DrainShard(-1) = %v, want ErrBadShard", err)
	}
	if err := m.DrainShard(2, time.Second); err != netsvc.ErrBadShard {
		t.Fatalf("DrainShard(2) = %v, want ErrBadShard", err)
	}
	if err := m.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := m.DrainShard(0, time.Second); err != netsvc.ErrServerDown {
		t.Fatalf("DrainShard after Shutdown = %v, want ErrServerDown", err)
	}
}

// A graceful Shutdown racing a DrainShard on the same fleet: whichever
// takes a shard first wins, the loser reports ErrServerDown (or the
// drain completes first and Shutdown tears down the replacement), no
// listener share is double-closed, and every goroutine is reclaimed.
func TestDrainShardShutdownRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		base := runtime.NumGoroutine()
		m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2}, shardSetup)
		if err != nil {
			t.Fatalf("round %d: ServeSharded: %v", round, err)
		}
		addr := m.Addr().String()
		// A little in-flight work so the race has sessions to classify.
		for i := 0; i < 4; i++ {
			if _, _, err := get(addr, "/ping"); err != nil {
				t.Fatalf("round %d: get: %v", round, err)
			}
		}
		drainErr := make(chan error, 1)
		shutErr := make(chan error, 1)
		go func() { drainErr <- m.DrainShard(0, time.Second) }()
		go func() {
			// Vary the interleaving across rounds.
			time.Sleep(time.Duration(round) * 500 * time.Microsecond)
			shutErr <- m.Shutdown(time.Second)
		}()
		de, se := <-drainErr, <-shutErr
		if de != nil && de != netsvc.ErrServerDown {
			t.Fatalf("round %d: DrainShard = %v, want nil or ErrServerDown", round, de)
		}
		if se != nil {
			t.Fatalf("round %d: Shutdown = %v, want nil", round, se)
		}
		// The race must not lose sessions to the kill path: every conn
		// above finished before the race began.
		if st := m.Stats(); st.Killed != 0 {
			t.Fatalf("round %d: race killed %d sessions: %+v", round, st.Killed, st)
		}
		if err := m.DrainShard(1, time.Second); err != netsvc.ErrServerDown {
			t.Fatalf("round %d: DrainShard after race = %v, want ErrServerDown", round, err)
		}
		waitGoroutines(t, base, "after drain/shutdown race")
	}
}
