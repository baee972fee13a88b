package netsvc_test

import (
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/netsvc"
)

// statsDoc mirrors the /debug/killsafe/stats document shape (the fields
// the test asserts on).
type statsDoc struct {
	Shards  int          `json:"shards"`
	Runtime *runtimeDoc  `json:"runtime"`
	Shard   []shardEntry `json:"per_shard"`
}

type runtimeDoc struct {
	Spawns      int64 `json:"spawns"`
	Dones       int64 `json:"dones"`
	Kills       int64 `json:"kills"`
	Exits       int64 `json:"exits"`
	LiveThreads int64 `json:"live_threads"`
	Syncs       int64 `json:"syncs"`
	SyncFast    int64 `json:"sync_fast"`
	SyncMulti   int64 `json:"sync_multi"`
}

type shardEntry struct {
	Shard   int         `json:"shard"`
	Runtime *runtimeDoc `json:"runtime"`
	Live    int         `json:"live_threads"`
}

// TestShardedObsKillStorm is the end-to-end observability check: a
// 4-shard fleet with the flight recorder on, parked sessions on every
// shard, the admin documents served in-band, then a hard drain — and the
// per-shard counters must balance (spawns = exits + kills, nothing live).
func TestShardedObsKillStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 4, FlightRecorder: 512}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	addr := m.Addr().String()

	// Warm every shard with fast requests, then park two slow sessions
	// on each so the drain below has stragglers to kill.
	for i := 0; i < 8; i++ {
		if _, _, err := get(addr, "/ping"); err != nil {
			t.Fatalf("get /ping: %v", err)
		}
	}
	// Let the warm-up sessions drain first, and serialize the slow dials
	// so each conn's load is visible before the next one is assigned: a
	// /ping session still counted active (or a placement not yet
	// registered) skews the least-loaded pick away from the 2-per-shard
	// balance asserted below.
	waitTotalActive(t, m, 0)
	conns := make([]net.Conn, 0, 8)
	for i := 0; i < 8; i++ {
		conns = append(conns, dialSlow(t, addr))
		waitTotalActive(t, m, int64(i+1))
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	waitShardActive(t, m, 2)

	// The stats document, served in-band while the storm is parked:
	// totals must agree with the runtime's own custodian accounting.
	status, body, err := get(addr, "/debug/killsafe/stats")
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("get stats: %q %v", status, err)
	}
	var doc statsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stats document is not JSON: %v\n%s", err, body)
	}
	if doc.Shards != 4 || len(doc.Shard) != 4 || doc.Runtime == nil {
		t.Fatalf("stats document shape: shards=%d per_shard=%d runtime=%v", doc.Shards, len(doc.Shard), doc.Runtime)
	}
	var sumSpawns, sumLive int64
	for _, sh := range doc.Shard {
		if sh.Runtime == nil {
			t.Fatalf("shard %d has no runtime metrics", sh.Shard)
		}
		// Counter-derived live threads vs the runtime's own accounting,
		// taken in the same renderer call over a quiescent shard.
		if sh.Runtime.LiveThreads != int64(sh.Live) {
			t.Errorf("shard %d: counters say %d live threads, custodian accounting says %d",
				sh.Shard, sh.Runtime.LiveThreads, sh.Live)
		}
		if sh.Runtime.Syncs != sh.Runtime.SyncFast+sh.Runtime.SyncMulti {
			t.Errorf("shard %d: sync split %d+%d != %d", sh.Shard, sh.Runtime.SyncFast, sh.Runtime.SyncMulti, sh.Runtime.Syncs)
		}
		sumSpawns += sh.Runtime.Spawns
		sumLive += sh.Runtime.LiveThreads
	}
	if doc.Runtime.Spawns != sumSpawns || doc.Runtime.LiveThreads != sumLive {
		t.Errorf("aggregate (spawns=%d live=%d) != shard sums (%d, %d)",
			doc.Runtime.Spawns, doc.Runtime.LiveThreads, sumSpawns, sumLive)
	}

	// The custodian document renders and names every shard.
	status, body, err = get(addr, "/debug/killsafe/custodians")
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("get custodians: %q %v", status, err)
	}
	if !strings.Contains(body, `"custodians"`) || !strings.Contains(body, `"shard": 3`) {
		t.Fatalf("custodians document incomplete:\n%s", body)
	}

	// The in-band flight-recorder dump must parse as an explore trace.
	status, body, err = get(addr, "/debug/killsafe/trace")
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("get trace: %q %v", status, err)
	}
	tr, err := explore.DecodeTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("recorded trace does not decode: %v\n%s", err, body)
	}
	if !strings.HasPrefix(tr.Scenario, "netsvc-shard-") {
		t.Fatalf("trace scenario = %q", tr.Scenario)
	}

	// Hard drain: the grace window is far shorter than /slow's hold, so
	// every parked session must be killed, and the books must balance.
	if err := m.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var kills int64
	for i := 0; i < m.NumShards(); i++ {
		s := m.Shard(i).Obs().Snapshot()
		if s.Spawns != s.Dones {
			t.Errorf("shard %d: spawns (%d) != dones (%d) after shutdown", i, s.Spawns, s.Dones)
		}
		if s.LiveThreads != 0 {
			t.Errorf("shard %d: %d live threads after shutdown", i, s.LiveThreads)
		}
		if s.Kills < 2 {
			t.Errorf("shard %d: kills = %d, want >= 2 (two parked /slow sessions)", i, s.Kills)
		}
		if s.Exits != s.Dones-s.Kills {
			t.Errorf("shard %d: exits = %d, want dones-kills = %d", i, s.Exits, s.Dones-s.Kills)
		}
		kills += s.Kills
	}
	agg := m.ObsSnapshot()
	if agg.Kills != kills || agg.Spawns != agg.Dones {
		t.Errorf("fleet aggregate inconsistent: %+v (summed kills %d)", agg, kills)
	}
	waitGoroutines(t, base, "after obs kill-storm shutdown")
}

// TestObsDisabled: DisableObs leaves the hot path uninstrumented — the
// stats document omits runtime metrics and the trace route 404s.
func TestObsDisabled(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2, DisableObs: true}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	defer func() { _ = m.Shutdown(time.Second) }()
	addr := m.Addr().String()
	if m.Shard(0).Obs() != nil {
		t.Fatal("DisableObs still attached an Obs")
	}
	status, body, err := get(addr, "/debug/killsafe/stats")
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("get stats: %q %v", status, err)
	}
	if strings.Contains(body, `"runtime"`) {
		t.Fatalf("stats document carries runtime metrics under DisableObs:\n%s", body)
	}
	status, _, err = get(addr, "/debug/killsafe/trace")
	if err != nil || !strings.Contains(status, "404") {
		t.Fatalf("trace route with recorder off: %q %v, want 404", status, err)
	}
}

// TestTraceShardQuery: ?shard=N selects a specific shard's recorder,
// out-of-range indexes 404, and a shard that is not an index at all is
// refused with 400 rather than answered from the wrong recorder.
func TestTraceShardQuery(t *testing.T) {
	m, err := netsvc.ServeSharded(netsvc.Config{Shards: 2, FlightRecorder: 64}, shardSetup)
	if err != nil {
		t.Fatalf("ServeSharded: %v", err)
	}
	defer func() { _ = m.Shutdown(time.Second) }()
	addr := m.Addr().String()
	for i := 0; i < 4; i++ {
		if _, _, err := get(addr, "/ping"); err != nil {
			t.Fatalf("get /ping: %v", err)
		}
	}
	_, body, err := get(addr, "/debug/killsafe/trace?shard=1")
	if err != nil {
		t.Fatalf("get trace shard=1: %v", err)
	}
	if !strings.Contains(body, "scenario netsvc-shard-1") {
		t.Fatalf("shard=1 trace came from the wrong recorder:\n%s", body)
	}
	status, _, err := get(addr, "/debug/killsafe/trace?shard=7")
	if err != nil || !strings.Contains(status, "404") {
		t.Fatalf("out-of-range shard: %q %v, want 404", status, err)
	}
	for _, bad := range []string{"x", "-1", "1.5", ""} {
		status, body, err := get(addr, "/debug/killsafe/trace?shard="+bad)
		if err != nil || !strings.Contains(status, "400") || strings.Contains(body, "killsafe-explore-trace") {
			t.Fatalf("shard=%q: %q %q %v, want a 400 and no trace", bad, status, body, err)
		}
	}
}
