package netsvc

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
)

// Admin surface: the /debug/killsafe/* routes served by every session
// thread (see serveConn's dispatch) and reusable by an out-of-band HTTP
// mux (cmd/killserve's -admin listener). All renderers read atomic
// counters or take per-runtime snapshots; none of them is a hot path.

// adminShardStats is one shard's slice of the stats document.
type adminShardStats struct {
	Shard   int           `json:"shard"`
	Serving StatsSnapshot `json:"serving"`
	Runtime *obs.Snapshot `json:"runtime,omitempty"` // nil under DisableObs
	Live    int           `json:"live_threads"`      // runtime accounting, not counters
}

// adminStats is the /debug/killsafe/stats document: fleet totals plus
// the per-shard breakdown (a standalone server is a one-shard fleet).
type adminStats struct {
	Shards   int               `json:"shards"`
	Serving  StatsSnapshot     `json:"serving"`
	Runtime  *obs.Snapshot     `json:"runtime,omitempty"`
	PerShard []adminShardStats `json:"per_shard"`
}

// adminServers returns the servers the admin document covers: every
// live shard engine of the fleet, or just this server when unsharded.
// Engines retired by DrainShard are excluded — their counters live in
// the fleet's retired fold, which AdminStatsJSON adds separately.
func (s *Server) adminServers() []*Server {
	if s.sharded == nil {
		return []*Server{s}
	}
	out := make([]*Server, 0, s.sharded.NumShards())
	for _, sh := range s.sharded.shards {
		if sh.retired.Load() {
			continue
		}
		out = append(out, sh.server())
	}
	return out
}

// AdminStatsJSON renders the /debug/killsafe/stats document.
func (s *Server) AdminStatsJSON() string {
	servers := s.adminServers()
	doc := adminStats{Shards: len(servers)}
	var agg obs.Snapshot
	haveObs := false
	for _, sv := range servers {
		entry := adminShardStats{
			Shard:   sv.shard,
			Serving: sv.Stats(),
			Live:    sv.rt.LiveThreads(),
		}
		doc.Serving = addStats(doc.Serving, entry.Serving)
		if sv.obs != nil {
			snap := sv.obs.Snapshot()
			entry.Runtime = &snap
			agg = agg.Add(snap)
			haveObs = true
		}
		doc.PerShard = append(doc.PerShard, entry)
	}
	// Fold in the engines retired by live drains: the fleet totals must
	// never lose served work to a handoff, and ShardsDrained is a
	// fleet-level fact no live engine carries.
	if m := s.sharded; m != nil {
		doc.Shards = m.NumShards()
		m.mu.Lock()
		doc.Serving = addStats(doc.Serving, m.retired)
		doc.Serving.ShardsDrained = m.drains
		retiredObs := m.retiredObs
		m.mu.Unlock()
		if haveObs {
			agg = retiredObs.Add(agg)
		}
	}
	if haveObs {
		doc.Runtime = &agg
	}
	return marshalAdmin(doc)
}

// adminCustodians is the /debug/killsafe/custodians document: the live
// custodian tree of each runtime, straight from runtime accounting.
type adminCustodians struct {
	Shard      int                  `json:"shard"`
	Custodians []core.CustodianInfo `json:"custodians"`
}

// AdminCustodiansJSON renders the /debug/killsafe/custodians document.
func (s *Server) AdminCustodiansJSON() string {
	servers := s.adminServers()
	out := make([]adminCustodians, 0, len(servers))
	for _, sv := range servers {
		out = append(out, adminCustodians{Shard: sv.shard, Custodians: sv.rt.CustodianSnapshot()})
	}
	return marshalAdmin(out)
}

// AdminTraceText renders shard's flight recorder in the explore trace
// format (shard -1 means this server's own). It returns ok=false if the
// flight recorder is not enabled (or the shard index is out of range).
func (s *Server) AdminTraceText(shard int) (string, bool) {
	sv := s
	if shard >= 0 {
		if s.sharded == nil {
			if shard != s.shard {
				return "", false
			}
		} else {
			if shard >= s.sharded.NumShards() {
				return "", false
			}
			sv = s.sharded.Shard(shard)
		}
	}
	if sv.obs == nil {
		return "", false
	}
	rec := sv.obs.Recorder()
	if rec == nil {
		return "", false
	}
	return rec.TraceText(fmt.Sprintf("netsvc-shard-%d", sv.shard), 0), true
}

// adminDispatch answers the /debug/killsafe/* routes; ok=false means
// the path is not an admin route.
func (s *Server) adminDispatch(path string, query map[string]string) (status int, body string, ok bool) {
	switch path {
	case "/debug/killsafe/stats":
		return 200, s.AdminStatsJSON() + "\n", true
	case "/debug/killsafe/custodians":
		return 200, s.AdminCustodiansJSON() + "\n", true
	case "/debug/killsafe/trace":
		shard := -1
		if v, have := query["shard"]; have {
			if n, err := strconv.Atoi(v); err == nil {
				shard = n
			}
		}
		text, found := s.AdminTraceText(shard)
		if !found {
			return 404, "flight recorder not enabled (set Config.FlightRecorder)\n", true
		}
		return 200, text, true
	}
	return 0, "", false
}

func marshalAdmin(v any) string {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}

// PublishExpvar exposes the runtime metrics of every shard this server
// belongs to as expvar variables "name.shardN" (for /debug/vars on a
// plain HTTP mux). With obs disabled it is a no-op.
func (s *Server) PublishExpvar(name string) {
	for _, sv := range s.adminServers() {
		if sv.obs != nil {
			obs.PublishExpvar(fmt.Sprintf("%s.shard%d", name, sv.shard), sv.obs)
		}
	}
}

// PublishExpvar exposes the fleet's per-shard runtime metrics as expvar
// variables "name.shardN". With obs disabled it is a no-op.
func (m *ShardedServer) PublishExpvar(name string) {
	m.Shard(0).PublishExpvar(name)
}

// Obs returns shard i's observability layer (nil under DisableObs).
// After a DrainShard the layer belongs to the replacement engine.
func (m *ShardedServer) Obs(i int) *obs.Obs { return m.shards[i].server().obs }

// ObsSnapshot returns the fleet-wide aggregate of the per-shard runtime
// metrics (the zero snapshot under DisableObs), including the folded
// totals of engines retired by drains.
func (m *ShardedServer) ObsSnapshot() obs.Snapshot {
	m.mu.Lock()
	agg := m.retiredObs
	m.mu.Unlock()
	for _, sh := range m.shards {
		if sh.retired.Load() {
			continue
		}
		if o := sh.server().obs; o != nil {
			agg = agg.Add(o.Snapshot())
		}
	}
	return agg
}
