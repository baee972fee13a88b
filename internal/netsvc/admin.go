package netsvc

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
)

// Admin surface: the /debug/killsafe/* routes, answered by Admin for the
// in-band dispatch (see serveConn) and for any out-of-band HTTP mux
// (cmd/killserve's -admin listener and its expvar variable). The stats
// document is built by one walk — ShardedServer.walk for a fleet — and
// every renderer reads atomic counters or takes per-runtime snapshots;
// none of them is a hot path.

// adminShard is one shard's slice of the stats document.
type adminShard struct {
	Shard   int           `json:"shard"`
	Serving StatsSnapshot `json:"serving"`
	Runtime *obs.Snapshot `json:"runtime,omitempty"` // nil under DisableObs
	Live    int           `json:"live_threads"`      // runtime accounting, not counters

	srv *Server // the engine this entry was read from
}

// adminStats is the /debug/killsafe/stats document: fleet totals plus
// the per-shard breakdown (a standalone server is a one-shard fleet).
type adminStats struct {
	Shards   int           `json:"shards"`
	Serving  StatsSnapshot `json:"serving"`
	Runtime  *obs.Snapshot `json:"runtime,omitempty"`
	PerShard []adminShard  `json:"per_shard"`
}

// add reads one live engine's counters into the document.
func (d *adminStats) add(sv *Server) {
	e := adminShard{Shard: sv.shard, Serving: sv.Stats(), srv: sv}
	d.Serving = addStats(d.Serving, e.Serving)
	if sv.obs != nil {
		snap := sv.obs.Snapshot()
		e.Runtime = &snap
		var agg obs.Snapshot
		if d.Runtime != nil {
			agg = *d.Runtime
		}
		agg = agg.Add(snap)
		d.Runtime = &agg
	}
	d.PerShard = append(d.PerShard, e)
}

// statsDoc returns the stats document as this server answers it: the
// fleet's walk in sharded operation, else this engine alone.
func (s *Server) statsDoc() adminStats {
	if s.sharded != nil {
		return s.sharded.walk()
	}
	doc := adminStats{Shards: 1}
	doc.add(s)
	return doc
}

// statsJSON renders the /debug/killsafe/stats document. Live-thread
// counts are runtime accounting under each runtime's own lock, so they
// are read after the walk rather than inside it.
func (s *Server) statsJSON() string {
	doc := s.statsDoc()
	for i := range doc.PerShard {
		doc.PerShard[i].Live = doc.PerShard[i].srv.rt.LiveThreads()
	}
	return marshalAdmin(doc)
}

// adminCustodians is the /debug/killsafe/custodians document: the live
// custodian tree of each runtime, straight from runtime accounting.
type adminCustodians struct {
	Shard      int                  `json:"shard"`
	Custodians []core.CustodianInfo `json:"custodians"`
}

// custodiansJSON renders the /debug/killsafe/custodians document over
// the engines the stats walk counts live.
func (s *Server) custodiansJSON() string {
	doc := s.statsDoc()
	out := make([]adminCustodians, 0, len(doc.PerShard))
	for _, e := range doc.PerShard {
		out = append(out, adminCustodians{Shard: e.Shard, Custodians: e.srv.rt.CustodianSnapshot()})
	}
	return marshalAdmin(out)
}

// traceText answers /debug/killsafe/trace: the flight recorder of the
// shard named by ?shard=N, or of this server when the query names none.
func (s *Server) traceText(query map[string]string) (status int, body string) {
	sv := s
	if v, have := query["shard"]; have {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 400, fmt.Sprintf("bad shard %q: want a shard index >= 0\n", v)
		}
		switch {
		case s.sharded != nil && n < s.sharded.NumShards():
			sv = s.sharded.Shard(n)
		case s.sharded != nil || n != s.shard:
			return 404, fmt.Sprintf("no shard %d\n", n)
		}
	}
	if sv.obs == nil || sv.obs.Recorder() == nil {
		return 404, "flight recorder not enabled (set Config.FlightRecorder)\n"
	}
	return 200, sv.obs.Recorder().TraceText(fmt.Sprintf("netsvc-shard-%d", sv.shard), 0)
}

// Admin answers the /debug/killsafe/* routes as this server sees them
// (in sharded operation: the whole fleet); ok=false means path is not an
// admin route. It is the one admin entry point — the in-band dispatch
// and an out-of-band HTTP mux call the same function.
func (s *Server) Admin(path string, query map[string]string) (status int, body string, ok bool) {
	switch path {
	case "/debug/killsafe/stats":
		return 200, s.statsJSON() + "\n", true
	case "/debug/killsafe/custodians":
		return 200, s.custodiansJSON() + "\n", true
	case "/debug/killsafe/trace":
		status, body = s.traceText(query)
		return status, body, true
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

// ObsSnapshot returns the fleet-wide aggregate of the per-shard runtime
// metrics (the zero snapshot under DisableObs), including the folded
// totals of engines retired by drains.
func (m *ShardedServer) ObsSnapshot() obs.Snapshot {
	if doc := m.walk(); doc.Runtime != nil {
		return *doc.Runtime
	}
	return obs.Snapshot{}
}
