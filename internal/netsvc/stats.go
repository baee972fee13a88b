package netsvc

import (
	"reflect"
	"sync/atomic"
)

// Stats is the serving layer's counter set. All fields are written with
// atomics so the snapshot is safe from any goroutine (the admin
// surface, tests, plain monitoring goroutines).
type Stats struct {
	accepted    atomic.Int64 // conns accepted by the OS listener
	active      atomic.Int64 // conns currently being served
	drained     atomic.Int64 // sessions that ended cleanly (EOF, close, timeout response sent)
	killed      atomic.Int64 // sessions terminated by custodian shutdown mid-service
	timedOut    atomic.Int64 // conns closed by the idle deadline
	rejected    atomic.Int64 // conns closed unserved (shutdown races, dead custodians)
	shed        atomic.Int64 // conns answered 503 by the pump: pending queue over MaxPending
	admShed     atomic.Int64 // requests refused by adaptive admission (all classes)
	admShedBulk atomic.Int64 // bulk-class requests among admShed
	migrated    atomic.Int64 // queued conns rehomed to a sibling shard by a drain
	reqAdmin    atomic.Int64 // dispatched requests classified admin
	reqNormal   atomic.Int64 // dispatched requests classified normal
	reqBulk     atomic.Int64 // dispatched requests classified bulk
	deadlined   atomic.Int64 // requests cut off by the per-request deadline
	restarts    atomic.Int64 // accept-loop restarts performed by the supervisor
	requests    atomic.Int64 // protocol frames parsed off the wire
	responses   atomic.Int64 // responses serialized (faults excluded)
	pipelineHWM atomic.Int64 // most responses ever coalesced into one write batch
}

// noteClass counts one classified request dispatch.
func (s *Stats) noteClass(p Priority) {
	switch p {
	case ClassAdmin:
		s.reqAdmin.Add(1)
	case ClassBulk:
		s.reqBulk.Add(1)
	default:
		s.reqNormal.Add(1)
	}
}

// notePipelineDepth raises the pipelined-depth high-water mark to n.
func (s *Stats) notePipelineDepth(n int64) {
	for {
		cur := s.pipelineHWM.Load()
		if n <= cur || s.pipelineHWM.CompareAndSwap(cur, n) {
			return
		}
	}
}

// StatsSnapshot is a point-in-time copy of the counters. Protocol names
// the listener's wire codec; when snapshots are aggregated across shards
// the counters sum, PipelineHWM and SojournEWMAus take the fleet
// maximum, and Overloaded is true if any shard is shedding.
type StatsSnapshot struct {
	Protocol      string `json:"protocol"`
	Accepted      int64  `json:"accepted"`
	Active        int64  `json:"active"`
	Drained       int64  `json:"drained"`
	Killed        int64  `json:"killed"`
	TimedOut      int64  `json:"timed_out"`
	Rejected      int64  `json:"rejected"`
	Shed          int64  `json:"shed"`
	AdmShed       int64  `json:"adm_shed"`
	AdmShedBulk   int64  `json:"adm_shed_bulk"`
	Migrated      int64  `json:"migrated"`
	ReqAdmin      int64  `json:"req_admin"`
	ReqNormal     int64  `json:"req_normal"`
	ReqBulk       int64  `json:"req_bulk"`
	Deadlined     int64  `json:"deadlined"`
	Restarts      int64  `json:"restarts"`
	Requests      int64  `json:"requests"`
	Responses     int64  `json:"responses"`
	PipelineHWM   int64  `json:"pipeline_hwm"`
	SojournEWMAus int64  `json:"sojourn_ewma_us"` // smoothed queue delay, µs
	Overloaded    bool   `json:"overloaded"`      // admission controller currently shedding
	// ShardsDrained counts completed live drain/handoff cycles; only the
	// fleet-level (ShardedServer) snapshot sets it.
	ShardsDrained int64 `json:"shards_drained"`
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Accepted:    s.accepted.Load(),
		Active:      s.active.Load(),
		Drained:     s.drained.Load(),
		Killed:      s.killed.Load(),
		TimedOut:    s.timedOut.Load(),
		Rejected:    s.rejected.Load(),
		Shed:        s.shed.Load(),
		AdmShed:     s.admShed.Load(),
		AdmShedBulk: s.admShedBulk.Load(),
		Migrated:    s.migrated.Load(),
		ReqAdmin:    s.reqAdmin.Load(),
		ReqNormal:   s.reqNormal.Load(),
		ReqBulk:     s.reqBulk.Load(),
		Deadlined:   s.deadlined.Load(),
		Restarts:    s.restarts.Load(),
		Requests:    s.requests.Load(),
		Responses:   s.responses.Load(),
		PipelineHWM: s.pipelineHWM.Load(),
	}
}

// addStats folds two serving snapshots. It walks StatsSnapshot's own
// field list, so a new counter needs no line here: every integer field
// sums, except the two gauges that are fleet maxima; Overloaded is true
// if either side is shedding; and the protocol name carries over (every
// shard of a fleet speaks the same protocol).
func addStats(a, b StatsSnapshot) StatsSnapshot {
	hwm, ewma := max(a.PipelineHWM, b.PipelineHWM), max(a.SojournEWMAus, b.SojournEWMAus)
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		if f := av.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + bv.Field(i).Int())
		}
	}
	a.PipelineHWM, a.SojournEWMAus = hwm, ewma
	a.Overloaded = a.Overloaded || b.Overloaded
	if a.Protocol == "" {
		a.Protocol = b.Protocol
	}
	return a
}
