package main

import "repro/bench/harness"

// The names below are the benchmark's public contract: BENCHMARK.json
// lists the same ones (a test keeps the two in step), later issues cite
// them, and every run prints every one of them.

type workloadSpec struct {
	name, why string
	build     func(*runCfg) (instance, error)
}

var workloads = []workloadSpec{
	{"chan_pingpong", "2 thread pairs on 2 disjoint killsafe.Channels, closed loop: only core's single-event Sync fast path runs; the bypass workload for every serving-path or store change", buildChan},
	{"queue_killstorm", "2 producers + 2 consumers on a queue (1 item in 16 also a msgqueue), a client killed every 2 ms: core's multi-case choice, nack cancel, ResumeVia and spawn/kill/custodian churn, all idle in workload 1", buildQueue},
	{"txn_transfer", "2 workers run Zipf 0.9 two-key transfers on a Locking kvtxn store, one killed mid-transaction 50x/s: kvtxn does the work, netsvc and wire do none", buildTxn},
	{"serve_ping", "2 keep-alive HTTP/1.1 connections, closed loop GET /ping over loopback TCP: the steady-state netsvc + wire + web request path at saturation, kvtxn idle", buildPing},
	{"serve_kv_open", "open loop, 6000 ops/s on 2 pipelined RESP connections through the cross-runtime Gateway while victim sessions are killed 20x/s: bystander latency under kills; connection set-up/teardown path", buildKV},
}

type metricSpec struct{ name, unit, better string }

// End-to-end metrics: what a user of the system sees. Measured with
// tracing off; every workload reports every one.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"goodput_ops_s", "ops/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"kill_reclaim_p50_us", "us", "lower"},
}

// Per-layer metrics, reported by the traced run. A metric that does not
// apply to a workload reads 0 there — which is itself the bypass
// prediction (kvtxn.commits on serve_ping, netsvc.requests in process).
var perLayer = []metricSpec{
	// The tail of op latency, same clock as op_p50_us, from the traced
	// invocation's untraced phase. It is an end-to-end quantity, but run to
	// run it moves by a third on serve_kv_open, more than any bound a
	// regression check may carry, so it is recorded here, unbounded.
	{"op_p99_us", "us", "lower"},
	// core: rungs.
	{"core.sync_single_ns", "ns", "lower"},
	{"core.external_roundtrip_ns", "ns", "lower"},
	{"core.choice2_ns", "ns", "lower"},
	{"core.nack_cancel_ns", "ns", "lower"},
	{"core.resumevia_ns", "ns", "lower"},
	{"core.spawn_done_ns", "ns", "lower"},
	{"core.kill_done_ns", "ns", "lower"},
	{"core.custodian_cycle_ns", "ns", "lower"},
	// core: obs snapshot deltas over the traced window.
	{"core.syncs_per_op", "count", "lower"},
	{"core.sync_multi_share", "ratio", "lower"},
	{"core.blocks_per_op", "count", "lower"},
	{"core.wakes_per_op", "count", "lower"},
	{"core.spawns_per_conn", "count", "lower"},
	// abstractions: spans and counts of the traced queue_killstorm.
	{"abstractions.queue_send_ns", "ns", "lower"},
	{"abstractions.queue_recv_ns", "ns", "lower"},
	{"abstractions.msgqueue_recv_ns", "ns", "lower"},
	{"abstractions.ops_timeout", "count", "lower"},
	{"abstractions.ops_killed", "count", "lower"},
	{"abstractions.useful_ratio", "ratio", "higher"},
	// kvtxn: spans of the traced txn_transfer, rungs, store counters.
	{"kvtxn.begin_ns", "ns", "lower"},
	{"kvtxn.get_ns", "ns", "lower"},
	{"kvtxn.commit_ns", "ns", "lower"},
	{"kvtxn.multi_ns", "ns", "lower"},
	{"kvtxn.autocommit_get_ns", "ns", "lower"},
	{"kvtxn.autocommit_put_ns", "ns", "lower"},
	{"kvtxn.gateway_hop_ns", "ns", "lower"},
	{"kvtxn.commits", "count", "higher"},
	{"kvtxn.aborts_conflict", "count", "lower"},
	{"kvtxn.aborts_kill", "count", "lower"},
	{"kvtxn.commit_ratio", "ratio", "higher"},
	// wire: rungs on the frames the workloads generate.
	{"wire.http_parse_ns", "ns", "lower"},
	{"wire.http_append_ns", "ns", "lower"},
	{"wire.resp_parse_ns", "ns", "lower"},
	{"wire.resp_append_ns", "ns", "lower"},
	{"wire.resp_multi_parse_ns", "ns", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},
	// web: rungs.
	{"web.dispatch_ns", "ns", "lower"},
	{"web.session_cycle_ns", "ns", "lower"},
	// netsvc: spans of the traced wire workloads, connection rungs, Stats().
	{"netsvc.servlet_us", "us", "lower"},
	{"netsvc.kvclient_us", "us", "lower"},
	{"netsvc.request_self_us", "us", "lower"},
	{"netsvc.request_self_share", "ratio", "lower"},
	{"netsvc.conn_setup_us", "us", "lower"},
	{"netsvc.goroutines_per_conn", "count", "lower"},
	{"netsvc.bytes_per_conn", "count", "lower"},
	{"netsvc.requests", "count", "higher"},
	{"netsvc.accepted", "count", "lower"},
	{"netsvc.killed", "count", "lower"},
	{"netsvc.shed", "count", "lower"},
	{"netsvc.pipeline_hwm", "count", "lower"},
	{"netsvc.sojourn_ewma_us", "us", "lower"},
	{"netsvc.kill_reclaim_open_p50_us", "us", "lower"},
	// gen: the load generator's own clocks (serve_kv_open).
	{"gen.offered_rps", "ops/s", "higher"},
	{"gen.achieved_rps", "ops/s", "higher"},
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.backlog_max", "count", "lower"},
	{"gen.service_p50_us", "us", "lower"},
	{"gen.r1_p99_us", "us", "lower"},
	{"gen.r2_p99_us", "us", "lower"},
	{"gen.r3_p99_us", "us", "lower"},
	{"gen.max_rate_ok_rps", "ops/s", "higher"},
	{"gen.schedule_hash", "count", "higher"},
	{"gen.generator_limited", "count", "lower"},
	// proc: process-wide counters over the traced window.
	{"proc.ctxsw_per_op", "count", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.goroutines_peak", "count", "lower"},
	// baseline: no repo code; the ladder's bottom rung and the noise check.
	{"baseline.loopback_echo_us", "us", "lower"},
	{"baseline.gochan_pingpong_ns", "ns", "lower"},
	{"baseline.noisy_host", "count", "lower"},
	// trace: the traced run against the untraced one.
	{"trace.client_span_us", "us", "lower"},
	{"trace.overhead_pct", "pct", "lower"},
	// oracle: the kill-safety checks and failure accounting.
	{"oracle.violations", "count", "lower"},
	{"oracle.killed_expected", "count", "lower"},
}

// metrics is a name → value set under construction; units come from the
// tables above when it is rendered.
type metrics map[string]float64

func render(specs []metricSpec, m metrics) map[string]harness.Metric {
	out := make(map[string]harness.Metric, len(specs))
	for _, s := range specs {
		out[s.name] = harness.Metric{Value: m[s.name], Unit: s.unit}
	}
	return out
}
