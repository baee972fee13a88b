package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/abstractions/kvtxn"
	"repro/bench/harness"
	"repro/internal/netsvc"
	"repro/internal/obs"
)

// runCfg is what one build of a workload needs to know.
type runCfg struct {
	seed   int64
	window time.Duration // measured window
	warmup time.Duration
	spans  *harness.SpanBuf // non-nil in a traced phase
	rates  []float64        // serve_kv_open: the fixed-rate steps of this phase
	unsafe bool             // canary: queue_killstorm over queue.NewUnsafe
}

func (c *runCfg) traced() bool { return c.spans != nil }

// instance is one built workload: the system under test plus its clients,
// already running. measure runs the warm-up, the
// measured window and the kill-safety oracles; close tears everything
// down and waits for it.
type instance interface {
	measure() (*outcome, error)
	close()
}

// outcome is what one measured phase saw.
type outcome struct {
	sum        harness.Summary
	reclaim    samples // ns from a kill being issued to the resource being usable again
	violations int64   // oracle failures; any makes the run incorrect
	killed     int64   // ops in flight on something the benchmark killed
	notes      []string
	before     edge
	after      edge
	goPeak     int
	layer      metrics // per-layer values only this workload can supply
}

// samples holds raw observations of a quantity seen only a few hundred
// times a run — too few for histogram buckets not to show.
type samples []float64

func (s *samples) add(ns int64) { *s = append(*s, float64(ns)) }

// counters are the public snapshot APIs' readings at one window edge.
type counters struct {
	obs   obs.Snapshot
	net   netsvc.StatsSnapshot
	store kvtxn.Counters
}

type edge struct {
	proc harness.Proc
	c    counters
}

// timeline is the closed-loop schedule around clients that are already
// running: warm up, snapshot, open the window, sleep through it sampling
// the goroutine count, snapshot again.
func (c *runCfg) timeline(win *harness.Window, snap func() counters) (before, after edge, goPeak int) {
	time.Sleep(c.warmup)
	before = edge{harness.ReadProc(), snap()}
	_, end := win.Open()
	for harness.Now() < end {
		if n := runtime.NumGoroutine(); n > goPeak {
			goPeak = n
		}
		rest := time.Duration(end - harness.Now())
		if rest > 50*time.Millisecond {
			rest = 50 * time.Millisecond
		}
		time.Sleep(rest)
	}
	after = edge{harness.ReadProc(), snap()}
	return before, after, goPeak
}

// endToEndMetrics turns an untraced outcome into the end-to-end set.
func endToEndMetrics(o *outcome, setupS float64) metrics {
	ops := math.Max(float64(o.sum.Good), 1)
	return metrics{
		"setup_s":             setupS,
		"goodput_ops_s":       o.sum.GoodputOpsS,
		"op_p50_us":           o.sum.P50us,
		"cpu_us_per_op":       (o.after.proc.CPUus - o.before.proc.CPUus) / ops,
		"allocs_per_op":       float64(o.after.proc.Mallocs-o.before.proc.Mallocs) / ops,
		"peak_rss_mb":         o.after.proc.MaxRSSMB, // at window end: the oracles' own memory is not the program's
		"kill_reclaim_p50_us": harness.Median(o.reclaim) / 1e3,
	}
}

// layerCounts fills the per-layer metrics that are differences of public
// counters over the window.
func layerCounts(o *outcome, m metrics) {
	ops := math.Max(float64(o.sum.Good), 1)
	a, b := o.before.c, o.after.c
	syncs := float64(b.obs.Syncs - a.obs.Syncs)
	m["core.syncs_per_op"] = syncs / ops
	if syncs > 0 {
		m["core.sync_multi_share"] = float64(b.obs.SyncMulti-a.obs.SyncMulti) / syncs
	}
	m["core.blocks_per_op"] = float64(b.obs.Blocks-a.obs.Blocks) / ops
	m["core.wakes_per_op"] = float64(b.obs.CommitWakes-a.obs.CommitWakes) / ops

	m["kvtxn.commits"] = float64(b.store.Commits - a.store.Commits)
	m["kvtxn.aborts_conflict"] = float64(b.store.Aborts - a.store.Aborts)
	m["kvtxn.aborts_kill"] = float64(b.store.KillAborts - a.store.KillAborts)
	if begins := b.store.Begins - a.store.Begins; begins > 0 {
		m["kvtxn.commit_ratio"] = float64(b.store.Commits-a.store.Commits) / float64(begins)
	}

	m["netsvc.requests"] = float64(b.net.Requests - a.net.Requests)
	m["netsvc.accepted"] = float64(b.net.Accepted - a.net.Accepted)
	m["netsvc.killed"] = float64(b.net.Killed - a.net.Killed)
	m["netsvc.shed"] = float64(b.net.Shed + b.net.AdmShed - a.net.Shed - a.net.AdmShed)
	m["netsvc.pipeline_hwm"] = float64(b.net.PipelineHWM)
	m["netsvc.sojourn_ewma_us"] = float64(b.net.SojournEWMAus)

	m["proc.ctxsw_per_op"] = float64(o.after.proc.CtxSw-o.before.proc.CtxSw) / ops
	m["proc.gc_cycles"] = float64(o.after.proc.GCCycles - o.before.proc.GCCycles)
	m["proc.gc_pause_ms"] = o.after.proc.GCPauseMs - o.before.proc.GCPauseMs
	m["proc.goroutines_peak"] = float64(o.goPeak)

	m["oracle.violations"] = float64(o.violations)
	m["oracle.killed_expected"] = float64(o.killed)
	for k, v := range o.layer {
		m[k] = v
	}
}

// measureSetup builds the workload repeatedly and reports the median
// build time: runtimes, store, queues, server, key seeding and client
// threads started; on the wire workloads also every connection dialled and
// answered once. (In process it stops short of the clients' first
// operations: how soon the Go scheduler gets round to a new goroutine
// behind two that are handing a P back and forth varies from 0.4 to 20 ms,
// which would be all the number showed.) It keeps the last build for the
// measurement. A quick build is repeated more often, so the median stays
// steady at every scale.
func measureSetup(w *workloadSpec, cfg *runCfg) (instance, float64, error) {
	var times []float64
	began := time.Now()
	budget := 300 * time.Millisecond
	if cfg.window < budget {
		budget = cfg.window
	}
	for {
		t0 := time.Now()
		inst, err := w.build(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", len(times)+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= 5 && (time.Since(began) > budget || len(times) >= 101) {
			return inst, harness.Median(times), nil
		}
		inst.close()
	}
}

// result is everything one invocation on one workload produced.
type result struct {
	line harness.Line
	run  harness.Run
}

// phase builds the workload once and measures it.
func phase(w *workloadSpec, cfg *runCfg) (*outcome, error) {
	inst, err := w.build(cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	return inst.measure()
}

// runUntraced is the --trace 0 invocation: repeated set-up, then one
// untraced measurement of the full window. Baselines bracket it to tell a
// noisy host from a changed program.
//
// If the baselines say the host moved during the window, the measurement
// is taken once more on a fresh build: the evidence involves no repo code,
// so discarding on it cannot favour the program. A second disturbed window
// is reported as it is, stamped noisy_host.
func runUntraced(w *workloadSpec, cfg *runCfg) (*result, error) {
	base0 := runBaselines()
	inst, setupS, err := measureSetup(w, cfg)
	if err != nil {
		return nil, err
	}
	var o *outcome
	var base1 baselines
	var discarded []string
	for attempt := 1; ; attempt++ {
		o, err = inst.measure()
		inst.close()
		if err != nil {
			return nil, err
		}
		base1 = runBaselines()
		if !base0.differs(base1) || attempt == 2 || o.violations+o.sum.Failed > 0 {
			break
		}
		discarded = append(discarded, fmt.Sprintf("window %d discarded, host moved: baselines before/after: echo %.2f/%.2f us, gochan %.0f/%.0f ns, CPU stolen by the host %.2f%%",
			attempt, base0.echoUs, base1.echoUs, base0.gochanNs, base1.gochanNs, 100*base1.cpu.StealShareSince(base0.cpu)))
		base0 = base1
		if inst, err = w.build(cfg); err != nil {
			return nil, err
		}
	}
	e2e := endToEndMetrics(o, setupS)
	res := newResult(w, cfg, o)
	res.run.Notes = append(res.run.Notes, discarded...)
	res.run.NoisyHost = base0.differs(base1)
	res.run.EndToEnd = render(endToEnd, e2e)
	res.line.Metrics = res.run.EndToEnd
	res.run.Notes = append(res.run.Notes, fmt.Sprintf("op latency samples: %d; kill reclaim samples: %d; baselines before/after: echo %.2f/%.2f us, gochan %.0f/%.0f ns, CPU stolen by the host %.2f%%",
		o.sum.Samples, len(o.reclaim), base0.echoUs, base1.echoUs, base0.gochanNs, base1.gochanNs, 100*base1.cpu.StealShareSince(base0.cpu)))
	return res, nil
}

// runTraced is the --trace 1 invocation: the rungs, an untraced phase and
// a traced phase of half the window each, merged into the per-layer set.
// serve_kv_open's untraced phase is the three-step rate ladder.
func runTraced(w *workloadSpec, cfg *runCfg, outDir string, rungs metrics) (*result, error) {
	base0 := runBaselines()
	if rungs == nil {
		rungs = metrics{}
		if err := runRungs(rungs); err != nil {
			return nil, fmt.Errorf("rungs: %w", err)
		}
	}
	m := metrics{}
	for k, v := range rungs {
		m[k] = v
	}

	half := *cfg
	half.window = cfg.window / 2
	half.warmup = cfg.warmup / 2
	plain := half
	if w.name == "serve_kv_open" {
		plain.rates = []float64{rateR1, rateR2, rateR3}
	}
	po, err := phase(w, &plain)
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}

	traced := half
	traced.spans = harness.NewSpanBuf(spanCapacity, spanNames...)
	to, err := phase(w, &traced)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	base1 := runBaselines()

	layerCounts(to, m)
	m["op_p99_us"] = po.sum.P99us
	for k, v := range po.layer {
		if strings.HasPrefix(k, "gen.") { // the generator's numbers come from the untraced rate ladder
			m[k] = v
		}
	}
	spanMetrics(traced.spans, m)
	if w.name == "serve_kv_open" {
		// Open loop: goodput is the offered rate either way, so the
		// overhead shows as service time instead.
		if p := po.layer["gen.service_p50_us"]; p > 0 {
			m["trace.overhead_pct"] = 100 * (to.layer["gen.service_p50_us"] - p) / p
		}
	} else if po.sum.GoodputOpsS > 0 {
		m["trace.overhead_pct"] = 100 * (po.sum.GoodputOpsS - to.sum.GoodputOpsS) / po.sum.GoodputOpsS
	}
	m["baseline.loopback_echo_us"] = (base0.echoUs + base1.echoUs) / 2
	m["baseline.gochan_pingpong_ns"] = (base0.gochanNs + base1.gochanNs) / 2
	noisy := base0.differs(base1)
	if noisy {
		m["baseline.noisy_host"] = 1
	}
	if w.name == "serve_ping" {
		ladder(m, to)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := traced.spans.WriteJSONL(tracePath); err != nil {
		return nil, err
	}

	to.violations += po.violations
	to.killed += po.killed
	to.sum.Failed += po.sum.Failed
	to.sum.Good += po.sum.Good
	m["oracle.violations"] = float64(to.violations)
	m["oracle.killed_expected"] = float64(to.killed)
	res := newResult(w, cfg, to)
	res.run.NoisyHost = noisy
	res.run.GeneratorLimited = m["gen.generator_limited"] != 0
	res.run.PerLayer = render(perLayer, m)
	res.line.Metrics = res.run.PerLayer
	res.run.Notes = append(res.run.Notes, po.notes...)
	res.run.Notes = append(res.run.Notes, fmt.Sprintf("trace: %d spans in %s (%d dropped once the buffer was full)",
		len(traced.spans.Spans()), tracePath, traced.spans.Dropped()))
	return res, nil
}

func newResult(w *workloadSpec, cfg *runCfg, o *outcome) *result {
	failed := o.sum.Failed + o.violations
	attempted := o.sum.Good + o.sum.Failed + o.killed
	if attempted < 1 {
		attempted = 1
	}
	r := &result{}
	r.line = harness.Line{Correct: failed == 0, Attempted: attempted, Failed: failed}
	r.run = harness.Run{
		Workload: w.name, Seed: cfg.seed,
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		KilledExpected: o.killed, OracleViolations: o.violations,
		Notes: o.notes,
	}
	return r
}

// ladder writes the serve_ping latency ladder: the traced client span
// split into rungs that sum to it by construction — loopback echo (no
// repo code), the wire codec, the servlet, and what is left, which is
// netsvc's own share of a request: pumps, hand-offs and session Syncs.
func ladder(m metrics, o *outcome) {
	client := m["trace.client_span_us"]
	wire := (m["wire.http_parse_ns"] + m["wire.http_append_ns"]) / 1e3
	self := client - m["netsvc.servlet_us"] - wire - m["baseline.loopback_echo_us"]
	m["netsvc.request_self_us"] = self
	if client > 0 {
		m["netsvc.request_self_share"] = self / client
	}
	o.notes = append(o.notes, fmt.Sprintf("ladder: client span %.2f us = loopback echo %.2f + wire %.2f + servlet %.2f + netsvc self %.2f (%.0f%% of the span)",
		client, m["baseline.loopback_echo_us"], wire, m["netsvc.servlet_us"], self, 100*m["netsvc.request_self_share"]))
}
