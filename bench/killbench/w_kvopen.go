package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/kvtxn"
	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/web"
)

// serve_kv_open: the full stack, open loop. One generator goroutine paces
// a seeded schedule of RESP operations onto 2 pipelined connections at a
// fixed rate, writing each at its due time without waiting; a reader per
// connection matches replies to operations first-in first-out and times
// each from its *intended* send time, so a stall delays — and is charged
// to — every operation behind it. The servlets reach one Locking store
// through the cross-runtime Gateway. Meanwhile one short-lived victim
// connection at a time starts a pair transfer and has its session killed
// mid-request, 20 times a second. The measured connections are never
// killed: their latency is what the paper's isolation claim costs a
// bystander.
//
// Mix: 70 % GET, 20 % SET over 2,048 plain keys; 10 % MULTI/SET/SET/EXEC
// over 1,024 disjoint pairs whose two values always sum to 1,000.
// One op is one of these, answered correctly.

const (
	rateR1, rateR2, rateR3 = 3000.0, 6000.0, 12000.0

	kvConns        = 2
	kvPlainKeys    = 2048
	kvPairs        = 1024
	kvPairSum      = 1000
	kvVictimGap    = 50 * time.Millisecond
	kvProbeVictims = 200
	kvLimitP99us   = 5000.0                // the latency limit a rate must meet
	kvNap          = 20 * time.Microsecond // see harness.RealClock
)

type kvKind uint8

const (
	kvGet kvKind = iota
	kvSet
	kvMulti
)

// kvOp is one scheduled operation; the schedule is generated from the
// seed before the step starts.
type kvOp struct {
	kind kvKind
	conn uint8
	key  uint16 // plain key, or pair index for kvMulti
	val  uint16
}

// kvPending is an operation in flight on a connection.
type kvPending struct {
	kind     kvKind
	due, out int64
	step     *kvStep
	seq      uint32
}

// kvStep is one fixed-rate step with its own window and recorders.
type kvStep struct {
	rate     float64
	win      *harness.Window
	recs     [kvConns]*harness.Recorder
	service  [kvConns]harness.Hist // from actual send
	late     *harness.Hist
	sent     int
	backlog  []int32 // outstanding ops, sampled at every send
	before   edge
	after    edge
	schedule float64 // hash of the generated schedule
}

type kvInst struct {
	cfg     *runCfg
	f       *fleet
	store   *kvtxn.Store
	audit   *core.External // completed to start the auditor
	audited chan kvAudit

	conns   [kvConns]*client
	pend    [kvConns]chan kvPending
	admin   *client
	sentN   atomic.Int64
	doneN   atomic.Int64
	readers sync.WaitGroup
	readErr chan error

	victimStop chan struct{}
	victimDone chan struct{}
	vmu        sync.Mutex
	reclaim    samples
	victims    int64
	victimErr  error
}

type kvAudit struct {
	integrity kvtxn.Integrity
	badPairs  int
	err       error
}

func plainKey(i int) string { return "k" + strconv.Itoa(i) }
func pairKey(i int) string  { return "p" + strconv.Itoa(i) }

// tracedKV wraps the Client the servlets use: a span around every store
// call, tagged with the op the servlet wrapper published on the thread.
type tracedKV struct {
	kvtxn.Client
	t *servletTracer
}

func (c tracedKV) span(th *core.Thread, t0 int64) {
	if op, ok := c.t.cur.Load(th); ok {
		c.t.spans.Add(spKVClient, op.(uint64), t0, harness.Now())
	}
}

func (c tracedKV) Get(th *core.Thread, key string) (string, bool, error) {
	defer c.span(th, harness.Now())
	return c.Client.Get(th, key)
}

func (c tracedKV) Put(th *core.Thread, key, val string) error {
	defer c.span(th, harness.Now())
	return c.Client.Put(th, key, val)
}

func (c tracedKV) Multi(th *core.Thread, ops []kvtxn.Op) (kvtxn.MultiResult, error) {
	defer c.span(th, harness.Now())
	return c.Client.Multi(th, ops)
}

func buildKV(cfg *runCfg) (instance, error) {
	in := &kvInst{cfg: cfg, audited: make(chan kvAudit, 1), readErr: make(chan error, kvConns)}
	gw := kvtxn.NewGateway()
	f, err := startFleet("resp", func(th *core.Thread, shard int, ws *web.Server) {
		if shard == 0 {
			in.store = kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 8, LockWait: lockWait})
			gw.Bind(th, in.store)
			in.seed(th)
			in.audit = core.NewExternal(th.Runtime())
			th.Spawn("auditor", in.auditor)
		}
		if !cfg.traced() {
			kvtxn.Mount(ws, gw, "/kv")
			return
		}
		// Traced: mount the store's servlets on an inner server and
		// register wrappers that dispatch to it, so the spans come from
		// this file and the program's own routes stay as they are.
		t := &servletTracer{spans: cfg.spans, shard: shard, seq: map[int]uint32{}}
		inner := web.NewServer(th)
		kvtxn.Mount(inner, tracedKV{gw, t}, "/kv")
		for _, path := range []string{"/kv", "/kv/multi"} {
			ws.Handle(path, t.wrap(inner.Dispatch))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serve_kv_open: %w", err)
	}
	in.f = f
	if in.admin, err = f.dial(); err != nil {
		in.close()
		return nil, fmt.Errorf("serve_kv_open: admin: %w", err)
	}
	for i := range in.conns {
		if in.conns[i], err = f.dial(); err != nil {
			in.close()
			return nil, fmt.Errorf("serve_kv_open: connection %d: %w", i, err)
		}
		// Room for every op of the longest step: the writer must never
		// block on the reader, or the loop would close.
		in.pend[i] = make(chan kvPending, 1<<16)
		in.readers.Add(1)
		go in.read(i, in.pend[i])
	}
	// Set-up ends with one operation served through the gateway.
	var r respReply
	if _, err = in.admin.c.Write([]byte("GET k0\r\n")); err == nil {
		err = readRESP(in.admin.br, &r)
	}
	if err != nil || r.kind != '$' || r.null {
		in.close()
		return nil, fmt.Errorf("serve_kv_open: first GET: %q %v", r.text, err)
	}
	return in, nil
}

// seed stores every plain key and every pair (500/500) directly, on the
// store's own runtime.
func (in *kvInst) seed(th *core.Thread) {
	put := func(k, v string) {
		if err := in.store.Put(th, k, v); err != nil {
			panic(fmt.Sprintf("seed %s: %v", k, err))
		}
	}
	for i := 0; i < kvPlainKeys; i++ {
		put(plainKey(i), "0")
	}
	for i := 0; i < 2*kvPairs; i++ {
		put(pairKey(i), strconv.Itoa(kvPairSum/2))
	}
}

// auditor parks on the store's runtime until the run is over, then waits
// for the store to quiesce and checks every pair.
func (in *kvInst) auditor(th *core.Thread) {
	for {
		if _, err := core.Sync(th, in.audit.Evt()); err == nil {
			break
		}
	}
	var res kvAudit
	deadline := time.Now().Add(5 * time.Second)
	for {
		if res.integrity, res.err = in.store.Audit(th); res.err != nil {
			in.audited <- res
			return
		}
		if res.integrity == (kvtxn.Integrity{}) || time.Now().After(deadline) {
			break
		}
		_ = core.Sleep(th, 2*time.Millisecond)
	}
	for i := 0; i < kvPairs; i++ {
		a, okA, errA := in.store.Get(th, pairKey(2*i))
		b, okB, errB := in.store.Get(th, pairKey(2*i+1))
		an, convA := strconv.Atoi(a)
		bn, convB := strconv.Atoi(b)
		if errA != nil || errB != nil || !okA || !okB || convA != nil || convB != nil || an+bn != kvPairSum {
			res.badPairs++
		}
	}
	in.audited <- res
}

// schedule generates n ops for one step from the seed.
func (in *kvInst) schedule(step int, rate float64, n int) ([]kvOp, float64) {
	r := harness.Rand(in.cfg.seed, fmt.Sprintf("kv-step-%d-%.0f", step, rate))
	h := harness.NewScheduleHash()
	ops := make([]kvOp, n)
	for i := range ops {
		op := kvOp{conn: uint8(i % kvConns), val: uint16(r.Intn(kvPairSum + 1))}
		switch p := r.Float64(); {
		case p < 0.70:
			op.kind, op.key = kvGet, uint16(r.Intn(kvPlainKeys))
		case p < 0.90:
			op.kind, op.key = kvSet, uint16(r.Intn(kvPlainKeys))
		default:
			op.kind, op.key = kvMulti, uint16(r.Intn(kvPairs))
		}
		ops[i] = op
		h.Add(int64(op.kind)<<32 | int64(op.key)<<16 | int64(op.val))
	}
	h.Add(int64(rate))
	return ops, h.Sum()
}

// encode appends op's wire form.
func encode(dst []byte, op kvOp) []byte {
	switch op.kind {
	case kvGet:
		dst = append(dst, "GET k"...)
		dst = strconv.AppendInt(dst, int64(op.key), 10)
	case kvSet:
		dst = append(dst, "SET k"...)
		dst = strconv.AppendInt(dst, int64(op.key), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(op.val), 10)
	case kvMulti:
		return appendTransfer(dst, int(op.key), int(op.val))
	}
	return append(dst, '\r', '\n')
}

// appendTransfer is the pair transfer: both values written in one
// transaction, always summing to kvPairSum.
func appendTransfer(dst []byte, pair, val int) []byte {
	dst = append(dst, "MULTI\r\nSET p"...)
	dst = strconv.AppendInt(dst, int64(2*pair), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(val), 10)
	dst = append(dst, "\r\nSET p"...)
	dst = strconv.AppendInt(dst, int64(2*pair+1), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(kvPairSum-val), 10)
	return append(dst, "\r\nEXEC\r\n"...)
}

// pace runs one step: n ops at rate, open loop. st is nil for warm-up.
func (in *kvInst) pace(stepIdx int, rate float64, dur time.Duration, st *kvStep) {
	n := int(rate * dur.Seconds())
	ops, hash := in.schedule(stepIdx, rate, n)
	var seqs [kvConns]uint32
	buf := make([]byte, 0, 128)
	start := harness.Now() + int64(2*time.Millisecond)
	if st != nil {
		st.schedule = hash
		st.backlog = make([]int32, 0, n)
		st.before = edge{harness.ReadProc(), in.counters()}
		start, _ = st.win.Open()
		start += int64(time.Millisecond)
	}
	due := harness.FixedRate(start, rate, n)
	late, sent := harness.Pace(harness.RealClock{Nap: kvNap}, due, func(i int, d int64) {
		op := ops[i]
		seqs[op.conn]++
		buf = encode(buf[:0], op)
		if st != nil {
			st.backlog = append(st.backlog, int32(in.sentN.Load()-in.doneN.Load()))
		}
		in.sentN.Add(1)
		in.pend[op.conn] <- kvPending{kind: op.kind, due: d, out: harness.Now(), step: st, seq: seqs[op.conn]}
		if _, err := in.conns[op.conn].c.Write(buf); err != nil {
			select {
			case in.readErr <- fmt.Errorf("write: %w", err):
			default:
			}
		}
	}, nil)
	if st != nil {
		st.late, st.sent = late, sent
		// Let the window run out and the pipeline drain before the next
		// step (or the verdict) — an op still outstanding after that is
		// late beyond any limit anyway.
		for harness.Now() < st.win.End() {
			time.Sleep(time.Millisecond)
		}
		st.after = edge{harness.ReadProc(), in.counters()}
	}
	for deadline := time.Now().Add(time.Second); in.doneN.Load() < in.sentN.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func (in *kvInst) counters() counters {
	c := in.f.counters()
	c.store = in.store.Counters()
	return c
}

var (
	respOK        = []byte("OK")
	respQueued    = []byte("QUEUED")
	respCommitted = []byte("COMMITTED")
)

// read is connection i's reader: replies arrive in request order.
func (in *kvInst) read(i int, pend <-chan kvPending) {
	defer in.readers.Done()
	cl := in.conns[i]
	spans := in.cfg.spans
	var r respReply
	fail := func(err error) {
		select {
		case in.readErr <- err:
		default:
		}
	}
	for p := range pend {
		ok := true
		replies := 1
		if p.kind == kvMulti {
			replies = 4
		}
		for k := 0; k < replies; k++ {
			if err := readRESP(cl.br, &r); err != nil {
				fail(fmt.Errorf("connection %d: %w", i, err))
				return
			}
			switch {
			case p.kind == kvGet:
				_, isInt := atoi(r.text)
				ok = r.kind == '$' && !r.null && isInt
			case p.kind == kvSet || k == 0:
				ok = ok && r.kind == '+' && bytes.Equal(r.text, respOK)
			case k < 3:
				ok = ok && r.kind == '+' && bytes.Equal(r.text, respQueued)
			default:
				ok = ok && r.kind == '*' && bytes.Equal(r.text, respCommitted)
			}
		}
		t1 := harness.Now()
		in.doneN.Add(1)
		if spans != nil {
			spans.Add(spClient, opID(cl.shard, cl.sess, p.seq), p.out, t1)
		}
		if p.step == nil {
			continue
		}
		if !ok {
			p.step.recs[i].Fail(t1)
			continue
		}
		p.step.recs[i].Good(t1, t1-p.due, 1)
		p.step.service[i].Add(t1 - p.out)
	}
}

// victims kills one fresh session every kvVictimGap until told to stop.
func (in *kvInst) victimLoop() {
	defer close(in.victimDone)
	r := harness.Rand(in.cfg.seed, "kv-victims")
	tick := time.NewTicker(kvVictimGap)
	defer tick.Stop()
	for {
		select {
		case <-in.victimStop:
			return
		case <-tick.C:
		}
		transfer := appendTransfer(nil, r.Intn(kvPairs), r.Intn(kvPairSum+1))
		ns, err := in.f.victimCycle(in.admin, string(transfer))
		in.vmu.Lock()
		if err != nil {
			in.victimErr = err
			in.vmu.Unlock()
			return
		}
		in.reclaim.add(ns)
		in.victims++
		in.vmu.Unlock()
	}
}

// killProbe measures kill → EOF after the window, on a server kept busy
// by two closed-loop GET connections. The victims inside the window tell
// how a kill disturbs bystanders, but their own reclaim time is set by how
// soon a P that the open-loop generator keeps busy gets to poll the
// network — 125 to 275 µs from one run to the next — so the end-to-end
// number comes from here and theirs is reported beside it.
func (in *kvInst) killProbe(o *outcome) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < kvConns; i++ {
		cl, err := in.f.dial()
		if err != nil {
			o.violations++
			o.notes = append(o.notes, "oracle: probe load: "+err.Error())
			break
		}
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			defer cl.c.Close()
			req := []byte("GET " + key + "\r\n")
			var r respReply
			for !stop.Load() {
				if _, err := cl.c.Write(req); err != nil {
					return
				}
				if readRESP(cl.br, &r) != nil {
					return
				}
			}
		}(plainKey(i))
	}
	victims := kvProbeVictims
	if in.cfg.window < time.Second {
		victims = 20 // the smoke run
	}
	r := harness.Rand(in.cfg.seed, "kv-probe")
	for i := 0; i < victims; i++ {
		transfer := appendTransfer(nil, r.Intn(kvPairs), r.Intn(kvPairSum+1))
		ns, err := in.f.victimCycle(in.admin, string(transfer))
		if err != nil {
			o.violations++
			o.notes = append(o.notes, "oracle: probe victim: "+err.Error())
			break
		}
		o.reclaim.add(ns)
		o.killed++
	}
	stop.Store(true)
	wg.Wait()
}

func (in *kvInst) measure() (*outcome, error) {
	o := &outcome{layer: metrics{}}
	in.victimStop, in.victimDone = make(chan struct{}), make(chan struct{})
	go in.victimLoop()

	in.pace(0, rateR2, in.cfg.warmup, nil)
	stepDur := in.cfg.window / time.Duration(len(in.cfg.rates))
	var steps []*kvStep
	for i, rate := range in.cfg.rates {
		st := &kvStep{rate: rate, win: harness.NewWindow(stepDur)}
		for c := range st.recs {
			st.recs[c] = harness.NewRecorder(st.win)
		}
		steps = append(steps, st)
		in.pace(i+1, rate, stepDur, st)
	}

	close(in.victimStop)
	<-in.victimDone
	in.killProbe(o)
	for i := range in.pend {
		close(in.pend[i])
	}
	in.readers.Wait()
	in.pend = [kvConns]chan kvPending{}

	in.report(o, steps)
	in.oracle(o)
	return o, nil
}

// report turns the steps into the outcome: the end-to-end numbers are the
// r2 step's, the rest is the generator's own account of itself.
func (in *kvInst) report(o *outcome, steps []*kvStep) {
	var failed int64
	atR2 := false
	maxOK := 0.0
	for _, st := range steps {
		sum := harness.Summarize(st.win, st.recs[:]...)
		offered := float64(st.sent) / (st.win.SliceSeconds() * float64(st.win.Slices()))
		achieved := float64(sum.Good) / (st.win.SliceSeconds() * float64(st.win.Slices()))
		third := len(st.backlog) / 3
		growing := third > 0 && mean32(st.backlog[2*third:]) > 2*mean32(st.backlog[:third])+16
		okRate := sum.P99us <= kvLimitP99us && achieved >= 0.98*offered && !growing && sum.Failed == 0
		if okRate && st.rate > maxOK {
			maxOK = st.rate
		}
		switch st.rate {
		case rateR1:
			o.layer["gen.r1_p99_us"] = sum.P99us
		case rateR3:
			o.layer["gen.r3_p99_us"] = sum.P99us
		}
		o.notes = append(o.notes, fmt.Sprintf("rate %.0f: offered %.0f achieved %.0f ops/s, p50 %.1f p99 %.1f us from intended time (%d samples), late p50 %.1f p99 %.1f us, backlog max %d, growing=%v, meets limit=%v",
			st.rate, offered, achieved, sum.P50us, sum.P99us, sum.Samples, st.late.Quantile(0.5)/1e3, st.late.Quantile(0.99)/1e3, max32(st.backlog), growing, okRate))
		failed += sum.Failed
		if st.rate != rateR2 {
			continue
		}
		atR2, o.sum = true, sum
		var service harness.Hist
		for c := range st.service {
			service.Merge(&st.service[c])
		}
		o.layer["gen.offered_rps"] = offered
		o.layer["gen.achieved_rps"] = achieved
		o.layer["gen.late_p50_us"] = st.late.Quantile(0.5) / 1e3
		o.layer["gen.late_p99_us"] = st.late.Quantile(0.99) / 1e3
		o.layer["gen.backlog_max"] = float64(max32(st.backlog))
		o.layer["gen.service_p50_us"] = service.Quantile(0.5) / 1e3
		o.layer["gen.r2_p99_us"] = sum.P99us
		o.layer["gen.schedule_hash"] = st.schedule
		if st.late.Quantile(0.5) > 100e3 {
			o.layer["gen.generator_limited"] = 1
		}
		o.before, o.after = st.before, st.after
	}
	o.layer["gen.max_rate_ok_rps"] = maxOK
	o.sum.Failed = failed // a wrong answer at any rate fails the run
	if !atR2 {
		o.violations++
		o.notes = append(o.notes, "no step at the reference rate")
	}
	o.goPeak = o.after.proc.Goroutines
}

func (in *kvInst) oracle(o *outcome) {
	select {
	case err := <-in.readErr:
		o.violations++
		o.notes = append(o.notes, "oracle: measured connection failed: "+err.Error())
	default:
	}
	if lost := in.sentN.Load() - in.doneN.Load(); lost != 0 {
		o.violations++
		o.notes = append(o.notes, fmt.Sprintf("oracle: %d operations never answered", lost))
	}
	in.vmu.Lock()
	o.killed += in.victims
	o.layer["netsvc.kill_reclaim_open_p50_us"] = harness.Median(in.reclaim) / 1e3
	if in.victimErr != nil {
		o.violations++
		o.notes = append(o.notes, "oracle: victim: "+in.victimErr.Error())
	}
	in.vmu.Unlock()
	in.audit.Complete(core.Unit{})
	select {
	case a := <-in.audited:
		if a.err != nil || a.integrity != (kvtxn.Integrity{}) || a.badPairs != 0 {
			o.violations++
			o.notes = append(o.notes, fmt.Sprintf("oracle: store after quiescence: audit %+v, %d pairs off %d, err %v", a.integrity, a.badPairs, kvPairSum, a.err))
		}
	case <-time.After(20 * time.Second):
		o.violations++
		o.notes = append(o.notes, "oracle: auditor did not answer")
	}
}

func mean32(v []int32) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

func max32(v []int32) int32 {
	var m int32
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func (in *kvInst) close() {
	for i, ch := range in.pend {
		if ch != nil {
			close(ch)
			in.pend[i] = nil
		}
	}
	for _, cl := range in.conns {
		if cl != nil {
			cl.c.Close()
		}
	}
	in.readers.Wait()
	if in.admin != nil {
		in.admin.c.Close()
	}
	if err := in.f.m.Shutdown(shutdownGrace); err != nil {
		fmt.Println("note: serve_kv_open: shutdown:", err)
	}
}
