package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/kvtxn"
	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/obs"
)

// txn_transfer: 2 workers on one Locking store of 1,024 accounts run
// two-key transactions drawn from a Zipf(0.9): 80 % sum-preserving
// transfers, 20 % read-only. Keys are locked in sorted order, so the two
// workers wait for each other but never deadlock. A killer kills a worker
// that is inside a transaction 50 times a second, then times how long a
// probe transaction on the victim's first locked key takes to commit —
// the kill must give the lock back — and spawns a replacement.
//
// One op is one committed transaction.

const (
	txnWorkers   = 2
	txnAccounts  = 1024
	txnBalance   = 1000
	txnTheta     = 0.9
	txnReadShare = 0.2
	txnKillEvery = 20 * time.Millisecond
)

// lockWait is how long a lock acquire waits before the store turns the
// wait into ErrConflict, which this benchmark counts as a failed op. Keys
// are locked in sorted order and a killed owner's locks come back within
// a millisecond, so no wait here is long — unless the hypervisor takes
// the CPU away: with the store's default of 100 ms, a quarter-hour of
// heavy steal on the host failed five runs in a row. A second outlasts
// that without hiding a wedged lock, which the audit would report anyway.
const lockWait = time.Second

type txnSlot struct {
	idx   int
	rec   *harness.Recorder
	th    *core.Thread
	gen   int          // incarnations so far; seeds each one's stream
	inTxn atomic.Int32 // 1 while the worker holds its first lock
	key   atomic.Int32 // that lock's account
	ops   int64
}

type txnInst struct {
	cfg   *runCfg
	rt    *core.Runtime
	obs   *obs.Obs
	win   *harness.Window
	store *kvtxn.Store
	zipf  *harness.Zipf
	keys  []string
	slots []*txnSlot
	stop  atomic.Bool

	firstErr atomic.Value // string: why the first failed transaction failed

	killer *core.Thread

	mu       sync.Mutex // guards the fields below between killer and harness
	reclaim  samples
	kills    int64
	probeBad int64
}

func buildTxn(cfg *runCfg) (instance, error) {
	in := &txnInst{cfg: cfg, rt: core.NewRuntime(), win: harness.NewWindow(cfg.window), zipf: harness.NewZipf(txnAccounts, txnTheta)}
	if cfg.traced() {
		in.obs = obs.New()
		in.obs.Attach(in.rt)
	}
	in.keys = make([]string, txnAccounts)
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("acct%04d", i)
	}
	err := in.rt.Run(func(th *core.Thread) {
		in.store = kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 8, LockWait: lockWait})
		for _, k := range in.keys {
			if err := in.store.Put(th, k, strconv.Itoa(txnBalance)); err != nil {
				panic(fmt.Sprintf("seed %s: %v", k, err))
			}
		}
	})
	if err != nil {
		in.close()
		return nil, fmt.Errorf("txn_transfer: %w", err)
	}
	for i := 0; i < txnWorkers; i++ {
		s := &txnSlot{idx: i, rec: harness.NewRecorder(in.win)}
		in.slots = append(in.slots, s)
		in.spawn(s)
	}
	in.killer = in.rt.Spawn("killer", in.killLoop)
	return in, nil
}

func (in *txnInst) spawn(s *txnSlot) {
	s.gen++
	r := harness.Rand(in.cfg.seed, fmt.Sprintf("txn-worker-%d-%d", s.idx, s.gen))
	s.inTxn.Store(0)
	s.th = in.rt.Spawn(fmt.Sprintf("worker-%d", s.idx), func(th *core.Thread) {
		for !in.stop.Load() {
			a, b := in.zipf.Draw(r), in.zipf.Draw(r)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			readOnly := r.Float64() < txnReadShare
			amount := 1 + r.Intn(5)
			if r.Intn(2) == 0 {
				amount = -amount
			}
			in.txn(th, s, a, b, readOnly, amount)
		}
	})
}

// txn runs one transaction.
func (in *txnInst) txn(th *core.Thread, s *txnSlot, a, b int, readOnly bool, amount int) {
	spans := in.cfg.spans
	s.ops++
	op := uint64(s.idx)<<40 | uint64(s.gen)<<28 | uint64(s.ops)
	span := func(name int, t0 int64) {
		if spans != nil {
			spans.Add(name, op, t0, harness.Now())
		}
	}
	t0 := harness.Now()
	tx, err := in.store.Begin(th)
	span(spTxnBegin, t0)
	if err != nil {
		in.firstErr.CompareAndSwap(nil, "Begin: "+err.Error())
		s.rec.Fail(harness.Now())
		return
	}
	fail := func(step string, err error) {
		s.inTxn.Store(0)
		_ = tx.Abort(th)
		in.firstErr.CompareAndSwap(nil, fmt.Sprintf("%s %s/%s: %v", step, in.keys[a], in.keys[b], err))
		s.rec.Fail(harness.Now())
	}
	t := harness.Now()
	av, okA, err := tx.Get(th, in.keys[a])
	span(spTxnGet, t)
	if err != nil || !okA {
		fail("first Get", err)
		return
	}
	s.key.Store(int32(a))
	s.inTxn.Store(1)
	t = harness.Now()
	bv, okB, err := tx.Get(th, in.keys[b])
	span(spTxnGet, t)
	if err != nil || !okB {
		fail("second Get", err)
		return
	}
	if !readOnly {
		an, errA := strconv.Atoi(av)
		bn, errB := strconv.Atoi(bv)
		if errA != nil || errB != nil {
			fail("balance", fmt.Errorf("%q, %q", av, bv))
			return
		}
		_ = tx.Put(in.keys[a], strconv.Itoa(an-amount))
		_ = tx.Put(in.keys[b], strconv.Itoa(bn+amount))
	}
	t = harness.Now()
	err = tx.Commit(th)
	s.inTxn.Store(0)
	t1 := harness.Now()
	if spans != nil {
		spans.Add(spTxnCommit, op, t, t1)
		spans.Add(spTxn, op, t0, t1)
	}
	if err != nil {
		in.firstErr.CompareAndSwap(nil, "Commit: "+err.Error())
		s.rec.Fail(t1)
		return
	}
	s.rec.Good(t1, t1-t0, 1)
}

func (in *txnInst) killLoop(th *core.Thread) {
	r := harness.Rand(in.cfg.seed, "txn-kills")
	next := time.Now().Add(txnKillEvery)
	for !in.stop.Load() {
		if core.Sleep(th, time.Until(next)) != nil {
			continue
		}
		if next = next.Add(txnKillEvery); time.Until(next) < -10*txnKillEvery {
			next = time.Now()
		}
		s := in.slots[r.Intn(len(in.slots))]
		// Wait (briefly) for the victim to be inside a transaction.
		for spin := 0; s.inTxn.Load() == 0 && spin < 2000; spin++ {
			_ = th.Yield()
		}
		key := in.keys[s.key.Load()]
		t0 := harness.Now()
		s.th.Kill()
		ok := in.probe(th, key)
		t1 := harness.Now()
		_, _ = core.Sync(th, s.th.DoneEvt())
		in.mu.Lock()
		in.kills++
		if ok {
			in.reclaim.add(t1 - t0)
		} else {
			in.probeBad++
		}
		in.mu.Unlock()
		if !in.stop.Load() {
			in.spawn(s)
		}
	}
}

// probe commits a transaction that locks key and writes its value back:
// it can only finish once the killed owner's lock has been reclaimed, and
// it leaves the account sum alone.
func (in *txnInst) probe(th *core.Thread, key string) bool {
	tx, err := in.store.Begin(th)
	if err != nil {
		return false
	}
	v, found, err := tx.Get(th, key)
	if err != nil || !found {
		_ = tx.Abort(th)
		return false
	}
	_ = tx.Put(key, v)
	return tx.Commit(th) == nil
}

func (in *txnInst) snap() counters {
	c := counters{store: in.store.Counters()}
	if in.obs != nil {
		c.obs = in.obs.Snapshot()
	}
	return c
}

func (in *txnInst) measure() (*outcome, error) {
	o := &outcome{layer: metrics{}}
	o.before, o.after, o.goPeak = in.cfg.timeline(in.win, in.snap)
	in.stop.Store(true)
	err := in.rt.Run(func(th *core.Thread) {
		_, _ = core.Sync(th, in.killer.DoneEvt())
		recs := make([]*harness.Recorder, len(in.slots))
		for i, s := range in.slots {
			_, _ = core.Sync(th, s.th.DoneEvt())
			recs[i] = s.rec
		}
		o.sum = harness.Summarize(in.win, recs...)
		in.oracle(th, o)
	})
	if err != nil {
		return nil, fmt.Errorf("txn_transfer: %w", err)
	}
	if why := in.firstErr.Load(); why != nil && o.sum.Failed > 0 {
		o.notes = append(o.notes, "first failed transaction: "+why.(string))
	}
	in.mu.Lock()
	o.reclaim = in.reclaim
	o.killed = in.kills
	if in.probeBad > 0 {
		o.violations += in.probeBad
		o.notes = append(o.notes, fmt.Sprintf("oracle: %d probe transactions on a killed worker's key did not commit", in.probeBad))
	}
	in.mu.Unlock()
	return o, nil
}

// oracle: once the death-watch aborters have quiesced the store audits
// all-zero, and the account sum is what was seeded.
func (in *txnInst) oracle(th *core.Thread, o *outcome) {
	var audit kvtxn.Integrity
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, err := in.store.Audit(th)
		if err != nil {
			o.violations++
			o.notes = append(o.notes, "oracle: audit: "+err.Error())
			return
		}
		audit = a
		if a == (kvtxn.Integrity{}) || time.Now().After(deadline) {
			break
		}
		_ = core.Sleep(th, time.Millisecond)
	}
	if audit != (kvtxn.Integrity{}) {
		o.violations++
		o.notes = append(o.notes, fmt.Sprintf("oracle: store audit not clean after quiescence: %+v", audit))
	}
	sum := 0
	for _, k := range in.keys {
		v, found, err := in.store.Get(th, k)
		n, convErr := strconv.Atoi(v)
		if err != nil || !found || convErr != nil {
			o.violations++
			o.notes = append(o.notes, "oracle: account "+k+" unreadable")
			return
		}
		sum += n
	}
	if sum != txnAccounts*txnBalance {
		o.violations++
		o.notes = append(o.notes, fmt.Sprintf("oracle: account sum %d, want %d", sum, txnAccounts*txnBalance))
	}
}

func (in *txnInst) close() {
	in.stop.Store(true)
	in.rt.Shutdown()
}
