package kvtxn

import "repro/internal/core"

// tmKind discriminates transaction-manager requests.
type tmKind int

const (
	tmBegin  tmKind = iota // register a locking transaction
	tmCommit               // hand off a commit plan; the manager finishes it
	tmAbort                // explicit abort: release every lock, retire
	tmAudit                // live-transaction count
)

// shardPlan is a transaction's footprint in one shard, assembled by the
// client at commit time. Plans are sorted by shard index so write locks
// and OCC prepares are taken in a global order (no commit/commit
// deadlock) and so execution is deterministic under the virtual clock.
type shardPlan struct {
	shard  int
	reads  []readCheck // OCC validation entries
	writes []writeOp
}

// txnReq is one request to the transaction manager.
type txnReq struct {
	kind   tmKind
	txn    uint64
	client *core.Thread // tmBegin: the owner whose death aborts the txn
	plan   []shardPlan  // tmCommit

	out    *core.Chan
	gaveUp core.Event
	res    core.Value
}

// txnMgr is the store-wide transaction registry. It watches every live
// locking transaction owner's DoneEvt and releases the locks of the dead
// — the reason a kill can wedge nothing — and it finishes every handed-off
// commit inline, in the same action that accepts the hand-off, which is
// the reason a commit, once handed off, is all-or-nothing regardless of
// what happens to the client. Its inline shard requests never wait on
// another transaction: installs, releases and OCC prepares are serviced
// at dequeue, and the one commit step that can wait — write-lock
// acquisition — is the client's own abortable wait, taken before the
// hand-off.
type txnMgr struct {
	store *Store
	th    *core.Thread
	reqCh *core.Chan
}

func newTxnMgr(th *core.Thread, s *Store) *txnMgr {
	tm := &txnMgr{
		store: s,
		reqCh: core.NewChanNamed(s.rt, "kvtxn-tm-req"),
	}
	tm.th = th.Spawn("kvtxn-tm", tm.serve)
	return tm
}

func (tm *txnMgr) serve(mgr *core.Thread) {
	owners := make(map[uint64]*core.Thread) // live locking txn -> owner
	var order []uint64                      // registry iteration order: registration order
	var done []*txnReq

	removeDone := func(r *txnReq) {
		for i, x := range done {
			if x == r {
				done = append(done[:i], done[i+1:]...)
				return
			}
		}
	}
	retire := func(txn uint64) {
		if _, ok := owners[txn]; !ok {
			return
		}
		delete(owners, txn)
		for i, id := range order {
			if id == txn {
				order = append(order[:i], order[i+1:]...)
				return
			}
		}
	}
	reply := func(r *txnReq, v core.Value) {
		r.res = v
		done = append(done, r)
	}

	// Each case is one manager action: nothing else the manager serves —
	// in particular no owner's DoneEvt — can interleave between accepting
	// a request and retiring its transaction, so exactly one agent ever
	// acts on a transaction.
	handle := func(r *txnReq) {
		switch r.kind {
		case tmBegin:
			// Registered at dequeue: if the client dies before it even
			// receives this reply, the DoneEvt arm below cleans up.
			owners[r.txn] = r.client
			order = append(order, r.txn)
			reply(r, okReply{ok: true})
		case tmCommit:
			// The hand-off is the commit point; the owner's death from
			// here on is irrelevant.
			ok := tm.finish(mgr, r)
			retire(r.txn)
			reply(r, okReply{ok: ok})
		case tmAbort:
			tm.releaseEverywhere(mgr, r.txn)
			retire(r.txn)
			reply(r, okReply{ok: true})
		case tmAudit:
			reply(r, len(owners))
		}
	}

	for {
		evts := []core.Event{
			core.Wrap(tm.reqCh.RecvEvt(), func(v core.Value) core.Value {
				return func() { handle(v.(*txnReq)) }
			}),
		}
		for _, id := range order {
			id := id
			// The breaker idiom, store-wide: a live transaction whose
			// owner dies is aborted by the manager itself.
			evts = append(evts, core.Wrap(owners[id].DoneEvt(), func(core.Value) core.Value {
				return func() {
					tm.store.killAborts.Add(1)
					tm.releaseEverywhere(mgr, id)
					retire(id)
				}
			}))
		}
		for _, r := range done {
			r := r
			evts = append(evts, core.Wrap(r.out.SendEvt(r.res), func(core.Value) core.Value {
				return func() { removeDone(r) }
			}))
			if r.gaveUp != nil {
				evts = append(evts, core.Wrap(r.gaveUp, func(core.Value) core.Value {
					return func() { removeDone(r) }
				}))
			}
		}
		act, err := core.Sync(mgr, core.Choice(evts...))
		if err != nil {
			continue
		}
		act.(func())()
	}
}

// request is the client-side exchange with the transaction manager,
// nack-guarded like every store operation.
func (tm *txnMgr) request(th *core.Thread, req *txnReq) (core.Value, error) {
	ev := core.NackGuard(func(g *core.Thread, nack core.Event) core.Event {
		core.ResumeVia(tm.th, g)
		req.gaveUp = nack
		req.out = core.NewChanNamed(tm.store.rt, "kvtxn-tm-reply")
		if _, err := core.Sync(g, tm.reqCh.SendEvt(req)); err != nil {
			g.Break()
			return core.Never()
		}
		return req.out.RecvEvt()
	})
	return core.Sync(th, ev)
}

func (tm *txnMgr) liveCount(th *core.Thread) (int, error) {
	v, err := tm.request(th, &txnReq{kind: tmAudit})
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}

// releaseEverywhere releases txn's locks and prepare stashes in every
// shard: the footprint of an aborted or dead owner's transaction is not
// known (the owner died without telling anyone), and release is
// idempotent.
func (tm *txnMgr) releaseEverywhere(mgr *core.Thread, txn uint64) {
	for _, sh := range tm.store.shards {
		_, _ = tm.store.shardRequest(mgr, sh, &shardReq{kind: reqRelease, txn: txn}, 0)
	}
}

// finish drives a handed-off commit to its verdict.
//
// Locking: the client already holds every lock of its footprint — the
// read locks from Txn.Get, the write locks from Commit — so the commit
// is decided; each shard of the plan installs its writes (if any) and
// releases the transaction's locks there, so no reader can observe half
// a commit.
//
// OCC: prepare each shard in sorted order (validate the read-set,
// prepare-lock the write-set), then finish every shard with the common
// verdict. Prepare-marks make cross-shard installs opaque: any concurrent
// validator that touches a prepared key conflicts instead of seeing one
// shard new and another old.
//
// A shard request fails only when the runtime is going down, and then
// nothing the transaction touched outlives it.
func (tm *txnMgr) finish(mgr *core.Thread, req *txnReq) bool {
	s := tm.store
	ok := true
	if s.opts.Strategy == OCC {
		for _, p := range req.plan {
			v, err := s.shardRequest(mgr, s.shards[p.shard], &shardReq{kind: reqOCCPrepare, txn: req.txn, reads: p.reads, writes: p.writes}, 0)
			if err != nil {
				return false
			}
			if !v.(okReply).ok {
				ok = false
				break
			}
		}
	}
	if ok {
		s.commits.Add(1)
		if fn := s.opts.OnCommit; fn != nil {
			fn(req.txn)
		}
	} else {
		s.aborts.Add(1)
	}
	for _, p := range req.plan {
		fin := shardReq{kind: reqInstall, txn: req.txn, writes: p.writes}
		if s.opts.Strategy == OCC {
			fin = shardReq{kind: reqOCCFinish, txn: req.txn, commitIt: ok}
		}
		if _, err := s.shardRequest(mgr, s.shards[p.shard], &fin, 0); err != nil {
			return false
		}
	}
	return ok
}
