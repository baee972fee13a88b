package kvtxn

import (
	"fmt"

	"repro/internal/core"
)

// reqKind discriminates shard-manager requests.
type reqKind int

const (
	// Serviced at dequeue time (mutate-then-reply; the sender is either
	// the transaction manager, which never abandons its reply, or — for
	// reqGet and reqOCCCommit — a client whose desertion after the request
	// rendezvous is semantically "after the operation happened").
	reqGet        reqKind = iota // committed snapshot read
	reqOCCCommit                 // single-shard validate + install, atomically
	reqInstall                   // manager: apply writes, release txn's locks here
	reqRelease                   // manager: release txn's locks + prepares (abort, dead owner)
	reqOCCPrepare                // manager: validate reads, prepare-lock writes
	reqOCCFinish                 // manager: install (or discard) prepared writes
	reqAudit                     // integrity self-report

	// Parked in the wait list until serviceable; the grant mutates only in
	// the reply arm's action, so an abandoned waiter (nack) leaves no
	// trace — the CQS abortable-waiter semantics.
	reqSet      // autocommit write: wait for key to be unlocked
	reqLockGet  // locking txn: acquire exclusive key lock + read
	reqLockKeys // locking commit: acquire the txn's write locks in this shard
)

// writeOp is one buffered mutation of a transaction's write-set.
type writeOp struct {
	key string
	val string
	del bool
}

// readCheck is one read-set entry for OCC validation: the version the
// transaction observed (0 = key absent).
type readCheck struct {
	key string
	ver uint64
}

// shardReq is one request to a shard manager. out/gaveUp follow the
// msgqueue request idiom; res carries the reply for dequeue-serviced
// kinds awaiting delivery.
type shardReq struct {
	kind     reqKind
	txn      uint64
	key      string
	val      string
	del      bool
	reads    []readCheck // occ validation entries owned by this shard
	writes   []writeOp   // reqInstall / reqOCCPrepare / reqLockKeys
	commitIt bool        // reqOCCFinish: install (true) or discard

	out    *core.Chan
	gaveUp core.Event
	res    core.Value
}

// getReply answers reads; okReply answers grants, installs, and OCC
// verdicts.
type getReply struct {
	val   string
	ver   uint64
	found bool
}

type okReply struct{ ok bool }

// entry is one key's committed state.
type entry struct {
	val string
	ver uint64
}

// shardMgr is one data shard: a manager thread owning a slice of the
// keyspace, its exclusive lock table, and its OCC prepare stashes. All
// state below the thread handle is touched only by the manager, between
// two Syncs — which is exactly what makes installs kill-atomic: a kill
// lands only at a safe point, and the manager's safe points are all in
// its top-level Sync.
type shardMgr struct {
	store *Store
	idx   int
	th    *core.Thread
	reqCh *core.Chan
}

func newShardMgr(th *core.Thread, s *Store, idx int) *shardMgr {
	sh := &shardMgr{
		store: s,
		idx:   idx,
		reqCh: core.NewChanNamed(s.rt, fmt.Sprintf("kvtxn-shard-%d-req", idx)),
	}
	sh.th = th.Spawn(fmt.Sprintf("kvtxn-shard-%d", idx), sh.serve)
	return sh
}

func (sh *shardMgr) serve(mgr *core.Thread) {
	data := make(map[string]*entry)
	locks := make(map[string]uint64)  // key -> holding txn (also OCC prepare-marks)
	held := make(map[uint64][]string) // txn -> keys it locks in this shard
	prep := make(map[uint64][]writeOp)
	var verSeq uint64 // shard-wide monotonic version source
	var wait []*shardReq
	var done []*shardReq

	remove := func(list *[]*shardReq, r *shardReq) {
		for i, x := range *list {
			if x == r {
				*list = append((*list)[:i], (*list)[i+1:]...)
				return
			}
		}
	}

	read := func(key string) getReply {
		if e, ok := data[key]; ok {
			return getReply{val: e.val, ver: e.ver, found: true}
		}
		return getReply{}
	}
	apply := func(writes []writeOp) {
		for _, w := range writes {
			if w.del {
				delete(data, w.key)
				continue
			}
			verSeq++
			data[w.key] = &entry{val: w.val, ver: verSeq}
		}
	}
	lock := func(txn uint64, key string) {
		if locks[key] != txn {
			locks[key] = txn
			held[txn] = append(held[txn], key)
		}
	}
	release := func(txn uint64) {
		for _, k := range held[txn] {
			if locks[k] == txn {
				delete(locks, k)
			}
		}
		delete(held, txn)
		delete(prep, txn)
	}
	curVer := func(key string) uint64 {
		if e, ok := data[key]; ok {
			return e.ver
		}
		return 0
	}
	// validate checks a read-set against current versions. A key that is
	// prepare-locked by *another* transaction also fails: its new value is
	// mid-install somewhere in the store, and accepting the old version
	// here could let a cross-shard reader see shard A after a commit and
	// shard B before it.
	validate := func(txn uint64, reads []readCheck) bool {
		for _, rc := range reads {
			if curVer(rc.key) != rc.ver {
				return false
			}
			if l := locks[rc.key]; l != 0 && l != txn {
				return false
			}
		}
		return true
	}

	// handle services a dequeue-time request and queues its reply.
	handle := func(r *shardReq) {
		switch r.kind {
		case reqGet:
			r.res = read(r.key)
		case reqOCCCommit:
			ok := validate(r.txn, r.reads)
			if ok {
				for _, w := range r.writes {
					if l := locks[w.key]; l != 0 && l != r.txn {
						ok = false
						break
					}
				}
			}
			if ok {
				apply(r.writes)
				sh.store.commits.Add(1)
				if fn := sh.store.opts.OnCommit; fn != nil {
					fn(r.txn)
				}
			}
			r.res = okReply{ok: ok}
		case reqInstall:
			apply(r.writes)
			release(r.txn)
			r.res = okReply{ok: true}
		case reqRelease:
			release(r.txn)
			r.res = okReply{ok: true}
		case reqOCCPrepare:
			ok := validate(r.txn, r.reads)
			if ok {
				for _, w := range r.writes {
					if l := locks[w.key]; l != 0 && l != r.txn {
						ok = false
						break
					}
				}
			}
			if ok {
				for _, w := range r.writes {
					lock(r.txn, w.key)
				}
				prep[r.txn] = r.writes
			}
			r.res = okReply{ok: ok}
		case reqOCCFinish:
			if r.commitIt {
				apply(prep[r.txn])
			}
			release(r.txn)
			r.res = okReply{ok: true}
		case reqAudit:
			r.res = Integrity{
				HeldLocks:    len(locks),
				WaitingReqs:  len(wait),
				PreparedTxns: len(prep),
			}
		}
		done = append(done, r)
	}

	// serviceEvt returns the grant event for a parked request, or nil if
	// it must keep waiting. Reply values are computed here, at arm
	// construction: the manager's state is frozen while it is parked in
	// Sync, and exactly one arm commits per Sync, so the value cannot go
	// stale. Mutations live in the arm's action — after the reply
	// rendezvous commits — so a waiter that gives up (nack) mutates
	// nothing.
	serviceEvt := func(r *shardReq) core.Event {
		switch r.kind {
		case reqSet:
			if locks[r.key] != 0 {
				return nil
			}
			return core.Wrap(r.out.SendEvt(okReply{ok: true}), func(core.Value) core.Value {
				return func() {
					apply([]writeOp{{key: r.key, val: r.val, del: r.del}})
					remove(&wait, r)
				}
			})
		case reqLockGet:
			if l := locks[r.key]; l != 0 && l != r.txn {
				return nil
			}
			return core.Wrap(r.out.SendEvt(read(r.key)), func(core.Value) core.Value {
				return func() {
					lock(r.txn, r.key)
					remove(&wait, r)
				}
			})
		case reqLockKeys:
			for _, w := range r.writes {
				if l := locks[w.key]; l != 0 && l != r.txn {
					return nil
				}
			}
			return core.Wrap(r.out.SendEvt(okReply{ok: true}), func(core.Value) core.Value {
				return func() {
					for _, w := range r.writes {
						lock(r.txn, w.key)
					}
					remove(&wait, r)
				}
			})
		}
		return nil
	}

	for {
		evts := []core.Event{
			core.Wrap(sh.reqCh.RecvEvt(), func(v core.Value) core.Value {
				return func() {
					r := v.(*shardReq)
					if r.kind >= reqSet {
						wait = append(wait, r)
						return
					}
					handle(r)
				}
			}),
		}
		for _, r := range wait {
			r := r
			if ev := serviceEvt(r); ev != nil {
				evts = append(evts, ev)
			}
			if r.gaveUp != nil {
				evts = append(evts, core.Wrap(r.gaveUp, func(core.Value) core.Value {
					return func() { remove(&wait, r) }
				}))
			}
		}
		for _, r := range done {
			r := r
			evts = append(evts, core.Wrap(r.out.SendEvt(r.res), func(core.Value) core.Value {
				return func() { remove(&done, r) }
			}))
			if r.gaveUp != nil {
				evts = append(evts, core.Wrap(r.gaveUp, func(core.Value) core.Value {
					return func() { remove(&done, r) }
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
