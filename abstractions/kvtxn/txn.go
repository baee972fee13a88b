package kvtxn

import (
	"sort"

	"repro/internal/core"
)

// Txn is a client-side transaction handle: a read-set, a buffered
// write-set, and (under Locking) the set of shards where the client holds
// read locks. The handle itself owns no store state — everything durable
// lives behind the shard managers — so a client killed while holding a
// Txn leaves only locks, and those are reclaimed by the transaction
// manager's death watch. A Txn is not safe for concurrent use; it belongs
// to the thread that began it.
type Txn struct {
	s        *Store
	id       uint64
	finished bool

	readSet   map[string]getReply
	readOrder []string
	writeSet  map[string]writeOp
	wOrder    []string
	touched   map[int]bool // locking: shards holding our read locks
}

// Begin starts a transaction owned by th. Under Locking the transaction
// is registered with the transaction manager, which from this moment
// watches th's DoneEvt: killing th at any later instant releases every
// lock the transaction holds. Under OCC there is nothing to register —
// an optimistic transaction owns nothing until commit.
func (s *Store) Begin(th *core.Thread) (*Txn, error) {
	t := &Txn{
		s:        s,
		id:       s.nextTxn.Add(1),
		readSet:  make(map[string]getReply),
		writeSet: make(map[string]writeOp),
		touched:  make(map[int]bool),
	}
	if s.opts.Strategy == Locking {
		if _, err := s.tm.request(th, &txnReq{kind: tmBegin, txn: t.id, client: th}); err != nil {
			return nil, err
		}
	}
	s.begins.Add(1)
	return t, nil
}

// ID exposes the transaction id (for tests pinning commit order).
func (t *Txn) ID() uint64 { return t.id }

// Get reads key within the transaction: the buffered write if one exists,
// the cached earlier read otherwise (repeatable reads), else the store.
// Under Locking the first read of a key acquires its exclusive lock,
// waiting its turn up to LockWait — a timeout reports ErrConflict and the
// caller should Abort. Under OCC the read is an unlocked snapshot whose
// version is validated at commit.
func (t *Txn) Get(th *core.Thread, key string) (string, bool, error) {
	if t.finished {
		return "", false, ErrTxnDone
	}
	if w, ok := t.writeSet[key]; ok {
		if w.del {
			return "", false, nil
		}
		return w.val, true, nil
	}
	if r, ok := t.readSet[key]; ok {
		return r.val, r.found, nil
	}
	t.s.gets.Add(1)
	shard := t.s.ShardOf(key)
	var v core.Value
	var err error
	if t.s.opts.Strategy == Locking {
		v, err = t.s.shardRequest(th, t.s.shards[shard], &shardReq{kind: reqLockGet, txn: t.id, key: key}, t.s.opts.LockWait)
	} else {
		v, err = t.s.shardRequest(th, t.s.shards[shard], &shardReq{kind: reqGet, key: key}, 0)
	}
	if err != nil {
		return "", false, err
	}
	if _, timedOut := v.(lockTimeout); timedOut {
		return "", false, ErrConflict
	}
	r := v.(getReply)
	t.readSet[key] = r
	t.readOrder = append(t.readOrder, key)
	if t.s.opts.Strategy == Locking {
		t.touched[shard] = true
	}
	return r.val, r.found, nil
}

// Put buffers key=val in the write-set; nothing reaches the store until
// Commit.
func (t *Txn) Put(key, val string) error {
	return t.bufferWrite(writeOp{key: key, val: val})
}

// Delete buffers a deletion of key.
func (t *Txn) Delete(key string) error {
	return t.bufferWrite(writeOp{key: key, del: true})
}

func (t *Txn) bufferWrite(w writeOp) error {
	if t.finished {
		return ErrTxnDone
	}
	if _, ok := t.writeSet[w.key]; !ok {
		t.wOrder = append(t.wOrder, w.key)
	}
	t.writeSet[w.key] = w
	return nil
}

// plan groups the transaction's footprint by shard, sorted by shard
// index. Under Locking a shard the transaction only read from still gets
// an entry: its read locks are released there at commit.
func (t *Txn) plan() []shardPlan {
	byShard := make(map[int]*shardPlan)
	at := func(shard int) *shardPlan {
		p := byShard[shard]
		if p == nil {
			p = &shardPlan{shard: shard}
			byShard[shard] = p
		}
		return p
	}
	if t.s.opts.Strategy == OCC {
		for _, key := range t.readOrder {
			at(t.s.ShardOf(key)).reads = append(at(t.s.ShardOf(key)).reads, readCheck{key: key, ver: t.readSet[key].ver})
		}
	}
	for shard := range t.touched {
		at(shard)
	}
	for _, key := range t.wOrder {
		at(t.s.ShardOf(key)).writes = append(at(t.s.ShardOf(key)).writes, t.writeSet[key])
	}
	plans := make([]shardPlan, 0, len(byShard))
	for _, p := range byShard {
		plans = append(plans, *p)
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].shard < plans[j].shard })
	return plans
}

// Commit submits the transaction. Under Locking the client first takes
// its write locks itself, shard by shard in sorted order, each wait an
// abortable one bounded by LockWait — exactly like the read locks Get
// takes, so a kill there aborts the transaction through the death watch,
// and a timeout aborts it and reports ErrConflict. Then, under Locking
// and multi-shard OCC, one rendezvous hands the plan to the transaction
// manager: the hand-off is the commit point. Once that rendezvous
// commits, the manager finishes the transaction in the same action and
// the client is dispensable — kill it and the transaction still commits
// atomically. Before the rendezvous, the nack guarantee withdraws the
// request and the death watch releases any locks: the transaction never
// happened. ErrConflict means validation or lock acquisition failed and
// nothing was installed.
func (t *Txn) Commit(th *core.Thread) error {
	if t.finished {
		return ErrTxnDone
	}
	t.finished = true
	plan := t.plan()
	if t.s.opts.Strategy == OCC {
		switch len(plan) {
		case 0:
			t.s.commits.Add(1)
			return nil
		case 1:
			// Single-shard fast path: validate + install atomically inside
			// the one shard manager, no transaction-manager round trip.
			p := plan[0]
			v, err := t.s.shardRequest(th, t.s.shards[p.shard], &shardReq{kind: reqOCCCommit, txn: t.id, reads: p.reads, writes: p.writes}, 0)
			if err != nil {
				return err
			}
			if !v.(okReply).ok {
				t.s.aborts.Add(1)
				return ErrConflict
			}
			return nil
		}
	} else {
		for _, p := range plan {
			if len(p.writes) == 0 {
				continue
			}
			v, err := t.s.shardRequest(th, t.s.shards[p.shard], &shardReq{kind: reqLockKeys, txn: t.id, writes: p.writes}, t.s.opts.LockWait)
			if err != nil {
				return err
			}
			if _, timedOut := v.(lockTimeout); timedOut {
				if err := t.abort(th); err != nil {
					return err
				}
				return ErrConflict
			}
		}
	}
	v, err := t.s.tm.request(th, &txnReq{kind: tmCommit, txn: t.id, plan: plan})
	if err != nil {
		return err
	}
	if !v.(okReply).ok {
		return ErrConflict
	}
	return nil
}

// Abort abandons the transaction, releasing any locks it holds.
func (t *Txn) Abort(th *core.Thread) error {
	if t.finished {
		return ErrTxnDone
	}
	t.finished = true
	return t.abort(th)
}

func (t *Txn) abort(th *core.Thread) error {
	t.s.aborts.Add(1)
	if t.s.opts.Strategy != Locking {
		return nil // nothing in the store belongs to an uncommitted OCC txn
	}
	_, err := t.s.tm.request(th, &txnReq{kind: tmAbort, txn: t.id})
	return err
}

// OpKind tags a step of a wholesale multi-op transaction.
type OpKind int

const (
	OpRead OpKind = iota
	OpWrite
	OpDelete
)

// Op is one step of a transaction submitted wholesale via Multi — the
// form the wire servlet and the cross-runtime gateway speak.
type Op struct {
	Kind OpKind
	Key  string
	Val  string
}

// ReadResult is the outcome of one OpRead.
type ReadResult struct {
	Key   string
	Val   string
	Found bool
}

// MultiResult reports a Multi execution: reads observed and whether the
// transaction committed (false means a clean conflict abort).
type MultiResult struct {
	Committed bool
	Reads     []ReadResult
}

// Multi runs ops in order inside one transaction and commits. A conflict
// anywhere aborts cleanly and returns Committed=false; other errors
// (kill, runtime shutdown) propagate.
func (s *Store) Multi(th *core.Thread, ops []Op) (MultiResult, error) {
	t, err := s.Begin(th)
	if err != nil {
		return MultiResult{}, err
	}
	var res MultiResult
	for _, op := range ops {
		switch op.Kind {
		case OpRead:
			val, found, err := t.Get(th, op.Key)
			if err == ErrConflict {
				_ = t.Abort(th)
				return MultiResult{}, nil
			}
			if err != nil {
				_ = t.Abort(th)
				return MultiResult{}, err
			}
			res.Reads = append(res.Reads, ReadResult{Key: op.Key, Val: val, Found: found})
		case OpWrite:
			_ = t.Put(op.Key, op.Val)
		case OpDelete:
			_ = t.Delete(op.Key)
		}
	}
	switch err := t.Commit(th); err {
	case nil:
		res.Committed = true
		return res, nil
	case ErrConflict:
		return MultiResult{}, nil
	default:
		return MultiResult{}, err
	}
}
