// Package kvtxn is a sharded in-memory key/value store with multi-key
// transactions, built so that a participant killed at any instant either
// commits atomically or leaves no trace. It is the strongest stress of the
// paper's central claim: a client killed between lock-acquire and commit
// must neither wedge a lock nor leak a half-commit.
//
// The store is a small society of manager threads. Each data shard is one
// manager owning a slice of the keyspace — values, versions, and an
// exclusive per-key lock table. A store-wide transaction manager owns the
// transaction registry and, crucially, the *fate* of every commit: a
// client's Commit takes its own write locks (Locking) and then hands the
// plan to the transaction manager in one rendezvous, and the manager
// installs it in the same action that accepts it. Once the hand-off
// rendezvous commits, the client is no longer needed — killing it cannot
// stop the install — and before the rendezvous, the client has published
// nothing, so killing it aborts cleanly. There is no instant at which a
// kill yields half a commit, and no thread is spawned per transaction.
//
// Locks are abortable in the CQS sense ("A Formally-Verified Framework for
// Fair and Abortable Synchronization"): a kill of a *waiting* lock acquirer
// is an abort of its queue entry, implemented with the paper's
// negative-acknowledgment guarantee — every lock request is wrapped in a
// nack guard, so the shard manager either grants the request or observes
// its abandonment, never both. Locks *held* by a transaction whose owner
// thread dies are reclaimed by the transaction manager, which folds each
// live transaction owner's DoneEvt into its own service choice and
// releases the dead client's locks itself (the breaker idiom from
// abstractions/breaker, lifted to multi-shard state).
//
// Two commit strategies are selectable per store:
//
//   - Locking: interactive two-phase locking. Txn.Get eagerly acquires the
//     key's exclusive lock (waiting its turn in the shard's FIFO wait list,
//     with a client-side timeout that converts contention into ErrConflict);
//     writes are buffered; Commit acquires the write locks shard-by-shard
//     in sorted order, and the transaction manager installs and releases.
//   - OCC: Txn.Get is a snapshot read (value + version, no lock); Commit
//     validates the read-set and installs the write-set — atomically inside
//     one shard manager when the transaction touches a single shard, or via
//     a prepare/finish round driven by the transaction manager when it
//     spans shards, with the lock table doubling as prepare-marks.
//
// All manager threads are kill-safe in the paper's sense: every operation
// guards with ResumeVia, so the managers can execute whenever any of their
// users can, and a custodian shutdown of the store's creator cannot strand
// a client that other custodians still want alive.
package kvtxn

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Strategy selects the commit protocol for a store.
type Strategy int

const (
	// Locking is interactive two-phase locking: reads take exclusive
	// per-key locks as they happen; commit locks the write-set and
	// installs under the transaction manager.
	Locking Strategy = iota
	// OCC is optimistic concurrency: reads are unlocked snapshots;
	// commit validates versions and installs, aborting on conflict.
	OCC
)

func (s Strategy) String() string {
	if s == OCC {
		return "occ"
	}
	return "lock"
}

// ParseStrategy maps the sweep-harness spelling back to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "lock", "locking":
		return Locking, nil
	case "occ":
		return OCC, nil
	}
	return 0, fmt.Errorf("kvtxn: unknown strategy %q", s)
}

// Options configures a store.
type Options struct {
	// Shards is the number of data-shard manager threads (default 8).
	Shards int
	// Strategy selects the commit protocol (default Locking).
	Strategy Strategy
	// LockWait bounds how long a client waits for a contended lock
	// before converting the wait into ErrConflict (default 100ms). In
	// deterministic mode the timeout is a virtual alarm, so the explorer
	// can drive a stuck acquire past it.
	LockWait time.Duration
	// OnCommit, if set, is called with the transaction id on the thread
	// that decides the commit (the shard manager for the OCC single-shard
	// fast path, the transaction manager otherwise), in commit order per
	// shard. The deterministic replay test uses it to pin commit ordering.
	OnCommit func(txn uint64)
}

// Errors reported by transaction operations.
var (
	// ErrConflict: the operation lost a race — a lock wait timed out, or
	// OCC validation observed a newer version. The transaction is doomed;
	// Abort it and retry.
	ErrConflict = errors.New("kvtxn: conflict")
	// ErrTxnDone: the handle was used after Commit or Abort.
	ErrTxnDone = errors.New("kvtxn: transaction finished")
	// ErrStoreDown: a remote gateway's backing store is gone.
	ErrStoreDown = errors.New("kvtxn: store down")
)

// Counters is a snapshot of the store's operation counters. Reads of a
// live store are per-counter consistent; after quiescence they are exact.
type Counters struct {
	Begins     int64 `json:"begins"`
	Commits    int64 `json:"commits"`
	Aborts     int64 `json:"aborts"`      // explicit aborts + conflicts
	KillAborts int64 `json:"kill_aborts"` // aborts initiated by owner death
	Gets       int64 `json:"gets"`
	Puts       int64 `json:"puts"`
	Deletes    int64 `json:"deletes"`
}

// Integrity is the store's self-audit, gathered by rendezvous with every
// manager: after quiescence all fields must be zero, or a kill has wedged
// a lock or leaked a transaction.
type Integrity struct {
	HeldLocks    int `json:"held_locks"`    // keys currently locked/prepared
	WaitingReqs  int `json:"waiting_reqs"`  // requests parked in shard wait lists
	PreparedTxns int `json:"prepared_txns"` // OCC prepare stashes outstanding
	LiveTxns     int `json:"live_txns"`     // registry entries (locking mode)
}

// Store is a sharded transactional KV store. All methods are safe for
// concurrent use by any threads of the store's runtime; cross-runtime
// callers go through a Gateway.
type Store struct {
	rt     *core.Runtime
	opts   Options
	shards []*shardMgr
	tm     *txnMgr

	nextTxn atomic.Uint64

	begins     atomic.Int64
	commits    atomic.Int64
	aborts     atomic.Int64
	killAborts atomic.Int64
	gets       atomic.Int64
	puts       atomic.Int64
	dels       atomic.Int64
}

// New creates a store with default options, spawning its manager threads
// from th (they start under th's current custodian, and — being guarded —
// survive as long as any user's custodian).
func New(th *core.Thread) *Store { return NewWith(th, Options{}) }

// NewWith creates a store with explicit options.
func NewWith(th *core.Thread, opts Options) *Store {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.LockWait <= 0 {
		opts.LockWait = 100 * time.Millisecond
	}
	s := &Store{rt: th.Runtime(), opts: opts}
	s.shards = make([]*shardMgr, opts.Shards)
	for i := range s.shards {
		s.shards[i] = newShardMgr(th, s, i)
	}
	s.tm = newTxnMgr(th, s)
	return s
}

// Runtime returns the runtime the store's managers live on.
func (s *Store) Runtime() *core.Runtime { return s.rt }

// Strategy reports the store's commit protocol.
func (s *Store) Strategy() Strategy { return s.opts.Strategy }

// NumShards reports the data-shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardOf reports which data shard owns key; exported so tests and
// explorer scenarios can construct deliberately same- or cross-shard
// keys.
func (s *Store) ShardOf(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Counters snapshots the operation counters.
func (s *Store) Counters() Counters {
	return Counters{
		Begins:     s.begins.Load(),
		Commits:    s.commits.Load(),
		Aborts:     s.aborts.Load(),
		KillAborts: s.killAborts.Load(),
		Gets:       s.gets.Load(),
		Puts:       s.puts.Load(),
		Deletes:    s.dels.Load(),
	}
}

// Stats implements Client on the store itself: a plain atomic snapshot
// (the thread argument exists for the cross-runtime Gateway's sake).
func (s *Store) Stats(_ *core.Thread) (Counters, error) { return s.Counters(), nil }

// Get reads key's committed value (autocommit snapshot read: it never
// blocks on locks, exactly like a transaction-free GET should).
func (s *Store) Get(th *core.Thread, key string) (string, bool, error) {
	s.gets.Add(1)
	sh := s.shards[s.ShardOf(key)]
	v, err := s.shardRequest(th, sh, &shardReq{kind: reqGet, key: key}, 0)
	if err != nil {
		return "", false, err
	}
	r := v.(getReply)
	return r.val, r.found, nil
}

// Put writes key=val as a single-key transaction. Under the Locking
// strategy it respects (waits for) the key's lock; a wait that outlives
// LockWait returns ErrConflict.
func (s *Store) Put(th *core.Thread, key, val string) error {
	s.puts.Add(1)
	return s.autocommitWrite(th, key, val, false)
}

// Delete removes key as a single-key transaction, with Put's locking
// behavior.
func (s *Store) Delete(th *core.Thread, key string) error {
	s.dels.Add(1)
	return s.autocommitWrite(th, key, "", true)
}

func (s *Store) autocommitWrite(th *core.Thread, key, val string, del bool) error {
	sh := s.shards[s.ShardOf(key)]
	v, err := s.shardRequest(th, sh, &shardReq{kind: reqSet, key: key, val: val, del: del}, s.opts.LockWait)
	if err != nil {
		return err
	}
	if _, timedOut := v.(lockTimeout); timedOut {
		return ErrConflict
	}
	return nil
}

// Audit rendezvouses with every shard manager and the transaction manager
// and sums their self-reports. Call after quiescence to assert that kills
// left no wedged locks, parked waiters, prepare stashes, or registry
// entries.
func (s *Store) Audit(th *core.Thread) (Integrity, error) {
	var total Integrity
	for _, sh := range s.shards {
		v, err := s.shardRequest(th, sh, &shardReq{kind: reqAudit}, 0)
		if err != nil {
			return total, err
		}
		r := v.(Integrity)
		total.HeldLocks += r.HeldLocks
		total.WaitingReqs += r.WaitingReqs
		total.PreparedTxns += r.PreparedTxns
	}
	live, err := s.tm.liveCount(th)
	if err != nil {
		return total, err
	}
	total.LiveTxns = live
	return total, nil
}

// lockTimeout is the sentinel a client-side timeout arm yields in place of
// a shard reply.
type lockTimeout struct{}

// shardRequest performs one nack-guarded request/reply exchange with a
// shard manager. If wait > 0, a timeout arm joins the guarded branch as a
// sibling in the outer choice — sibling, not nested: the nack fires iff
// the guarded event is NOT chosen, so a timeout nested inside the guard
// would count as "chosen" and never withdraw the parked request. As a
// sibling, the timeout winning fires the nack, the shard drops the
// waiter (the rendezvous makes service and withdrawal exclusive), and
// the caller sees a lockTimeout sentinel.
func (s *Store) shardRequest(th *core.Thread, sh *shardMgr, req *shardReq, wait time.Duration) (core.Value, error) {
	ev := core.NackGuard(func(g *core.Thread, nack core.Event) core.Event {
		core.ResumeVia(sh.th, g)
		req.gaveUp = nack
		req.out = core.NewChanNamed(s.rt, "kvtxn-reply")
		if _, err := core.Sync(g, sh.reqCh.SendEvt(req)); err != nil {
			g.Break()
			return core.Never()
		}
		return req.out.RecvEvt()
	})
	if wait > 0 {
		ev = core.Choice(
			ev,
			core.Wrap(core.After(s.rt, wait), func(core.Value) core.Value { return lockTimeout{} }),
		)
	}
	return core.Sync(th, ev)
}
