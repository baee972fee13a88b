package kvtxn_test

import (
	"fmt"
	"testing"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/obs"
)

func withRuntime(t *testing.T, fn func(*core.Runtime, *core.Thread)) {
	t.Helper()
	rt := core.NewRuntime()
	defer rt.Shutdown()
	if err := rt.Run(func(th *core.Thread) { fn(rt, th) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func strategies() []kvtxn.Strategy { return []kvtxn.Strategy{kvtxn.Locking, kvtxn.OCC} }

func TestAutocommitOps(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
				s := kvtxn.NewWith(th, kvtxn.Options{Strategy: strat, Shards: 4})
				if err := s.Put(th, "a", "1"); err != nil {
					t.Fatal(err)
				}
				v, found, err := s.Get(th, "a")
				if err != nil || !found || v != "1" {
					t.Fatalf("Get a = %q,%v,%v", v, found, err)
				}
				if err := s.Delete(th, "a"); err != nil {
					t.Fatal(err)
				}
				if _, found, _ := s.Get(th, "a"); found {
					t.Fatal("a survived Delete")
				}
			})
		})
	}
}

func TestTxnCommitMultiShard(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
				s := kvtxn.NewWith(th, kvtxn.Options{Strategy: strat, Shards: 4})
				// Spread writes across every shard so the commit exercises
				// the transaction manager's multi-shard install.
				tx, err := s.Begin(th)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 16; i++ {
					_ = tx.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
				}
				if err := tx.Commit(th); err != nil {
					t.Fatalf("Commit: %v", err)
				}
				for i := 0; i < 16; i++ {
					v, found, err := s.Get(th, fmt.Sprintf("k%d", i))
					if err != nil || !found || v != fmt.Sprintf("v%d", i) {
						t.Fatalf("k%d = %q,%v,%v", i, v, found, err)
					}
				}
				audit, err := s.Audit(th)
				if err != nil {
					t.Fatal(err)
				}
				if audit != (kvtxn.Integrity{}) {
					t.Fatalf("audit after commit: %+v", audit)
				}
				if c := s.Counters(); c.Commits != 1 {
					t.Fatalf("commits = %d, want 1", c.Commits)
				}
			})
		})
	}
}

func TestTxnReadYourWrites(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
				s := kvtxn.NewWith(th, kvtxn.Options{Strategy: strat})
				_ = s.Put(th, "x", "old")
				tx, _ := s.Begin(th)
				_ = tx.Put("x", "new")
				v, found, err := tx.Get(th, "x")
				if err != nil || !found || v != "new" {
					t.Fatalf("read-your-write: %q,%v,%v", v, found, err)
				}
				_ = tx.Delete("x")
				if _, found, _ := tx.Get(th, "x"); found {
					t.Fatal("read-your-delete: still found")
				}
				if err := tx.Abort(th); err != nil {
					t.Fatal(err)
				}
				// Abort left the committed value intact.
				if v, _, _ := s.Get(th, "x"); v != "old" {
					t.Fatalf("after abort x = %q, want old", v)
				}
			})
		})
	}
}

func TestOCCConflictAborts(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.OCC})
		_ = s.Put(th, "x", "0")
		tx, _ := s.Begin(th)
		if _, _, err := tx.Get(th, "x"); err != nil {
			t.Fatal(err)
		}
		// A foreign write between read and commit invalidates the snapshot.
		_ = s.Put(th, "x", "1")
		_ = tx.Put("x", "2")
		if err := tx.Commit(th); err != kvtxn.ErrConflict {
			t.Fatalf("Commit = %v, want ErrConflict", err)
		}
		if v, _, _ := s.Get(th, "x"); v != "1" {
			t.Fatalf("x = %q after conflict abort, want 1", v)
		}
		audit, _ := s.Audit(th)
		if audit != (kvtxn.Integrity{}) {
			t.Fatalf("audit: %+v", audit)
		}
	})
}

func TestLockingConflictTimesOut(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, LockWait: 20 * time.Millisecond})
		_ = s.Put(th, "x", "0")
		holder, _ := s.Begin(th)
		if _, _, err := holder.Get(th, "x"); err != nil { // takes the lock
			t.Fatal(err)
		}
		done := make(chan error, 1)
		th.Spawn("contender", func(x *core.Thread) {
			tx, err := s.Begin(x)
			if err != nil {
				done <- err
				return
			}
			_, _, err = tx.Get(x, "x")
			_ = tx.Abort(x)
			done <- err
		})
		var got error
		waitUntil(t, "contender timeout", func() bool {
			select {
			case got = <-done:
				return true
			default:
				return false
			}
		})
		if got != kvtxn.ErrConflict {
			t.Fatalf("contender Get = %v, want ErrConflict", got)
		}
		if err := holder.Commit(th); err != nil {
			t.Fatal(err)
		}
	})
}

func TestKillMidTxnReleasesLocks(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4})
		_ = s.Put(th, "a", "1")
		_ = s.Put(th, "b", "2")

		locked := make(chan struct{})
		victim := th.Spawn("victim", func(x *core.Thread) {
			tx, err := s.Begin(x)
			if err != nil {
				return
			}
			_, _, _ = tx.Get(x, "a")
			_, _, _ = tx.Get(x, "b")
			_ = tx.Put("a", "evil")
			close(locked)
			_ = core.Sleep(x, time.Hour) // parked holding two locks
		})
		<-locked
		victim.Kill()

		// The death watch releases the locks; a fresh transaction over the
		// same keys must succeed, and the victim's buffered write must not
		// exist.
		waitUntil(t, "locks reclaimed", func() bool {
			var ok bool
			done := make(chan struct{})
			th.Spawn("probe", func(x *core.Thread) {
				defer close(done)
				tx, err := s.Begin(x)
				if err != nil {
					return
				}
				if _, _, err := tx.Get(x, "a"); err != nil {
					_ = tx.Abort(x)
					return
				}
				if _, _, err := tx.Get(x, "b"); err != nil {
					_ = tx.Abort(x)
					return
				}
				ok = tx.Commit(x) == nil
			})
			<-done
			return ok
		})
		if v, _, _ := s.Get(th, "a"); v != "1" {
			t.Fatalf("a = %q after kill-abort, want 1 (no trace)", v)
		}
		waitUntil(t, "registry drained", func() bool {
			audit, err := s.Audit(th)
			return err == nil && audit == kvtxn.Integrity{}
		})
		if c := s.Counters(); c.KillAborts != 1 {
			t.Fatalf("killAborts = %d, want 1", c.KillAborts)
		}
	})
}

func TestKillAfterCommitHandoffStillCommits(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
				// OnCommit runs on the transaction manager once the
				// hand-off has committed, so the kill it triggers lands
				// strictly after the hand-off — while the manager may
				// still be installing. The manager must complete the
				// commit anyway: all 16 keys appear.
				handedOff := core.NewExternal(rt)
				s := kvtxn.NewWith(th, kvtxn.Options{
					Strategy: strat,
					Shards:   4,
					OnCommit: func(txn uint64) { handedOff.Complete(txn) },
				})
				victim := th.Spawn("victim", func(x *core.Thread) {
					tx, err := s.Begin(x)
					if err != nil {
						return
					}
					for i := 0; i < 16; i++ {
						_ = tx.Put(fmt.Sprintf("k%d", i), "v")
					}
					_ = tx.Commit(x)
				})
				if _, err := core.Sync(th, handedOff.Evt()); err != nil {
					t.Fatal(err)
				}
				victim.Kill()
				if _, err := core.Sync(th, victim.DoneEvt()); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, "store quiesced", func() bool {
					audit, err := s.Audit(th)
					return err == nil && audit == kvtxn.Integrity{}
				})
				present := 0
				for i := 0; i < 16; i++ {
					if _, found, _ := s.Get(th, fmt.Sprintf("k%d", i)); found {
						present++
					}
				}
				if present != 16 {
					t.Fatalf("%d of 16 keys present after a kill past the hand-off, want 16", present)
				}
				if c := s.Counters(); c.Commits != 1 || c.KillAborts != 0 {
					t.Fatalf("commits = %d, killAborts = %d; want 1, 0", c.Commits, c.KillAborts)
				}
			})
		})
	}
}

// A Locking client killed while Commit waits for one of its write locks
// has not handed off: the transaction aborts through the death watch,
// exactly as if the client had died waiting for a read lock in Get. It
// writes no key, including those in shards whose write locks it already
// held, and leaves nothing behind.
func TestKillWaitingForWriteLockAborts(t *testing.T) {
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4, LockWait: time.Hour})
		// The holder locks a key of the last shard, so the victim takes
		// the write locks of every earlier shard before it parks.
		blocked := "k0"
		for i := 0; i < 16; i++ {
			if k := fmt.Sprintf("k%d", i); s.ShardOf(k) > s.ShardOf(blocked) {
				blocked = k
			}
		}
		holder, err := s.Begin(th)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := holder.Get(th, blocked); err != nil {
			t.Fatal(err)
		}
		victim := th.Spawn("victim", func(x *core.Thread) {
			tx, err := s.Begin(x)
			if err != nil {
				return
			}
			for i := 0; i < 16; i++ {
				_ = tx.Put(fmt.Sprintf("k%d", i), "evil")
			}
			_ = tx.Commit(x)
		})
		waitUntil(t, "victim parked on the write lock", func() bool {
			audit, err := s.Audit(th)
			return err == nil && audit.WaitingReqs == 1
		})
		victim.Kill()
		if _, err := core.Sync(th, victim.DoneEvt()); err != nil {
			t.Fatal(err)
		}
		if err := holder.Abort(th); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "store quiesced", func() bool {
			audit, err := s.Audit(th)
			return err == nil && audit == kvtxn.Integrity{}
		})
		for i := 0; i < 16; i++ {
			if _, found, _ := s.Get(th, fmt.Sprintf("k%d", i)); found {
				t.Fatalf("k%d written by a transaction killed before its hand-off", i)
			}
		}
		if c := s.Counters(); c.KillAborts != 1 || c.Commits != 0 {
			t.Fatalf("killAborts = %d, commits = %d; want 1, 0", c.KillAborts, c.Commits)
		}
	})
}

// The transaction manager finishes commits, aborts and dead owners
// itself: no thread is spawned per transaction, whatever its outcome.
func TestNoThreadPerTransaction(t *testing.T) {
	const n = 100
	o := obs.New()
	rt := core.NewRuntime()
	o.Attach(rt)
	defer rt.Shutdown()
	err := rt.Run(func(th *core.Thread) {
		lock := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4})
		occ := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.OCC, Shards: 4})
		// A short LockWait keeps a hundred timeouts cheap; only the
		// conflict leg uses this store.
		contended := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 4, LockWait: 2 * time.Millisecond})
		multiShard := func(s *kvtxn.Store) error {
			tx, err := s.Begin(th)
			if err != nil {
				return err
			}
			for i := 0; i < 8; i++ {
				_ = tx.Put(fmt.Sprintf("k%d", i), "v")
			}
			return tx.Commit(th)
		}
		before := o.Snapshot().Spawns
		for i := 0; i < n; i++ {
			if err := multiShard(lock); err != nil {
				t.Fatalf("locking commit: %v", err)
			}
			if err := multiShard(occ); err != nil {
				t.Fatalf("OCC commit: %v", err)
			}
			tx, _ := lock.Begin(th)
			if _, _, err := tx.Get(th, "k0"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(th); err != nil {
				t.Fatalf("abort: %v", err)
			}
			// A lock-timeout conflict: the holder keeps k1 locked while
			// a second transaction's Commit waits LockWait for it. The
			// holder's own uncontended Get may lose its short wait to a
			// slow scheduler; that is noise, so it retries.
			holder, _ := contended.Begin(th)
			for {
				_, _, err := holder.Get(th, "k1")
				if err == nil {
					break
				}
				if err != kvtxn.ErrConflict {
					t.Fatal(err)
				}
			}
			if err := multiShard(contended); err != kvtxn.ErrConflict {
				t.Fatalf("contended commit = %v, want ErrConflict", err)
			}
			if err := holder.Commit(th); err != nil {
				t.Fatalf("holder commit: %v", err)
			}
		}
		if d := o.Snapshot().Spawns - before; d != 0 {
			t.Fatalf("%d threads spawned across %d transactions of each kind, want 0", d, n)
		}
		for _, s := range []*kvtxn.Store{lock, occ, contended} {
			if a, err := s.Audit(th); err != nil || a != (kvtxn.Integrity{}) {
				t.Fatalf("%v audit: %+v, %v", s.Strategy(), a, err)
			}
		}
		if c := lock.Counters(); c.Commits != n || c.Aborts != n {
			t.Fatalf("locking counters: %+v, want %d commits and %d aborts", c, n, n)
		}
		if c := contended.Counters(); c.Commits != n || c.Aborts != n {
			t.Fatalf("contended counters: %+v, want %d commits and %d aborts", c, n, n)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMultiWholesale(t *testing.T) {
	for _, strat := range strategies() {
		t.Run(strat.String(), func(t *testing.T) {
			withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
				s := kvtxn.NewWith(th, kvtxn.Options{Strategy: strat})
				res, err := s.Multi(th, []kvtxn.Op{
					{Kind: kvtxn.OpWrite, Key: "a", Val: "1"},
					{Kind: kvtxn.OpWrite, Key: "b", Val: "2"},
				})
				if err != nil || !res.Committed {
					t.Fatalf("multi write: %+v, %v", res, err)
				}
				res, err = s.Multi(th, []kvtxn.Op{
					{Kind: kvtxn.OpRead, Key: "a"},
					{Kind: kvtxn.OpDelete, Key: "b"},
					{Kind: kvtxn.OpRead, Key: "b"},
				})
				if err != nil || !res.Committed {
					t.Fatalf("multi rmw: %+v, %v", res, err)
				}
				if len(res.Reads) != 2 || res.Reads[0].Val != "1" || res.Reads[1].Found {
					t.Fatalf("reads: %+v", res.Reads)
				}
			})
		})
	}
}

func TestStoreSurvivesCreatorCustodianDeath(t *testing.T) {
	// The kill-safety claim itself: the store's managers were spawned
	// under a custodian that dies, but a user in another custodian keeps
	// them alive via the per-operation ResumeVia guards.
	withRuntime(t, func(rt *core.Runtime, th *core.Thread) {
		maker := core.NewCustodian(rt.RootCustodian())
		var s *kvtxn.Store
		made := make(chan struct{})
		th.WithCustodian(maker, func() {
			th.Spawn("maker", func(x *core.Thread) {
				s = kvtxn.NewWith(x, kvtxn.Options{Strategy: kvtxn.Locking})
				close(made)
				_ = core.Sleep(x, time.Hour)
			})
		})
		<-made
		if err := s.Put(th, "pre", "1"); err != nil { // yoke managers to us
			t.Fatal(err)
		}
		maker.Shutdown()
		if err := s.Put(th, "post", "2"); err != nil {
			t.Fatalf("Put after creator custodian death: %v", err)
		}
		if v, _, _ := s.Get(th, "post"); v != "2" {
			t.Fatal("store lost a write after creator custodian death")
		}
	})
}
