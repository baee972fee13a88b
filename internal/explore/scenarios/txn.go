package scenarios

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/explore"
)

func init() {
	Register(TxnKillMidlock())
	Register(TxnKillValidate())
}

// crossShardKeys probes deterministic key names until it has two owned by
// shard 0 and two by shard 1, returned alternating [s0, s1, s0, s1] — the
// raw material for deliberately cross-shard transactions.
func crossShardKeys(s *kvtxn.Store) [4]string {
	var byShard [2][]string
	for i := 0; len(byShard[0]) < 2 || len(byShard[1]) < 2; i++ {
		k := fmt.Sprintf("k%d", i)
		if sh := s.ShardOf(k); sh < 2 && len(byShard[sh]) < 2 {
			byShard[sh] = append(byShard[sh], k)
		}
	}
	return [4]string{byShard[0][0], byShard[1][0], byShard[0][1], byShard[1][1]}
}

// transfer moves amount from src to dst inside tx and commits, returning
// true on commit and false on a clean conflict (the caller aborts and may
// retry). Any other error also returns false with the error.
func transfer(x *core.Thread, tx *kvtxn.Txn, src, dst string, amount int) (bool, error) {
	readInt := func(key string) (int, error) {
		v, found, err := tx.Get(x, key)
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, fmt.Errorf("key %s missing", key)
		}
		return strconv.Atoi(v)
	}
	sv, err := readInt(src)
	if err != nil {
		return false, err
	}
	dv, err := readInt(dst)
	if err != nil {
		return false, err
	}
	_ = tx.Put(src, strconv.Itoa(sv-amount))
	_ = tx.Put(dst, strconv.Itoa(dv+amount))
	switch err := tx.Commit(x); err {
	case nil:
		return true, nil
	case kvtxn.ErrConflict:
		return false, nil
	default:
		return false, err
	}
}

// txnScenario is the shared shape of the two transactional-store
// scenarios: a victim transaction the explorer may kill at any decision
// point, a surviving transaction that must still commit, and a checker
// that waits for both, audits the store to quiescence, and reads back the
// invariant sum. The world is sum-preserving (every transaction is a
// transfer), so any half-commit or wedged lock is visible as a wrong sum
// or a dirty audit.
func txnScenario(name, desc string, strat kvtxn.Strategy) explore.Scenario {
	return explore.Scenario{
		Name: name,
		Desc: desc,
		Setup: func(sim *explore.Sim) {
			rt := sim.RT
			var mu sync.Mutex
			var audited bool
			var finalSum int
			var checkerErr error

			rt.Spawn("txn-init", func(th *core.Thread) {
				s := kvtxn.NewWith(th, kvtxn.Options{
					Strategy: strat,
					Shards:   2,
					LockWait: 20 * time.Millisecond,
				})
				keys := crossShardKeys(s)
				for _, k := range keys {
					// The explorer may advance the virtual clock at whim,
					// firing the autocommit lock-wait timeout before the
					// uncontended grant; a conflict here is scheduling
					// noise, not state, so retry it.
					for {
						err := s.Put(th, k, "100")
						if err == nil {
							break
						}
						if err != kvtxn.ErrConflict {
							return
						}
					}
				}

				// The victim transfers across shards: under Locking it is
				// killable while holding one shard's lock and waiting for
				// the other's; under OCC while its commit is mid-validation
				// in the prepare round. It runs under its own custodian so
				// the explorer can terminate it both ways the paper allows:
				// kill-thread at any point of the victim's own execution,
				// or custodian shutdown at any point of anyone's.
				victimCust := core.NewCustodian(rt.RootCustodian())
				var victim *core.Thread
				th.WithCustodian(victimCust, func() {
					victim = th.Spawn("txn-victim", func(x *core.Thread) {
						tx, err := s.Begin(x)
						if err != nil {
							return
						}
						if ok, _ := transfer(x, tx, keys[0], keys[1], 30); !ok {
							_ = tx.Abort(x)
						}
					})
				})
				sim.Victim(victim)
				sim.VictimCustodian(victimCust)

				// The survivor works the same keys in the opposite order —
				// guaranteeing lock and validation interplay. It must
				// always *finish* (wedge-freedom is the claim under test);
				// whether a given adversarial schedule lets it commit is
				// the chaos test's liveness claim, not this one.
				survivor := th.Spawn("txn-survivor", func(x *core.Thread) {
					for i := 0; i < 50; i++ {
						tx, err := s.Begin(x)
						if err != nil {
							return
						}
						ok, err := transfer(x, tx, keys[1], keys[2], 10)
						if ok {
							return
						}
						_ = tx.Abort(x)
						if err != nil {
							return
						}
					}
				})
				sim.MustFinish(survivor)

				checker := th.Spawn("txn-checker", func(x *core.Thread) {
					fail := func(err error) {
						mu.Lock()
						checkerErr = err
						mu.Unlock()
					}
					if _, err := core.Sync(x, survivor.DoneEvt()); err != nil {
						fail(err)
						return
					}
					// The victim may be dead (killed outright) or condemned
					// (its custodian shut down, leaving it suspended with no
					// live custodian — "only mostly dead"). Nobody in this
					// world can revive it, so the checker models the
					// collector: every audit round sweeps unrevivable
					// threads, which fires the victim's done event and lets
					// the store's death watch reclaim whatever it held.
					audit := false
					for i := 0; i < 500; i++ {
						rt.TerminateCondemned()
						if victim.Done() {
							a, err := s.Audit(x)
							if err != nil {
								fail(err)
								return
							}
							if a == (kvtxn.Integrity{}) {
								audit = true
								break
							}
						}
						if core.Sleep(x, time.Millisecond) != nil {
							return
						}
					}
					if audit {
						mu.Lock()
						audited = true
						mu.Unlock()
					}
					sum := 0
					for _, k := range keys {
						v, found, err := s.Get(x, k)
						if err != nil || !found {
							fail(fmt.Errorf("read %s after quiesce: found=%v err=%v", k, found, err))
							return
						}
						n, err := strconv.Atoi(v)
						if err != nil {
							fail(err)
							return
						}
						sum += n
					}
					mu.Lock()
					finalSum = sum
					mu.Unlock()
				})
				sim.MustFinish(checker)
			})
			sim.RestrictFaults(explore.ActKill, explore.ActShutdown)
			sim.Check(func() error {
				mu.Lock()
				defer mu.Unlock()
				if checkerErr != nil {
					return fmt.Errorf("checker: %w", checkerErr)
				}
				if !audited {
					return errors.New("store never quiesced: wedged lock, waiter, prepare, or live txn")
				}
				if finalSum != 400 {
					return fmt.Errorf("sum = %d, want 400: a kill half-committed or lost a transfer", finalSum)
				}
				return nil
			})
		},
	}
}

// TxnKillMidlock kills a locking-strategy transaction client at arbitrary
// points — including between lock acquisition and commit hand-off. The
// nack guarantee unwinds waiting acquires, the death watch releases held
// locks, and the transaction manager's inline install makes the commit
// itself all-or-nothing; the surviving client must always get through.
func TxnKillMidlock() explore.Scenario {
	return txnScenario(
		"txn-kill-midlock",
		"killing a locking txn between lock-acquire and commit wedges no lock and leaks no half-commit",
		kvtxn.Locking,
	)
}

// TxnKillValidate kills an OCC transaction client at arbitrary points —
// including while its cross-shard commit is mid-validation in the
// prepare round. Prepare-marks and the transaction manager's inline
// prepare/finish round make the install opaque and kill-atomic.
func TxnKillValidate() explore.Scenario {
	return txnScenario(
		"txn-kill-validate",
		"killing an OCC txn during validate-then-install leaves no prepare-marks and no half-commit",
		kvtxn.OCC,
	)
}
