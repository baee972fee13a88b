package kvtxn_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/abstractions/kvtxn"
	"repro/internal/core"
	"repro/internal/obs"
)

// chaosSeed returns the seed for a randomized chaos run: the value of
// KILLSAFE_CHAOS_SEED if set, a fresh random seed otherwise. The seed is
// always logged so any failure can be reproduced by re-running with the
// env var set to the logged value.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("KILLSAFE_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("KILLSAFE_CHAOS_SEED=%q: %v", s, err)
		}
		t.Logf("chaos seed %d (from KILLSAFE_CHAOS_SEED)", n)
		return n
	}
	n := time.Now().UnixNano()
	t.Logf("chaos seed %d (rerun with KILLSAFE_CHAOS_SEED=%d)", n, n)
	return n
}

// transferOnce runs one sum-preserving transfer transaction. It returns
// true if the transfer committed, false on a clean conflict abort, and an
// error only for unexpected failures.
func transferOnce(x *core.Thread, s *kvtxn.Store, src, dst string, amount int) (bool, error) {
	tx, err := s.Begin(x)
	if err != nil {
		return false, err
	}
	readInt := func(key string) (int, bool) {
		v, found, err := tx.Get(x, key)
		if err != nil || !found {
			return 0, false
		}
		n, err := strconv.Atoi(v)
		return n, err == nil
	}
	sv, ok := readInt(src)
	if !ok {
		_ = tx.Abort(x)
		return false, nil
	}
	dv, ok := readInt(dst)
	if !ok {
		_ = tx.Abort(x)
		return false, nil
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

// readOnce runs one read-only transaction over two keys. Like
// transferOnce it tolerates clean aborts and reports only unexpected
// failures.
func readOnce(x *core.Thread, s *kvtxn.Store, a, b string) error {
	tx, err := s.Begin(x)
	if err != nil {
		return err
	}
	for _, k := range []string{a, b} {
		if _, _, err := tx.Get(x, k); err != nil {
			_ = tx.Abort(x)
			return nil
		}
	}
	if err := tx.Commit(x); err != nil && err != kvtxn.ErrConflict {
		return err
	}
	return nil
}

// TestChaosKillStorm hammers a store with transfer workers while a killer
// thread terminates them at random instants, under both commit
// strategies, once with transfers only and once with every third
// transaction read-only (so kills also land inside read-only
// transactions, which hold read locks or read sets). Invariants: the store audits clean after the storm (zero
// wedged locks, parked waiters, prepare stashes, or registry entries),
// the account sum is exactly preserved (no half-commits, no lost
// transfers), and the observability books balance — every spawned thread
// is accounted as a normal exit or a kill, with nothing left live.
func TestChaosKillStorm(t *testing.T) {
	for _, tc := range []struct {
		strat    kvtxn.Strategy
		readOnly bool
	}{{kvtxn.Locking, false}, {kvtxn.OCC, false}, {kvtxn.Locking, true}, {kvtxn.OCC, true}} {
		strat := tc.strat
		name := strat.String()
		if tc.readOnly {
			name += "/read-only-mix"
		}
		t.Run(name, func(t *testing.T) {
			const (
				accounts = 8
				workers  = 10
				kills    = 6
				initial  = 1000
				runFor   = 60 * time.Millisecond
			)
			rng := rand.New(rand.NewSource(chaosSeed(t)))
			// Pre-draw all randomness on the test goroutine so worker and
			// killer threads never share the rng.
			workerSeeds := make([]int64, workers)
			for i := range workerSeeds {
				workerSeeds[i] = rng.Int63()
			}
			victims := make([]int, kills)
			delays := make([]time.Duration, kills)
			for i := range victims {
				victims[i] = rng.Intn(workers)
				delays[i] = time.Duration(1+rng.Intn(8)) * time.Millisecond
			}

			o := obs.New()
			rt := core.NewRuntime()
			o.Attach(rt)
			err := rt.Run(func(th *core.Thread) {
				s := kvtxn.NewWith(th, kvtxn.Options{
					Strategy: strat,
					Shards:   4,
					LockWait: 5 * time.Millisecond,
				})
				keys := make([]string, accounts)
				for i := range keys {
					keys[i] = fmt.Sprintf("acct%d", i)
					if err := s.Put(th, keys[i], strconv.Itoa(initial)); err != nil {
						t.Errorf("seed %s: %v", keys[i], err)
						return
					}
				}

				var stop atomic.Bool
				ws := make([]*core.Thread, workers)
				for i := 0; i < workers; i++ {
					wr := rand.New(rand.NewSource(workerSeeds[i]))
					ws[i] = th.Spawn(fmt.Sprintf("worker%d", i), func(x *core.Thread) {
						for !stop.Load() {
							src := wr.Intn(accounts)
							dst := wr.Intn(accounts)
							if src == dst {
								dst = (dst + 1) % accounts
							}
							if tc.readOnly && wr.Intn(3) == 0 {
								if err := readOnce(x, s, keys[src], keys[dst]); err != nil {
									t.Errorf("worker read: %v", err)
									return
								}
								continue
							}
							if _, err := transferOnce(x, s, keys[src], keys[dst], 1+wr.Intn(5)); err != nil {
								t.Errorf("worker transfer: %v", err)
								return
							}
						}
					})
				}
				killer := th.Spawn("killer", func(x *core.Thread) {
					for i := 0; i < kills; i++ {
						if core.Sleep(x, delays[i]) != nil {
							return
						}
						ws[victims[i]].Kill()
					}
				})

				_ = core.Sleep(th, runFor)
				stop.Store(true)
				for _, w := range ws {
					_, _ = core.Sync(th, w.DoneEvt())
				}
				_, _ = core.Sync(th, killer.DoneEvt())

				// The death watch may still be releasing what killed
				// workers held; audit until the store reports no trace of
				// any killed participant.
				deadline := time.Now().Add(5 * time.Second)
				for {
					a, err := s.Audit(th)
					if err != nil {
						t.Errorf("audit: %v", err)
						return
					}
					if a == (kvtxn.Integrity{}) {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("store never quiesced: %+v", a)
						return
					}
					_ = core.Sleep(th, time.Millisecond)
				}

				sum := 0
				for _, k := range keys {
					v, found, err := s.Get(th, k)
					if err != nil || !found {
						t.Errorf("read %s after storm: found=%v err=%v", k, found, err)
						return
					}
					n, err := strconv.Atoi(v)
					if err != nil {
						t.Errorf("value %s=%q: %v", k, v, err)
						return
					}
					sum += n
				}
				if sum != accounts*initial {
					t.Errorf("sum = %d, want %d: a kill half-committed or lost a transfer", sum, accounts*initial)
				}
				c := s.Counters()
				t.Logf("commits=%d aborts=%d killAborts=%d", c.Commits, c.Aborts, c.KillAborts)
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			rt.Shutdown()

			snap := o.Snapshot()
			if snap.Spawns != snap.Dones {
				t.Errorf("thread books: spawns=%d dones=%d (leaked threads)", snap.Spawns, snap.Dones)
			}
			if snap.Exits+snap.Kills != snap.Dones {
				t.Errorf("thread books: exits=%d + kills=%d != dones=%d", snap.Exits, snap.Kills, snap.Dones)
			}
			if snap.LiveThreads != 0 {
				t.Errorf("live threads after shutdown: %d", snap.LiveThreads)
			}
		})
	}
}
