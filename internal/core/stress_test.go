package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestStressOneEventObject aims every cancellation path the fine-grained
// design has at a single event object at once: many workers race choices of
// a nack-guarded receive, a send, and a short alarm on ONE channel, while a
// kill-storm shuts down their custodians and replaces them. Every way a
// waiter leaves the channel's queue is exercised concurrently — two-party
// commit (send meets recv), losing a choice to the alarm (cancel +
// nack fire), kill mid-wait (claimAbort + deregistration), and custodian
// suspension (matchable flip mid-match). Run under the race detector this
// is the sharpest probe of the claim protocol; the assertions are liveness
// (survivor operations keep committing through the storm) and nack
// bookkeeping (a nack-guarded case that loses fires its nack exactly once —
// counted fires never exceed losses and eventually match).
func TestStressOneEventObject(t *testing.T) {
	seed := chaosSeed(t)
	rt := core.NewRuntime()
	defer rt.Shutdown()

	ch := core.NewChanNamed(rt, "hot")
	const workers = 10
	const storms = 40

	var ops, nackCreated, nackFired atomic.Int64

	err := rt.Run(func(th *core.Thread) {
		var mu sync.Mutex // guards custs/threads against the storm loop
		custs := make([]*core.Custodian, workers)

		body := func(x *core.Thread) {
			lrng := rand.New(rand.NewSource(seed + int64(x.ID())))
			for {
				var ev core.Event
				switch lrng.Intn(3) {
				case 0:
					// Nack-guarded receive racing the alarm: when the alarm
					// wins, the receive's registration is cancelled and its
					// nack must fire.
					ev = core.Choice(
						core.NackGuard(func(g *core.Thread, nack core.Event) core.Event {
							nackCreated.Add(1)
							core.SpawnYoked(g, "nack-watch", func(w *core.Thread) {
								if _, err := core.Sync(w, nack); err == nil {
									nackFired.Add(1)
								}
							})
							return ch.RecvEvt()
						}),
						core.After(rt, time.Duration(lrng.Intn(200))*time.Microsecond),
					)
				case 1:
					ev = ch.SendEvt(core.Unit{})
				default:
					ev = core.Choice(
						ch.RecvEvt(),
						core.After(rt, time.Duration(lrng.Intn(200))*time.Microsecond),
					)
				}
				if _, err := core.Sync(x, ev); err != nil {
					return // stray break; workers are stormed, not broken
				}
				ops.Add(1)
			}
		}

		spawn := func(i int) {
			mu.Lock()
			defer mu.Unlock()
			custs[i] = core.NewCustodian(rt.RootCustodian())
			th.WithCustodian(custs[i], func() {
				th.Spawn("stress-worker", body)
			})
		}
		for i := range custs {
			spawn(i)
		}

		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < storms; s++ {
			if err := core.Sleep(th, time.Duration(1+rng.Intn(3))*time.Millisecond); err != nil {
				t.Errorf("storm sleep: %v", err)
				return
			}
			victim := rng.Intn(workers)
			mu.Lock()
			c := custs[victim]
			mu.Unlock()
			c.Shutdown()
			rt.TerminateCondemned()
			before := ops.Load()
			spawn(victim)
			// Liveness through the storm: survivors plus the replacement
			// keep committing on the hot channel.
			deadline := time.Now().Add(5 * time.Second)
			for ops.Load() == before {
				if time.Now().After(deadline) {
					t.Errorf("storm %d: no operation committed within 5s (ops=%d)", s, before)
					return
				}
				if err := core.Sleep(th, 100*time.Microsecond); err != nil {
					return
				}
			}
		}

		// Tear down the workers so every outstanding nack resolves: a
		// killed sync fires all its nacks, a committed one fires the
		// losers, and the winners' watchers unwind with their owners
		// (they are yoked to the worker's custodian).
		mu.Lock()
		for _, c := range custs {
			c.Shutdown()
		}
		mu.Unlock()
		rt.TerminateCondemned()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if ops.Load() == 0 {
		t.Fatal("no operations completed")
	}
	if created, fired := nackCreated.Load(), nackFired.Load(); fired > created {
		t.Fatalf("nack bookkeeping broken: %d fired > %d created", fired, created)
	}
	t.Logf("ops=%d nacks created=%d fired=%d", ops.Load(), nackCreated.Load(), nackFired.Load())
}

// TestChaosBooksBalance runs a randomized spawn/kill/exit storm with the
// observability layer attached and checks the books: every spawn is
// eventually accounted as exactly one done, kills never exceed dones, and
// live threads return to the baseline — i.e. spawns = exits + kills once
// the storm settles. Under the fine-grained runtime the taps fire from
// lock-free commit paths on many goroutines at once, so this doubles as a
// thread-safety check of the metrics counters under the race detector.
func TestChaosBooksBalance(t *testing.T) {
	seed := chaosSeed(t)
	rt := core.NewRuntime()
	defer rt.Shutdown()
	o := obs.New()
	o.Attach(rt)

	const rounds = 30
	err := rt.Run(func(th *core.Thread) {
		rng := rand.New(rand.NewSource(seed))
		sem := core.NewSemaphore(rt, 0)
		for r := 0; r < rounds; r++ {
			n := 2 + rng.Intn(6)
			c := core.NewCustodian(rt.RootCustodian())
			var live []*core.Thread
			th.WithCustodian(c, func() {
				for i := 0; i < n; i++ {
					exitEarly := rng.Intn(2) == 0
					live = append(live, th.Spawn("balance", func(x *core.Thread) {
						if exitEarly {
							return // a normal exit: books as done, not kill
						}
						_ = sem.Wait(x) // parks until killed
					}))
				}
			})
			if err := core.Sleep(th, time.Duration(rng.Intn(2000))*time.Microsecond); err != nil {
				t.Errorf("sleep: %v", err)
				return
			}
			if rng.Intn(2) == 0 {
				c.Shutdown()
				rt.TerminateCondemned()
			} else {
				for _, x := range live {
					x.Kill()
				}
			}
			for _, x := range live {
				if _, err := core.Sync(th, x.DoneEvt()); err != nil {
					t.Errorf("wait done: %v", err)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	s := o.Snapshot()
	if s.Spawns == 0 {
		t.Fatal("no spawns recorded")
	}
	if s.Exits+s.Kills != s.Dones {
		t.Fatalf("books do not balance: exits %d + kills %d != dones %d", s.Exits, s.Kills, s.Dones)
	}
	// Every storm thread was waited on; only the main thread (done after
	// Run returns, possibly not yet booked) may still be outstanding.
	if outstanding := s.Spawns - s.Dones; outstanding < 0 || outstanding > 1 {
		t.Fatalf("books do not balance: spawns %d vs dones %d (outstanding %d)",
			s.Spawns, s.Dones, outstanding)
	}
	t.Logf("books: spawns=%d dones=%d exits=%d kills=%d", s.Spawns, s.Dones, s.Exits, s.Kills)
}

// TestStressOneshotStaleFire races fire-once sources against waiter
// recycling. A thread alternates a three-case choice — two Externals
// completed concurrently by plain goroutines, and a semaphore that never
// posts — with a one-case sync on a third External. When both choice
// Externals fire at once, the loser's fire has already snapshotted a
// reference to the thread's waiter under its signal lock; by the time it
// commits, the owner may have finished the choice and reused the same
// pooled op for the one-case sync. An unfenced reference then commits
// case 2 of a one-case sync (index out of range) or hands the one-case
// sync the choice External's value. The oneshot generation fence makes
// the stale commit roll back. Assertions: every sync returns the value of
// an event it actually synced on, in the current iteration.
func TestStressOneshotStaleFire(t *testing.T) {
	rt := core.NewRuntime()
	defer rt.Shutdown()

	type tagged struct {
		iter int
		tag  string
	}
	type job struct {
		x   *core.External
		v   tagged
		gap int // spin iterations before completing, to vary the race
	}
	var bad atomic.Value // first violation, as a string
	fail := func(format string, args ...any) { bad.CompareAndSwap(nil, fmt.Sprintf(format, args...)) }

	// One plain goroutine per completion source, fed per iteration.
	var wg sync.WaitGroup
	feeds := make([]chan job, 3)
	for i := range feeds {
		feeds[i] = make(chan job, 1)
		wg.Add(1)
		go func(in chan job) {
			defer wg.Done()
			for j := range in {
				for k := 0; k < j.gap; k++ {
					runtime.Gosched()
				}
				j.x.Complete(j.v)
			}
		}(feeds[i])
	}
	defer func() {
		for _, f := range feeds {
			close(f)
		}
		wg.Wait()
	}()

	const budget = time.Second
	iters := 0
	err := rt.Run(func(th *core.Thread) {
		never := core.NewSemaphore(rt, 0)
		owner := th.Spawn("stale-fire-owner", func(x *core.Thread) {
			defer func() {
				if r := recover(); r != nil {
					fail("owner panicked at iteration %d: %v", iters, r)
					panic(r)
				}
			}()
			rng := rand.New(rand.NewSource(1))
			deadline := time.Now().Add(budget)
			for i := 0; time.Now().Before(deadline) && bad.Load() == nil; i++ {
				iters = i
				a, b, c := core.NewExternal(rt), core.NewExternal(rt), core.NewExternal(rt)
				feeds[0] <- job{a, tagged{i, "a"}, rng.Intn(3)}
				feeds[1] <- job{b, tagged{i, "b"}, rng.Intn(3)}
				v, err := core.Sync(x, core.Choice(a.Evt(), never.WaitEvt(), b.Evt()))
				if err != nil {
					fail("choice: %v", err)
					return
				}
				if got, ok := v.(tagged); !ok || got.iter != i || (got.tag != "a" && got.tag != "b") {
					fail("iteration %d: choice returned %#v", i, v)
					return
				}
				feeds[2] <- job{c, tagged{i, "c"}, rng.Intn(3)}
				v, err = core.Sync(x, c.Evt())
				if err != nil {
					fail("one-case sync: %v", err)
					return
				}
				if got := (tagged{i, "c"}); v != got {
					fail("iteration %d: one-case sync on c returned %#v", i, v)
					return
				}
			}
		})
		_, _ = core.Sync(th, owner.DoneEvt())
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	t.Logf("%d iterations", iters)
}
