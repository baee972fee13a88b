// Command experiments runs the behavioural experiments of DESIGN.md
// (E1–E14) — one per figure or claim in "Kill-Safe Synchronization
// Abstractions" (PLDI 2004) — and prints an outcome table. The paper has
// no quantitative tables; these are the rows its evaluation consists of.
// Quantitative characterization: the micro-benchmarks in bench_test.go
// and killbench, the benchmark of record (bash bench/run.sh).
//
// Run with: go run ./cmd/experiments
package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	killsafe "repro"
	"repro/abstractions/msgqueue"
	"repro/abstractions/queue"
	"repro/abstractions/supervise"
	"repro/abstractions/swapchan"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/interp"
	"repro/internal/web"
)

type experiment struct {
	id    string
	paper string
	claim string
	run   func() (string, bool)
}

func main() {
	experiments := []experiment{
		{"E1", "Fig 5", "unsafe queue wedges survivor after creator shutdown", e1},
		{"E2", "Fig 6", "guarded queue survives creator shutdown, contents intact", e2},
		{"E3", "Fig 7", "queue events multiplex via choice without corruption", e3},
		{"E4", "Fig 8", "abandoned requests leak without nacks", e4},
		{"E5", "Fig 9", "nacks keep the request list clean", e5},
		{"E6", "Fig 10", "hostile predicate harms only its submitter", e6},
		{"E7", "Fig 11", "direct swap is break-safe (no half swaps)", e7},
		{"E8", "Fig 12", "kill-safe swap survives waiter kill", e8},
		{"E9", "Figs 1–4", "shared document outlives either servlet, dies with both", e9},
		{"E10", "§2.2", "help system survives cancelled click; inner shutdown reaps all", e10},
		{"E11", "§3.3", "yoking: resume chaining and custodian propagation", e11},
		{"E12", "§2.3", "no conspiracy: all custodians dead ⇒ nothing runs", e12},
		{"E13", "§4", "kill storm: survivors never wedge, FIFO per producer", e13},
		{"E14", "Figs 5–12", "paper's Scheme figures run under mzmini", e14},
		{"E19", "ext", "supervision: restart after kill, escalation, breaker recovery", e19},
	}

	fmt.Println("Kill-Safe Synchronization Abstractions — behavioural experiments")
	fmt.Println(strings.Repeat("-", 78))
	failures := 0
	// A panicking experiment must score as a FAIL row (and a nonzero
	// exit), not tear down the harness before later rows run.
	safeRun := func(e experiment) (obs string, ok bool) {
		defer func() {
			if r := recover(); r != nil {
				obs, ok = fmt.Sprintf("panic: %v", r), false
			}
		}()
		return e.run()
	}
	for _, e := range experiments {
		obs, ok := safeRun(e)
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%-4s %-9s %-4s %s\n", e.id, e.paper, status, e.claim)
		fmt.Printf("     observed: %s\n", obs)
	}
	fmt.Println(strings.Repeat("-", 78))
	if failures > 0 {
		fmt.Printf("%d experiment(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("all experiments passed")
}

// withRT runs fn on a fresh runtime and returns its observation.
func withRT(fn func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool)) (string, bool) {
	rt := killsafe.NewRuntime()
	defer rt.Shutdown()
	var obs string
	var ok bool
	err := rt.Run(func(th *killsafe.Thread) { obs, ok = fn(rt, th) })
	if err != nil {
		return fmt.Sprintf("runtime error: %v", err), false
	}
	return obs, ok
}

// shareQueue creates a queue (kill-safe or not) inside a disposable task
// and returns it plus that task's custodian.
func shareQueue(rt *killsafe.Runtime, th *killsafe.Thread, unsafe bool) (*queue.Queue[int], *killsafe.Custodian) {
	c := killsafe.NewCustodian(rt.RootCustodian())
	handOff := make(chan *queue.Queue[int], 1)
	th.WithCustodian(c, func() {
		th.Spawn("creator", func(x *killsafe.Thread) {
			var q *queue.Queue[int]
			if unsafe {
				q = queue.NewUnsafe[int](x)
			} else {
				q = queue.New[int](x)
			}
			_ = q.Send(x, 1)
			handOff <- q
			_ = killsafe.Sleep(x, time.Hour)
		})
	})
	return <-handOff, c
}

func e1() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		q, c := shareQueue(rt, th, true)
		c.Shutdown()
		sent := make(chan struct{})
		th.Spawn("survivor", func(x *killsafe.Thread) {
			_ = q.Send(x, 2)
			close(sent)
		})
		select {
		case <-sent:
			return "send into unsafe queue completed after creator shutdown", false
		case <-time.After(50 * time.Millisecond):
			return fmt.Sprintf("send stuck after 50ms; manager suspended=%v", q.Manager().Suspended()), q.Manager().Suspended()
		}
	})
}

func e2() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		q, c := shareQueue(rt, th, false)
		c.Shutdown()
		v1, err1 := q.Recv(th)
		err2 := q.Send(th, 2)
		v2, err3 := q.Recv(th)
		ok := err1 == nil && err2 == nil && err3 == nil && v1 == 1 && v2 == 2
		return fmt.Sprintf("recv=%d send+recv=%d after shutdown", v1, v2), ok
	})
}

func e3() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		qa := queue.New[int](th)
		qb := queue.New[int](th)
		_ = qb.Send(th, 7)
		v, err := core.Sync(th, core.Choice(qa.RecvEvt(), qb.RecvEvt()))
		if err != nil || v != 7 {
			return fmt.Sprintf("choice got (%v, %v)", v, err), false
		}
		// The losing queue is unharmed.
		_ = qa.Send(th, 8)
		w, err := qa.Recv(th)
		return fmt.Sprintf("choice=%v, loser still delivers %v", v, w), err == nil && w == 8
	})
}

func e4() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		q := msgqueue.NewWith[int](th, msgqueue.Options{Nacks: false})
		const rounds = 25
		abandonRounds(th, q, rounds)
		n := q.PendingRequests()
		return fmt.Sprintf("%d abandoned requests retained after %d rounds", n, rounds), n >= rounds
	})
}

func e5() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		q := msgqueue.New[int](th)
		const rounds = 25
		abandonRounds(th, q, rounds)
		deadline := time.Now().Add(2 * time.Second)
		for q.PendingRequests() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		n := q.PendingRequests()
		return fmt.Sprintf("%d requests retained after %d rounds", n, rounds), n == 0
	})
}

func abandonRounds(th *killsafe.Thread, q *msgqueue.Queue[int], rounds int) {
	for i := 0; i < rounds; i++ {
		_, _ = core.Sync(th, core.Choice(
			q.RecvEvt(func(int) bool { return false }),
			core.Always(core.Unit{}),
		))
	}
}

func e6() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		q := msgqueue.NewWith[int](th, msgqueue.Options{Nacks: true, RemotePredicates: true})
		_ = q.Send(th, 1)
		die := func(x *killsafe.Thread, _ int) bool { x.Suspend(); return false }
		hostile := killsafe.NewCustodian(rt.RootCustodian())
		th.WithCustodian(hostile, func() {
			th.Spawn("hostile", func(x *killsafe.Thread) {
				_, _ = core.Sync(x, q.RecvThreadEvt(die))
			})
		})
		time.Sleep(10 * time.Millisecond)
		if q.Manager().Suspended() {
			return "manager suspended by hostile predicate", false
		}
		v, err := q.Recv(th, func(v int) bool { return v == 1 })
		hostile.Shutdown()
		rt.TerminateCondemned()
		return fmt.Sprintf("manager unharmed; innocent client got %v (err=%v)", v, err), err == nil && v == 1
	})
}

func e7() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		halves, broken := 0, 0
		for i := 0; i < 30; i++ {
			sc := swapchan.New[int](th)
			res := make(chan int, 1)
			p := th.Spawn("partner", func(x *killsafe.Thread) {
				if v, err := sc.Swap(x, 1); err == nil {
					res <- v
				} else {
					res <- -1
				}
			})
			delay := time.Duration(i%3) * 200 * time.Microsecond
			go func() {
				time.Sleep(delay)
				p.Break()
			}()
			// If the break lands before the partner commits, nobody is
			// left to swap with: time out rather than hang. A timeout
			// paired with a broken partner is the legitimate
			// exclusive-or outcome; any other mismatch is a half-swap.
			v, err := core.Sync(th, core.Choice(
				sc.SwapEvt(2),
				core.Wrap(core.After(rt, 100*time.Millisecond),
					func(core.Value) core.Value { return nil }),
			))
			pv := <-res
			mainGot := err == nil && v != nil
			partnerGot := pv != -1
			switch {
			case mainGot && partnerGot && v == 1 && pv == 2:
				// committed swap, values crossed: break was excluded
			case !mainGot && !partnerGot:
				broken++ // break excluded the swap entirely
			default:
				halves++ // one side observed the swap, the other did not
			}
		}
		return fmt.Sprintf("%d half-swaps in 30 break-raced swaps (%d fully broken)", halves, broken), halves == 0
	})
}

func e8() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		sc := swapchan.NewKillSafe[int](th)
		doomed := th.Spawn("doomed", func(x *killsafe.Thread) { _, _ = sc.Swap(x, 666) })
		time.Sleep(5 * time.Millisecond)
		doomed.Kill()
		time.Sleep(5 * time.Millisecond)
		res := make(chan int, 1)
		th.Spawn("a", func(x *killsafe.Thread) {
			if v, err := sc.Swap(x, 10); err == nil {
				res <- v
			}
		})
		v, err := sc.Swap(th, 20)
		pv := <-res
		ok := err == nil && v == 10 && pv == 20
		return fmt.Sprintf("post-kill swap exchanged (%d, %d)", v, pv), ok
	})
}

func e9() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		c1 := killsafe.NewCustodian(rt.RootCustodian())
		c2 := killsafe.NewCustodian(rt.RootCustodian())
		share := make(chan *doc.Document, 1)
		th.WithCustodian(c1, func() {
			th.Spawn("servlet-1", func(x *killsafe.Thread) {
				d := doc.New(x)
				_, _ = d.Append(x, "one")
				share <- d
				_ = killsafe.Sleep(x, time.Hour)
			})
		})
		d := <-share
		used := make(chan struct{})
		th.WithCustodian(c2, func() {
			th.Spawn("servlet-2", func(x *killsafe.Thread) {
				_, _ = d.Append(x, "two")
				close(used)
				_ = killsafe.Sleep(x, time.Hour)
			})
		})
		<-used
		c1.Shutdown()
		aliveAfterOne := !d.Manager().Suspended()
		c2.Shutdown()
		deadAfterBoth := d.Manager().Suspended()
		rt.TerminateCondemned()
		return fmt.Sprintf("alive after one owner's death: %v; dead after both: %v",
			aliveAfterOne, deadAfterBoth), aliveAfterOne && deadAfterBoth
	})
}

func e10() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		srv := web.NewServer(th)
		srv.Handle("/help", func(_ *killsafe.Thread, _ *web.Session, req *web.Request) web.Response {
			return web.Response{Status: 200, Body: "ok"}
		})
		b, _ := srv.Connect(th)
		if _, _, err := b.Get(th, "/help"); err != nil {
			return fmt.Sprintf("initial get: %v", err), false
		}
		// Cancelled click on a second connection.
		click := killsafe.NewCustodian(rt.RootCustodian())
		b2, _ := srv.Connect(th)
		started := make(chan struct{})
		th.WithCustodian(click, func() {
			th.Spawn("click", func(x *killsafe.Thread) {
				close(started)
				for {
					if _, _, err := b2.Get(x, "/help"); err != nil {
						return
					}
				}
			})
		})
		<-started
		time.Sleep(2 * time.Millisecond)
		click.Shutdown()
		_, _, err := b.Get(th, "/help")
		srv.Shutdown()
		reaped := rt.TerminateCondemned()
		return fmt.Sprintf("browse after cancelled click err=%v; reaped %d on shutdown", err, reaped),
			err == nil && reaped > 0
	})
}

func e11() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		c1 := killsafe.NewCustodian(rt.RootCustodian())
		c2 := killsafe.NewCustodian(rt.RootCustodian())
		sleepTask := func(c *killsafe.Custodian) *killsafe.Thread {
			var t *killsafe.Thread
			th.WithCustodian(c, func() {
				t = th.Spawn("t", func(x *killsafe.Thread) { _ = killsafe.Sleep(x, time.Hour) })
			})
			return t
		}
		t1, t2 := sleepTask(c1), sleepTask(c2)
		killsafe.ResumeVia(t1, t2)
		c1.Shutdown()
		surviving := !t1.Suspended()
		c2.Shutdown()
		suspended := t1.Suspended()
		c3 := killsafe.NewCustodian(rt.RootCustodian())
		killsafe.ResumeWith(t2, c3)
		chained := !t1.Suspended()
		return fmt.Sprintf("survives c1: %v; suspended after c2: %v; resume chains: %v",
			surviving, suspended, chained), surviving && suspended && chained
	})
}

func e12() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		c1 := killsafe.NewCustodian(rt.RootCustodian())
		c2 := killsafe.NewCustodian(rt.RootCustodian())
		var mgr *killsafe.Thread
		th.WithCustodian(c1, func() {
			mgr = th.Spawn("mgr", func(x *killsafe.Thread) { _ = killsafe.Sleep(x, time.Hour) })
		})
		var t2 *killsafe.Thread
		th.WithCustodian(c2, func() {
			t2 = th.Spawn("t2", func(x *killsafe.Thread) { _ = killsafe.Sleep(x, time.Hour) })
		})
		killsafe.ResumeVia(mgr, t2)
		c1.Shutdown()
		c2.Shutdown()
		suspended := mgr.Suspended()
		n := rt.TerminateCondemned()
		return fmt.Sprintf("manager suspended with all custodians dead: %v; %d condemned reaped",
			suspended, n), suspended && n >= 2
	})
}

func e13() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		q := queue.New[[2]int](th)
		const workers = 4
		for w := 0; w < workers; w++ {
			w := w
			c := killsafe.NewCustodian(rt.RootCustodian())
			th.WithCustodian(c, func() {
				th.Spawn("producer", func(x *killsafe.Thread) {
					for i := 0; ; i++ {
						if err := q.Send(x, [2]int{w, i}); err != nil {
							return
						}
					}
				})
			})
			go func() {
				time.Sleep(time.Duration(5+w*3) * time.Millisecond)
				c.Shutdown()
			}()
		}
		last := map[int]int{}
		deadline := time.Now().Add(5 * time.Second)
		received := 0
		for received < 400 {
			if time.Now().After(deadline) {
				return fmt.Sprintf("wedged after %d receives", received), false
			}
			v, err := core.Sync(th, core.Choice(
				q.RecvEvt(),
				core.Wrap(core.After(rt, 100*time.Millisecond), func(core.Value) core.Value { return nil }),
			))
			if err != nil {
				return fmt.Sprintf("recv error: %v", err), false
			}
			if v == nil {
				break // producers all dead and queue drained
			}
			pair := v.([2]int)
			if prev, seen := last[pair[0]]; seen && pair[1] <= prev {
				return fmt.Sprintf("order violated for producer %d", pair[0]), false
			}
			last[pair[0]] = pair[1]
			received++
		}
		rt.TerminateCondemned()
		return fmt.Sprintf("%d items received across kills, per-producer FIFO held", received), received > 0
	})
}

func e14() (string, bool) {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	in := interp.New(rt)
	var out strings.Builder
	in.SetOutput(&out)
	for _, f := range []string{
		"examples/figures/fig07-queue.scm",
		"examples/figures/fig09-msg-queue.scm",
		"examples/figures/fig10-remote-pred.scm",
		"examples/figures/fig11-swap.scm",
		"examples/figures/fig12-killsafe-swap.scm",
	} {
		if err := in.RunFile(f); err != nil {
			return fmt.Sprintf("%s: %v", f, err), false
		}
	}
	lines := len(strings.Split(strings.TrimRight(out.String(), "\n"), "\n"))
	return fmt.Sprintf("5 figure programs ran, %d output lines", lines), lines >= 19
}

// e19 exercises the supervision layer end to end: a killed child is
// restarted under a fresh custodian (the dead incarnation's custodian
// retains no threads), a restart storm escalates by shutting down the
// supervisor's own custodian, and a tripped circuit breaker recovers
// through a half-open probe once the cooldown elapses.
func e19() (string, bool) {
	return withRT(func(rt *killsafe.Runtime, th *killsafe.Thread) (string, bool) {
		poll := func(what string, cond func() bool) bool {
			deadline := time.Now().Add(5 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					return false
				}
				time.Sleep(time.Millisecond)
			}
			return true
		}

		// Restart after kill: one-for-one, no backoff so the restart is
		// immediate.
		sup := supervise.New(th, supervise.Options{
			MaxRestarts: -1,
			BaseBackoff: -1,
		})
		sup.Start(th, supervise.ChildSpec{
			Name:   "worker",
			Policy: supervise.Permanent,
			Start:  func(x *killsafe.Thread) { _ = killsafe.Sleep(x, time.Hour) },
		})
		if !poll("first incarnation", func() bool { return sup.ChildThread("worker") != nil }) {
			return "worker never started", false
		}
		first := sup.ChildThread("worker")
		firstCust := first.Custodians()[0]
		first.Kill()
		if !poll("restart", func() bool {
			cur := sup.ChildThread("worker")
			return sup.Restarts() >= 1 && cur != nil && cur != first && !cur.Done()
		}) {
			return "killed worker was not restarted", false
		}
		cleanOld := firstCust.Dead() && firstCust.ManagedThreads() == 0
		sup.Stop()

		// Escalation: a child that exits immediately blows through the
		// intensity ceiling and takes the supervisor's custodian down.
		esc := supervise.New(th, supervise.Options{
			MaxRestarts: 1,
			Window:      time.Minute,
			BaseBackoff: -1,
		})
		esc.Start(th, supervise.ChildSpec{
			Name:   "flapper",
			Policy: supervise.Permanent,
			Start:  func(*killsafe.Thread) {},
		})
		if !poll("escalation", func() bool { return esc.Escalated() && esc.Custodian().Dead() }) {
			return "restart storm did not escalate", false
		}

		// Breaker: one failure trips it, rejection is immediate, and after
		// the cooldown a successful half-open probe closes it again.
		brk := supervise.NewBreaker(th, supervise.BreakerOptions{
			FailureThreshold: 1,
			Cooldown:         20 * time.Millisecond,
		})
		boom := errors.New("boom")
		if err := brk.Do(th, func(*killsafe.Thread) error { return boom }); err != boom {
			return fmt.Sprintf("failing call returned %v, want boom", err), false
		}
		if !poll("trip", func() bool { return brk.State() == supervise.Open }) {
			return "breaker did not trip", false
		}
		if err := brk.Do(th, func(*killsafe.Thread) error { return nil }); !errors.Is(err, supervise.ErrBreakerOpen) {
			return fmt.Sprintf("open breaker returned %v, want ErrBreakerOpen", err), false
		}
		time.Sleep(30 * time.Millisecond)
		if err := brk.Do(th, func(*killsafe.Thread) error { return nil }); err != nil {
			return fmt.Sprintf("half-open probe failed: %v", err), false
		}
		recovered := poll("close", func() bool { return brk.State() == supervise.Closed })
		return fmt.Sprintf("restart after kill: %v (old custodian clean: %v); escalated: %v; breaker trips=%d recovered: %v",
				sup.Restarts() >= 1, cleanOld, esc.Escalated(), brk.Trips(), recovered),
			cleanOld && recovered && brk.Trips() == 1
	})
}
