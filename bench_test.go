package killsafe_test

// The benchmark harness for EXPERIMENTS.md. The paper (PLDI 2004) has no
// quantitative tables — its evaluation is the set of worked figures and
// behavioural claims — so these benchmarks characterize the reproduced
// system and the costs of the design choices the paper discusses: the
// per-operation kill-safety guard, the global-lock rendezvous, NACK
// bookkeeping vs the Figure 8 leak, remote predicate execution, and the
// manager-based vs direct swap. Experiment IDs (E1–E14) refer to the
// experiment index in DESIGN.md.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	killsafe "repro"
	"repro/abstractions/msgqueue"
	"repro/abstractions/queue"
	"repro/abstractions/supervise"
	"repro/abstractions/swapchan"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/interp"
	"repro/internal/netsvc"
	"repro/internal/obs"
	"repro/internal/web"
)

// benchRun binds the benchmark goroutine to a runtime thread, runs fn,
// and shuts the runtime down.
func benchRun(b *testing.B, fn func(rt *killsafe.Runtime, th *killsafe.Thread)) {
	b.Helper()
	rt := killsafe.NewRuntime()
	defer rt.Shutdown()
	if err := rt.Run(func(th *killsafe.Thread) { fn(rt, th) }); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// E12 baseline: the runtime's rendezvous channel vs a native Go channel.
func BenchmarkChannelRendezvous(b *testing.B) {
	b.Run("runtime", func(b *testing.B) {
		benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
			ch := killsafe.NewChannel[int](rt)
			th.Spawn("echo", func(x *killsafe.Thread) {
				for {
					if _, err := ch.Recv(x); err != nil {
						return
					}
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.Send(th, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("go-native", func(b *testing.B) {
		ch := make(chan int)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range ch {
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- i
		}
		b.StopTimer()
		close(ch)
		<-done
	})
}

// E1/E2/E12 ablation: cost of the per-operation ResumeVia guard — the
// entire price of kill-safety for the queue.
func BenchmarkGuardOverhead(b *testing.B) {
	bench := func(b *testing.B, mk func(*killsafe.Thread) *queue.Queue[int]) {
		benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
			q := mk(th)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Send(th, i); err != nil {
					b.Fatal(err)
				}
				if _, err := q.Recv(th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("unsafe-queue", func(b *testing.B) { bench(b, queue.NewUnsafe[int]) })
	b.Run("killsafe-queue", func(b *testing.B) { bench(b, queue.New[int]) })
}

// E2: queue throughput with concurrent producers and consumers.
func BenchmarkQueueThroughput(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers-%d", workers), func(b *testing.B) {
			benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
				q := queue.New[int](th)
				per := b.N / workers
				for w := 0; w < workers; w++ {
					th.Spawn("producer", func(x *killsafe.Thread) {
						for i := 0; i < per; i++ {
							if err := q.Send(x, i); err != nil {
								return
							}
						}
					})
				}
				b.ResetTimer()
				for i := 0; i < per*workers; i++ {
					if _, err := q.Recv(th); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// E3: queue events as first-class values — receive through a choice.
func BenchmarkQueueEvtChoice(b *testing.B) {
	benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
		qa := queue.New[int](th)
		qb := queue.New[int](th)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := qa.Send(th, i); err != nil {
				b.Fatal(err)
			}
			if _, err := core.Sync(th, core.Choice(qa.RecvEvt(), qb.RecvEvt())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E4 vs E5: the Figure 8 space leak against the Figure 9 NACK cleanup.
// Each iteration abandons one selective-receive request (it loses a
// choice). Without nacks the manager's request list grows without bound —
// reported as the final-requests metric and visible as rising ns/op.
func BenchmarkMsgQueueAbandon(b *testing.B) {
	bench := func(b *testing.B, opts msgqueue.Options) {
		benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
			q := msgqueue.NewWith[int](th, opts)
			never := func(int) bool { return false }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := core.Sync(th, core.Choice(
					q.RecvEvt(never),
					core.Always(core.Unit{}),
				))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Let in-flight gave-up processing settle before reading.
			deadline := time.Now().Add(2 * time.Second)
			for opts.Nacks && q.PendingRequests() > 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			b.ReportMetric(float64(q.PendingRequests()), "final-requests")
		})
	}
	b.Run("fig8-leaky", func(b *testing.B) { bench(b, msgqueue.Options{Nacks: false}) })
	b.Run("fig9-nacks", func(b *testing.B) { bench(b, msgqueue.Options{Nacks: true}) })
}

// E5/E6: selective dequeue service cost, inline vs remote predicates.
func BenchmarkMsgQueueRecv(b *testing.B) {
	bench := func(b *testing.B, opts msgqueue.Options) {
		benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
			q := msgqueue.NewWith[int](th, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Send(th, i); err != nil {
					b.Fatal(err)
				}
				if _, err := q.Recv(th, msgqueue.Any[int]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("inline-pred", func(b *testing.B) { bench(b, msgqueue.Options{Nacks: true}) })
	b.Run("remote-pred", func(b *testing.B) {
		bench(b, msgqueue.Options{Nacks: true, RemotePredicates: true})
	})
}

// E7 vs E8: direct (break-safe) swap against manager-based (kill-safe)
// swap — the cost of the extra manager hop and delivery threads.
func BenchmarkSwap(b *testing.B) {
	bench := func(b *testing.B, mk func(*killsafe.Thread) *swapchan.Swap[int]) {
		benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
			sc := mk(th)
			th.Spawn("partner", func(x *killsafe.Thread) {
				for {
					if _, err := sc.Swap(x, 0); err != nil {
						return
					}
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.Swap(th, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("direct", func(b *testing.B) { bench(b, swapchan.New[int]) })
	b.Run("killsafe", func(b *testing.B) { bench(b, swapchan.NewKillSafe[int]) })
}

// E9: the servlet scenario's shared document — one edit plus snapshot.
func BenchmarkServletDoc(b *testing.B) {
	benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
		d := doc.New(th)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Append(th, "line"); err != nil {
				b.Fatal(err)
			}
			if i%64 == 0 {
				if _, _, err := d.Snapshot(th); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// E10: help-system round trip — browser request through the kill-safe
// byte-stream pipe to a servlet and back.
func BenchmarkHelpSystem(b *testing.B) {
	benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
		srv := web.NewServer(th)
		srv.Handle("/help", func(_ *killsafe.Thread, _ *web.Session, req *web.Request) web.Response {
			return web.Response{Status: 200, Body: "help for " + req.Query["topic"]}
		})
		browser, _ := srv.Connect(th)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			status, _, err := browser.Get(th, "/help?topic=events")
			if err != nil || status != 200 {
				b.Fatalf("(%d, %v)", status, err)
			}
		}
	})
}

// E11: ResumeVia cost — the guard primitive itself — against yoke-chain
// depth (custodian grants propagate transitively through beneficiaries).
func BenchmarkResumeYoke(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("chain-%d", depth), func(b *testing.B) {
			benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
				mgr := th.Spawn("mgr", func(x *killsafe.Thread) {
					_ = killsafe.Sleep(x, time.Hour)
				})
				prev := mgr
				for i := 1; i < depth; i++ {
					next := th.Spawn("link", func(x *killsafe.Thread) {
						_ = killsafe.Sleep(x, time.Hour)
					})
					killsafe.ResumeVia(prev, next)
					prev = next
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					killsafe.ResumeVia(mgr, th)
				}
			})
		})
	}
}

// Custodian shutdown latency against the number of controlled threads.
func BenchmarkCustodianShutdown(b *testing.B) {
	for _, n := range []int{10, 100} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
				for i := 0; i < b.N; i++ {
					c := killsafe.NewCustodian(rt.RootCustodian())
					th.WithCustodian(c, func() {
						for j := 0; j < n; j++ {
							th.Spawn("victim", func(x *killsafe.Thread) {
								_ = killsafe.Sleep(x, time.Hour)
							})
						}
					})
					c.Shutdown()
					rt.TerminateCondemned()
				}
			})
		})
	}
}

// E13: queue throughput while user tasks are killed continuously — the
// kill-storm. The measured op is a consumer receive; producers come and
// go under the axe.
func BenchmarkKillStorm(b *testing.B) {
	benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
		q := queue.New[int](th)
		spawnProducer := func() *killsafe.Custodian {
			c := killsafe.NewCustodian(rt.RootCustodian())
			th.WithCustodian(c, func() {
				th.Spawn("producer", func(x *killsafe.Thread) {
					for i := 0; ; i++ {
						if err := q.Send(x, i); err != nil {
							return
						}
					}
				})
			})
			return c
		}
		cust := spawnProducer()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%100 == 99 {
				b.StopTimer()
				cust.Shutdown() // kill the producer mid-stream
				rt.TerminateCondemned()
				cust = spawnProducer()
				b.StartTimer()
			}
			if _, err := q.Recv(th); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E14: the paper's Figure 7 queue running as Scheme source under mzmini,
// compared against the native Go queue (BenchmarkGuardOverhead). Each
// iteration is one send plus one receive. The queue is recreated in
// batches because mzmini's wrap procedures consume Go stack (documented
// interpreter limitation).
func BenchmarkInterpQueue(b *testing.B) {
	const batch = 64
	rt := core.NewRuntime()
	defer rt.Shutdown()
	in := interp.New(rt)
	in.SetOutput(&strings.Builder{})
	setup := `
(define-struct q (in-ch out-ch mgr-t))
(define (queue)
  (define in-ch (channel))
  (define out-ch (channel))
  (define (serve items)
    (if (null? items)
        (serve (list (sync (channel-recv-evt in-ch))))
        (sync (choice-evt
               (wrap-evt (channel-recv-evt in-ch)
                         (lambda (v) (serve (append items (list v)))))
               (wrap-evt (channel-send-evt out-ch (car items))
                         (lambda (void) (serve (cdr items))))))))
  (define mgr-t (spawn (lambda () (serve (list)))))
  (make-q in-ch out-ch mgr-t))
(define (queue-send-evt q v)
  (guard-evt (lambda ()
    (thread-resume (q-mgr-t q) (current-thread))
    (channel-send-evt (q-in-ch q) v))))
(define (queue-recv-evt q)
  (guard-evt (lambda ()
    (thread-resume (q-mgr-t q) (current-thread))
    (channel-recv-evt (q-out-ch q)))))
(define (bench-batch n)
  (define q (queue))
  (let loop ([i 0])
    (if (< i n)
        (begin
          (sync (queue-send-evt q i))
          (sync (queue-recv-evt q))
          (loop (add1 i)))
        (kill-thread (q-mgr-t q)))))
`
	err := rt.Run(func(th *core.Thread) {
		if _, err := in.EvalString(th, setup); err != nil {
			b.Fatalf("setup: %v", err)
		}
		b.ResetTimer()
		remaining := b.N
		for remaining > 0 {
			n := batch
			if remaining < n {
				n = remaining
			}
			if _, err := in.EvalString(th, fmt.Sprintf("(bench-batch %d)", n)); err != nil {
				b.Fatalf("batch: %v", err)
			}
			remaining -= n
		}
	})
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// netsvcClient is a plain-goroutine HTTP/1.0 client for the loopback
// serving benchmark: one keep-alive connection, dialed on first use.
type netsvcClient struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
}

func (cl *netsvcClient) close() {
	if cl.c != nil {
		cl.c.Close()
		cl.c = nil
	}
}

// get performs one request on the client's connection.
func (cl *netsvcClient) get(target string) error {
	if cl.c == nil {
		c, err := net.Dial("tcp", cl.addr)
		if err != nil {
			return err
		}
		cl.c = c
		cl.r = bufio.NewReader(c)
	}
	if _, err := fmt.Fprintf(cl.c, "GET %s HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", target); err != nil {
		return err
	}
	return cl.readResponse()
}

func (cl *netsvcClient) readResponse() error {
	n := -1
	for {
		ln, err := cl.r.ReadString('\n')
		if err != nil {
			return err
		}
		ln = strings.TrimRight(ln, "\r\n")
		if ln == "" {
			break
		}
		if rest, ok := strings.CutPrefix(strings.ToLower(ln), "content-length:"); ok {
			fmt.Sscanf(strings.TrimSpace(rest), "%d", &n)
		}
	}
	if n < 0 {
		return fmt.Errorf("response missing Content-Length")
	}
	_, err := io.CopyN(io.Discard, cl.r, int64(n))
	return err
}

// E19: one full kill→restart cycle through the supervisor — monitor
// observes the child's done event, shuts the dead incarnation's
// custodian, spawns a fresh thread under a fresh custodian (no backoff,
// so the measured op is pure supervision machinery).
func BenchmarkSupervisorRestart(b *testing.B) {
	benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
		restarted := make(chan struct{}, 1)
		sup := supervise.New(th, supervise.Options{
			MaxRestarts: -1,
			BaseBackoff: -1,
			OnRestart:   func(string, int) { restarted <- struct{}{} },
		})
		sup.Start(th, supervise.ChildSpec{
			Name:   "worker",
			Policy: supervise.Permanent,
			Start:  func(x *killsafe.Thread) { _ = killsafe.Sleep(x, time.Hour) },
		})
		waitChild := func(prev *killsafe.Thread) *killsafe.Thread {
			for {
				cur := sup.ChildThread("worker")
				if cur != nil && cur != prev && !cur.Done() {
					return cur
				}
				runtime.Gosched()
			}
		}
		child := waitChild(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			child.Kill()
			<-restarted
			child = waitChild(child)
		}
		b.StopTimer()
		sup.Stop()
	})
}

// E19: closed-state circuit breaker overhead — one Do is two rendezvous
// with the manager thread (permit acquire via nack-guarded request,
// result report) around a no-op call.
func BenchmarkBreakerDo(b *testing.B) {
	benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
		brk := supervise.NewBreaker(th, supervise.BreakerOptions{})
		nop := func(*killsafe.Thread) error { return nil }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := brk.Do(th, nop); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E21: instrumentation overhead — the cost of the observability layer
// against the uninstrumented fast path.

// BenchmarkSyncSingle is the single-event Sync fast path (semaphore wait
// against a ready semaphore): obs-off is the seed configuration — the
// instrumentation hook is one atomic load and a nil check, and the op
// pool keeps the path allocation-free; obs-on adds the metrics counter
// taps; obs-rec adds the flight-recorder ring write on top.
func BenchmarkSyncSingle(b *testing.B) {
	modes := []struct {
		name     string
		metrics  bool
		recorder bool
	}{
		{"obs-off", false, false},
		{"obs-on", true, false},
		{"obs-rec", true, true},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
				if m.metrics {
					o := obs.New()
					if m.recorder {
						o.EnableRecorder(0)
					}
					o.Attach(rt)
				}
				sem := core.NewSemaphore(rt, 1)
				evt := sem.WaitEvt()
				if _, err := core.Sync(th, evt); err != nil { // warm the op pool
					b.Fatal(err)
				}
				sem.Post()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Sync(th, evt); err != nil {
						b.Fatal(err)
					}
					sem.Post()
				}
			})
		})
	}
}

// E25: direct core-level contention — N rendezvous pairs ping-ponging on
// disjoint channels vs all on one shared channel, swept across GOMAXPROCS.
// Under the old design both legs serialized on the per-runtime global lock
// and the disjoint/shared gap was noise; with per-event locks and the op
// claim protocol, disjoint pairs touch disjoint mutexes and disjoint ops,
// so the disjoint leg scales with cores while the shared leg measures the
// per-object lock, not a runtime-wide one. On a 1-core machine the two
// GOMAXPROCS legs time-slice the same CPU and the sweep mainly bounds the
// scheduling overhead. The CI global-lock fence runs this sweep under
// mutex profiling.
func BenchmarkCoreContention(b *testing.B) {
	const pairs = 4
	bench := func(b *testing.B, shared bool) {
		benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
			chs := make([]*core.Chan, pairs)
			one := core.NewChanNamed(rt, "shared")
			for i := range chs {
				if shared {
					chs[i] = one
				} else {
					chs[i] = core.NewChanNamed(rt, "disjoint")
				}
			}
			per := b.N/pairs + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for p := 0; p < pairs; p++ {
				ch := chs[p]
				wg.Add(2)
				th.Spawn("recv", func(x *killsafe.Thread) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := ch.Recv(x); err != nil {
							return
						}
					}
				})
				th.Spawn("send", func(x *killsafe.Thread) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := ch.Send(x, i); err != nil {
							return
						}
					}
				})
			}
			wg.Wait()
		})
	}
	for _, procs := range []int{1, 4} {
		for _, mode := range []string{"disjoint", "shared"} {
			shared := mode == "shared"
			b.Run(fmt.Sprintf("gomaxprocs-%d/%s", procs, mode), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				bench(b, shared)
			})
		}
	}
}

// BenchmarkNetsvcServedRequest is one served request end to end — read
// pump goroutine → semaphore handoff → session thread Sync → servlet
// dispatch → inline write(2) by the session thread (the write pump runs
// only under backpressure, which one sequential client never causes), one
// keep-alive client, sequential requests — under each
// instrumentation mode: the obs-on/obs-rec spread against obs-off is the
// overhead the CI fence bounds (killbench's serve_ping workload is the
// end-to-end serving measurement). The body-string/body-bytes pair is the zero-copy response
// path's before/after: body-string serializes the servlet's string body
// into the pooled batch buffer (the legacy copy), body-bytes hands the
// codec a []byte payload that is appended straight into the batch —
// allocs/op is the headline number for the pair.
func BenchmarkNetsvcServedRequest(b *testing.B) {
	modes := []struct {
		name      string
		cfg       netsvc.Config
		bytesBody bool
	}{
		{"obs-off/body-string", netsvc.Config{MaxConns: 32, IdleTimeout: 10 * time.Second, DisableObs: true}, false},
		{"obs-off/body-bytes", netsvc.Config{MaxConns: 32, IdleTimeout: 10 * time.Second, DisableObs: true}, true},
		{"obs-on", netsvc.Config{MaxConns: 32, IdleTimeout: 10 * time.Second}, false},
		{"obs-rec", netsvc.Config{MaxConns: 32, IdleTimeout: 10 * time.Second, FlightRecorder: 8192}, false},
	}
	pongBytes := []byte("pong")
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			benchRun(b, func(rt *killsafe.Runtime, th *killsafe.Thread) {
				ws := web.NewServer(th)
				if m.bytesBody {
					ws.Handle("/ping", func(_ *killsafe.Thread, _ *web.Session, _ *web.Request) web.Response {
						return web.Response{Status: 200, BodyBytes: pongBytes}
					})
				} else {
					ws.Handle("/ping", func(_ *killsafe.Thread, _ *web.Session, _ *web.Request) web.Response {
						return web.Response{Status: 200, Body: "pong"}
					})
				}
				s, err := netsvc.Serve(th, ws, m.cfg)
				if err != nil {
					b.Fatal(err)
				}
				cl := &netsvcClient{addr: s.Addr().String()}
				defer cl.close()
				if err := cl.get("/ping"); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cl.get("/ping"); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				cl.close()
				if err := s.Shutdown(th, 2*time.Second); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}
