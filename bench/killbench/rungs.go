package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/abstractions/kvtxn"
	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/web"
	"repro/internal/wire"
)

// Rungs: direct calls into one layer's public functions, on the inputs the
// workloads generate, timed from outside. Each is the median of five
// batches (see batches). They price one step of the ladder each; how many
// of each step a workload takes is counted separately (core.syncs_per_op
// and friends), so a layer's share of an op is rung × count.

// timed adapts a per-iteration body to batches when set-up inside the
// iteration must not be counted: the body returns the nanoseconds it
// wants charged.
func timed(body func() int64) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		var total int64
		const n = 200
		for i := 0; i < n; i++ {
			total += body()
		}
		per = append(per, float64(total)/n)
	}
	return harness.Median(per)
}

func runRungs(m metrics) error {
	if err := coreRungs(m); err != nil {
		return err
	}
	if err := kvtxnRungs(m); err != nil {
		return err
	}
	wireRungs(m)
	if err := webRungs(m); err != nil {
		return err
	}
	return connRungs(m)
}

func coreRungs(m metrics) error {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	return rt.Run(func(th *core.Thread) {
		sem := core.NewSemaphore(rt, 1)
		ready := sem.WaitEvt()
		m["core.sync_single_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				_, _ = core.Sync(th, ready)
				sem.Post()
			}
		})

		m["core.external_roundtrip_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				x := core.NewExternal(rt)
				go x.Complete(i)
				_, _ = core.Sync(th, x.Evt())
			}
		})

		idle := core.NewChan(rt)
		choice2 := core.Choice(idle.RecvEvt(), ready)
		m["core.choice2_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				_, _ = core.Sync(th, choice2)
				sem.Post()
			}
		})

		// The losing arm is a nack guard: committing the other arm must
		// fire its nack.
		var nack core.Event
		nacked := core.Choice(core.NackGuard(func(_ *core.Thread, n core.Event) core.Event {
			nack = n
			return idle.RecvEvt()
		}), ready)
		m["core.nack_cancel_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				_, _ = core.Sync(th, nacked)
				_, _ = core.Sync(th, nack) // fired: ready at once
				sem.Post()
			}
		})

		mgr := th.Spawn("parked-manager", func(x *core.Thread) { _, _ = core.Sync(x, core.Never()) })
		m["core.resumevia_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				core.ResumeVia(mgr, th)
			}
		})

		m["core.spawn_done_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				t := th.Spawn("leaf", func(*core.Thread) {})
				_, _ = core.Sync(th, t.DoneEvt())
			}
		})

		m["core.kill_done_ns"] = timed(func() int64 {
			parked := make(chan struct{})
			t := th.Spawn("victim", func(x *core.Thread) {
				close(parked)
				_, _ = core.Sync(x, core.Never())
			})
			<-parked
			_ = th.Yield()
			t0 := harness.Now()
			t.Kill()
			_, _ = core.Sync(th, t.DoneEvt())
			return harness.Now() - t0
		})

		m["core.custodian_cycle_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				c := core.NewCustodian(rt.RootCustodian())
				t := rt.SpawnIn(c, "ward", func(x *core.Thread) { _, _ = core.Sync(x, core.Never()) })
				c.Shutdown()
				rt.TerminateCondemned()
				_, _ = core.Sync(th, t.DoneEvt())
			}
		})
	})
}

func kvtxnRungs(m metrics) error {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	gw := kvtxn.NewGateway()
	var direct float64
	err := rt.Run(func(th *core.Thread) {
		s := kvtxn.NewWith(th, kvtxn.Options{Strategy: kvtxn.Locking, Shards: 8})
		gw.Bind(th, s)
		for i := 0; i < 64; i++ {
			_ = s.Put(th, pairKey(i), "500")
		}
		direct = batches(func(n int) {
			for i := 0; i < n; i++ {
				_, _, _ = s.Get(th, pairKey(i%64))
			}
		})
		m["kvtxn.autocommit_get_ns"] = direct
		m["kvtxn.autocommit_put_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				_ = s.Put(th, pairKey(i%64), "500")
			}
		})
		// The pair transfer serve_kv_open's EXEC submits.
		m["kvtxn.multi_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				p := i % 32
				_, _ = s.Multi(th, []kvtxn.Op{
					{Kind: kvtxn.OpWrite, Key: pairKey(2 * p), Val: "400"},
					{Kind: kvtxn.OpWrite, Key: pairKey(2*p + 1), Val: "600"},
				})
			}
		})
	})
	if err != nil {
		return err
	}
	// The gateway hop: the same Get from a thread of a second runtime,
	// minus the direct call.
	rt2 := core.NewRuntime()
	defer rt2.Shutdown()
	err = rt2.Run(func(th *core.Thread) {
		via := batches(func(n int) {
			for i := 0; i < n; i++ {
				_, _, _ = gw.Get(th, pairKey(i%64))
			}
		})
		m["kvtxn.gateway_hop_ns"] = via - direct
	})
	return err
}

func wireRungs(m metrics) {
	httpCodec, _ := wire.New("http", wire.Options{})
	respCodec, _ := wire.New("resp", wire.Options{})
	pong := web.Response{Status: 200, Body: "pong"}

	hc := httpCodec()
	req := []byte(pingRequest)
	var hf *wire.Frame
	m["wire.http_parse_ns"] = batches(func(n int) {
		for i := 0; i < n; i++ {
			hf, _, _ = hc.Parse(req)
		}
	})
	buf := make([]byte, 0, 512)
	m["wire.http_append_ns"] = batches(func(n int) {
		for i := 0; i < n; i++ {
			buf = hc.AppendResponse(buf[:0], hf, pong, false)
		}
	})
	var ms0, ms1 runtime.MemStats
	const frames = 20000
	runtime.ReadMemStats(&ms0)
	for i := 0; i < frames; i++ {
		f, _, _ := hc.Parse(req)
		buf = hc.AppendResponse(buf[:0], f, pong, false)
	}
	runtime.ReadMemStats(&ms1)
	m["wire.allocs_per_frame"] = float64(ms1.Mallocs-ms0.Mallocs) / frames

	rc := respCodec()
	get := encode(nil, kvOp{kind: kvGet, key: 1234})
	var rf *wire.Frame
	m["wire.resp_parse_ns"] = batches(func(n int) {
		for i := 0; i < n; i++ {
			rf, _, _ = rc.Parse(get)
		}
	})
	val := web.Response{Status: 200, Body: "500"}
	m["wire.resp_append_ns"] = batches(func(n int) {
		for i := 0; i < n; i++ {
			buf = rc.AppendResponse(buf[:0], rf, val, false)
		}
	})
	multi := appendTransfer(nil, 77, 400)
	m["wire.resp_multi_parse_ns"] = batches(func(n int) {
		for i := 0; i < n; i++ {
			rest := multi
			for len(rest) > 0 {
				_, rest, _ = rc.Parse(rest)
			}
		}
	})
}

func webRungs(m metrics) error {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	return rt.Run(func(th *core.Thread) {
		ws := web.NewServer(th)
		ws.Handle("/ping", func(*core.Thread, *web.Session, *web.Request) web.Response {
			return web.Response{Status: 200, Body: "pong"}
		})
		sess := ws.AttachSession(core.NewCustodian(ws.Custodian()))
		req := &web.Request{Method: "GET", Path: "/ping", Query: map[string]string{}}
		m["web.dispatch_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				_ = ws.Dispatch(th, sess, req)
			}
		})
		m["web.session_cycle_ns"] = batches(func(n int) {
			for i := 0; i < n; i++ {
				s := ws.AttachSession(core.NewCustodian(ws.Custodian()))
				ws.Terminate(s.ID)
			}
		})
	})
}

// connRungs prices a connection: set-up time, and what 64 idle
// established connections hold — goroutines, heap, runtime threads
// spawned — over the same fleet with none.
func connRungs(m metrics) error {
	const idle = 64
	f, err := startFleet("http", func(_ *core.Thread, _ int, ws *web.Server) {
		ws.Handle("/ping", func(*core.Thread, *web.Session, *web.Request) web.Response {
			return web.Response{Status: 200, Body: "pong"}
		})
	})
	if err != nil {
		return err
	}
	defer func() { _ = f.m.Shutdown(shutdownGrace) }()

	settle := func() (goroutines int, heap uint64, spawns int64) {
		time.Sleep(20 * time.Millisecond) // let accept hand-offs finish
		runtime.GC()
		p := harness.ReadProc()
		return p.Goroutines, p.HeapInuse, f.m.ObsSnapshot().Spawns
	}
	steady, err := f.dial()
	if err != nil {
		return err
	}
	defer steady.c.Close()
	var steadyNs []float64
	for i := 0; i < idle; i++ {
		t0 := harness.Now()
		if _, err := steady.call("/ping"); err != nil {
			return fmt.Errorf("steady request: %w", err)
		}
		steadyNs = append(steadyNs, float64(harness.Now()-t0))
	}

	g0, h0, s0 := settle()
	conns := make([]net.Conn, 0, idle)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	var freshNs []float64
	for i := 0; i < idle; i++ {
		t0 := harness.Now()
		c, err := net.Dial("tcp", f.addr)
		if err != nil {
			return err
		}
		conns = append(conns, c)
		cl := &client{c: c, br: bufio.NewReaderSize(c, 512), proto: "http"}
		if _, err := cl.call("/ping"); err != nil {
			return fmt.Errorf("fresh connection %d: %w", i, err)
		}
		freshNs = append(freshNs, float64(harness.Now()-t0))
	}
	g1, h1, s1 := settle()
	// Each client socket above also costs this process nothing in
	// goroutines, so the difference is the server's.
	m["netsvc.conn_setup_us"] = (harness.Median(freshNs) - harness.Median(steadyNs)) / 1e3
	m["netsvc.goroutines_per_conn"] = float64(g1-g0) / idle
	m["netsvc.bytes_per_conn"] = (float64(h1) - float64(h0)) / idle
	m["core.spawns_per_conn"] = float64(s1-s0) / idle
	return nil
}
