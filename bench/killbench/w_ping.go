package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/web"
)

// serve_ping: 2 HTTP/1.1 keep-alive connections, each a closed loop of
// GET /ping over loopback TCP against ServeSharded with default shards.
// The steady-state request path — netsvc pumps and session thread, the
// wire codec, web dispatch — at saturation; kvtxn is not even mounted.
// After the window, while the two connections keep the server saturated, a
// series of victim connections is killed through /chaos/kill to time the
// session-reclaim path. (On an idle server the same number moves by a
// fifth from run to run: it is then mostly what the host charges to wake
// idle Ps.)
//
// One op is one request answered with the one whole, correct frame.

const (
	pingClients = 2
	pingVictims = 200
)

type pingInst struct {
	cfg     *runCfg
	f       *fleet
	win     *harness.Window
	clients []*client
	recs    []*harness.Recorder
	admin   *client
	stop    atomic.Bool
	wg      sync.WaitGroup
	errs    chan error
}

func buildPing(cfg *runCfg) (instance, error) {
	in := &pingInst{cfg: cfg, win: harness.NewWindow(cfg.window), errs: make(chan error, pingClients)}
	pong := func(*core.Thread, *web.Session, *web.Request) web.Response {
		return web.Response{Status: 200, Body: "pong"}
	}
	f, err := startFleet("http", func(_ *core.Thread, shard int, ws *web.Server) {
		h := web.Servlet(pong)
		if cfg.traced() {
			h = (&servletTracer{spans: cfg.spans, shard: shard, seq: map[int]uint32{}}).wrap(h)
		}
		ws.Handle("/ping", h)
	})
	if err != nil {
		return nil, fmt.Errorf("serve_ping: %w", err)
	}
	in.f = f
	if in.admin, err = f.dial(); err != nil {
		in.close()
		return nil, fmt.Errorf("serve_ping: admin: %w", err)
	}
	for i := 0; i < pingClients; i++ {
		cl, err := f.dial()
		if err != nil {
			in.close()
			return nil, fmt.Errorf("serve_ping: client %d: %w", i, err)
		}
		in.clients = append(in.clients, cl)
		in.recs = append(in.recs, harness.NewRecorder(in.win))
	}
	for i := range in.clients {
		in.wg.Add(1)
		go in.loop(in.clients[i], in.recs[i])
	}
	return in, nil
}

// loop is one closed-loop client. The reply is compared byte for byte
// with the one frame the server may send, which is the torn-frame oracle
// and costs the generator no allocation.
func (in *pingInst) loop(cl *client, rec *harness.Recorder) {
	defer in.wg.Done()
	req := []byte(pingRequest)
	want := []byte(pingResponse)
	got := make([]byte, len(want))
	spans := in.cfg.spans
	for seq := uint32(1); !in.stop.Load(); seq++ {
		t0 := harness.Now()
		if _, err := cl.c.Write(req); err != nil {
			in.errs <- fmt.Errorf("write: %w", err)
			return
		}
		if _, err := io.ReadFull(cl.br, got); err != nil {
			in.errs <- fmt.Errorf("read: %w", err)
			return
		}
		t1 := harness.Now()
		if string(got) != string(want) {
			rec.Fail(t1)
			in.errs <- fmt.Errorf("%w: reply %q", errTorn, got)
			return
		}
		rec.Good(t1, t1-t0, 1)
		if spans != nil {
			spans.Add(spClient, opID(cl.shard, cl.sess, seq), t0, t1)
		}
	}
}

func (in *pingInst) measure() (*outcome, error) {
	o := &outcome{layer: metrics{}}
	o.before, o.after, o.goPeak = in.cfg.timeline(in.win, in.f.counters)
	victims := pingVictims
	if in.cfg.window < 1e9 {
		victims = 20 // the smoke run
	}
	for i := 0; i < victims; i++ {
		ns, err := in.f.victimCycle(in.admin, pingRequest)
		if err != nil {
			o.violations++
			o.notes = append(o.notes, "oracle: victim: "+err.Error())
			break
		}
		o.reclaim.add(ns)
		o.killed++
	}
	in.stop.Store(true)
	in.wg.Wait()
	o.sum = harness.Summarize(in.win, in.recs...)
	select {
	case err := <-in.errs:
		o.violations++
		o.notes = append(o.notes, "oracle: client stopped early: "+err.Error())
	default:
	}
	return o, nil
}

func (in *pingInst) close() {
	in.stop.Store(true)
	for _, cl := range in.clients {
		cl.c.Close()
	}
	in.wg.Wait()
	if in.admin != nil {
		in.admin.c.Close()
	}
	if err := in.f.m.Shutdown(shutdownGrace); err != nil {
		fmt.Println("note: serve_ping: shutdown:", err)
	}
}
