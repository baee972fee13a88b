package obs

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/explore/scenarios"
)

// TestMetricsBalanceUnderKills checks the core accounting identity: a
// runtime that spawns, syncs, kills, and shuts down ends with
// spawns == dones (nothing leaks), exits == dones - kills, and the
// sync fast/multi split summing to the total.
func TestMetricsBalanceUnderKills(t *testing.T) {
	o := New()
	rt := core.NewRuntime()
	o.Attach(rt)
	// Room for every worker's park and then some, so the tap never has
	// to drop an announcement the wait below needs.
	parked := &blockedTap{ch: make(chan struct{}, 64)}
	rt.SetInstrumentation(core.TeeInstrumentation(rt.Instrumentation(), parked))

	const workers = 8
	const killed = 4
	err := rt.Run(func(th *core.Thread) {
		sem := core.NewSemaphore(rt, 0)
		var ths []*core.Thread
		for i := 0; i < workers; i++ {
			ths = append(ths, th.Spawn("worker", func(x *core.Thread) {
				_, _ = core.Sync(x, sem.WaitEvt())
			}))
		}
		// Wait until every worker is parked in its sync.
		for i := 0; i < workers; i++ {
			<-parked.ch
		}
		for i := 0; i < killed; i++ {
			ths[i].Kill()
		}
		for i := killed; i < workers; i++ {
			sem.Post()
		}
		for i := killed; i < workers; i++ {
			if _, err := core.Sync(th, ths[i].DoneEvt()); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rt.Shutdown()

	s := o.Snapshot()
	if s.Spawns == 0 {
		t.Fatal("no spawns counted")
	}
	if s.Spawns != s.Dones {
		t.Fatalf("spawns (%d) != dones (%d) after shutdown", s.Spawns, s.Dones)
	}
	if s.LiveThreads != 0 {
		t.Fatalf("live_threads = %d after shutdown, want 0", s.LiveThreads)
	}
	if s.Kills < killed {
		t.Fatalf("kills = %d, want >= %d", s.Kills, killed)
	}
	if s.Exits != s.Dones-s.Kills {
		t.Fatalf("exits = %d, want dones-kills = %d", s.Exits, s.Dones-s.Kills)
	}
	if s.Syncs == 0 {
		t.Fatal("no syncs counted")
	}
	if s.SyncFast+s.SyncMulti != s.Syncs {
		t.Fatalf("sync split %d+%d != total %d", s.SyncFast, s.SyncMulti, s.Syncs)
	}
	// Runtime accounting must agree with the counters.
	if n := rt.LiveThreads(); int64(n) != s.LiveThreads {
		t.Fatalf("runtime reports %d live threads, counters say %d", n, s.LiveThreads)
	}
}

// blockedTap announces every Blocked tap — a thread about to park — on
// ch, without ever blocking the tap (a full ch drops the announcement).
type blockedTap struct {
	core.NopInstrumentation
	ch chan struct{}
}

func (b *blockedTap) Blocked(*core.Thread) {
	select {
	case b.ch <- struct{}{}:
	default:
	}
}

// TestAttachLiveRuntime: a passive instrumentation may be installed on a
// runtime that already has threads, and counters tick from then on.
func TestAttachLiveRuntime(t *testing.T) {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	o := New()
	err := rt.Run(func(th *core.Thread) {
		o.Attach(rt) // th exists: this must not panic (det mode unchanged)
		late := th.Spawn("late", func(*core.Thread) {})
		if _, err := core.Sync(th, late.DoneEvt()); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s := o.Snapshot(); s.Spawns == 0 || s.Dones == 0 {
		t.Fatalf("counters did not tick after live attach: %+v", s)
	}
}

// TestRecorderRecordsLifecycle: the flight recorder is the runtime's
// one event log, so every lifecycle transition the runtime reports —
// spawn, suspend, resume, yoke, break, custodian shutdown, condemn and
// kill — must land in it.
func TestRecorderRecordsLifecycle(t *testing.T) {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	o := New()
	o.Attach(rt)
	rec := o.EnableRecorder(0)
	err := rt.Run(func(th *core.Thread) {
		// park holds a thread parked for good — a break only re-parks it —
		// so the worker is still alive when TerminateCondemned kills it.
		never := core.NewSemaphore(rt, 0)
		park := func(x *core.Thread) {
			for {
				_, _ = core.Sync(x, never.WaitEvt())
			}
		}
		c := core.NewCustodian(rt.RootCustodian())
		var w *core.Thread
		th.WithCustodian(c, func() { w = th.Spawn("worker", park) })
		w.Suspend()
		core.Resume(w)
		mgr := th.Spawn("mgr", park)
		core.ResumeVia(mgr, w)
		w.Break()
		c.Shutdown()
		rt.TerminateCondemned()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := map[EvKind]int{}
	for _, e := range rec.Snapshot() {
		got[e.Kind]++
	}
	for _, want := range []EvKind{EvSpawn, EvSuspend, EvResume, EvYoke, EvBreak, EvShutdown, EvCondemn, EvKill} {
		if got[want] == 0 {
			t.Errorf("no %v event recorded; recorded kinds: %v", want, got)
		}
	}
}

// TestRecorderSequenceIsMonotonic: a recorded flight reads back in write
// order, one event per spawn and one per finish at least.
func TestRecorderSequenceIsMonotonic(t *testing.T) {
	rt := core.NewRuntime()
	defer rt.Shutdown()
	o := New()
	o.Attach(rt)
	rec := o.EnableRecorder(0)
	_ = rt.Run(func(th *core.Thread) {
		for i := 0; i < 20; i++ {
			w := th.Spawn("w", func(*core.Thread) {})
			if _, err := core.Sync(th, w.DoneEvt()); err != nil {
				t.Error(err)
			}
		}
	})
	events := rec.Snapshot()
	if len(events) < 40 {
		t.Fatalf("only %d events", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("sequence not monotonic at %d: %+v then %+v", i, events[i-1], events[i])
		}
	}
}

func TestRecorderOverflowWraparound(t *testing.T) {
	r := NewRecorder(10) // rounds up to 16
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	const total = 100
	for i := 0; i < total; i++ {
		r.record(EvRunnable, int64(i), 0)
	}
	if r.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), total)
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot holds %d events, want the last 16", len(snap))
	}
	for i, e := range snap {
		wantSeq := uint64(total - 16 + i)
		if e.Seq != wantSeq || e.Thread != int64(wantSeq) {
			t.Fatalf("slot %d: seq=%d thread=%d, want seq=thread=%d (oldest-first after wrap)",
				i, e.Seq, e.Thread, wantSeq)
		}
		if e.Kind != EvRunnable {
			t.Fatalf("slot %d: kind %v", i, e.Kind)
		}
	}
}

// TestRecorderConcurrent hammers the ring from several writers while a
// reader snapshots continuously: no lock, no race (run under -race), no
// torn events — every surviving event must be internally consistent.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	const writers = 4
	const perWriter = 5000
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				// Writer w writes (thread=w, arg=w): a torn slot would mix.
				if e.Thread != e.Arg {
					t.Errorf("torn event: thread=%d arg=%d", e.Thread, e.Arg)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.record(EvSync, id, id)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := r.Recorded(); got != writers*perWriter {
		t.Fatalf("Recorded = %d, want %d", got, writers*perWriter)
	}
}

// TestTraceTextDecodes: a recorded flight renders into the explore trace
// format and parses with the explore decoder, action lines and comments
// alike.
func TestTraceTextDecodes(t *testing.T) {
	r := NewRecorder(64)
	r.record(EvSpawn, 1, 0)
	r.record(EvRunnable, 1, 0)
	r.record(EvSync, 1, SyncArg(3, 1))
	r.record(EvKill, 2, 0)
	r.record(EvSuspend, 3, 0)
	r.record(EvResume, 3, 0)
	r.record(EvBreak, 4, 0)
	r.record(EvAlarm, 1, 0)
	r.record(EvShutdown, 7, 2)
	r.record(EvDone, 2, 0)

	text := r.TraceText("flight", 42)
	tr, err := explore.DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatalf("DecodeTrace: %v\n%s", err, text)
	}
	if tr.Scenario != "flight" || tr.Seed != 42 {
		t.Fatalf("header round-trip: scenario=%q seed=%d", tr.Scenario, tr.Seed)
	}
	// Action lines: r 1, k 2, s 3, u 3, b 4, c. Comments carry the rest.
	want := []explore.Action{
		{Kind: explore.ActRun, Thread: 1},
		{Kind: explore.ActKill, Thread: 2},
		{Kind: explore.ActSuspend, Thread: 3},
		{Kind: explore.ActResume, Thread: 3},
		{Kind: explore.ActBreak, Thread: 4},
		{Kind: explore.ActClock},
	}
	if len(tr.Actions) != len(want) {
		t.Fatalf("decoded %d actions, want %d:\n%s", len(tr.Actions), len(want), text)
	}
	for i, a := range tr.Actions {
		if a != want[i] {
			t.Fatalf("action %d = %+v, want %+v", i, a, want[i])
		}
	}
	cases, chosen := SyncShape(SyncArg(3, 1))
	if cases != 3 || chosen != 1 {
		t.Fatalf("SyncShape round-trip: (%d, %d)", cases, chosen)
	}
}

// TestExploreTeeRoundTrip runs a deterministic exploration with an Obs
// (recorder on) teed alongside the controller, dumps the flight in trace
// format, and feeds it back through the lenient replayer: the decoder
// must accept the dump and the replay must complete without a harness
// error. This is the live-server-to-systematic-replay bridge.
func TestExploreTeeRoundTrip(t *testing.T) {
	sc := scenarios.QueueKillSafe()
	o := New()
	o.EnableRecorder(4096)
	out := explore.RunOnce(sc, explore.NewRandomPicker(11, 0.25), 11,
		explore.Options{Instrument: o})
	if out.Status == explore.StatusError {
		t.Fatalf("instrumented run: harness error: %v", out.Err)
	}
	s := o.Snapshot()
	if s.Spawns == 0 || s.Syncs == 0 {
		t.Fatalf("tee did not reach the obs taps: %+v", s)
	}
	if o.Recorder().Recorded() == 0 {
		t.Fatal("flight recorder stayed empty during the run")
	}

	text := o.Recorder().TraceText(sc.Name, 11)
	tr, err := explore.DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatalf("DecodeTrace(recorded flight): %v\n%s", err, text)
	}
	if tr.Scenario != sc.Name {
		t.Fatalf("scenario header %q, want %q", tr.Scenario, sc.Name)
	}

	rep := explore.Replay(sc, tr, explore.Options{Lenient: true})
	if rep.Status == explore.StatusError {
		t.Fatalf("lenient replay of recorded flight: %v\ntrace:\n%s", rep.Err, text)
	}
}
