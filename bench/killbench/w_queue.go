package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/msgqueue"
	"repro/abstractions/queue"
	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/obs"
)

// queue_killstorm: 2 producers and 2 consumers, each under its own
// custodian, share one queue and one msgqueue that the first producer
// created — the paper's scenario: the creator's custodian is the first to
// be shut down, and only the ResumeVia guard keeps the managers running.
// Producers hold a credit per item in flight (a two-way choice of a
// semaphore wait and an After arm) and send every item through the queue;
// every 16th item is a notice that a message with the same id waits in
// the msgqueue, which the consumer then fetches by predicate. Consumers
// sync on a three-way choice: the queue receive, a nack-guarded arm on a
// channel nobody sends on (it loses every time, so every commit cancels it
// and fires its nack) and an After timeout. A killer terminates one client
// every 2 ms, alternating Thread.Kill with Custodian.Shutdown +
// TerminateCondemned, waits for its DoneEvt and spawns a replacement.
//
// The msgqueue is on the slow path on purpose. Its manager syncs on the
// gave-up (nack) events of its pending requests, and at the seed commit a
// nack fired at a manager that is busy can commit a stale (op, case) pair
// into the manager's recycled sync record (oneshot.fire in internal/core
// commits after dropping its lock, with no generation check) — with a
// predicate receive in every consumer choice the msgqueue manager died of
// an index-out-of-range within a second. See bench/README.md.
//
// One op is one item delivered to a consumer.

const (
	queueProducers   = 2
	queueConsumers   = 2
	queueCredits     = 32
	queueKillEvery   = 2 * time.Millisecond
	queueRecvTimeout = time.Millisecond
	// A producer that finds no credit for this long sends anyway: a
	// consumer killed after its receive committed takes the item's credit
	// with it, and this is how the credit comes back.
	queueCreditTimeout = 4 * time.Millisecond
)

type qitem struct {
	prod int32
	seq  int32
	mail bool // a message with this id waits in the msgqueue
}

// queueMailEvery: one item in this many carries mail.
const queueMailEvery = 16

// qslot is one client position. Its fields are plain memory: only the
// incarnation currently occupying the slot touches them, and the killer
// hands the slot to a replacement only after the victim's DoneEvt.
type qslot struct {
	idx      int
	producer bool
	rec      *harness.Recorder
	th       *core.Thread
	cust     *core.Custodian

	joined atomic.Bool // this incarnation has used the queue
	inMail atomic.Bool // consumer: inside the msgqueue receive; see killOne

	// producer
	sent  int32  // sequence numbers handed out
	acked bitset // seq → Send returned nil
	// consumer: per producer, which sequence numbers arrived
	got      [queueProducers]bitset // items received
	mail     [queueProducers]bitset // messages fetched
	gotN     int64
	noticed  int64 // items received that announced mail
	dups     int64 // an item or message this slot saw twice
	attempts int64 // choice Syncs begun
	timeouts int64 // After arm won (either role)
}

type queueInst struct {
	cfg     *runCfg
	rt      *core.Runtime
	obs     *obs.Obs
	win     *harness.Window
	q       *queue.Queue[qitem]
	mq      *msgqueue.Queue[qitem]
	credits *core.Semaphore
	slots   []*qslot
	stop    atomic.Bool

	deliveries atomic.Int64 // consumers that have received their first item

	killer *core.Thread

	mu      sync.Mutex // guards the fields below between killer and harness
	reclaim samples
	kills   [2]int64 // by role: producer, consumer
}

func buildQueue(cfg *runCfg) (instance, error) {
	in := &queueInst{cfg: cfg, rt: core.NewRuntime(), win: harness.NewWindow(cfg.window)}
	if cfg.traced() {
		in.obs = obs.New()
		in.obs.Attach(in.rt)
	}
	in.credits = core.NewSemaphore(in.rt, queueCredits)
	for i := 0; i < queueProducers+queueConsumers; i++ {
		in.slots = append(in.slots, &qslot{idx: i, producer: i < queueProducers, rec: harness.NewRecorder(in.win)})
	}
	// The first producer creates both queues from inside its own
	// custodian, then everyone starts.
	made := make(chan struct{})
	in.spawn(in.slots[0], func(th *core.Thread) {
		if cfg.unsafe {
			in.q = queue.NewUnsafe[qitem](th)
		} else {
			in.q = queue.New[qitem](th)
		}
		in.mq = msgqueue.New[qitem](th)
		close(made)
	})
	select {
	case <-made:
	case <-time.After(10 * time.Second):
		in.close()
		return nil, fmt.Errorf("queue_killstorm: queues were not created")
	}
	for _, s := range in.slots[1:] {
		in.spawn(s, nil)
	}
	in.killer = in.rt.Spawn("killer", in.killLoop)
	return in, nil
}

// spawn starts an incarnation of slot s under a fresh custodian. first,
// if set, runs on the new thread before its loop.
func (in *queueInst) spawn(s *qslot, first func(*core.Thread)) {
	s.cust = core.NewCustodian(in.rt.RootCustodian())
	s.joined.Store(false)
	s.inMail.Store(false)
	s.th = in.rt.SpawnIn(s.cust, fmt.Sprintf("client-%d", s.idx), func(th *core.Thread) {
		if first != nil {
			first(th)
		}
		// The msgqueue is used rarely, so a client declares itself a user
		// at birth — the guard every msgqueue operation starts with. Without
		// it, a run of kills could leave the mailbox with no live user for
		// a moment, and TerminateCondemned would rightly collect its
		// manager.
		core.ResumeVia(in.mq.Manager(), th)
		if s.producer {
			in.produce(th, s)
		} else {
			in.consume(th, s)
		}
	})
}

// bitset is a growable set of small integers.
type bitset []uint64

// add inserts i and reports whether it was already there.
func (b *bitset) add(i int32) bool {
	w := int(i >> 6)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	old := (*b)[w]
	(*b)[w] = old | 1<<(i&63)
	return old&(1<<(i&63)) != 0
}

func (b bitset) has(i int32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

type creditResult bool

func (in *queueInst) produce(th *core.Thread, s *qslot) {
	credit := core.Choice(
		core.Wrap(in.credits.WaitEvt(), func(core.Value) core.Value { return creditResult(true) }),
		core.Wrap(core.After(in.rt, queueCreditTimeout), func(core.Value) core.Value { return creditResult(false) }),
	)
	spans := in.cfg.spans
	for !in.stop.Load() {
		t0 := harness.Now()
		v, err := core.Sync(th, credit)
		if err != nil {
			continue
		}
		if !v.(creditResult) {
			s.timeouts++
		}
		it := qitem{prod: int32(s.idx), seq: s.sent}
		it.mail = it.seq%queueMailEvery == queueMailEvery-1
		s.sent++
		t1 := harness.Now()
		if it.mail {
			if in.mq.Send(th, it) != nil {
				continue
			}
			if spans != nil {
				spans.Add(spMsgqSend, uint64(s.idx)<<32|uint64(it.seq), t1, harness.Now())
			}
		}
		t1 = harness.Now()
		if in.q.Send(th, it) != nil {
			continue
		}
		s.acked.add(it.seq)
		s.joined.Store(true)
		if spans != nil {
			t2 := harness.Now()
			op := uint64(s.idx)<<32 | uint64(it.seq)
			spans.Add(spProduce, op, t0, t2)
			spans.Add(spQueueSend, op, t1, t2)
		}
	}
}

type recvResult struct {
	it   qitem
	from int // spRecvQueue, spRecvMsgq or spRecvTimeout
}

func (in *queueInst) consume(th *core.Thread, s *qslot) {
	// The second arm stands for a request to a service that never answers
	// first: a nack-guarded receive on an idle channel. It loses every
	// sync, so every commit withdraws it and fires its nack.
	idle := core.NewChan(in.rt)
	ev := core.Choice(
		core.Wrap(in.q.RecvEvt(), func(v core.Value) core.Value { return recvResult{v.(qitem), spRecvQueue} }),
		core.NackGuard(func(*core.Thread, core.Event) core.Event { return idle.RecvEvt() }),
		core.Wrap(core.After(in.rt, queueRecvTimeout), func(core.Value) core.Value { return recvResult{from: spRecvTimeout} }),
	)
	spans := in.cfg.spans
	for !in.stop.Load() {
		t0 := harness.Now()
		s.attempts++
		v, err := core.Sync(th, ev)
		if err != nil {
			continue
		}
		t1 := harness.Now()
		s.joined.Store(true)
		r := v.(recvResult)
		if spans != nil {
			spans.Add(r.from, uint64(s.idx)<<32|uint64(s.attempts), t0, t1)
		}
		if r.from == spRecvTimeout {
			s.timeouts++
			continue
		}
		if s.got[r.it.prod].add(r.it.seq) {
			s.dups++
		}
		s.gotN++
		in.credits.Post()
		if r.it.mail {
			s.noticed++
			want := r.it
			s.inMail.Store(true)
			m, err := in.mq.Recv(th, func(m qitem) bool { return m == want })
			s.inMail.Store(false)
			if err != nil {
				continue
			}
			if m != want || s.mail[m.prod].add(m.seq) {
				s.dups++
			}
			t2 := harness.Now()
			if spans != nil {
				spans.Add(spRecvMsgq, uint64(s.idx)<<32|uint64(s.attempts), t1, t2)
			}
			t1 = t2
		}
		s.rec.Good(t1, t1-t0, 1)
		if s.gotN == 1 {
			in.deliveries.Add(1)
		}
	}
}

// killLoop is the killer thread. The schedule — which slot dies and how —
// is drawn from the seed; the first victim is always the queues' creator,
// by custodian shutdown, which is exactly the case an unguarded queue
// does not survive.
func (in *queueInst) killLoop(th *core.Thread) {
	r := harness.Rand(in.cfg.seed, "queue-kills")
	next := time.Now().Add(queueKillEvery)
	for k := 0; !in.stop.Load(); k++ {
		if core.Sleep(th, time.Until(next)) != nil {
			continue
		}
		if next = next.Add(queueKillEvery); time.Until(next) < -10*queueKillEvery {
			next = time.Now() // fell far behind: do not answer with a burst
		}
		s := in.slots[0]
		if k > 0 {
			s = in.slots[r.Intn(len(in.slots))]
		}
		in.killOne(th, s, k%2 == 0)
	}
}

func (in *queueInst) killOne(th *core.Thread, s *qslot, byShutdown bool) {
	// Not while the victim is inside its msgqueue receive. A kill there
	// fires the request's nack at the msgqueue manager, and one such fire
	// in a few thousand lands a stale commit in the manager's recycled sync
	// record (see the comment at the top and bench/README.md): at eight a
	// second, that killed the manager in one run in fifty. The receive
	// takes some 13 µs, so the wait is short; once core fences the fire
	// this wait should go.
	for spin := 0; s.inMail.Load() && spin < 10000; spin++ {
		_ = th.Yield()
	}
	t0 := harness.Now()
	if byShutdown {
		s.cust.Shutdown()
		in.rt.TerminateCondemned()
	} else {
		s.th.Kill()
	}
	if _, err := core.Sync(th, s.th.DoneEvt()); err != nil {
		return
	}
	t1 := harness.Now()
	s.cust.Shutdown() // a plain Kill leaves the custodian behind; release it
	in.mu.Lock()
	in.reclaim.add(t1 - t0)
	if s.producer {
		in.kills[0]++
	} else {
		in.kills[1]++
	}
	in.mu.Unlock()
	if in.stop.Load() {
		return
	}
	in.spawn(s, nil)
	// TerminateCondemned asserts that nobody will revive what it kills, so
	// the next kill must find every client a user of the queue: wait for
	// the replacement's first operation. (Bounded: over queue.NewUnsafe a
	// producer never completes one.)
	for deadline := time.Now().Add(5 * time.Millisecond); !s.joined.Load() && time.Now().Before(deadline); {
		_ = core.Sleep(th, 20*time.Microsecond)
	}
}

func (in *queueInst) snap() counters {
	var c counters
	if in.obs != nil {
		c.obs = in.obs.Snapshot()
	}
	return c
}

func (in *queueInst) measure() (*outcome, error) {
	o := &outcome{layer: metrics{}}
	o.before, o.after, o.goPeak = in.cfg.timeline(in.win, in.snap)
	if in.deliveries.Load() == 0 && !in.cfg.unsafe {
		return nil, fmt.Errorf("queue_killstorm: nothing was ever delivered")
	}
	in.stop.Store(true)
	err := in.rt.Run(func(th *core.Thread) { in.settle(th, o) })
	if err != nil {
		return nil, fmt.Errorf("queue_killstorm: %w", err)
	}
	return o, nil
}

// settle stops the clients, drains what is still queued and runs the
// oracle: every acked send was received exactly once, or — at most once
// per consumer kill — was taken by a consumer that died after its receive
// committed; nothing was received twice; both managers are still alive
// and still serve.
func (in *queueInst) settle(th *core.Thread, o *outcome) {
	waitOrKill := func(t *core.Thread) {
		v, _ := core.Sync(th, core.Choice(
			core.Wrap(t.DoneEvt(), func(core.Value) core.Value { return true }),
			core.Wrap(core.After(in.rt, 500*time.Millisecond), func(core.Value) core.Value { return false }),
		))
		if v != true {
			// Wedged in a Send nobody will take (the canary's fate).
			t.Kill()
			_, _ = core.Sync(th, t.DoneEvt())
		}
	}
	waitOrKill(in.killer)
	for _, s := range in.slots {
		waitOrKill(s.th)
	}

	recs := make([]*harness.Recorder, len(in.slots))
	var attempts, timeouts, got, noticed, fetched, dup int64
	for i, s := range in.slots {
		recs[i] = s.rec
		attempts += s.attempts
		timeouts += s.timeouts
		got += s.gotN
		noticed += s.noticed
		dup += s.dups
	}
	o.sum = harness.Summarize(in.win, recs...)

	// A dead manager fails the oracle below; nothing may touch its queue
	// before that, because a msgqueue receive blocks inside its guard.
	qDead, mqDead := in.q.Manager().Done(), in.mq.Manager().Done()

	// Drain both queues until they stay empty.
	never := core.Never()
	qRecv, mqRecv := never, never
	if !qDead {
		qRecv = in.q.RecvEvt()
	}
	if !mqDead {
		mqRecv = in.mq.RecvEvt(msgqueue.Any[qitem])
	}
	drain := core.Choice(
		core.Wrap(qRecv, func(v core.Value) core.Value { return recvResult{v.(qitem), spRecvQueue} }),
		core.Wrap(mqRecv, func(v core.Value) core.Value { return recvResult{v.(qitem), spRecvMsgq} }),
		core.Wrap(core.After(in.rt, 20*time.Millisecond), func(core.Value) core.Value { return recvResult{from: spRecvTimeout} }),
	)
	var drained [queueProducers]bitset
	for {
		v, err := core.Sync(th, drain)
		if err != nil {
			continue
		}
		r := v.(recvResult)
		if r.from == spRecvTimeout {
			break
		}
		if r.from == spRecvQueue && r.it.prod >= 0 && drained[r.it.prod].add(r.it.seq) {
			dup++
		}
	}

	// Count, per item, the places it turned up: the consumers' logs and
	// the drain.
	var lost, sent, acked int64
	for p, s := range in.slots[:queueProducers] {
		sent += int64(s.sent)
		for seq := int32(0); seq < s.sent; seq++ {
			n, m := 0, 0
			if drained[p].has(seq) {
				n++
			}
			for _, c := range in.slots[queueProducers:] {
				if c.got[p].has(seq) {
					n++
				}
				if c.mail[p].has(seq) {
					m++
				}
			}
			fetched += int64(m)
			if s.acked.has(seq) {
				acked++
				if n == 0 {
					lost++
				}
			}
			if n > 1 || m > 1 {
				dup++
			}
		}
	}
	in.mu.Lock()
	o.reclaim = in.reclaim
	consumerKills := in.kills[1]
	kills := in.kills[0] + in.kills[1]
	in.mu.Unlock()
	// Mail: a noticed message is fetched, unless its consumer died with the
	// notice in hand.
	lost += noticed - fetched
	if dup > 0 {
		o.violations += dup
		o.notes = append(o.notes, fmt.Sprintf("oracle: %d items received more than once", dup))
	}
	if lost > consumerKills {
		o.violations += lost - consumerKills
		o.notes = append(o.notes, fmt.Sprintf("oracle: %d acked items never received, but only %d consumers were killed", lost, consumerKills))
	}
	if qDead || mqDead {
		o.violations++
		o.notes = append(o.notes, fmt.Sprintf("oracle: manager thread dead (queue: %v %v, msgqueue: %v %v)", qDead, in.q.Manager().Err(), mqDead, in.mq.Manager().Err()))
	}
	// The managers must still serve: one item through each queue.
	probe := qitem{prod: -1}
	alive := func(send, recv core.Event) bool {
		timeout := core.Wrap(core.After(in.rt, 200*time.Millisecond), func(core.Value) core.Value { return false })
		if v, _ := core.Sync(th, core.Choice(core.Wrap(send, func(core.Value) core.Value { return true }), timeout)); v != true {
			return false
		}
		v, _ := core.Sync(th, core.Choice(core.Wrap(recv, func(core.Value) core.Value { return true }), timeout))
		return v == true
	}
	if !qDead && !alive(in.q.SendEvt(probe), in.q.RecvEvt()) || !mqDead && !alive(in.mq.SendEvt(probe), in.mq.RecvEvt(msgqueue.Any[qitem])) {
		o.violations++
		o.notes = append(o.notes, "oracle: a queue no longer serves a send and a receive")
	}

	o.killed = (sent - acked) + lost
	o.layer["abstractions.ops_timeout"] = float64(timeouts)
	o.layer["abstractions.ops_killed"] = float64(kills)
	if attempts > 0 {
		o.layer["abstractions.useful_ratio"] = float64(got) / float64(attempts)
	}
}

func (in *queueInst) close() {
	in.stop.Store(true)
	in.rt.Shutdown()
}
