package netsvc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/abstractions/supervise"
	"repro/internal/core"
	"repro/internal/web"
)

// bufSize is a pooled buffer's starting capacity: the read pump's read
// size and a fresh write batch's room.
const bufSize = 4096

// maxPooledBuf bounds what putBuf recycles. A buffer that grew past it (a
// megabyte response batch, say) goes to the GC instead of being pinned in
// the pool.
const maxPooledBuf = 64 << 10

// bufPool is the one buffer pool every connection shares: read chunks,
// session input buffers and write batches all come from it. It holds
// *[]byte, so Get and Put move a pointer and box nothing.
var bufPool = sync.Pool{New: func() any { b := make([]byte, bufSize); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf recycles a buffer. Losing one instead — a session killed with a
// chunk in flight — is always safe.
func putBuf(bp *[]byte) {
	if c := cap(*bp); c >= bufSize && c <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// readChunk is one result from a connection's read pump: n bytes read
// into the pooled buffer buf, which the consumer recycles.
type readChunk struct {
	buf *[]byte
	n   int
	err error
}

// connReader bridges a connection's blocking read(2) loop into the event
// system. A plain pump goroutine reads straight into a pooled buffer and
// hands the chunk over through a one-slot channel paired with a
// semaphore post, so a runtime thread waits for socket data inside Sync —
// suspendable, killable, and multiplexable with deadlines. The one-slot
// channel is the flow control: the pump issues the next read only after
// the previous chunk is consumed. done (the connection's end-of-life
// signal, see endConn) unblocks a pump stuck on the handoff after its
// consumer was terminated.
type connReader struct {
	sem *core.Semaphore
	ch  chan readChunk
}

func newConnReader(rt *core.Runtime, c net.Conn, done <-chan struct{}) *connReader {
	r := &connReader{
		sem: core.NewSemaphore(rt, 0),
		ch:  make(chan readChunk, 1),
	}
	go func() {
		for {
			bp := getBuf()
			n, err := c.Read((*bp)[:cap(*bp)])
			select {
			case r.ch <- readChunk{buf: bp, n: n, err: err}:
				r.sem.Post()
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return r
}

// take removes the chunk whose semaphore token the caller's Sync just
// committed (the session's receive event, or a successful TryWait). It cannot block: the pump
// posts only after the chunk is in the channel. The token commits nothing
// but itself, so the hand-off boxes no value, and no safe point separates
// the commit from the take.
func (r *connReader) take() readChunk { return <-r.ch }

// tryRecv polls for an already-delivered chunk without waiting.
func (r *connReader) tryRecv() (readChunk, bool) {
	if !r.sem.TryWait() {
		return readChunk{}, false
	}
	return r.take(), true
}

// appendChunk appends a chunk's bytes to the unparsed input in, which is
// cut from the session's input buffer *base. It first slides in back to
// the front of *base, so the buffer is reused rather than regrown as
// parsing walks it forward, and it recycles the chunk's buffer. The
// result starts at the front of the (possibly grown) buffer, which
// *base then holds.
func appendChunk(base *[]byte, in []byte, ch readChunk) []byte {
	in = append(append((*base)[:0], in...), (*ch.buf)[:ch.n]...)
	*base = in
	putBuf(ch.buf)
	return in
}

// idleTimer is a connection's one idle-timeout timer: a time.AfterFunc
// that posts a semaphore, so the session's wait choices sync on the
// semaphore. It is armed at the session's first park and re-armed only
// when its token is consumed, so a busy connection does not touch it; a
// token posted during a busy period costs the next park one early wake
// and a re-arm for the rest of that wait (see serveConn). It runs on the
// wall clock, not Runtime.Now: netsvc serves real sockets and never runs
// under the deterministic scheduler, whose virtual clock core.After
// followed.
type idleTimer struct {
	sem *core.Semaphore

	mu      sync.Mutex // orders arm against stop
	t       *time.Timer
	stopped bool // the connection ended: never re-arm
}

// arm (re)starts the timer to post once after d. Only the session calls
// it, and only while no token is outstanding, so at most one is.
func (it *idleTimer) arm(d time.Duration) {
	it.mu.Lock()
	defer it.mu.Unlock()
	switch {
	case it.stopped:
	case it.t == nil:
		it.t = time.AfterFunc(d, it.sem.Post)
	default:
		it.t.Reset(d)
	}
}

// stop cancels the timer for good. endConn calls it: a suspended session
// may never unwind, so the session's own exit cannot be relied on.
func (it *idleTimer) stop() {
	it.mu.Lock()
	defer it.mu.Unlock()
	it.stopped = true
	if it.t != nil {
		it.t.Stop()
	}
}

// connWriter puts a session's response batches — one or more whole
// response frames appended back to back — on the wire. While nothing is
// in flight a batch is written inline: one non-blocking write(2) through
// the conn's syscall.RawConn, made by the session thread between two safe
// points, the same kind of step as a channel send. Whatever the socket
// does not take (a short write, EAGAIN) goes to a write pump goroutine in
// the same step; the pump is started by the first such backpressure and
// lives until the connection ends. A conn with no fd to write on (not a
// syscall.Conn) always takes the pump — the backpressure path, not a
// second one.
//
// Batches with the pump are double-buffered: while the pump writes batch
// N the session thread parses, dispatches, and serializes pipelined
// requests into batch N+1, so responses queued behind a stalled socket
// coalesce into one write instead of a syscall per response.
//
// The hand-off is the torn-frame guarantee. Bytes leave the session only
// as whole batches — written inline, or given to the pump in a plain-Go
// step between safe points (a kill lands inside Sync, never between
// appending half a frame and handing it over) — and a partial inline
// write hands its remainder to the pump before the next safe point, the
// same state as a pump holding a whole batch. So the wire carries a
// prefix of whole responses and nothing after it. A session killed
// mid-reap leaves at most one stray semaphore token; the pump itself
// exits when the connection ends (done, see endConn).
type connWriter struct {
	rt   *core.Runtime
	c    net.Conn
	done <-chan struct{}

	// The inline path. raw is nil when c has no fd to write on. writeFd
	// is w.writeOnce bound once per connection, and out/outN are its
	// argument and result, so an inline write allocates nothing.
	raw     syscall.RawConn
	writeFd func(fd uintptr) bool
	out     []byte
	outN    int

	// The pump path, set up by its first use (startPump).
	ch      chan []byte
	sem     *core.Semaphore // one token per completed pump write
	doneEvt core.Event      // hoisted sem.WaitEvt(): no per-write event allocs
	// First write error, sticky. Atomic because with pumpSlots > 1 the
	// session thread can read the error after reaping write N while the
	// pump concurrently finishes write N+1 — the semaphore only orders
	// stores for writes that have been waited on.
	err atomic.Pointer[error]

	cur        *[]byte            // the batch the session is filling
	ring       [pumpSlots]*[]byte // batches with the pump, oldest at head
	head, busy int                // ring start and in-flight count
	free       []*[]byte          // reclaimed batch buffers
}

// pumpSlots bounds batches with the pump at once: one being written plus
// one queued in the channel, so submit below never blocks while a session
// with a ready batch is never more than one write completion away from
// flushing it (see flush).
const pumpSlots = 2

func newConnWriter(rt *core.Runtime, c net.Conn, done <-chan struct{}) *connWriter {
	w := &connWriter{rt: rt, c: c, done: done, cur: getBuf()}
	if sc, ok := c.(syscall.Conn); ok && inlineWrites {
		if raw, err := sc.SyscallConn(); err == nil {
			w.raw = raw
			w.writeFd = w.writeOnce
		}
	}
	return w
}

// fail records the connection's first write error. Taking err's address
// here, not in the caller, keeps the allocation on the error path.
func (w *connWriter) fail(err error) { w.err.CompareAndSwap(nil, &err) }

// writeOnce is the RawConn write callback: one write(2), never a wait on
// netpoll (it reports done whatever the socket said). An error leaves
// outN negative.
func (w *connWriter) writeOnce(fd uintptr) bool {
	w.outN, _ = sysWrite(syscall.Write, fd, w.out)
	return true
}

// sysWrite calls syscall.Write, whose fd parameter is an int on unix and
// a Handle on Windows; the type parameter lets the one call compile on
// every platform.
func sysWrite[FD ~int | ~uintptr](write func(FD, []byte) (int, error), fd uintptr, b []byte) (int, error) {
	return write(FD(fd), b)
}

// inlineWrites reports whether a socket's RawConn write callback may make
// a plain write(2): Windows sockets use overlapped I/O, so there every
// batch takes the pump.
const inlineWrites = runtime.GOOS != "windows"

// writeInline makes one non-blocking write of b and reports how many
// bytes the socket took. Any failure — EAGAIN, an error, a platform with
// no raw writes — counts as none taken: the pump redoes the write with
// net.Conn's own semantics and records any error there.
func (w *connWriter) writeInline(b []byte) int {
	w.out, w.outN = b, 0
	err := w.raw.Write(w.writeFd)
	n := w.outN
	w.out = nil
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// startPump creates the write pump on the connection's first backpressure.
func (w *connWriter) startPump() {
	w.ch = make(chan []byte, pumpSlots)
	w.sem = core.NewSemaphore(w.rt, 0)
	w.doneEvt = w.sem.WaitEvt()
	go func() {
		for {
			select {
			case buf := <-w.ch:
				if _, err := w.c.Write(buf); err != nil {
					w.fail(err)
				}
				w.sem.Post()
			case <-w.done:
				return
			}
		}
	}()
}

// submit puts batch on the wire: inline when nothing is in flight and the
// socket takes all of it, otherwise (the rest of) it goes to the pump.
// Only legal when canSubmit reports a free slot — the channel send is
// then guaranteed not to block, keeping the whole step plain Go between
// safe points (the kill-atomicity of a whole batch rests on this).
// Returns the empty buffer for the caller's next batch.
func (w *connWriter) submit(batch []byte) []byte {
	*w.cur = batch
	if w.busy == 0 && w.raw != nil {
		n := w.writeInline(batch)
		if n == len(batch) {
			return batch[:0]
		}
		batch = batch[n:]
	}
	if w.ch == nil {
		w.startPump()
	}
	w.ch <- batch
	w.ring[(w.head+w.busy)%pumpSlots] = w.cur
	w.busy++
	if n := len(w.free); n > 0 {
		w.cur, w.free = w.free[n-1], w.free[:n-1]
	} else {
		w.cur = getBuf()
	}
	return (*w.cur)[:0]
}

func (w *connWriter) canSubmit() bool { return w.busy < pumpSlots }

// reclaim recycles the oldest in-flight batch's buffer; its write has
// completed (one semaphore token per completed write, FIFO).
func (w *connWriter) reclaim() {
	bp := w.ring[w.head]
	w.ring[w.head] = nil
	w.head = (w.head + 1) % pumpSlots
	w.busy--
	w.free = append(w.free, bp)
}

// tryReap reclaims every completed write without waiting.
func (w *connWriter) tryReap() {
	for w.busy > 0 && w.sem.TryWait() {
		w.reclaim()
	}
}

// writeErr reports the connection's first write error, if any.
func (w *connWriter) writeErr() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

// reapOne waits (at a safe point) for the oldest in-flight write.
func (w *connWriter) reapOne(th *core.Thread) error {
	for w.busy > 0 {
		if _, err := core.Sync(th, w.doneEvt); err != nil {
			continue // break mid-wait: the write is still in flight; re-wait
		}
		w.reclaim()
		break
	}
	return w.writeErr()
}

// reapAll waits for every in-flight write, so the wire holds everything
// submitted before the caller lets the custodian close the fd.
func (w *connWriter) reapAll(th *core.Thread) error {
	for w.busy > 0 {
		if _, err := core.Sync(th, w.doneEvt); err != nil {
			continue
		}
		w.reclaim()
	}
	return w.writeErr()
}

// flush guarantees batch is on the wire or with the pump on return: when
// both slots are taken it waits for the oldest write — a bounded wait on
// an in-progress write(2), never on future work. A session must flush
// before entering a servlet dispatch, which may block indefinitely; an
// answered response is never held hostage to the next request's handler.
func (w *connWriter) flush(th *core.Thread, batch []byte) ([]byte, error) {
	w.tryReap()
	if !w.canSubmit() {
		if err := w.reapOne(th); err != nil {
			return batch, err
		}
	}
	return w.submit(batch), nil
}

// flushFinal forces batch onto the wire and waits for every write to
// complete, so the last frames of a closing connection are with the
// kernel before the caller returns and the custodian closes the fd.
func (w *connWriter) flushFinal(th *core.Thread, batch []byte) error {
	if len(batch) > 0 {
		if _, err := w.flush(th, batch); err != nil {
			return err
		}
	}
	return w.reapAll(th)
}

// releaseBufs returns the buffers the session owns outright — the batch
// it was filling and the reclaimed ones — to the shared pool. Anything
// still with the pump is left alone, so a kill racing the release can at
// worst leak a buffer. A batch the session grew past its buffer since the
// last submit is left to the GC.
func (w *connWriter) releaseBufs() {
	putBuf(w.cur)
	for _, bp := range w.free {
		putBuf(bp)
	}
	w.cur, w.free = nil, nil
}

// wakeup is what a session's park returned. The values are constants, so
// returning one through an event boxes nothing.
type wakeup uint8

const (
	wakeRead  wakeup = iota // a read chunk is in the reader's slot
	wakeIdle                // the idle timer posted
	wakeDrain               // the server began draining
)

// serveConn is the session thread body: parse protocol frames off the
// socket through the connection's wire codec, dispatch them to the
// mounted web.Server, and write the responses in batches — every wait a
// Sync, so an administrator's kill lands at a safe point and the shared
// abstractions the servlets use stay coherent. It reports whether the
// session ended cleanly (the reaper's drained/killed classification).
func (s *Server) serveConn(th *core.Thread, cs *connState) (clean bool) {
	reader := newConnReader(s.rt, cs.c, cs.done)
	writer := newConnWriter(s.rt, cs.c, cs.done)
	codec := s.newCodec()
	// Hoist the per-request events out of the loops: events are immutable
	// descriptions (guards and wraps re-evaluate at each sync), so building
	// them once removes every per-request event/choice allocation from the
	// serving hot path.
	recvEvt := core.Wrap(reader.sem.WaitEvt(), func(core.Value) core.Value { return wakeRead })
	idleEvt := core.Wrap(cs.idle.sem.WaitEvt(), func(core.Value) core.Value { return wakeIdle })
	drainEvt := core.Wrap(s.drain.Evt(), func(core.Value) core.Value { return wakeDrain })
	waitChoice := core.Choice(recvEvt, idleEvt, drainEvt)
	// A connection accepted before a drain began is owed its first
	// request: the client sent it with no way to know of the drain, and
	// its bytes may still be in flight when the signal lands. Until that
	// request is served the session waits without the drain arm — still
	// bounded by the idle timeout, and at Shutdown by the grace window's
	// custodian kill — and answers it with Connection: close.
	firstChoice := core.Choice(recvEvt, idleEvt)
	idleArmed := false

	inbuf := getBuf()
	buf := (*inbuf)[:0] // unparsed input, cut from *inbuf
	batch := (*writer.cur)[:0]
	// Return session-owned buffers to the shared pool on the way out.
	defer func() {
		putBuf(inbuf)
		writer.releaseBufs()
	}()
	batched := 0 // responses in the current batch: the pipelined depth
	sawEOF := false
	// arrivedAt is the admission controller's sojourn baseline: the
	// accept time for the connection's first request, the last chunk's
	// arrival for later ones (a fresh conn's bytes can only be read after
	// the conn is claimed, so the first request must be charged for its
	// accept-queue wait instead).
	arrivedAt := cs.queuedAt
	served := false
	for {
		// Serve every complete frame already buffered. Responses append to
		// the batch; whenever the writer has a free slot the batch is put
		// on the wire, so a lone request is written at once while pipelined
		// requests behind a stalled socket coalesce into one write.
		for {
			f, rest, perr := codec.Parse(buf)
			if perr != nil {
				batch = codec.AppendFault(batch, 400, "bad request: "+perr.Error())
				_ = writer.flushFinal(th, batch)
				return true
			}
			buf = rest
			if f == nil {
				break
			}
			s.stats.requests.Add(1)
			closing := f.Close || s.drain.Completed()
			shed := false
			switch {
			case f.Immediate != nil:
				batch = append(batch, f.Immediate...)
			case s.shedRequest(f.Req, arrivedAt):
				// Adaptive admission refused the request: answer with a
				// whole overload frame (Retry-After / -OVERLOADED) and, on
				// a keep-alive conn, keep the conversation going — a shed
				// costs the client a round trip, not its connection.
				shed = true
				batch = codec.AppendOverload(batch, s.adm.retryAfter(), closing)
			default:
				// A dispatch may block indefinitely in a servlet; answered
				// responses must reach the wire first.
				if len(batch) > 0 {
					var ferr error
					if batch, ferr = writer.flush(th, batch); ferr != nil {
						return false // client gone mid-write
					}
					batched = 0
				}
				resp, timedOut := s.dispatch(th, cs, f.Req)
				if timedOut {
					s.stats.deadlined.Add(1)
					batch = codec.AppendFault(batch, 503, "request deadline exceeded\n")
					_ = writer.flushFinal(th, batch)
					return true
				}
				batch = codec.AppendResponse(batch, f, resp, closing)
			}
			served = true
			if !shed {
				s.stats.responses.Add(1)
			}
			batched++
			s.stats.notePipelineDepth(int64(batched))
			if closing {
				_ = writer.flushFinal(th, batch)
				return true
			}
			// Opportunistic flush: put the batch on the wire whenever a
			// slot is free; with both pump slots busy keep accumulating —
			// that is the pipelined coalescing.
			writer.tryReap()
			if writer.canSubmit() {
				batch = writer.submit(batch)
				batched = 0
			}
		}

		// Input exhausted: force what is batched onto the wire before
		// parking (both pump slots may be busy with previous batches).
		if len(batch) > 0 {
			var ferr error
			if batch, ferr = writer.flush(th, batch); ferr != nil {
				return false // client gone mid-write
			}
			batched = 0
		}
		if sawEOF {
			_ = writer.reapAll(th) // the last batch reaches the kernel before the fd closes
			return len(buf) == 0   // clean close between frames
		}

		// Park for more input (or idle timeout, or drain). The idle
		// deadline is this wait's start plus IdleTimeout. The timer may
		// have been armed before the wait began (it is re-armed only when
		// its token is taken), so a token that comes early re-arms it for
		// the remainder and the wait goes on — it is not restarted, and a
		// servlet slower than IdleTimeout does not earn its client a 408.
		choice := waitChoice
		if !served {
			choice = firstChoice
		}
		deadline := time.Now().Add(s.cfg.IdleTimeout)
		if !idleArmed {
			cs.idle.arm(s.cfg.IdleTimeout)
			idleArmed = true
		}
		var wake wakeup
		for {
			v, serr := core.Sync(th, choice)
			if serr != nil {
				continue // stray break: the wait, and its deadline, go on
			}
			wake = v.(wakeup)
			if wake != wakeIdle {
				break
			}
			rem := time.Until(deadline)
			if rem <= 0 {
				break
			}
			cs.idle.arm(rem)
		}
		switch wake {
		case wakeIdle:
			s.stats.timedOut.Add(1)
			batch = codec.AppendFault(batch, 408, "request timeout\n")
		case wakeDrain:
			// A request that raced the drain signal may already be sitting
			// in the reader's handoff slot; serve it before refusing
			// further traffic, so a live drain turns away as few in-flight
			// requests as possible.
			if ch, ready := reader.tryRecv(); ready {
				buf = appendChunk(inbuf, buf, ch)
				sawEOF = ch.err != nil
				continue
			}
			batch = codec.AppendFault(batch, 503, "server shutting down\n")
		case wakeRead:
			ch := reader.take()
			buf = appendChunk(inbuf, buf, ch)
			sawEOF = ch.err != nil
			if served {
				arrivedAt = time.Now()
			}
			continue
		}
		_ = writer.flushFinal(th, batch)
		return true
	}
}

// shedRequest classifies one request for the stats surface and, with
// adaptive admission enabled, consults the controller. arrivedAt is when
// the request's bytes (or, for a connection's first request, the
// connection itself) arrived; the gap to now is the queue sojourn the
// controller defends.
func (s *Server) shedRequest(req *web.Request, arrivedAt time.Time) bool {
	class := s.classify(req)
	s.stats.noteClass(class)
	if s.adm == nil {
		return false
	}
	now := time.Now()
	if s.adm.admit(now, now.Sub(arrivedAt), class) {
		return false
	}
	s.stats.admShed.Add(1)
	if class == ClassBulk {
		s.stats.admShedBulk.Add(1)
	}
	return true
}

// dispatch answers one servlet request: the admin surface is the serving
// layer's own (in sharded operation it reports the whole fleet, so any
// shard answers the same numbers); everything else goes to the mounted
// web.Server, bounded by cfg.RequestTimeout when set.
func (s *Server) dispatch(th *core.Thread, cs *connState, req *web.Request) (web.Response, bool) {
	if status, body, ok := s.Admin(req.Path, req.Query); ok {
		return web.Response{Status: status, Body: body}, false
	}
	if s.cfg.RequestTimeout > 0 {
		return s.dispatchBounded(th, cs, req)
	}
	return s.web.Dispatch(th, cs.sess, req), false
}

// dispatchBounded runs one servlet dispatch in a worker thread under the
// connection's custodian, bounded by cfg.RequestTimeout. The deadline is
// a core.After event, so the session thread waits at a safe point and in
// deterministic mode the timeout is driven by the virtual clock. On
// timeout the worker is killed — its next safe point unwinds it, and the
// per-connection custodian guarantees whatever it held is reclaimed.
func (s *Server) dispatchBounded(th *core.Thread, cs *connState, req *web.Request) (web.Response, bool) {
	var resp web.Response
	var finished bool // written by the worker before it returns
	// Spawned and recorded in one s.mu section: the reaper reads cs.worker
	// under s.mu after shutting cs.cust down, so it either sees this worker
	// or ran first — and then the spawn lands on a dead custodian and
	// creates a thread that is already done.
	s.mu.Lock()
	th.WithCustodian(cs.cust, func() {
		cs.worker = th.Spawn(fmt.Sprintf("netsvc-req-%d", cs.id), func(x *core.Thread) {
			r := s.web.Dispatch(x, cs.sess, req)
			resp, finished = r, true
		})
	})
	worker := cs.worker
	s.mu.Unlock()
	var err error
	for {
		_, err = supervise.SyncWithDeadline(th, worker.DoneEvt(), s.cfg.RequestTimeout)
		if !errors.Is(err, core.ErrBreak) {
			break
		}
	}
	// finished is only read once the worker's DoneEvt has committed — the
	// write happens-before the read.
	if err != nil || !finished {
		// Do not touch resp: a worker killed mid-dispatch may still be
		// unwinding toward its safe point.
		worker.Kill()
		return web.Response{}, true
	}
	return resp, false
}
