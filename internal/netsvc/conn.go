package netsvc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/abstractions/supervise"
	"repro/internal/core"
	"repro/internal/web"
)

// readChunk is one result from a connection's read pump.
type readChunk struct {
	data []byte
	err  error
}

// Size-classed buffer pools shared by every connection's read chunks and
// write batches, so a busy server recycles its per-request buffers
// across connections instead of allocating a copy per read. Classes keep
// a 30-byte request line from pinning a 4KiB block.
var bufClasses = [...]int{128, 1024, 4096}
var bufPools [len(bufClasses)]sync.Pool

// getBuf returns a length-n buffer from the smallest fitting class.
func getBuf(n int) []byte {
	for i, sz := range bufClasses {
		if n <= sz {
			if b, _ := bufPools[i].Get().([]byte); b != nil {
				return b[:n]
			}
			return make([]byte, n, sz)
		}
	}
	return make([]byte, n)
}

// putBuf recycles a buffer into the largest class its capacity covers.
// Buffers that grew far past a class (a megabyte response batch, say)
// are dropped to the GC rather than pinned in a pool; losing a buffer —
// a session killed with chunks in flight — is always safe.
func putBuf(b []byte) {
	c := cap(b)
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] && c < 4*bufClasses[i] {
			bufPools[i].Put(b[:0])
			return
		}
	}
}

// connReader bridges a connection's blocking read(2) loop into the event
// system. A plain pump goroutine reads chunks and hands them over through
// a one-slot channel paired with a semaphore post, so a runtime thread
// waits for socket data inside Sync — suspendable, killable, and
// multiplexable with deadlines. The one-slot channel is the flow control:
// the pump issues the next read only after the previous chunk is
// consumed. done (the connection's end-of-life signal, see endConn)
// unblocks a pump stuck on the handoff after its consumer was terminated.
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
		// One reusable read buffer; each chunk is copied out at its exact
		// size (into a pooled, size-classed buffer the consumer returns)
		// so a request head does not retain a 4KiB block per read.
		big := make([]byte, 4096)
		for {
			n, err := c.Read(big)
			var data []byte
			if n > 0 {
				data = getBuf(n)
				copy(data, big[:n])
			}
			select {
			case r.ch <- readChunk{data: data, err: err}:
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

// RecvEvt returns an event ready when the next chunk is available; its
// value is a readChunk. The channel receive inside the wrap cannot block:
// the pump posts the semaphore only after the chunk is in the channel.
func (r *connReader) RecvEvt() core.Event {
	return core.Wrap(r.sem.WaitEvt(), func(core.Value) core.Value { return <-r.ch })
}

// tryRecv polls for an already-delivered chunk without waiting.
func (r *connReader) tryRecv() (readChunk, bool) {
	if !r.sem.TryWait() {
		return readChunk{}, false
	}
	return <-r.ch, true
}

// connWriter bridges blocking write(2)s into the event system with one
// persistent pump goroutine per connection. The session thread hands a
// *batch* — one or more whole response frames appended back to back — over
// a one-slot channel; the pump writes it with a single write(2) and posts
// a semaphore. Batches are double-buffered: while the pump writes batch N
// the session thread parses, dispatches, and serializes pipelined
// requests into batch N+1, so queued pipeline responses coalesce into one
// vectored write instead of a syscall per response.
//
// The handoff is the torn-frame guarantee. Frames reach the pump only as
// complete batches via a plain channel send between safe points — a kill
// lands inside Sync, never between appending half a frame and sending it —
// so the wire carries a prefix of whole responses and nothing after it.
// A session killed mid-reap leaves at most one stray semaphore token; the
// pump itself exits when the connection ends (done, see endConn).
type connWriter struct {
	ch      chan []byte
	sem     *core.Semaphore
	doneEvt core.Event // hoisted sem.WaitEvt(): no per-write event allocs
	// First write error, sticky. Atomic because with pumpSlots > 1 the
	// session thread can read the error after reaping write N while the
	// pump concurrently finishes write N+1 — the semaphore only orders
	// stores for writes that have been waited on. Allocates only on the
	// error path; nil-error writes never touch it.
	err atomic.Pointer[error]

	pumped [][]byte // batches with the pump, FIFO; len is the in-flight count
	free   [][]byte // reclaimed buffers for future batches
}

// pumpSlots bounds batches with the pump at once: one being written plus
// one queued in the channel, so submit below never blocks while a session
// with a ready batch is never more than one write completion away from
// flushing it (see flush).
const pumpSlots = 2

func newConnWriter(rt *core.Runtime, c net.Conn, done <-chan struct{}) *connWriter {
	w := &connWriter{
		ch:  make(chan []byte, pumpSlots),
		sem: core.NewSemaphore(rt, 0),
	}
	w.doneEvt = w.sem.WaitEvt()
	go func() {
		for {
			select {
			case buf := <-w.ch:
				if _, err := c.Write(buf); err != nil {
					w.err.CompareAndSwap(nil, &err)
				}
				w.sem.Post()
			case <-done:
				return
			}
		}
	}()
	return w
}

// submit hands a batch to the pump. Only legal when canSubmit reports a
// free slot — the channel send is then guaranteed not to block, keeping
// it an ordinary plain-Go step between safe points (the kill-atomicity of
// a whole batch rests on this). Returns a recycled buffer for the
// caller's next batch.
func (w *connWriter) submit(batch []byte) []byte {
	w.ch <- batch
	w.pumped = append(w.pumped, batch)
	var next []byte
	if n := len(w.free); n > 0 {
		next, w.free = w.free[n-1], w.free[:n-1]
	}
	return next[:0]
}

func (w *connWriter) canSubmit() bool { return len(w.pumped) < pumpSlots }

// reclaim recycles the oldest in-flight batch's buffer; its write has
// completed (one semaphore token per completed write, FIFO).
func (w *connWriter) reclaim() {
	w.free = append(w.free, w.pumped[0][:0])
	w.pumped = w.pumped[1:]
}

// tryReap reclaims every completed write without waiting.
func (w *connWriter) tryReap() {
	for len(w.pumped) > 0 && w.sem.TryWait() {
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
	for len(w.pumped) > 0 {
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
	for len(w.pumped) > 0 {
		if _, err := core.Sync(th, w.doneEvt); err != nil {
			continue
		}
		w.reclaim()
	}
	return w.writeErr()
}

// flush guarantees batch is with the pump on return: when both slots are
// taken it waits for the oldest write — a bounded wait on an in-progress
// write(2), never on future work. A session must flush before entering a
// servlet dispatch, which may block indefinitely; an answered response is
// never held hostage to the next request's handler.
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

// releaseBufs returns the session's reclaimed batch buffers (plus the
// current unsubmitted batch) to the shared pool. Only buffers the
// session owns outright are returned — anything still with the pump is
// left alone, so a kill racing the release can at worst leak a buffer.
func (w *connWriter) releaseBufs(batch []byte) {
	putBuf(batch)
	for _, b := range w.free {
		putBuf(b)
	}
	w.free = nil
}

// serveConn is the session thread body: parse protocol frames off the
// socket through the connection's wire codec, dispatch them to the
// mounted web.Server, and batch responses through the write pump — every
// wait a Sync, so an administrator's kill lands at a safe point and the
// shared abstractions the servlets use stay coherent. It reports whether
// the session ended cleanly (the reaper's drained/killed classification).
func (s *Server) serveConn(th *core.Thread, cs *connState) (clean bool) {
	reader := newConnReader(s.rt, cs.c, cs.done)
	writer := newConnWriter(s.rt, cs.c, cs.done)
	codec := s.newCodec()
	// Hoist the per-request events out of the loops: events are immutable
	// descriptions (guards and wraps re-evaluate at each sync), so building
	// them once removes every per-request event/choice allocation from the
	// serving hot path.
	recvEvt := reader.RecvEvt()
	timeoutEvt := core.Wrap(core.After(s.rt, s.cfg.IdleTimeout), func(core.Value) core.Value { return "timeout" })
	drainEvt := core.Wrap(s.drain.Evt(), func(core.Value) core.Value { return "drain" })
	waitChoice := core.Choice(recvEvt, timeoutEvt, drainEvt)
	// A connection accepted before a drain began is owed its first
	// request: the client sent it with no way to know of the drain, and
	// its bytes may still be in flight when the signal lands. Until that
	// request is served the session waits without the drain arm — still
	// bounded by the idle timeout, and at Shutdown by the grace window's
	// custodian kill — and answers it with Connection: close.
	firstChoice := core.Choice(recvEvt, timeoutEvt)

	var buf, batch []byte
	// Return session-owned buffers to the shared pool on the way out.
	// batch is nil'd after every flushFinal so a submitted-and-reclaimed
	// buffer (already back in the writer's free list) is never pooled
	// twice.
	defer func() { writer.releaseBufs(batch) }()
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
		// the batch; whenever the write pump is idle the batch is handed
		// over, so a lone request flushes immediately while pipelined
		// requests behind a busy pump coalesce into one write.
		for {
			f, rest, perr := codec.Parse(buf)
			if perr != nil {
				batch = codec.AppendFault(batch, 400, "bad request: "+perr.Error())
				_ = writer.flushFinal(th, batch)
				batch = nil
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
					batch = nil
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
				batch = nil
				return true
			}
			// Opportunistic flush: hand the batch over whenever a pump slot
			// is free; with both slots busy keep accumulating — that is the
			// pipelined coalescing.
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

		// Park for more input (or idle timeout, or drain).
		choice := waitChoice
		if !served {
			choice = firstChoice
		}
		v, serr := core.Sync(th, choice)
		if serr != nil {
			continue // stray break
		}
		switch x := v.(type) {
		case string:
			if x == "timeout" {
				s.stats.timedOut.Add(1)
				batch = codec.AppendFault(batch, 408, "request timeout\n")
			} else { // drain
				// A request that raced the drain signal may already be
				// sitting in the reader's handoff slot; serve it before
				// refusing further traffic, so a live drain turns away as
				// few in-flight requests as possible.
				if ch, ready := reader.tryRecv(); ready {
					buf = append(buf, ch.data...)
					putBuf(ch.data)
					if ch.err != nil {
						sawEOF = true
					}
					continue
				}
				batch = codec.AppendFault(batch, 503, "server shutting down\n")
			}
			_ = writer.flushFinal(th, batch)
			batch = nil
			return true
		case readChunk:
			buf = append(buf, x.data...)
			putBuf(x.data)
			if x.err != nil {
				sawEOF = true
			}
			if served {
				arrivedAt = time.Now()
			}
		}
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
