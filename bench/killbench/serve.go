package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/netsvc"
	"repro/internal/web"
)

// What the wire workloads share: the sharded fleet with the benchmark's
// own routes, strict reply readers that double as the torn-frame oracle,
// and the victim cycle that kills one session and times the reclaim.

const (
	shutdownGrace = 2 * time.Second

	pingRequest  = "GET /ping HTTP/1.1\r\nHost: bench\r\n\r\n"
	pingResponse = "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: keep-alive\r\n\r\npong"
)

// fleet is a ServeSharded server plus the benchmark-side registry the
// chaos route needs: which web.Server and runtime each shard has.
type fleet struct {
	m     *netsvc.ShardedServer
	addr  string
	proto string

	mu     sync.Mutex
	shards map[int]shardRef
}

type shardRef struct {
	ws *web.Server
	rt *core.Runtime
}

// startFleet serves proto with default shards and no pending cap (pure
// backpressure: shedding would put refusals into the latency tail). routes
// mounts the workload's own servlets on each shard; /whoami and
// /chaos/kill are added here.
func startFleet(proto string, routes func(th *core.Thread, shard int, ws *web.Server)) (*fleet, error) {
	f := &fleet{proto: proto, shards: map[int]shardRef{}}
	m, err := netsvc.ServeSharded(netsvc.Config{
		MaxPending:  -1,
		IdleTimeout: 30 * time.Second,
		Protocol:    proto,
	}, func(th *core.Thread, shard int) *web.Server {
		ws := web.NewServer(th)
		f.mu.Lock()
		f.shards[shard] = shardRef{ws: ws, rt: th.Runtime()}
		f.mu.Unlock()
		// /whoami tells a client which session it is, so that a victim can
		// name itself to /chaos/kill and a traced client can tag its spans.
		ws.Handle("/whoami", func(_ *core.Thread, sess *web.Session, _ *web.Request) web.Response {
			return web.Response{Status: 200, Body: strconv.Itoa(shard) + " " + strconv.Itoa(sess.ID)}
		})
		// /chaos/kill terminates exactly the named session — the
		// administrator's hammer from the paper — on whichever shard it
		// lives; Terminate and TerminateCondemned are plain-Go entry points,
		// so the serving shard may differ from the victim's.
		ws.Handle("/chaos/kill", func(_ *core.Thread, _ *web.Session, req *web.Request) web.Response {
			s, err1 := strconv.Atoi(req.Query["shard"])
			id, err2 := strconv.Atoi(req.Query["id"])
			f.mu.Lock()
			ref, ok := f.shards[s]
			f.mu.Unlock()
			if err1 != nil || err2 != nil || !ok {
				return web.Response{Status: 400, Body: "bad victim"}
			}
			ref.ws.Terminate(id)
			ref.rt.TerminateCondemned()
			return web.Response{Status: 200, Body: "killed"}
		})
		routes(th, shard, ws)
		return ws
	})
	if err != nil {
		return nil, err
	}
	f.m, f.addr = m, m.Addr().String()
	return f, nil
}

func (f *fleet) counters() counters {
	return counters{obs: f.m.ObsSnapshot(), net: f.m.Stats()}
}

// client is one TCP connection with a strict reply reader.
type client struct {
	c     net.Conn
	br    *bufio.Reader
	proto string
	shard int
	sess  int
}

var errTorn = errors.New("torn or malformed frame")

// dial connects and asks /whoami, so set-up ends with a served request.
func (f *fleet) dial() (*client, error) {
	c, err := net.Dial("tcp", f.addr)
	if err != nil {
		return nil, err
	}
	cl := &client{c: c, br: bufio.NewReaderSize(c, 16<<10), proto: f.proto}
	body, err := cl.call("/whoami")
	if err == nil {
		_, err = fmt.Sscanf(body, "%d %d", &cl.shard, &cl.sess)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("whoami: %w", err)
	}
	return cl, nil
}

// call fetches path over either protocol and returns the body.
func (cl *client) call(path string) (string, error) {
	if cl.proto == "resp" {
		if _, err := io.WriteString(cl.c, "CALL "+path+"\r\n"); err != nil {
			return "", err
		}
		var r respReply
		if err := readRESP(cl.br, &r); err != nil {
			return "", err
		}
		if r.kind != '$' {
			return "", fmt.Errorf("%w: CALL %s answered %q", errTorn, path, r.text)
		}
		return string(r.text), nil
	}
	if _, err := io.WriteString(cl.c, "GET "+path+" HTTP/1.1\r\nHost: bench\r\n\r\n"); err != nil {
		return "", err
	}
	status, body, err := readHTTP(cl.br)
	if err == nil && status != 200 {
		err = fmt.Errorf("GET %s: status %d", path, status)
	}
	return body, err
}

// readHTTP reads exactly one HTTP/1.1 response. Anything that is not a
// whole, well-formed frame is errTorn (EOF at a frame boundary is io.EOF).
func readHTTP(br *bufio.Reader) (status int, body string, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		if err == io.EOF && line != "" {
			err = fmt.Errorf("%w: EOF inside status line %q", errTorn, line)
		}
		return 0, "", err
	}
	if !strings.HasPrefix(line, "HTTP/1.") || len(line) < 14 {
		return 0, "", fmt.Errorf("%w: status line %q", errTorn, line)
	}
	if status, err = strconv.Atoi(line[9:12]); err != nil {
		return 0, "", fmt.Errorf("%w: status line %q", errTorn, line)
	}
	n := -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return 0, "", fmt.Errorf("%w: EOF inside headers", errTorn)
		}
		if h == "\r\n" {
			break
		}
		if k, v, ok := strings.Cut(h, ":"); ok && strings.EqualFold(k, "Content-Length") {
			if n, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return 0, "", fmt.Errorf("%w: Content-Length %q", errTorn, v)
			}
		}
	}
	if n < 0 {
		return 0, "", fmt.Errorf("%w: no Content-Length", errTorn)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, "", fmt.Errorf("%w: EOF inside body", errTorn)
	}
	return status, string(buf), nil
}

// respReply is one parsed RESP reply: kind is its type byte; text the
// simple line, the bulk payload (nil with null set for $-1) or, for an
// array, its first element's text. text aliases the reader's buffer (or
// first, for an array) and is valid until the next read, so that the
// measured connections read without allocating.
type respReply struct {
	kind  byte
	text  []byte
	null  bool
	n     int // array length
	first [32]byte
}

// readRESP reads exactly one RESP reply, arrays included, into r.
func readRESP(br *bufio.Reader, r *respReply) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			err = fmt.Errorf("%w: EOF inside reply line %q", errTorn, line)
		}
		return err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return fmt.Errorf("%w: reply line %q", errTorn, line)
	}
	*r = respReply{kind: line[0], text: line[1 : len(line)-2]}
	switch r.kind {
	case '+', '-', ':':
		return nil
	case '$', '*':
		n, ok := atoi(r.text)
		if !ok {
			return fmt.Errorf("%w: length %q", errTorn, r.text)
		}
		r.text = nil
		if r.kind == '$' {
			if n < 0 {
				r.null = true
				return nil
			}
			buf, err := br.Peek(n + 2)
			if err != nil || buf[n] != '\r' || buf[n+1] != '\n' {
				return fmt.Errorf("%w: bulk of %d bytes", errTorn, n)
			}
			r.text = buf[:n]
			_, _ = br.Discard(n + 2) // cannot fail after the Peek
			return nil
		}
		if n < 0 {
			return fmt.Errorf("%w: array length %d", errTorn, n)
		}
		var e respReply
		for i := 0; i < n; i++ {
			if err := readRESP(br, &e); err != nil {
				if err == io.EOF {
					err = fmt.Errorf("%w: EOF inside array", errTorn)
				}
				return err
			}
			if i == 0 {
				r.text = r.first[:copy(r.first[:], e.text)]
			}
		}
		r.n = n
		return nil
	}
	return fmt.Errorf("%w: reply type %q", errTorn, line)
}

// atoi parses a decimal integer without allocating.
func atoi(b []byte) (n int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// victimCycle is one kill: a fresh connection finds out who it is, sends
// inflight (a request the kill is to land in the middle of), and the admin
// connection — never a victim itself — asks /chaos/kill for exactly that
// session. It returns the time from issuing the kill to the victim
// reading EOF, and errTorn if what the victim read before EOF was not a
// run of whole frames.
func (f *fleet) victimCycle(admin *client, inflight string) (reclaimNs int64, err error) {
	v, err := f.dial()
	if err != nil {
		return 0, err
	}
	defer v.c.Close()
	type eof struct {
		at  int64
		err error
	}
	done := make(chan eof, 1)
	go func() {
		var err error
		var r respReply
		for err == nil {
			if f.proto == "resp" {
				err = readRESP(v.br, &r)
			} else {
				_, _, err = readHTTP(v.br)
			}
		}
		done <- eof{harness.Now(), err}
	}()
	if _, err := io.WriteString(v.c, inflight); err != nil {
		<-done
		return 0, err
	}
	t0 := harness.Now()
	_, err = admin.call(fmt.Sprintf("/chaos/kill?shard=%d&id=%d", v.shard, v.sess))
	if err != nil {
		v.c.Close()
		<-done
		return 0, fmt.Errorf("chaos kill: %w", err)
	}
	select {
	case e := <-done:
		if e.err != io.EOF && !isReset(e.err) {
			return 0, e.err
		}
		return e.at - t0, nil
	case <-time.After(5 * time.Second):
		v.c.Close()
		<-done
		return 0, fmt.Errorf("killed session %d/%d never closed its connection", v.shard, v.sess)
	}
}

// isReset: a killed session's socket may be closed with unread input, which
// the kernel reports to the peer as a reset rather than a clean EOF. Both
// mean "gone", and neither is a torn frame.
func isReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne) && !errors.Is(err, errTorn)
}

// servletTracer wraps a shard's servlets for the traced run: a span around
// each handler, tagged with the session's dispatch count so that the
// client side can name the same op, and the op published on the thread
// for a wrapped kvtxn.Client to pick up.
type servletTracer struct {
	spans *harness.SpanBuf
	shard int
	mu    sync.Mutex
	seq   map[int]uint32
	cur   sync.Map // *core.Thread → op id
}

func opID(shard, sess int, seq uint32) uint64 {
	return uint64(shard)<<56 | uint64(sess)<<32 | uint64(seq)
}

func (t *servletTracer) wrap(h web.Servlet) web.Servlet {
	return func(th *core.Thread, s *web.Session, req *web.Request) web.Response {
		t.mu.Lock()
		t.seq[s.ID]++
		seq := t.seq[s.ID]
		t.mu.Unlock()
		op := opID(t.shard, s.ID, seq)
		t.cur.Store(th, op)
		t0 := harness.Now()
		resp := h(th, s, req)
		t.spans.Add(spServlet, op, t0, harness.Now())
		t.cur.Delete(th)
		return resp
	}
}
