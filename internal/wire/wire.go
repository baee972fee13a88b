// Package wire defines the serving layer's wire-protocol codecs: the
// state machines that turn bytes read off a socket into servlet requests
// and servlet responses back into bytes, independently of the transport
// that moves them. internal/netsvc owns the sockets, the custodians, and
// the pumps; a Codec owns only framing.
//
// The contract is built around kill-safety. A codec is a pure
// parse/serialize machine — it never blocks, never talks to the runtime,
// and never touches a file descriptor — so every wait stays inside the
// session thread's Sync calls where a kill can land safely. Responses are
// serialized by *appending whole frames* to a caller-owned batch buffer;
// the transport writes complete batches (inline, or through its write
// pump when the socket pushes back). A frame
// therefore either reaches the wire entirely or not at all: a session
// killed mid-pipeline can lose the tail of the conversation, but it can
// never emit a torn frame followed by more traffic.
//
// Two codecs ship with the package: an HTTP/1.1 codec (persistent
// connections, pipelining, Content-Length bodies, version echo) and a
// RESP-style codec (inline, multi-bulk, and top-level bulk-string
// commands; GET/SET/DEL/
// MULTI/EXEC/STATS mapping onto the transactional KV servlet's routes),
// so a Redis-style client can drive kill-atomic transactions through the
// same serving layer.
package wire

import (
	"fmt"
	"time"

	"repro/internal/web"
)

// Frame is one parsed request frame. Either Req is set (the frame needs
// a servlet dispatch) or Immediate is set (the codec answered it from
// protocol state alone — PING, a queued MULTI command, a QUIT).
type Frame struct {
	// Req is the servlet request this frame maps to; nil for Immediate
	// frames.
	Req *web.Request
	// Immediate is the pre-serialized response for frames that need no
	// dispatch; nil otherwise.
	Immediate []byte
	// Close reports that the connection must close once this frame's
	// response is written (HTTP "Connection: close" or a 1.0 request
	// without keep-alive; RESP QUIT).
	Close bool

	// Response-shaping state, private to the codecs.
	proto string // HTTP: protocol version to echo in the status line
	cmd   string // RESP: command word, selects the reply encoding
}

// Codec is a per-connection wire-protocol state machine. Implementations
// are stateful (RESP's MULTI queue, say) and are therefore created fresh
// per connection via a Factory; they are used by one session thread at a
// time and need no locking.
type Codec interface {
	// Name identifies the protocol ("http/1.1", "resp") for stats and
	// diagnostics.
	Name() string
	// Parse tries to extract one complete frame from buf. It returns
	// (nil, buf, nil) when more bytes are needed, or the frame plus the
	// unconsumed remainder. A non-nil error is fatal for the connection;
	// the transport answers with AppendFault and closes.
	Parse(buf []byte) (*Frame, []byte, error)
	// AppendResponse serializes resp for frame f onto dst and returns the
	// extended buffer. close tells the codec the server will close the
	// connection after this response (HTTP sets "Connection: close";
	// RESP has no framing for it).
	AppendResponse(dst []byte, f *Frame, resp web.Response, close bool) []byte
	// AppendFault serializes a connection-level fault — parse error, idle
	// timeout, drain — in the protocol's vocabulary. The connection
	// always closes after a fault.
	AppendFault(dst []byte, status int, msg string) []byte
	// AppendOverload serializes a per-request admission refusal. Unlike a
	// fault it does not end the conversation: a keep-alive client that had
	// one request shed keeps its connection and may retry after retryAfter
	// (HTTP: 503 with a Retry-After header; RESP: an -OVERLOADED error).
	// close mirrors AppendResponse's close (the transport will hang up
	// after this frame for its own reasons, e.g. the client asked to).
	AppendOverload(dst []byte, retryAfter time.Duration, close bool) []byte
}

// Factory creates a fresh per-connection codec.
type Factory func() Codec

// Options parameterize the stock codecs.
type Options struct {
	// KVPrefix is the servlet mount point RESP commands map onto
	// (default "/kv": GET k -> GET {KVPrefix}?key=k, EXEC ->
	// GET {KVPrefix}/multi?ops=..., STATS -> GET {KVPrefix}/stats).
	KVPrefix string
}

// New resolves a protocol name to a codec factory. Supported names:
// "http" (alias "http/1.1") and "resp".
func New(protocol string, opt Options) (Factory, error) {
	if opt.KVPrefix == "" {
		opt.KVPrefix = "/kv"
	}
	switch protocol {
	case "", "http", "http/1.1":
		return func() Codec { return NewHTTP() }, nil
	case "resp":
		prefix := opt.KVPrefix
		return func() Codec { return NewRESP(prefix) }, nil
	}
	return nil, fmt.Errorf("wire: unknown protocol %q (want http or resp)", protocol)
}
