package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/web"
)

// maxHeadBytes caps an HTTP request head; a client that never finishes
// its headers is a protocol error, not backpressure.
const maxHeadBytes = 64 << 10

// maxBodyBytes caps a Content-Length body. Servlets are GET-shaped (the
// body is consumed and discarded), so this is an abuse bound, not a
// feature limit.
const maxBodyBytes = 1 << 20

// httpCodec is the HTTP/1.1 codec: persistent connections by default,
// pipelining (Parse consumes one frame at a time and leaves the rest
// buffered), Content-Length bodies, and status lines that echo the
// request's protocol version instead of hardcoding HTTP/1.0.
type httpCodec struct{}

// NewHTTP creates an HTTP/1.1 codec. HTTP/1.0 clients are still served
// with 1.0 semantics: their version is echoed and the connection closes
// unless they ask for keep-alive.
func NewHTTP() Codec { return httpCodec{} }

func (httpCodec) Name() string { return "http/1.1" }

// Parse extracts one complete request (head and, when Content-Length
// says so, body) from buf. Pipelined requests simply stay in the
// remainder for the next call.
func (httpCodec) Parse(buf []byte) (*Frame, []byte, error) {
	head, rest, ok := cutHead(buf)
	if !ok {
		if len(buf) > maxHeadBytes {
			return nil, buf, fmt.Errorf("request head exceeds %d bytes", maxHeadBytes)
		}
		return nil, buf, nil
	}
	line, hdrs, _ := strings.Cut(head, "\n")
	line = strings.TrimRight(line, "\r")
	method, more := field(line)
	target, more := field(more)
	if target == "" {
		return nil, rest, fmt.Errorf("malformed request line %q", line)
	}
	proto := "HTTP/1.0"
	if p, _ := field(more); p != "" {
		proto = p
	}
	// Keep-alive default is the version's: 1.1 persists unless the client
	// says close; 1.0 closes unless the client says keep-alive.
	keep := proto == "HTTP/1.1"
	contentLn := 0
	for hdrs != "" {
		var ln string
		ln, hdrs, _ = strings.Cut(hdrs, "\n")
		ln = strings.TrimRight(ln, "\r")
		if ln == "" {
			continue
		}
		k, v, found := strings.Cut(ln, ":")
		if !found {
			continue
		}
		v = strings.TrimSpace(v)
		switch {
		case headerIs(k, "connection"):
			if strings.EqualFold(v, "keep-alive") {
				keep = true
			} else if strings.EqualFold(v, "close") {
				keep = false
			}
		case headerIs(k, "content-length"):
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, rest, fmt.Errorf("bad Content-Length %q", v)
			}
			contentLn = n
		}
	}
	if contentLn > maxBodyBytes {
		return nil, rest, fmt.Errorf("body of %d bytes exceeds %d", contentLn, maxBodyBytes)
	}
	// The frame is complete only once the whole body is buffered; the
	// body itself is discarded (servlets take their input from the query).
	if len(rest) < contentLn {
		return nil, buf, nil
	}
	rest = rest[contentLn:]
	f := &Frame{Req: targetToRequest(method, target), Close: !keep, proto: proto}
	return f, rest, nil
}

// appendHead serializes a response head directly onto dst: status line,
// framing headers, blank line. Plain appends plus AppendInt instead of
// fmt, so serializing into the pooled connection batch buffer allocates
// nothing — the body copy in the caller is the only copy a response makes
// between the servlet and the wire.
func appendHead(dst []byte, proto string, status, contentLen int, connHdr string) []byte {
	dst = append(dst, proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(status)...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(contentLen), 10)
	dst = append(dst, "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: "...)
	dst = append(dst, connHdr...)
	return append(dst, "\r\n\r\n"...)
}

// AppendResponse serializes one response, echoing the request's protocol
// version in the status line. The body is appended straight from the
// servlet's representation (string or bytes) into dst — the zero-copy
// response path: no fmt machinery, no intermediate buffer.
func (httpCodec) AppendResponse(dst []byte, f *Frame, resp web.Response, close bool) []byte {
	connHdr := "keep-alive"
	if close {
		connHdr = "close"
	}
	dst = appendHead(dst, f.proto, resp.Status, resp.BodyLen(), connHdr)
	return resp.AppendBody(dst)
}

// AppendFault answers a connection-level fault. No request is in hand, so
// the status line uses the lowest version any client understands.
func (httpCodec) AppendFault(dst []byte, status int, msg string) []byte {
	if !strings.HasSuffix(msg, "\n") {
		msg += "\n"
	}
	dst = appendHead(dst, "HTTP/1.0", status, len(msg), "close")
	return append(dst, msg...)
}

// AppendOverload answers one admission-shed request with 503 plus a
// Retry-After hint. The whole frame is appended in one piece (the codec
// contract), and unless close is set the connection stays usable: a shed
// request costs the client one round trip, not its connection.
func (httpCodec) AppendOverload(dst []byte, retryAfter time.Duration, close bool) []byte {
	connHdr := "keep-alive"
	if close {
		connHdr = "close"
	}
	sec := int(retryAfter.Round(time.Second) / time.Second)
	if sec < 1 {
		sec = 1
	}
	const body = "overloaded\n"
	dst = append(dst, "HTTP/1.1 503 "...)
	dst = append(dst, StatusText(503)...)
	dst = append(dst, "\r\nRetry-After: "...)
	dst = strconv.AppendInt(dst, int64(sec), 10)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: "...)
	dst = append(dst, connHdr...)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// cutHead splits buf at the first blank line (CRLF CRLF or LF LF),
// returning the head and the remainder. It searches the bytes and copies
// only the head: the pipelined requests behind it, and an incomplete head
// that will be parsed again once more bytes arrive, are never copied.
func cutHead(buf []byte) (head string, rest []byte, ok bool) {
	for i := 0; ; {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return "", buf, false
		}
		k := i + j // every separator holds a LF; test both shapes around this one
		switch {
		case k > 0 && buf[k-1] == '\r' && k+2 < len(buf) && buf[k+1] == '\r' && buf[k+2] == '\n':
			return string(buf[:k-1]), buf[k+3:], true
		case k+1 < len(buf) && buf[k+1] == '\n':
			return string(buf[:k]), buf[k+2:], true
		}
		i = k + 1
	}
}

// field returns the first whitespace-separated field of s and what
// follows it: strings.Fields one field at a time, without building the
// slice.
func field(s string) (f, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// headerIs reports whether header name k is name (lower case) in any
// case. ASCII names compare with strings.EqualFold and allocate nothing;
// others keep strings.ToLower's folding, under which 'İ' is an 'i'.
func headerIs(k, name string) bool {
	for i := 0; i < len(k); i++ {
		if k[i] >= utf8.RuneSelf {
			return strings.ToLower(k) == name
		}
	}
	return strings.EqualFold(k, name)
}

// targetToRequest converts a request target into the servlet router's
// request shape (method, path, query map).
func targetToRequest(method, target string) *web.Request {
	out := &web.Request{Method: method, Query: map[string]string{}}
	if i := strings.IndexByte(target, '?'); i >= 0 {
		for _, kv := range strings.Split(target[i+1:], "&") {
			if kv == "" {
				continue
			}
			k, v, _ := strings.Cut(kv, "=")
			out.Query[k] = v
		}
		target = target[:i]
	}
	out.Path = target
	return out
}

// StatusText renders the reason phrase for the status codes the serving
// layer produces.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 408:
		return "Request Timeout"
	case 409:
		return "Conflict"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}
