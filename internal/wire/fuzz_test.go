package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The codecs' framing contract under arbitrary input: Parse never
// panics, the remainder it returns is always a suffix of its input (it
// never reads past the end or rewinds), and a valid pipelined stream
// yields the same frames however the transport happens to split it
// across reads. The seed corpus is the frames of the codecs' unit tests;
// crashers found by `go test -fuzz` are pinned under testdata/fuzz.

var httpSeeds = []string{
	"GET / HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
	"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
	"GET /\r\n\r\n",
	"GET /kv?key=a&val=b HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
	"GET /a HTTP/1.1\r\n\r\nGET /a HTTP/1.1\r\n\r\nGET /last HTTP/1.1\r\nConnection: close\r\n\r\n",
	"PUT /kv?key=k&val=v HTTP/1.1\n\nGET /kv/multi?ops=w:p0:1,w:p1:2 HTTP/1.1\n\n",
	"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
	"GET / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
	"GARBAGE\r\n\r\n",
}

var respSeeds = []string{
	"PING\r\nGET a\r\nSET a 1\r\nDEL a\r\nSTATS\r\n\r\nQUIT\r\n",
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$3\r\na b\r\n",
	"MULTI\r\nSET a 1\r\nGET b\r\nDEL c\r\nEXEC\r\n",
	"MULTI\r\nSET a 1\r\nDISCARD\r\nGET a\r\n",
	"MULTI\r\nSET a:b 1\r\nSET ok 2\r\nEXEC\r\n",
	"EXEC\r\nMULTI\r\nMULTI\r\nDISCARD\r\nBOGUS\r\n",
	"$5\r\nGET a\r\n$9\r\nSET a two\r\n",
	"CALL /debug/killsafe/stats\r\n",
	"$x\r\nGET a\r\n",
	"$-4\r\nGET a\r\n",
	"$5\r\nGET aXX",
	"*2\r\n$3\r\nGET\r\nk\r\n",
}

func FuzzHTTPParse(f *testing.F) {
	for i, s := range httpSeeds {
		f.Add([]byte(s), int64(i))
	}
	f.Fuzz(func(t *testing.T, in []byte, seed int64) {
		checkFraming(t, NewHTTP, in, seed)
	})
}

func FuzzRESPParse(f *testing.F) {
	for i, s := range respSeeds {
		f.Add([]byte(s), int64(i))
	}
	f.Fuzz(func(t *testing.T, in []byte, seed int64) {
		checkFraming(t, func() Codec { return NewRESP("/kv") }, in, seed)
	})
}

// checkFraming parses in whole with a fresh codec, checking the suffix
// property on every call, up to the first error or incomplete tail. The
// frames parsed up to that point make a valid pipelined stream; it is
// re-fed to another fresh codec in chunks drawn from seed, and must
// produce the same frames with no error and nothing left over. Chunks are
// 1–16 bytes, or up to 1/32 of a long stream so that the re-parse of a
// growing buffer stays linear in the input.
func checkFraming(t *testing.T, newCodec func() Codec, in []byte, seed int64) {
	var whole []string
	c, buf := newCodec(), in
	for {
		f, rest, err := c.Parse(buf)
		checkSuffix(t, buf, rest)
		if err != nil || f == nil {
			break
		}
		whole = append(whole, frameString(f))
		buf = rest
	}
	valid := in[:len(in)-len(buf)]

	var split []string
	rng := rand.New(rand.NewSource(seed))
	c, buf = newCodec(), nil
	for off := 0; off < len(valid); {
		n := min(1+rng.Intn(max(16, len(valid)/32)), len(valid)-off)
		buf = append(buf, valid[off:off+n]...)
		off += n
		for {
			f, rest, err := c.Parse(buf)
			checkSuffix(t, buf, rest)
			if err != nil {
				t.Fatalf("split stream failed where the whole parse did not: %v (frames so far %q)", err, split)
			}
			buf = rest
			if f == nil {
				break
			}
			split = append(split, frameString(f))
		}
	}
	if len(buf) != 0 {
		t.Fatalf("split stream left %q unparsed", buf)
	}
	if fmt.Sprint(split) != fmt.Sprint(whole) {
		t.Fatalf("split frames %q != whole frames %q", split, whole)
	}
}

func checkSuffix(t *testing.T, in, rest []byte) {
	t.Helper()
	if len(rest) > len(in) || !bytes.Equal(in[len(in)-len(rest):], rest) {
		t.Fatalf("Parse returned a remainder that is not a suffix of its input: in %q, rest %q", in, rest)
	}
}

// frameString renders everything a frame carries, private state
// included, so two parses compare equal only if they agree entirely.
func frameString(f *Frame) string {
	req := "nil"
	if f.Req != nil {
		req = fmt.Sprintf("%+v", *f.Req)
	}
	return fmt.Sprintf("req=%s imm=%q close=%v proto=%q cmd=%q", req, f.Immediate, f.Close, f.proto, f.cmd)
}
