package wire

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/web"
)

// BenchmarkAppendResponse isolates the response serialization that
// BenchmarkNetsvcServedRequest buries under parsing and dispatch: the
// fmt-copy leg is the pre-refactor implementation (fmt.Appendf with the
// body as an operand), the zero-copy legs are the shipping codec writing
// head and body straight into the reused batch buffer. allocs/op is the
// point: the fmt path allocates per response; the direct path does not
// once the buffer has grown.
func BenchmarkAppendResponse(b *testing.B) {
	c := NewHTTP()
	f, _, err := c.Parse([]byte("GET /ping HTTP/1.1\r\n\r\n"))
	if err != nil || f == nil {
		b.Fatalf("parse: %v %v", f, err)
	}
	body := "pong"
	bodyBytes := []byte(body)

	fmtCopy := func(dst []byte, resp web.Response) []byte {
		return fmt.Appendf(dst,
			"%s %d %s\r\nContent-Length: %d\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: %s\r\n\r\n%s",
			"HTTP/1.1", resp.Status, StatusText(resp.Status), len(resp.Body), "keep-alive", resp.Body)
	}

	b.Run("fmt-copy", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = fmtCopy(buf[:0], web.Response{Status: 200, Body: body})
		}
	})
	b.Run("zero-copy/body-string", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = c.AppendResponse(buf[:0], f, web.Response{Status: 200, Body: body}, false)
		}
	})
	b.Run("zero-copy/body-bytes", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = c.AppendResponse(buf[:0], f, web.Response{Status: 200, BodyBytes: bodyBytes}, false)
		}
	})
}

// BenchmarkHTTPParse is the HTTP head parse on its own, as the session
// loop drives it: one frame, and a pipeline of 8 parsed off one buffer
// (ns/op and allocs/op are per buffer, so divide the pipelined leg by 8).
// The parse searches the bytes and copies only each frame's head, so a
// frame costs the same allocations however many requests queue behind
// it.
func BenchmarkHTTPParse(b *testing.B) {
	const req = "GET /ping HTTP/1.1\r\nHost: bench\r\n\r\n"
	for _, depth := range []int{1, 8} {
		buf := []byte(strings.Repeat(req, depth))
		b.Run(fmt.Sprintf("pipeline-%d", depth), func(b *testing.B) {
			c := NewHTTP()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rest := buf
				for len(rest) > 0 {
					f, r, err := c.Parse(rest)
					if err != nil || f == nil {
						b.Fatalf("parse: %v %v", f, err)
					}
					rest = r
				}
			}
		})
	}
}
