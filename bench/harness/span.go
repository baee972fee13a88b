package harness

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one (-1 for a
// root), filled in by Link.
type Span struct {
	Name   uint8
	Parent int32
	Op     uint64
	Start  int64
	End    int64
}

// SpanBuf keeps spans in memory preallocated before the run; recording is
// one atomic add and a struct store. A full buffer drops further spans
// (and counts them) rather than growing during the measurement.
type SpanBuf struct {
	names   []string
	spans   []Span
	n       atomic.Int64
	dropped atomic.Int64
}

// NewSpanBuf preallocates room for capacity spans with the given names;
// a span's Name is an index into names.
func NewSpanBuf(capacity int, names ...string) *SpanBuf {
	return &SpanBuf{names: names, spans: make([]Span, capacity)}
}

// Add records a finished span. Safe for concurrent use.
func (b *SpanBuf) Add(name int, op uint64, start, end int64) {
	i := b.n.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return
	}
	b.spans[i] = Span{Name: uint8(name), Parent: -1, Op: op, Start: start, End: end}
}

// Spans returns the recorded spans; call after the run has stopped.
func (b *SpanBuf) Spans() []Span {
	n := b.n.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// Dropped is the number of spans that did not fit.
func (b *SpanBuf) Dropped() int64 { return b.dropped.Load() }

// Link sets each span's Parent: parentOf maps a span name to the name of
// the span that causes it, and the parent is the span of that name with
// the same Op. Spans whose parent was dropped stay roots.
func (b *SpanBuf) Link(parentOf map[string]string) {
	idx := make(map[string]int, len(b.names))
	for i, n := range b.names {
		idx[n] = i
	}
	type key struct {
		op   uint64
		name uint8
	}
	spans := b.Spans()
	at := make(map[key]int32, len(spans))
	for i, s := range spans {
		at[key{s.Op, s.Name}] = int32(i)
	}
	for i := range spans {
		pn, ok := parentOf[b.names[spans[i].Name]]
		if !ok {
			continue
		}
		if p, ok := at[key{spans[i].Op, uint8(idx[pn])}]; ok && p != int32(i) {
			spans[i].Parent = p
		}
	}
}

// SpanAgg summarises the spans of one name.
type SpanAgg struct {
	Count  int64
	MeanNs float64 // mean duration
	SelfNs float64 // mean duration minus the part child spans cover
}

// Aggregate computes, per span name, the mean duration and the mean self
// time: a span's duration minus the union of its children's intervals,
// each clipped to the parent. Call after Link.
func (b *SpanBuf) Aggregate() map[string]SpanAgg {
	spans := b.Spans()
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	type acc struct {
		n         int64
		dur, self float64
	}
	accs := make([]acc, len(b.names))
	for i, s := range spans {
		dur := s.End - s.Start
		a := &accs[s.Name]
		a.n++
		a.dur += float64(dur)
		a.self += float64(dur - covered(spans, s, children[int32(i)]))
	}
	out := make(map[string]SpanAgg, len(b.names))
	for i, a := range accs {
		if a.n > 0 {
			out[b.names[i]] = SpanAgg{Count: a.n, MeanNs: a.dur / float64(a.n), SelfNs: a.self / float64(a.n)}
		}
	}
	return out
}

// covered is the length of the union of the kids' intervals inside p.
func covered(spans []Span, p Span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
	var total int64
	at := p.Start
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < at {
			s = at
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// WriteJSONL writes one JSON object per span: name, op, start and end in
// nanoseconds of the harness clock, and the parent's line number (0-based,
// -1 for a root).
func (b *SpanBuf) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for _, s := range b.Spans() {
		fmt.Fprintf(w, `{"name":%q,"op":%d,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			b.names[s.Name], s.Op, s.Start, s.End, s.Parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
