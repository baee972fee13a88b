package main

import "repro/bench/harness"

// Span names. Every span is recorded from the benchmark's own files,
// around a call into a layer; spans inside the program are a later issue.
const (
	spClient      = iota // wire workloads: request written → whole reply read
	spServlet            // the wrapped servlet handler
	spKVClient           // the wrapped kvtxn.Client inside the servlet
	spRoundTrip          // chan_pingpong: one sampled Send+Recv round trip
	spProduce            // queue_killstorm: one producer op (credit wait + send)
	spQueueSend          // queue.Send
	spMsgqSend           // msgqueue.Send
	spRecvQueue          // consumer choice Sync that returned a queue item
	spRecvMsgq           // ... a msgqueue item
	spRecvTimeout        // ... the After arm
	spTxn                // txn_transfer: one transaction
	spTxnBegin           // Store.Begin
	spTxnGet             // Txn.Get
	spTxnCommit          // Txn.Commit
)

var spanNames = []string{
	"client", "servlet", "kvclient", "roundtrip",
	"produce", "queue.send", "msgqueue.send", "recv.queue", "recv.msgqueue", "recv.timeout",
	"txn", "kvtxn.begin", "kvtxn.get", "kvtxn.commit",
}

var spanParents = map[string]string{
	"servlet":       "client",
	"kvclient":      "servlet",
	"queue.send":    "produce",
	"msgqueue.send": "produce",
	"kvtxn.begin":   "txn",
	"kvtxn.get":     "txn",
	"kvtxn.commit":  "txn",
}

// spanCapacity bounds the trace: 128 Ki spans are a few seconds of any
// workload, 5 MB of memory and a trace file of about 12 MB.
const spanCapacity = 128 << 10

// spanMetrics links the recorded spans and turns their per-name means into
// the per-layer timings that come from the traced run.
func spanMetrics(b *harness.SpanBuf, m metrics) {
	b.Link(spanParents)
	agg := b.Aggregate()
	set := func(metric, span string, div float64) {
		if a, ok := agg[span]; ok {
			m[metric] = a.MeanNs / div
		}
	}
	set("trace.client_span_us", "client", 1e3)
	set("trace.client_span_us", "roundtrip", 1e3)
	set("trace.client_span_us", "produce", 1e3)
	set("trace.client_span_us", "txn", 1e3)
	set("netsvc.servlet_us", "servlet", 1e3)
	set("netsvc.kvclient_us", "kvclient", 1e3)
	set("abstractions.queue_send_ns", "queue.send", 1)
	set("abstractions.queue_recv_ns", "recv.queue", 1)
	set("abstractions.msgqueue_recv_ns", "recv.msgqueue", 1)
	set("kvtxn.begin_ns", "kvtxn.begin", 1)
	set("kvtxn.get_ns", "kvtxn.get", 1)
	set("kvtxn.commit_ns", "kvtxn.commit", 1)
}
