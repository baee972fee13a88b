package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/explore"
	"repro/internal/explore/scenarios"
)

// FuzzFleetMessages fences the pipe protocol's decoders, which read
// whatever a worker process or the driver wrote: arbitrary bytes decoded
// as a job or a result never panic, and a message job() or result()
// accepts re-encodes through jobMsgFor / resultMsgFor to a message that
// decodes to the same value. Seeds: the jobs and results of a short
// coverage sweep (fresh, bounded and mutation jobs, traces on every
// result), plus a handful of malformed messages.
func FuzzFleetMessages(f *testing.F) {
	sc, ok := scenarios.ByName("queue")
	if !ok {
		f.Fatal("scenario queue not registered")
	}
	opts := explore.Options{Seeds: 12, BaseSeed: 1, Strategy: explore.StrategyCoverage}
	d := explore.NewDriver(opts)
	for {
		j, ok := d.Next()
		if !ok {
			break
		}
		res := j.Run(sc, opts)
		d.Observe(res)
		for _, m := range []any{jobMsgFor(j), resultMsgFor(res)} {
			b, err := json.Marshal(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, s := range []string{
		``,
		`{}`,
		`{"id":1,"seed":2,"bound":-1,"prefix":"r 1\nq 9\n"}`,
		`{"id":1,"prefix":"r x"}`,
		`{"id":3,"status":7,"trace":"killsafe-explore-trace 1\nr 1\n"}`,
		`{"id":3,"trace":"not a trace"}`,
		`{"id":"x"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var jm jobMsg
		if json.Unmarshal(b, &jm) == nil {
			if j, err := jm.job(); err == nil {
				again, err := jobMsgFor(j).job()
				if err != nil {
					t.Fatalf("re-decoding an accepted job failed: %v\njob: %+v", err, j)
				}
				if !reflect.DeepEqual(j, again) {
					t.Fatalf("job round trip changed the job:\n%+v\n%+v", j, again)
				}
			}
		}
		var rm resultMsg
		if json.Unmarshal(b, &rm) == nil {
			if r, err := rm.result(); err == nil {
				again, err := resultMsgFor(r).result()
				if err != nil {
					t.Fatalf("re-decoding an accepted result failed: %v\nresult: %+v", err, r)
				}
				if !reflect.DeepEqual(r, again) {
					t.Fatalf("result round trip changed the result:\n%+v\n%+v", r, again)
				}
			}
		}
	})
}
