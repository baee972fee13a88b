package explore_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/explore/scenarios"
	"repro/internal/obs"
)

// FuzzDecodeTrace fences the trace decoder, which reads both the pinned
// regression traces and live flight-recorder dumps: DecodeTrace never
// panics, and any trace it accepts survives EncodeToString → DecodeTrace
// unchanged. Seeds: every pinned trace, a recorded flight of a kill-safe
// queue run, and a handful of malformed headers and action lines.
func FuzzDecodeTrace(f *testing.F) {
	pinned, err := filepath.Glob(filepath.Join("scenarios", "testdata", "*.trace"))
	if err != nil || len(pinned) == 0 {
		f.Fatalf("no pinned traces to seed from (%v)", err)
	}
	for _, p := range pinned {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	o := obs.New()
	o.EnableRecorder(256)
	explore.RunOnce(scenarios.QueueKillSafe(), explore.NewRandomPicker(1, 0.25), 1, explore.Options{Instrument: o})
	f.Add(o.Recorder().TraceText("flight", 1))
	for _, s := range []string{
		"",
		"killsafe-explore-trace 1\n",
		"killsafe-explore-trace 1\nscenario q\nseed -3\nr 1\nd\nc\nx 2\n# note\n",
		"killsafe-explore-trace 1\nscenario\n",
		"killsafe-explore-trace 1\nseed x\n",
		"killsafe-explore-trace 1\nk\nr 1 2\nq 3\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := explore.DecodeTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		enc := tr.EncodeToString()
		again, err := explore.DecodeTrace(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding an accepted trace failed: %v\nencoded:\n%s", err, enc)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr, again)
		}
	})
}
