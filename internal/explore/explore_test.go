package explore_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/explore/fleet"
	"repro/internal/explore/scenarios"
)

// Determinism is the subsystem's load-bearing property: the same scenario
// and seed must produce a byte-identical trace on every run.
func TestSameSeedSameTrace(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var first string
			for i := 0; i < 10; i++ {
				o := explore.RunOnce(sc, explore.NewRandomPicker(42, 0.25), 42, explore.Options{})
				if o.Status == explore.StatusError {
					t.Fatalf("run %d: harness error: %v", i, o.Err)
				}
				enc := o.Trace.EncodeToString()
				if i == 0 {
					first = enc
					continue
				}
				if enc != first {
					t.Fatalf("run %d diverged from run 0:\n--- run 0 ---\n%s--- run %d ---\n%s", i, first, i, enc)
				}
			}
		})
	}
}

// A recorded run must replay to the same outcome under the strict
// replayer.
func TestRecordedRunReplays(t *testing.T) {
	sc := scenarios.QueueKillSafe()
	o := explore.RunOnce(sc, explore.NewRandomPicker(7, 0.25), 7, explore.Options{})
	if o.Status == explore.StatusError {
		t.Fatalf("record run: %v", o.Err)
	}
	r := explore.Replay(sc, o.Trace, explore.Options{})
	if r.Status != o.Status {
		t.Fatalf("replay status %v, recorded %v (err=%v)", r.Status, o.Status, r.Err)
	}
	if r.Trace.EncodeToString() != o.Trace.EncodeToString() {
		t.Fatalf("replay trace differs from recording")
	}
}

// The explorer must find the unsafe queue's wedge within a bounded seed
// budget, the failing schedule must replay to the same wedge, and the
// shrinker must cut it to a handful of decisions.
func TestExplorerFindsUnsafeQueueWedge(t *testing.T) {
	sc := scenarios.QueueUnsafe()
	rep, err := fleet.Run(sc, explore.Options{Seeds: 100, BaseSeed: 1}, fleet.Config{})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if len(rep.Findings) == 0 {
		t.Fatalf("no wedge found in %d schedules (outcomes: %v)", rep.Schedules, rep.Outcomes)
	}
	f := rep.Findings[0]
	if f.Status != explore.StatusStuck {
		t.Fatalf("finding status %v (err=%s), want stuck", f.Status, f.Err)
	}
	t.Logf("wedge found at seed %d after %d schedules (%d decisions)", f.Seed, rep.Schedules, f.ShrunkFrom)

	// A uniform sweep runs seed s with RandomPicker(s): record that
	// schedule again and replay it strictly.
	o := explore.RunOnce(sc, explore.NewRandomPicker(f.Seed, 0.25), f.Seed, explore.Options{})
	if len(o.Trace.Actions) != f.ShrunkFrom {
		t.Fatalf("seed %d re-recorded %d decisions, the sweep saw %d", f.Seed, len(o.Trace.Actions), f.ShrunkFrom)
	}
	r := explore.Replay(sc, o.Trace, explore.Options{})
	if r.Status != explore.StatusStuck {
		t.Fatalf("strict replay of wedge trace: status %v (err=%v), want stuck", r.Status, r.Err)
	}

	t.Logf("shrunk %d -> %d decisions:\n%s", f.ShrunkFrom, len(f.Trace.Actions), f.Trace.EncodeToString())
	if len(f.Trace.Actions) > 20 {
		t.Fatalf("shrunk trace has %d decisions, want <= 20", len(f.Trace.Actions))
	}
	s := explore.Replay(sc, f.Trace, explore.Options{Lenient: true})
	if s.Status != explore.StatusStuck {
		t.Fatalf("shrunk trace replays to %v (err=%v), want stuck", s.Status, s.Err)
	}
}

// Every kill-safe scenario must pass under every explored schedule: the
// whole point of the abstractions is that no interleaving of faults at
// safe points can wedge a survivor or break an invariant.
func TestKillSafeScenariosPassAllSchedules(t *testing.T) {
	for _, sc := range scenarios.All() {
		if sc.Name == "queue-unsafe" {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := fleet.Run(sc, explore.Options{Seeds: 40, BaseSeed: 1}, fleet.Config{})
			if err != nil {
				t.Fatalf("fleet run: %v", err)
			}
			if len(rep.Findings) > 0 {
				f := rep.Findings[0]
				t.Fatalf("seed %d failed with %v (err=%s), shrunk:\n%s",
					f.Seed, f.Status, f.Err, f.Trace.EncodeToString())
			}
			t.Logf("%d schedules, %d decisions, %d faults injected (outcomes: %v)",
				rep.Schedules, rep.Steps, rep.Faults, rep.Outcomes)
		})
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := &explore.Trace{
		Scenario: "demo",
		Seed:     99,
		Actions: []explore.Action{
			{Kind: explore.ActRun, Thread: 3},
			{Kind: explore.ActDeliver},
			{Kind: explore.ActClock},
			{Kind: explore.ActKill, Thread: 4},
			{Kind: explore.ActSuspend, Thread: 5},
			{Kind: explore.ActResume, Thread: 5},
			{Kind: explore.ActBreak, Thread: 6},
			{Kind: explore.ActShutdown, Cust: 1},
		},
	}
	got, err := explore.DecodeTrace(strings.NewReader(tr.EncodeToString()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.EncodeToString() != tr.EncodeToString() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", got.EncodeToString(), tr.EncodeToString())
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	sc := scenarios.QueueKillSafe()
	o := explore.RunOnce(sc, explore.NewRandomPicker(3, 0.25), 3, explore.Options{})
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := o.Trace.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := explore.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.EncodeToString() != o.Trace.EncodeToString() {
		t.Fatalf("file round trip mismatch")
	}
}

// A strict replay against a world that cannot honor the recorded
// decisions must surface a divergence error, not silently wander off.
func TestStrictReplayDivergence(t *testing.T) {
	tr := &explore.Trace{
		Scenario: "pool",
		Seed:     1,
		Actions:  []explore.Action{{Kind: explore.ActRun, Thread: 999}},
	}
	sc, _ := scenarios.ByName("pool")
	o := explore.Replay(sc, tr, explore.Options{})
	if o.Status != explore.StatusError {
		t.Fatalf("status %v, want error on divergence", o.Status)
	}
}
