package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bench/harness"
)

// TestCheck is `killbench -check`: every workload for 300 ms, untraced and
// traced, with the schema and the oracles checked, and the canary that
// proves the queue_killstorm oracle can fail.
func TestCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := runCheck(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json and the tables in spec.go must name the same workloads
// and metrics, with the same units and directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := harness.LoadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []harness.SpecMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if float64(spec.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, default window %v", spec.RunSeconds, defaultSeconds)
	}
}

// The seed — and nothing else — fixes the generated schedule.
func TestScheduleHashFollowsSeed(t *testing.T) {
	hash := func(seed int64) float64 {
		in := &kvInst{cfg: &runCfg{seed: seed}}
		_, h := in.schedule(1, rateR2, 5000)
		return h
	}
	if hash(1) != hash(1) {
		t.Error("same seed, different schedule hash")
	}
	if hash(1) == hash(2) {
		t.Error("different seeds, same schedule hash")
	}
}

func TestEncodeTransferSumsToConstant(t *testing.T) {
	got := string(appendTransfer(nil, 7, 123))
	want := "MULTI\r\nSET p14 123\r\nSET p15 877\r\nEXEC\r\n"
	if got != want {
		t.Errorf("transfer %q, want %q", got, want)
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	f := &harness.File{Schema: harness.Schema, Env: harness.Stamp(".", 3), Runs: []harness.Run{{
		Workload: "chan_pingpong", Seed: 3, Correct: true, Attempted: 10,
		EndToEnd: render(endToEnd, metrics{"setup_s": 0.5}),
	}}}
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	g, err := harness.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Env.Seed != 3 || g.Env.GoVersion == "" || g.Env.NProc == 0 || g.Runs[0].EndToEnd["setup_s"].Unit != "s" {
		t.Errorf("round trip lost data: %+v", g)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.LoadFile(path); err == nil {
		t.Error("a file of another schema loaded")
	}
}

func TestBatchesReportsPerIteration(t *testing.T) {
	quickBatches(t)
	ns := batches(func(n int) { time.Sleep(time.Duration(n) * 10 * time.Microsecond) })
	if ns < 10_000 || ns > 200_000 {
		t.Errorf("a 10 µs sleep measured as %.0f ns per iteration", ns)
	}
}

func quickBatches(t *testing.T) {
	old := batchTarget
	batchTarget = 2 * time.Millisecond
	t.Cleanup(func() { batchTarget = old })
}
