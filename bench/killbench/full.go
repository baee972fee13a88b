package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/bench/harness"
)

// child runs one workload in a fresh process — this binary re-executed —
// so that no workload inherits another's heap, goroutines or peak RSS.
func child(root, name string, seed int64, seconds float64, trace int) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-root", root, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w\n%s", name, trace, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "detail: "); ok {
			var d detail
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", name, err)
			}
			return &d, nil
		}
	}
	return nil, fmt.Errorf("%s (trace %d): no detail line in output", name, trace)
}

// oneSet runs every workload once per seed, untraced then traced, and
// merges each pair into one Run.
func oneSet(root string, seeds []int64, seconds float64) (*harness.File, bool) {
	file := &harness.File{Schema: harness.Schema, Env: harness.Stamp(root, seeds[0])}
	ok := true
	for _, seed := range seeds {
		for _, w := range workloads {
			began := time.Now()
			e2e, err := child(root, w.name, seed, seconds, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "killbench:", err)
				ok = false
				continue
			}
			layers, err := child(root, w.name, seed, seconds, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "killbench:", err)
				ok = false
				continue
			}
			run := e2e.Run
			run.PerLayer = layers.Run.PerLayer
			run.Correct = run.Correct && layers.Run.Correct
			run.OracleViolations += layers.Run.OracleViolations
			run.NoisyHost = run.NoisyHost || layers.Run.NoisyHost
			run.GeneratorLimited = layers.Run.GeneratorLimited
			run.Notes = append(run.Notes, layers.Run.Notes...)
			file.Runs = append(file.Runs, run)
			ok = ok && run.Correct

			fmt.Printf("== %s  seed %d  (%.0f s)\n", w.name, seed, time.Since(began).Seconds())
			printMetrics(w.name, run.EndToEnd)
			printMetrics(w.name, run.PerLayer)
			fmt.Printf("%s: attempted=%d failed=%d killed_expected=%d oracle_violations=%d noisy_host=%v generator_limited=%v\n",
				w.name, run.Attempted, run.Failed, run.KilledExpected, run.OracleViolations, run.NoisyHost, run.GeneratorLimited)
			for _, n := range run.Notes {
				fmt.Println("note:", n)
			}
		}
	}
	return file, ok
}

// allWorkloads is the one command: every workload, every metric by name,
// one result file; nonzero if any oracle failed. With sets > 0 it records
// that many sets of runs and judges each later set against the first with
// the bounds in BENCHMARK.json.
func allWorkloads(root, out string, seed int64, seconds float64, sets, runs int) int {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "killbench:", err)
		return 1
	}
	if sets <= 0 {
		file, ok := oneSet(root, []int64{seed}, seconds)
		if err := file.Save(out); err != nil {
			fmt.Fprintln(os.Stderr, "killbench:", err)
			return 1
		}
		fmt.Println("result:", out)
		if !ok {
			fmt.Fprintln(os.Stderr, "killbench: FAIL: a workload failed or an oracle fired")
			return 1
		}
		return 0
	}
	spec, err := harness.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench:", err)
		return 1
	}
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	code := 0
	var first *harness.File
	for s := 1; s <= sets; s++ {
		file, ok := oneSet(root, seeds, seconds)
		path := strings.TrimSuffix(out, ".json") + fmt.Sprintf("-set%d.json", s)
		if err := file.Save(path); err != nil {
			fmt.Fprintln(os.Stderr, "killbench:", err)
			return 1
		}
		fmt.Println("result:", path)
		if !ok {
			code = 1
		}
		if first == nil {
			first = file
			continue
		}
		rows := harness.Compare(first, file, spec)
		fmt.Printf("== set %d against set 1\n%s", s, harness.FormatRows(rows))
		if bad(rows) {
			code = 1
		}
	}
	return code
}

func bad(rows []harness.Row) bool {
	for _, r := range rows {
		if r.Verdict != harness.VerdictOK {
			return true
		}
	}
	return false
}

// compareMain is `killbench compare A.json B.json [BENCHMARK.json]`.
func compareMain(args []string) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: killbench compare A.json B.json [BENCHMARK.json]")
		return 2
	}
	specPath := "BENCHMARK.json"
	if len(args) == 3 {
		specPath = args[2]
	}
	spec, err := harness.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench compare:", err)
		return 2
	}
	a, err := harness.LoadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench compare:", err)
		return 2
	}
	b, err := harness.LoadFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench compare:", err)
		return 2
	}
	rows := harness.Compare(a, b, spec)
	fmt.Print(harness.FormatRows(rows))
	if bad(rows) {
		return 1
	}
	return 0
}

// runCheck is the smoke test: every workload for 300 ms, untraced and
// traced, in this process; every named metric must be present with its
// unit and every oracle must pass. Then the canary: queue_killstorm over
// queue.NewUnsafe must make the oracle fire, which proves it can.
func runCheck(outDir string) error {
	const window, warmup = 300 * time.Millisecond, 50 * time.Millisecond
	defer func(d time.Duration) { batchTarget = d }(batchTarget)
	batchTarget = 2 * time.Millisecond
	rungs := metrics{}
	if err := runRungs(rungs); err != nil {
		return fmt.Errorf("rungs: %w", err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(outDir, w.name, 1, window, warmup, traced, rungs)
			if err != nil {
				return fmt.Errorf("%s (traced=%v): %w", w.name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, s := range want {
				m, ok := res.line.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					return fmt.Errorf("%s (traced=%v): metric %s missing or unit %q, want %q", w.name, traced, s.name, m.Unit, s.unit)
				}
			}
			if len(res.line.Metrics) != len(want) {
				return fmt.Errorf("%s (traced=%v): %d metrics, want %d", w.name, traced, len(res.line.Metrics), len(want))
			}
			if !res.line.Correct {
				return fmt.Errorf("%s (traced=%v): oracle fired: %v", w.name, traced, res.run.Notes)
			}
			if !traced {
				for _, s := range want {
					if res.line.Metrics[s.name].Value <= 0 {
						return fmt.Errorf("%s: end-to-end metric %s is %v", w.name, s.name, res.line.Metrics[s.name].Value)
					}
				}
			}
		}
	}
	canary := &runCfg{seed: 1, window: window, warmup: warmup, unsafe: true}
	o, err := phase(findWorkload("queue_killstorm"), canary)
	if err != nil {
		return fmt.Errorf("canary: %w", err)
	}
	if o.violations == 0 {
		return fmt.Errorf("canary: queue_killstorm over queue.NewUnsafe passed its oracle; the oracle cannot fail")
	}
	fmt.Printf("canary: oracle fired %d times over queue.NewUnsafe, as it must: %s\n", o.violations, strings.Join(o.notes, "; "))
	return nil
}
