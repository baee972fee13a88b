// Command killbench is the repository's benchmark of record: five named
// workloads, end-to-end metrics measured with tracing off, per-layer
// metrics from rungs and a traced run, and the kill-safety oracles checked
// on every run.
//
// With --workload it is one measurement of one workload — the form
// BENCHMARK.json's command runs — and prints one JSON result line last on
// standard output. Without, it runs all five, each in a fresh child
// process, untraced then traced, and writes one merged result file. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/bench/harness"
)

// defaultSeconds is the measured window; BENCHMARK.json's run_seconds.
const defaultSeconds = 10.0

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json and bench/)")
		workload = flag.String("workload", "", "run this one workload in this process and print its result line")
		seed     = flag.Int64("seed", 1, "workload seed: keys, Zipf draws, op mix and kill schedule")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured window per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from rungs and a traced run")
		out      = flag.String("out", "", "all-workloads mode: result file (default <root>/bench/out/result.json)")
		sets     = flag.Int("sets", 0, "all-workloads mode: run this many sets and compare each with the first")
		runs     = flag.Int("runs", 3, "all-workloads mode with -sets: runs per set, seeds seed, seed+1, ...")
		check    = flag.Bool("check", false, "smoke: every workload for 300 ms, schema and oracles checked, plus the NewUnsafe canary")
	)
	flag.Parse()
	// Two cores is what the benchmark is defined on; more would change
	// what every cross-thread hand-off costs.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	outDir := filepath.Join(*root, "bench", "out")

	switch {
	case *check:
		if err := runCheck(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "killbench -check:", err)
			os.Exit(1)
		}
		fmt.Println("killbench -check: ok")
	case *workload != "":
		os.Exit(oneWorkload(*root, outDir, *workload, *seed, *seconds, *trace != 0))
	default:
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		os.Exit(allWorkloads(*root, *out, *seed, *seconds, *sets, *runs))
	}
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// detail is what a single-workload run prints before its result line, for
// people and for the all-workloads parent.
type detail struct {
	Env harness.Env `json:"env"`
	Run harness.Run `json:"run"`
}

// runOne measures one workload in this process. rungs, if not nil, are
// rung results to reuse instead of running the rungs again.
func runOne(outDir, name string, seed int64, window, warmup time.Duration, traced bool, rungs metrics) (*result, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	cfg := &runCfg{seed: seed, window: window, warmup: warmup, rates: []float64{rateR2}}
	if traced {
		return runTraced(w, cfg, outDir, rungs)
	}
	return runUntraced(w, cfg)
}

func oneWorkload(root, outDir, name string, seed int64, seconds float64, traced bool) int {
	// The benchmark measures this repository: refuse to run from a
	// directory that does not hold it.
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "killbench: not a checkout of the repository:", err)
		return 2
	}
	// A run must end, even if a kill wedges something: report the hang
	// with every goroutine's stack instead of sitting in it.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "killbench: still running after 170 s; goroutines:")
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	env := harness.Stamp(root, seed)
	res, err := runOne(outDir, name, seed, time.Duration(seconds*float64(time.Second)), 2*time.Second, traced, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench:", err)
		return 1
	}
	printMetrics(name, res.line.Metrics)
	for _, n := range res.run.Notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("%s: attempted=%d failed=%d killed_expected=%d oracle_violations=%d noisy_host=%v generator_limited=%v\n",
		name, res.run.Attempted, res.run.Failed, res.run.KilledExpected, res.run.OracleViolations, res.run.NoisyHost, res.run.GeneratorLimited)
	d, err := json.Marshal(detail{Env: env, Run: res.run})
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench:", err)
		return 1
	}
	fmt.Printf("detail: %s\n", d)
	line, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "killbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// printMetrics prints every metric by name with its unit.
func printMetrics(workload string, ms map[string]harness.Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-16s %-32s %16.4f %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}
