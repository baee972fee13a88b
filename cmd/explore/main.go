// Command explore drives the systematic concurrency explorer from the
// command line: sweep schedules of a scenario (uniform or
// coverage-guided, across a fleet of worker processes), replay a
// recorded trace, shrink a failing trace, or record a single schedule.
//
//	explore list
//	explore run -scenario queue-unsafe -seeds 100 [-expect stuck] [-out wedge.trace]
//	explore run -scenario txn-kill-midlock -workers 4 -budget 60s -strategy coverage
//	explore record -scenario queue -seed 7 -out run.trace
//	explore replay -trace wedge.trace [-expect stuck]
//	explore shrink -trace wedge.trace -out small.trace
//	explore worker        (internal: fleet protocol on stdin/stdout)
//
// Exit status: 0 when the outcome matches expectations, 1 otherwise, 2
// on usage errors. For run, the default expectation is pass (no failing
// schedule); -expect stuck/fail inverts that for scenarios that exist to
// be broken, which is what CI gates on.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/explore"
	"repro/internal/explore/fleet"
	"repro/internal/explore/scenarios"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		for _, sc := range scenarios.All() {
			fmt.Printf("%-22s %s\n", sc.Name, sc.Desc)
		}
	case "run":
		cmdRun(os.Args[2:])
	case "record":
		cmdRecord(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "shrink":
		cmdShrink(os.Args[2:])
	case "worker":
		// The fleet driver re-execs this binary with `worker` and speaks
		// the pipe protocol; nothing here is for human consumption.
		if err := fleet.Serve(os.Stdin, os.Stdout, scenarios.ByName); err != nil {
			fmt.Fprintf(os.Stderr, "explore worker: %v\n", err)
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: explore {list|run|record|replay|shrink} [flags]")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "explore: "+format+"\n", args...)
	os.Exit(2)
}

func lookup(name string) explore.Scenario {
	sc, ok := scenarios.ByName(name)
	if !ok {
		fatal("unknown scenario %q (try: explore list)", name)
	}
	return sc
}

func optFlags(fs *flag.FlagSet) *explore.Options {
	o := &explore.Options{}
	fs.IntVar(&o.MaxSteps, "steps", 0, "max decisions per schedule (default 500)")
	fs.IntVar(&o.FaultBudget, "faults", 0, "max faults per schedule (default 2)")
	fs.Float64Var(&o.FaultProb, "prob", 0, "per-decision fault probability (default 0.25)")
	fs.DurationVar(&o.StepTimeout, "timeout", 0, "real-time watchdog per step (default 10s)")
	return o
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("scenario", "", "scenario name (required)")
	seeds := fs.Int("seeds", 0, "number of schedules to explore (default 100, or unlimited with -budget)")
	seed := fs.Int64("seed", 1, "base seed")
	budget := fs.Duration("budget", 0, "wall-clock budget for the sweep (0: seeds only)")
	strategy := fs.String("strategy", "uniform", "schedule strategy: uniform or coverage")
	workers := fs.Int("workers", 1, "worker processes to shard schedules across")
	pin := fs.String("pin", "", "directory to pin shrunk failing traces into")
	findings := fs.Int("findings", 0, "distinct findings to collect before stopping (default 1)")
	out := fs.String("out", "", "write the first failing (shrunk) trace here")
	expect := fs.String("expect", "pass", "expected result: pass, stuck, or fail")
	verbose := fs.Bool("v", false, "log fleet progress to stderr")
	opts := optFlags(fs)
	_ = fs.Parse(args)
	if *name == "" {
		fatal("run: -scenario is required")
	}
	sc := lookup(*name)

	strat, ok := explore.ParseStrategy(*strategy)
	if !ok {
		fatal("run: unknown strategy %q (want uniform or coverage)", *strategy)
	}
	opts.Seeds = *seeds
	if *seeds == 0 && *budget > 0 {
		// A time budget with no explicit seed cap means "as many as fit".
		opts.Seeds = 1 << 30
	}
	opts.BaseSeed = *seed
	opts.Budget = *budget
	opts.Strategy = strat
	opts.Workers = *workers

	cfg := fleet.Config{PinDir: *pin, MaxFindings: *findings}
	if *workers > 1 {
		exe, err := os.Executable()
		if err != nil {
			fatal("run: cannot locate own binary for worker re-exec: %v", err)
		}
		cfg.WorkerCommand = []string{exe, "worker"}
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	rep, err := fleet.Run(sc, *opts, cfg)
	fmt.Print(rep.Summary())
	if err != nil {
		fatal("run: %v", err)
	}
	got := "pass"
	if len(rep.Findings) > 0 {
		f := rep.Findings[0]
		got = f.Status.String()
		if *out != "" {
			if err := f.Trace.WriteFile(*out); err != nil {
				fatal("write %s: %v", *out, err)
			}
			fmt.Printf("shrunk replay trace written to %s\n", *out)
		}
	}
	exitExpect(*expect, got)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("scenario", "", "scenario name (required)")
	seed := fs.Int64("seed", 1, "seed for the schedule")
	out := fs.String("out", "", "trace file to write (required)")
	opts := optFlags(fs)
	_ = fs.Parse(args)
	if *name == "" || *out == "" {
		fatal("record: -scenario and -out are required")
	}
	sc := lookup(*name)
	if opts.FaultProb == 0 {
		// Mirror the sweep's default so `record -seed N` reproduces the
		// same schedule a uniform `run` explored for seed N.
		opts.FaultProb = 0.25
	}
	o := explore.RunOnce(sc, explore.NewRandomPicker(*seed, opts.FaultProb), *seed, *opts)
	fmt.Printf("scenario %s seed %d: %s (%d decisions, %d faults)\n",
		sc.Name, *seed, o.Status, len(o.Trace.Actions), o.Faults)
	if o.Err != nil {
		fmt.Printf("  %v\n", o.Err)
	}
	if err := o.Trace.WriteFile(*out); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Printf("trace written to %s\n", *out)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (required)")
	name := fs.String("scenario", "", "override the scenario named in the trace")
	expect := fs.String("expect", "", "expected result: pass, stuck, fail (default: just report)")
	lenient := fs.Bool("lenient", false, "skip decisions that are no longer available")
	opts := optFlags(fs)
	_ = fs.Parse(args)
	if *path == "" {
		fatal("replay: -trace is required")
	}
	tr, err := explore.ReadTraceFile(*path)
	if err != nil {
		fatal("%v", err)
	}
	if *name == "" {
		*name = tr.Scenario
	}
	sc := lookup(*name)
	opts.Lenient = *lenient
	o := explore.Replay(sc, tr, *opts)
	fmt.Printf("scenario %s: %s (%d decisions executed)\n", sc.Name, o.Status, len(o.Trace.Actions))
	if o.Err != nil {
		fmt.Printf("  %v\n", o.Err)
	}
	if *expect != "" {
		exitExpect(*expect, o.Status.String())
	}
	if o.Status == explore.StatusError {
		os.Exit(1)
	}
}

func cmdShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (required)")
	out := fs.String("out", "", "write the shrunk trace here (default: overwrite input)")
	opts := optFlags(fs)
	_ = fs.Parse(args)
	if *path == "" {
		fatal("shrink: -trace is required")
	}
	if *out == "" {
		*out = *path
	}
	tr, err := explore.ReadTraceFile(*path)
	if err != nil {
		fatal("%v", err)
	}
	sc := lookup(tr.Scenario)
	lopts := *opts
	lopts.Lenient = true
	o := explore.Replay(sc, tr, lopts)
	if !o.Failing() {
		fatal("trace does not fail (%s); nothing to shrink", o.Status)
	}
	shrunk, replays := explore.Shrink(sc, tr, *opts, nil)
	fmt.Printf("shrunk %d -> %d decisions in %d replays\n",
		len(tr.Actions), len(shrunk.Actions), replays)
	if err := shrunk.WriteFile(*out); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Printf("shrunk trace written to %s\n", *out)
}

func exitExpect(expect, got string) {
	if expect != got {
		fmt.Printf("FAIL: expected %s, got %s\n", expect, got)
		os.Exit(1)
	}
	fmt.Printf("OK: %s\n", got)
	os.Exit(0)
}
