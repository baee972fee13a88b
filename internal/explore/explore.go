package explore

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Scenario is a concurrency test: Setup builds the world (spawns runtime
// threads, registers fault victims, invariant checks, and the threads
// that must finish) on a fresh deterministic runtime. Setup runs on the
// driver goroutine while no runtime thread is executing; it is plain Go —
// it may Spawn threads and construct abstractions but must not Sync.
//
// For deterministic runs, Setup itself must be deterministic: spawn
// threads and custodians in a fixed order, and avoid External helpers
// whose completion races the driver (queued deliveries are only
// deterministic once Complete has been called).
type Scenario struct {
	Name  string
	Desc  string
	Setup func(*Sim)
}

// Sim is the scenario-facing handle passed to Setup.
type Sim struct {
	// RT is the deterministic runtime the scenario runs on.
	RT *core.Runtime

	victims    []*core.Thread
	custodians []*core.Custodian
	mustFinish []*core.Thread
	checks     []func() error
	allowed    map[ActionKind]bool
	maxFaults  int
}

// Victim registers a thread as a fault-injection target: the explorer may
// kill, suspend, resume, or break it at any decision point. Victims
// should be disjoint from MustFinish threads.
func (s *Sim) Victim(th *core.Thread) { s.victims = append(s.victims, th) }

// VictimCustodian registers a custodian the explorer may shut down.
func (s *Sim) VictimCustodian(c *core.Custodian) { s.custodians = append(s.custodians, c) }

// MustFinish registers a thread the scenario requires to terminate: the
// run passes only once every such thread is done, and a run in which one
// of them can never proceed again is reported as Stuck (a wedge).
func (s *Sim) MustFinish(th *core.Thread) { s.mustFinish = append(s.mustFinish, th) }

// Check registers an invariant evaluated when all MustFinish threads are
// done (or, for a scenario with none, when the world goes quiescent). A
// non-nil error fails the run.
func (s *Sim) Check(fn func() error) { s.checks = append(s.checks, fn) }

// RestrictFaults limits injection to the given fault kinds. By default
// every fault kind is available; scenarios whose invariants only hold
// under some faults (e.g. a rendezvous where suspending one partner
// legitimately starves another) restrict the menu.
func (s *Sim) RestrictFaults(kinds ...ActionKind) {
	s.allowed = make(map[ActionKind]bool, len(kinds))
	for _, k := range kinds {
		s.allowed[k] = true
	}
}

// LimitFaults caps the faults injected per run below Options.FaultBudget.
// A scenario whose invariant survives any single fault but not arbitrary
// combinations (e.g. killing both of the threads that keep a rendezvous
// serviceable) sets this to 1.
func (s *Sim) LimitFaults(n int) { s.maxFaults = n }

func (s *Sim) faultAllowed(k ActionKind) bool {
	if s.allowed == nil {
		return true
	}
	return s.allowed[k]
}

// Status classifies a run.
type Status int

const (
	// StatusPass: every MustFinish thread finished and all checks held.
	StatusPass Status = iota
	// StatusFail: a check reported an invariant violation.
	StatusFail
	// StatusStuck: some MustFinish thread is not done, no progress step is
	// available, and no fault is left to inject — the wedge the kill-safe
	// abstractions exist to prevent.
	StatusStuck
	// StatusBudget: the step budget ran out first; inconclusive.
	StatusBudget
	// StatusError: the harness itself failed (watchdog, replay divergence).
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusPass:
		return "pass"
	case StatusFail:
		return "fail"
	case StatusStuck:
		return "stuck"
	case StatusBudget:
		return "budget"
	case StatusError:
		return "error"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Options bound a run and configure a sweep. The per-run fields
// (MaxSteps, FaultBudget, StepTimeout, FaultProb, Instrument, Lenient)
// apply to every schedule; the sweep fields (Seeds, BaseSeed, Budget,
// Strategy) drive the Driver, and Workers sizes the fleet that runs it
// (package fleet).
type Options struct {
	// MaxSteps caps the number of decisions before the run is declared
	// Budget. Default 500.
	MaxSteps int
	// FaultBudget caps how many faults may be injected. Default 2.
	FaultBudget int
	// StepTimeout is the real-time watchdog on each settle/grant; it only
	// turns a harness hang into StatusError, never affects decisions.
	// Default 10s.
	StepTimeout time.Duration
	// FaultProb is the per-decision fault probability for random
	// exploration. Default 0.25.
	FaultProb float64
	// Instrument, if non-nil, is a passive instrumentation (e.g. an
	// *obs.Obs with its flight recorder) teed alongside the explorer's
	// deterministic controller: every tap reaches both, so a systematic
	// run can be observed with the same vocabulary as a live server.
	Instrument core.Instrumentation
	// Lenient makes Replay tolerate decisions that are no longer
	// available (they are skipped, and a trailing deterministic
	// fallback keeps the run moving). The shrinker and flight-recorder
	// forensics replay leniently; regression pins replay strictly.
	Lenient bool

	// Seeds caps the number of schedules a sweep runs.
	// Default 100.
	Seeds int
	// BaseSeed is the first fresh seed (fresh schedules use BaseSeed,
	// BaseSeed+1, …). Default 1.
	BaseSeed int64
	// Budget, when positive, is a wall-clock cap on the sweep: no new
	// schedule starts after it expires. 0 means seeds-only.
	Budget time.Duration
	// Strategy selects uniform seed sweeping or coverage-guided
	// exploration. Default StrategyUniform.
	Strategy Strategy
	// Workers is the number of fleet workers fleet.Run shards schedules
	// across (each schedule still executes sequentially on its own
	// deterministic runtime). Default 1. It never changes which
	// schedules run: the fleet's job stream is a pure function of the
	// other fields.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 500
	}
	if o.FaultBudget == 0 {
		o.FaultBudget = 2
	}
	if o.StepTimeout == 0 {
		o.StepTimeout = 10 * time.Second
	}
	if o.FaultProb == 0 {
		o.FaultProb = 0.25
	}
	if o.Seeds == 0 {
		o.Seeds = 100
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	return o
}

// Outcome is the result of one run.
type Outcome struct {
	Status Status
	// Err holds the failed check (StatusFail) or harness error
	// (StatusError).
	Err error
	// Trace is the executed decision sequence; feeding it back through a
	// strict replay reproduces the run bit-for-bit.
	Trace *Trace
	// Steps and Faults count decisions and injected faults.
	Steps  int
	Faults int
}

// Failing is the default failure predicate: a wedge or an invariant
// violation (or a harness error). Budget runs are inconclusive, not
// failures.
func (o *Outcome) Failing() bool {
	return o.Status == StatusStuck || o.Status == StatusFail || o.Status == StatusError
}

// RunOnce executes one schedule of sc driven by p and returns its
// outcome. seed is recorded in the trace for provenance.
func RunOnce(sc Scenario, p Picker, seed int64, opts Options) *Outcome {
	opts = opts.withDefaults()
	ctl := newController()
	rt := core.NewRuntime()
	rt.SetInstrumentation(core.TeeInstrumentation(ctl, opts.Instrument))
	sim := &Sim{RT: rt}
	o := &Outcome{Trace: &Trace{Scenario: sc.Name, Seed: seed}}
	defer func() {
		// Teardown: let every parked thread run free so Shutdown can kill
		// and reap the world without waiting for grants.
		ctl.release()
		rt.Shutdown()
	}()
	sc.Setup(sim)
	budget := opts.FaultBudget
	if sim.maxFaults > 0 && sim.maxFaults < budget {
		budget = sim.maxFaults
	}

	record := func(a Action) {
		o.Trace.Actions = append(o.Trace.Actions, a)
		o.Steps++
		if a.Fault() {
			o.Faults++
		}
	}
	finish := func() *Outcome {
		for _, chk := range sim.checks {
			if err := chk(); err != nil {
				o.Status = StatusFail
				o.Err = err
				return o
			}
		}
		o.Status = StatusPass
		return o
	}

	for step := 0; ; step++ {
		if err := ctl.settle(opts.StepTimeout); err != nil {
			o.Status = StatusError
			o.Err = err
			return o
		}
		if len(sim.mustFinish) > 0 {
			done := true
			for _, th := range sim.mustFinish {
				if !th.Done() {
					done = false
					break
				}
			}
			if done {
				return finish()
			}
		}

		// Progress steps: grants to threads parked at a safe point (a
		// suspended thread is not grantable — unless killed, in which case
		// its one remaining step is the unwind), plus queued External
		// deliveries and virtual-clock advances.
		var progress []Action
		for _, th := range ctl.runnable() {
			if th.Suspended() && !th.Killed() {
				continue
			}
			progress = append(progress, Action{Kind: ActRun, Thread: th.ID()})
		}
		if rt.PendingDeliveries() > 0 {
			progress = append(progress, Action{Kind: ActDeliver})
		}
		if rt.PendingAlarms() > 0 {
			progress = append(progress, Action{Kind: ActClock})
		}

		var faults []Action
		if o.Faults < budget {
			for _, th := range sim.victims {
				if th.Done() {
					continue
				}
				if !th.Killed() && sim.faultAllowed(ActKill) {
					faults = append(faults, Action{Kind: ActKill, Thread: th.ID()})
				}
				if !th.Killed() && !th.Suspended() && sim.faultAllowed(ActSuspend) {
					faults = append(faults, Action{Kind: ActSuspend, Thread: th.ID()})
				}
				if !th.Killed() && th.Suspended() && sim.faultAllowed(ActResume) {
					faults = append(faults, Action{Kind: ActResume, Thread: th.ID()})
				}
				if !th.Killed() && sim.faultAllowed(ActBreak) {
					faults = append(faults, Action{Kind: ActBreak, Thread: th.ID()})
				}
			}
			for i, c := range sim.custodians {
				if !c.Dead() && sim.faultAllowed(ActShutdown) {
					faults = append(faults, Action{Kind: ActShutdown, Cust: i})
				}
			}
		}

		if len(progress) == 0 && len(faults) == 0 {
			if len(sim.mustFinish) == 0 {
				return finish() // quiescence is this scenario's finish line
			}
			o.Status = StatusStuck
			return o
		}
		if step >= opts.MaxSteps {
			o.Status = StatusBudget
			return o
		}

		a, err := p.Pick(step, progress, faults)
		if err != nil {
			o.Status = StatusError
			o.Err = err
			return o
		}
		switch a.Kind {
		case ActRun:
			th := ctl.thread(a.Thread)
			if th == nil {
				o.Status = StatusError
				o.Err = fmt.Errorf("explore: picked unknown thread %d", a.Thread)
				return o
			}
			if err := ctl.grant(th, opts.StepTimeout); err != nil {
				o.Status = StatusError
				o.Err = err
				return o
			}
		case ActDeliver:
			rt.DeliverNextExternal()
		case ActClock:
			rt.AdvanceToNextAlarm()
		case ActKill:
			if th := ctl.thread(a.Thread); th != nil {
				th.Kill()
			}
		case ActSuspend:
			if th := ctl.thread(a.Thread); th != nil {
				th.Suspend()
			}
		case ActResume:
			if th := ctl.thread(a.Thread); th != nil {
				core.Resume(th)
			}
		case ActBreak:
			if th := ctl.thread(a.Thread); th != nil {
				th.Break()
			}
		case ActShutdown:
			if a.Cust >= 0 && a.Cust < len(sim.custodians) {
				sim.custodians[a.Cust].Shutdown()
			}
		default:
			o.Status = StatusError
			o.Err = fmt.Errorf("explore: picked unknown action kind %d", a.Kind)
			return o
		}
		record(a)
	}
}

// Replay re-executes a recorded trace. By default the replay is
// strict: any divergence from the recorded decisions is a StatusError
// outcome. With opts.Lenient, unavailable decisions are skipped instead
// — the shrinker and flight-recorder forensics are the customers.
func Replay(sc Scenario, tr *Trace, opts Options) *Outcome {
	p := NewReplayPicker(tr)
	p.Lenient = opts.Lenient
	return RunOnce(sc, p, tr.Seed, opts)
}
