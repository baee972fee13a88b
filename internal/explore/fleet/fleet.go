// Package fleet runs the explorer at scale: a driver process shards
// schedule jobs across worker processes (or in-process protocol workers)
// and digests their results through the coverage-guided Driver; it is
// the explorer's one sweep loop. Each worker executes whole schedules on
// its own deterministic runtime; the pipe protocol ships jobs out and
// traces back. The driver observes results strictly in job-ID order and
// generates job k only once result k-window has been observed, so the
// job stream — and with it the findings — is a pure function of the
// Options, regardless of worker count or scheduling jitter.
//
// Failing outcomes are handled driver-side: the trace is shrunk, the
// shrunk trace is hashed for dedup (one finding per distinct minimal
// schedule, not per seed that stumbled into it), and — when a pin
// directory is configured — written out with a ready-to-run repro
// command line.
package fleet

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/explore"
)

// Config shapes a fleet run beyond the exploration Options.
type Config struct {
	// WorkerCommand is the argv to exec for each worker process (the
	// binary must speak the fleet protocol on stdin/stdout — `explore
	// worker` does). Nil runs workers in-process over pipes instead;
	// the protocol is exercised either way.
	WorkerCommand []string
	// PinDir, when non-empty, is where shrunk failing traces are
	// written as `<scenario>-<hash>.trace`.
	PinDir string
	// MaxFindings caps distinct findings before the run stops early.
	// Default 1 — stop at the first failure, like a plain sweep.
	MaxFindings int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Finding is one distinct failure: a shrunk, deduplicated failing trace.
type Finding struct {
	Status explore.Status
	Err    string
	// Seed is the seed of the job that first hit this failure.
	Seed int64
	// Trace is the shrunk trace; Hash identifies it for dedup.
	Trace *explore.Trace
	Hash  uint64
	// ShrunkFrom counts the decisions in the original failing trace.
	ShrunkFrom int
	// Path and Repro are set when the finding was pinned: the trace
	// file and the command line that replays it.
	Path  string
	Repro string
}

// Report aggregates a fleet run.
type Report struct {
	Scenario  string
	Workers   int
	Schedules int
	Steps     int
	Faults    int
	Outcomes  map[explore.Status]int
	// Distinct counts distinct schedule footprints — what a strategy's
	// budget actually bought.
	Distinct int
	Elapsed  time.Duration
	Findings []Finding
}

// jobWindow is how far job generation may run ahead of observation. It
// is a fixed constant — not a function of worker count — so the
// coverage driver sees the same observation/generation interleaving,
// and therefore emits the same job stream, however many workers execute
// it.
const jobWindow = 16

// Run explores sc per opts across a fleet of workers. It returns the
// report and a non-nil error only for harness-level failures (a worker
// that died mid-job, an unwritable pin); findings are data, not errors.
func Run(sc explore.Scenario, opts explore.Options, cfg Config) (*Report, error) {
	if cfg.MaxFindings <= 0 {
		cfg.MaxFindings = 1
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	d := explore.NewDriver(opts)
	rep := &Report{Scenario: sc.Name, Outcomes: make(map[explore.Status]int)}

	workers := 1
	if opts.Workers > 1 {
		workers = opts.Workers
	}
	rep.Workers = workers
	hello := helloFor(sc.Name, opts)
	events := make(chan event, workers*4)
	conns := make([]*workerConn, workers)
	alive := make([]bool, workers)
	load := make([]int, workers)
	inflight := make(map[int64]int) // job ID → worker index
	for i := 0; i < workers; i++ {
		var err error
		if len(cfg.WorkerCommand) > 0 {
			conns[i], err = startProcWorker(i, cfg.WorkerCommand, hello, events)
		} else {
			conns[i], err = startInprocWorker(i, sc, hello, events)
		}
		if err != nil {
			for j := 0; j < i; j++ {
				conns[j].closeInput()
			}
			return rep, err
		}
		alive[i] = true
	}
	defer func() {
		for i, wc := range conns {
			if wc != nil {
				wc.closeInput()
				if alive[i] {
					_ = wc.wait()
				}
			}
		}
	}()

	// maxLoad keeps each worker one job ahead so the pipe round-trip
	// hides behind schedule execution.
	const maxLoad = 2

	seen := make(map[uint64]bool) // shrunk-trace hashes already recorded
	pending := make(map[int64]explore.JobResult)
	var queue []explore.Job // generated, not yet sent
	var nextObs int64
	var runErr error

	observe := func(res explore.JobResult) {
		d.Observe(res)
		rep.Schedules++
		rep.Steps += res.Steps
		rep.Faults += res.Faults
		rep.Outcomes[res.Status]++
		if !res.Failing() || res.Trace == nil || len(rep.Findings) >= cfg.MaxFindings {
			return
		}
		logf("job %d (seed %d): %s — shrinking %d decisions",
			res.ID, res.Trace.Seed, res.Status, len(res.Trace.Actions))
		f, err := digestFailure(sc, res, opts, cfg, seen)
		if err != nil && runErr == nil {
			runErr = err
		}
		if f == nil {
			return
		}
		rep.Findings = append(rep.Findings, *f)
		logf("finding %d: %s, %d decisions (hash %016x)%s",
			len(rep.Findings), f.Status, len(f.Trace.Actions), f.Hash, pinNote(f))
		if len(rep.Findings) >= cfg.MaxFindings {
			d.Stop()
		}
	}

	// generate tops the queue up to the window; dispatch drains it onto
	// whichever live workers have capacity. Generation timing is
	// deterministic (window over the observation counter); send timing
	// is not, and does not need to be.
	generate := func() {
		for d.Issued()-nextObs < jobWindow {
			j, ok := d.Next()
			if !ok {
				return
			}
			queue = append(queue, j)
		}
	}
	dispatch := func() {
		for len(queue) > 0 {
			idx := -1
			for i := range conns {
				if alive[i] && load[i] < maxLoad && (idx < 0 || load[i] < load[idx]) {
					idx = i
				}
			}
			if idx < 0 {
				return
			}
			j := queue[0]
			queue = queue[1:]
			if err := conns[idx].send(jobMsgFor(j)); err != nil {
				// The pump will report the death; the job is lost, and a
				// synthesized error result keeps the observation stream
				// gap-free for the IDs behind it.
				alive[idx] = false
				if runErr == nil {
					runErr = fmt.Errorf("fleet: send to worker %d: %w", idx, err)
				}
				pending[j.ID] = explore.JobResult{ID: j.ID, Status: explore.StatusError, Err: "worker died"}
				continue
			}
			inflight[j.ID] = idx
			load[idx]++
		}
	}

	anyAlive := func() bool {
		for _, a := range alive {
			if a {
				return true
			}
		}
		return false
	}

	generate()
	dispatch()
	for {
		if _, ok := pending[nextObs]; !ok && len(inflight) == 0 && (len(queue) == 0 || !anyAlive()) {
			break
		}
		if len(inflight) > 0 {
			ev := <-events
			if ev.closed {
				if alive[ev.worker] {
					alive[ev.worker] = false
					err := conns[ev.worker].wait()
					if ev.err == nil {
						ev.err = err
					}
					for id, w := range inflight {
						if w == ev.worker {
							delete(inflight, id)
							pending[id] = explore.JobResult{ID: id, Status: explore.StatusError, Err: "worker died"}
						}
					}
					if ev.err != nil && runErr == nil {
						runErr = fmt.Errorf("fleet: worker %d: %w", ev.worker, ev.err)
					}
				}
			} else {
				res, err := ev.res.result()
				if err != nil {
					res = explore.JobResult{ID: ev.res.ID, Status: explore.StatusError, Err: err.Error()}
					if runErr == nil {
						runErr = err
					}
				}
				if w, ok := inflight[res.ID]; ok {
					delete(inflight, res.ID)
					load[w]--
				}
				pending[res.ID] = res
			}
		}
		for {
			res, ok := pending[nextObs]
			if !ok {
				break
			}
			delete(pending, nextObs)
			nextObs++
			observe(res)
			// Top generation up after every observation — not once per
			// event batch — so the issued-job count at any observation
			// point (including an early stop) is a pure function of the
			// observation stream, not of how results happened to batch.
			generate()
		}
		dispatch()
	}

	rep.Distinct = d.Distinct()
	rep.Elapsed = d.Elapsed()
	return rep, runErr
}

// digestFailure shrinks a failing result, dedups it against seen, and
// pins it when configured. Returns nil when the failure is a duplicate
// of an already-recorded finding.
func digestFailure(sc explore.Scenario, res explore.JobResult, opts explore.Options, cfg Config, seen map[uint64]bool) (*Finding, error) {
	shrunk, _ := explore.Shrink(sc, res.Trace, opts, nil)
	h := fnv.New64a()
	io.WriteString(h, sc.Name)
	io.WriteString(h, "\n")
	io.WriteString(h, explore.EncodeActions(shrunk.Actions))
	hash := h.Sum64()
	if seen[hash] {
		return nil, nil
	}
	seen[hash] = true

	// Re-verify the shrunk trace strictly: its actions are exactly what
	// the final lenient replay executed, so a strict replay must land on
	// the same failure — and its status is what the pinned repro gates on.
	verify := explore.Replay(sc, shrunk, opts)
	f := &Finding{
		Status:     verify.Status,
		Seed:       res.Trace.Seed,
		Trace:      shrunk,
		Hash:       hash,
		ShrunkFrom: len(res.Trace.Actions),
	}
	if verify.Err != nil {
		f.Err = verify.Err.Error()
	} else {
		f.Err = res.Err
	}
	if !verify.Failing() {
		// Should not happen (Shrink keeps executed traces); record the
		// original failure rather than a bogus pass.
		f.Status = res.Status
		f.Err = res.Err
	}
	if cfg.PinDir != "" {
		f.Path = filepath.Join(cfg.PinDir, fmt.Sprintf("%s-%016x.trace", sc.Name, hash))
		if err := shrunk.WriteFile(f.Path); err != nil {
			return f, fmt.Errorf("fleet: pin finding: %w", err)
		}
		f.Repro = fmt.Sprintf("go run ./cmd/explore replay -trace %s -expect %s", f.Path, f.Status)
	}
	return f, nil
}

func pinNote(f *Finding) string {
	if f.Path == "" {
		return ""
	}
	return " pinned to " + f.Path
}

// Summary renders the report as the explore CLI prints it.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s: %d schedules, %d decisions, %d faults, %d distinct interleavings in %v (%d workers)\n",
		r.Scenario, r.Schedules, r.Steps, r.Faults, r.Distinct, r.Elapsed.Round(time.Millisecond), r.Workers)
	statuses := make([]explore.Status, 0, len(r.Outcomes))
	for st := range r.Outcomes {
		statuses = append(statuses, st)
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i] < statuses[j] })
	for _, st := range statuses {
		fmt.Fprintf(&sb, "  %-7s %d\n", st, r.Outcomes[st])
	}
	for i, f := range r.Findings {
		fmt.Fprintf(&sb, "finding %d: %s (seed %d, %d -> %d decisions, hash %016x)\n",
			i+1, f.Status, f.Seed, f.ShrunkFrom, len(f.Trace.Actions), f.Hash)
		if f.Err != "" {
			fmt.Fprintf(&sb, "  %s\n", f.Err)
		}
		if f.Repro != "" {
			fmt.Fprintf(&sb, "  repro: %s\n", f.Repro)
		}
	}
	return sb.String()
}
