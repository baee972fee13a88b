package explore

import (
	"math/rand"
	"time"
)

// Strategy selects how the explorer generates schedules.
type Strategy int

const (
	// StrategyUniform is the classic sweep: one seeded-random schedule
	// per seed, seeds BaseSeed, BaseSeed+1, …
	StrategyUniform Strategy = iota
	// StrategyCoverage is coverage-guided: fresh schedules cycle
	// through preemption-bound tiers (low-preemption first), every
	// run's footprint feeds a coverage map, and prefixes of
	// novelty-yielding runs are mutated before more fresh seeds are
	// spent.
	StrategyCoverage
)

func (s Strategy) String() string {
	switch s {
	case StrategyUniform:
		return "uniform"
	case StrategyCoverage:
		return "coverage"
	}
	return "strategy(?)"
}

// ParseStrategy parses a -strategy flag value.
func ParseStrategy(s string) (Strategy, bool) {
	switch s {
	case "uniform", "":
		return StrategyUniform, true
	case "coverage":
		return StrategyCoverage, true
	}
	return 0, false
}

// coverageTiers is the preemption-bound schedule for fresh
// coverage-strategy jobs: mostly shallow, occasionally unbounded (-1)
// so the deep tail of the schedule space never starves entirely.
var coverageTiers = []int{0, 1, 1, 2, 2, 3, 3, 4, 6, -1}

// Driver generates exploration jobs and digests their results. It owns
// the coverage map and the mutation frontier; it is the deterministic
// heart of the fleet's sweep.
// Feed results back in job-ID order (Observe) and the same options
// produce the same job stream on every run, whatever executed them.
// Not safe for concurrent use.
type Driver struct {
	opts     Options
	cov      CoverageMap
	frontier Frontier
	rng      *rand.Rand
	start    time.Time
	issued   int64
	fresh    int64 // fresh (non-mutation) jobs issued
	stopped  bool
}

// NewDriver returns a driver for opts (defaults applied). The budget
// clock starts now.
func NewDriver(opts Options) *Driver {
	opts = opts.withDefaults()
	return &Driver{
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.BaseSeed ^ 0x5eedf1ee7)),
		start: time.Now(),
	}
}

// Next returns the next job, or ok=false when the run is over: the
// seed budget is spent, the time budget expired, or Stop was called.
func (d *Driver) Next() (Job, bool) {
	if d.stopped || d.issued >= int64(d.opts.Seeds) {
		return Job{}, false
	}
	if d.opts.Budget > 0 && time.Since(d.start) >= d.opts.Budget {
		return Job{}, false
	}
	j := Job{ID: d.issued, Bound: -1}
	d.issued++
	if d.opts.Strategy != StrategyCoverage {
		j.Seed = d.opts.BaseSeed + int64(d.fresh)
		d.fresh++
		return j, true
	}
	// Coverage: seven mutation jobs for every fresh seed, while the
	// frontier has material — guided placement is where the novelty
	// is; fresh seeds only have to keep feeding the frontier new
	// basins.
	if j.ID%8 != 0 {
		if prefix, srcLen, ok := d.frontier.Pop(); ok {
			j.Prefix = prefix
			j.SrcLen = srcLen
			j.Seed = d.rng.Int63()
			return j, true
		}
	}
	j.Seed = d.opts.BaseSeed + int64(d.fresh)
	j.Bound = coverageTiers[int(d.fresh)%len(coverageTiers)]
	d.fresh++
	return j, true
}

// Observe digests one result (call in job-ID order for reproducible
// runs) and reports whether its schedule footprint was novel. Novel
// traces seed the mutation frontier.
func (d *Driver) Observe(res JobResult) bool {
	if res.Trace == nil {
		return false
	}
	novel := d.cov.Add(Footprint(res.Trace))
	if novel && d.opts.Strategy == StrategyCoverage {
		for _, p := range mutationPrefixes(res.Trace) {
			d.frontier.Push(p, len(res.Trace.Actions))
		}
	}
	return novel
}

// Stop ends job generation; Next returns false from now on.
func (d *Driver) Stop() { d.stopped = true }

// Distinct reports the number of distinct schedule footprints observed.
func (d *Driver) Distinct() int { return d.cov.Distinct() }

// FrontierLen reports the number of queued mutation prefixes.
func (d *Driver) FrontierLen() int { return d.frontier.Len() }

// Elapsed reports time since the driver started.
func (d *Driver) Elapsed() time.Duration { return time.Since(d.start) }

// Issued reports how many jobs have been generated.
func (d *Driver) Issued() int64 { return d.issued }
