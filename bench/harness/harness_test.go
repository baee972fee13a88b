package harness

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistQuantileError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h Hist
	vals := make([]float64, 200_000)
	for i := range vals {
		// Log-normal around 30 µs with a long tail, like a served request.
		v := math.Exp(r.NormFloat64()*0.8 + math.Log(30_000))
		vals[i] = v
		h.Add(int64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		if e := math.Abs(got-exact) / exact; e > 0.05 {
			t.Errorf("q%.3f: hist %.0f, exact %.0f, error %.1f%% > 5%%", q, got, exact, 100*e)
		}
	}
	if h.Count() != int64(len(vals)) {
		t.Errorf("count %d, want %d", h.Count(), len(vals))
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo, hi := histLower(i), histLower(i+1)
		if hi <= lo {
			t.Fatalf("bucket %d: [%d, %d) is empty", i, lo, hi)
		}
		if histBucket(lo) != i || histBucket(hi-1) != i {
			t.Fatalf("bucket %d: bounds [%d, %d) map to %d and %d", i, lo, hi, histBucket(lo), histBucket(hi-1))
		}
		if lo >= histExact && float64(hi-lo)/float64(lo) > 1.0/histSub+1e-9 {
			t.Fatalf("bucket %d: width %d over lower bound %d is more than 1/%d", i, hi-lo, lo, histSub)
		}
	}
}

// fakeClock is a virtual clock the pacer can be driven with: SleepUntil
// jumps straight to the deadline.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64          { return c.now }
func (c *fakeClock) SleepUntil(ns int64) { c.now = ns }

// The schedule must not depend on how long the system takes to answer (or
// even to accept a send): with a slow send the intended times stay put,
// every operation is still issued, and the delay shows up as lateness —
// no coordinated omission.
func TestOpenLoopScheduleIgnoresServiceTime(t *testing.T) {
	const n, rate = 1000, 10_000.0 // one op every 100 µs
	run := func(sendCost int64) (intended []int64, late *Hist) {
		c := &fakeClock{}
		due := FixedRate(0, rate, n)
		late, sent := Pace(c, due, func(i int, d int64) {
			intended = append(intended, d)
			c.now += sendCost // the send itself blocks this long
		}, nil)
		if sent != n {
			t.Fatalf("sent %d of %d", sent, n)
		}
		return intended, late
	}
	fast, fastLate := run(1_000)   // 1 µs per send: always on time
	slow, slowLate := run(250_000) // 250 µs per send: falls behind at once
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("op %d: intended time moved from %d to %d with a slower system", i, fast[i], slow[i])
		}
	}
	if got := fastLate.Quantile(0.99); got > 1 {
		t.Errorf("on-time generator reports lateness p99 %.0f ns", got)
	}
	// The slow run is 150 µs further behind after every op; by the middle
	// it is about 500 × 150 µs late, and the generator says so.
	if got, want := slowLate.Quantile(0.5), 500*150_000.0; math.Abs(got-want)/want > 0.05 {
		t.Errorf("lateness p50 %.0f ns, want about %.0f", got, want)
	}
	if slowLate.Count() != n {
		t.Errorf("lateness samples %d, want %d", slowLate.Count(), n)
	}
}

func TestPaceStops(t *testing.T) {
	c := &fakeClock{}
	sent := 0
	_, n := Pace(c, FixedRate(0, 1000, 100), func(int, int64) { sent++ }, func() bool { return sent == 10 })
	if n != 10 || sent != 10 {
		t.Errorf("stopped after %d sends (reported %d), want 10", sent, n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	b := NewSpanBuf(16, "client", "servlet", "kvclient")
	// Op 1: the client span 0..100 has two overlapping children and one
	// that runs past its end; the servlet 10..50 has one child of its own.
	b.Add(0, 1, 0, 100)
	b.Add(1, 1, 10, 50)
	b.Add(2, 1, 20, 40)
	// Op 2: no children at all.
	b.Add(0, 2, 200, 260)
	b.Link(map[string]string{"servlet": "client", "kvclient": "servlet"})
	spans := b.Spans()
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[0].Parent != -1 || spans[3].Parent != -1 {
		t.Fatalf("parents: %+v", spans)
	}
	agg := b.Aggregate()
	if a := agg["client"]; a.Count != 2 || a.MeanNs != 80 || a.SelfNs != 60 { // (100-40 + 60) / 2
		t.Errorf("client: %+v", a)
	}
	if a := agg["servlet"]; a.Count != 1 || a.MeanNs != 40 || a.SelfNs != 20 {
		t.Errorf("servlet: %+v", a)
	}
	if a := agg["kvclient"]; a.SelfNs != 20 {
		t.Errorf("kvclient: %+v", a)
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 100},  // parent
		{Start: 10, End: 30},  // child
		{Start: 20, End: 50},  // overlaps the first
		{Start: 90, End: 120}, // runs past the parent's end
		{Start: 25, End: 28},  // inside what is already covered
	}
	if got := covered(spans, spans[0], []int32{1, 2, 3, 4}); got != 50 {
		t.Errorf("covered %d, want 50 (10..50 and 90..100)", got)
	}
}

func TestSpanBufDropsWhenFull(t *testing.T) {
	b := NewSpanBuf(2, "x")
	for i := 0; i < 5; i++ {
		b.Add(0, uint64(i), 0, 1)
	}
	if len(b.Spans()) != 2 || b.Dropped() != 3 {
		t.Errorf("%d spans, %d dropped; want 2 and 3", len(b.Spans()), b.Dropped())
	}
}

func TestMedianOfSlices(t *testing.T) {
	w := NewWindow(5 * time.Second)
	if w.Slices() != 5 || w.SliceSeconds() != 1 {
		t.Fatalf("5 s window: %d slices of %v s", w.Slices(), w.SliceSeconds())
	}
	start, end := w.Open()
	a, b := NewRecorder(w), NewRecorder(w)
	// Four ordinary seconds and one in which a noisy neighbour let almost
	// nothing through, at ten times the latency.
	perSlice := []int{100, 100, 3, 100, 100}
	for s, n := range perSlice {
		lat := int64(20_000)
		if n < 50 {
			lat = 200_000
		}
		for i := 0; i < n; i++ {
			at := start + int64(s)*1e9 + int64(i)*1e6
			rec := a
			if i%2 == 1 {
				rec = b
			}
			rec.Good(at, lat, 1)
		}
	}
	a.Good(start-1, 1, 1) // before the window: ignored
	a.Good(end, 1, 1)     // at its end: ignored
	a.Fail(start + 5)
	b.Kill(start + 6)
	b.Fail(end + 1) // outside: ignored
	sum := Summarize(w, a, b)
	if sum.Good != 403 || sum.Failed != 1 || sum.Killed != 1 {
		t.Errorf("good %d failed %d killed %d", sum.Good, sum.Failed, sum.Killed)
	}
	if sum.GoodputOpsS != 100 {
		t.Errorf("goodput %.1f, want the median slice's 100 (the mean would be 80.6)", sum.GoodputOpsS)
	}
	if math.Abs(sum.P50us-20)/20 > 0.05 || math.Abs(sum.P99us-20)/20 > 0.05 {
		t.Errorf("p50 %.2f p99 %.2f us, want about 20: the slow second must not move the median of slices", sum.P50us, sum.P99us)
	}
}

func TestShortWindowHasThreeSlices(t *testing.T) {
	w := NewWindow(300 * time.Millisecond)
	if w.Slices() != 3 || math.Abs(w.SliceSeconds()-0.1) > 1e-9 {
		t.Errorf("%d slices of %v s", w.Slices(), w.SliceSeconds())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = Quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three: %v %v %v", q1, q2, q3)
	}
	if s := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSeededStreams(t *testing.T) {
	draw := func(seed int64, stream string) (out [8]int) {
		r := Rand(seed, stream)
		z := NewZipf(1024, 0.9)
		for i := range out {
			out[i] = z.Draw(r)
		}
		return out
	}
	if draw(1, "a") != draw(1, "a") {
		t.Error("same seed and stream gave different draws")
	}
	if draw(1, "a") == draw(2, "a") || draw(1, "a") == draw(1, "b") {
		t.Error("different seed or stream gave the same draws")
	}
	hash := func(vs ...int64) float64 {
		h := NewScheduleHash()
		for _, v := range vs {
			h.Add(v)
		}
		return h.Sum()
	}
	if hash(1, 2, 3) != hash(1, 2, 3) || hash(1, 2, 3) == hash(1, 3, 2) {
		t.Error("schedule hash is not a function of the sequence")
	}
	if s := hash(1, 2, 3); s != math.Trunc(s) || s >= 1<<48 {
		t.Errorf("schedule hash %v does not fit a float64 exactly", s)
	}
}

func TestZipfSkew(t *testing.T) {
	r := Rand(3, "zipf")
	z := NewZipf(1024, 0.9)
	hot := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if k := z.Draw(r); k < 0 || k >= 1024 {
			t.Fatalf("rank %d out of range", k)
		} else if k < 10 {
			hot++
		}
	}
	// At theta 0.9 the ten hottest of 1,024 keys draw about a third.
	if share := float64(hot) / n; share < 0.25 || share > 0.45 {
		t.Errorf("hottest 10 keys drew %.2f of the load", share)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{
		{Name: "lat", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "tput", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "noisy", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(lat, tput, noisy []float64) *File {
		f := &File{Schema: Schema}
		for i := range lat {
			f.Runs = append(f.Runs, Run{Workload: "w", EndToEnd: map[string]Metric{
				"lat": {lat[i], "us"}, "tput": {tput[i], "ops/s"}, "noisy": {noisy[i], "us"},
			}})
		}
		return f
	}
	a := file([]float64{100, 101, 99}, []float64{1000, 1010, 990}, []float64{50, 100, 150})
	b := file([]float64{120, 121, 119}, []float64{1050, 1060, 1040}, []float64{55, 100, 150})
	got := map[string]string{}
	for _, r := range Compare(a, b, spec) {
		got[r.Metric] = r.Verdict
	}
	want := map[string]string{"lat": VerdictWorse, "tput": VerdictOK, "noisy": VerdictUnresolved}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %q, want %q", m, got[m], v)
		}
	}
}
