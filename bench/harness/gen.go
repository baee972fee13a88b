package harness

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Rand returns the generator for one named stream of a seeded run. Every
// random choice a workload makes — keys, Zipf draws, op mix, kill
// schedule — comes from such a stream, so a seed fixes the inputs and the
// program under test receives only what was generated.
func Rand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1)))
}

// Zipf draws ranks in [0, n) with YCSB's Zipfian generator: rank 0 is the
// hottest, theta in [0, 1) is the skew (0 is uniform).
type Zipf struct {
	n                       int
	theta                   float64
	alpha, zetan, eta, half float64
}

// NewZipf precomputes the constants for n items at skew theta.
func NewZipf(n int, theta float64) *Zipf {
	z := &Zipf{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z.zetan = zeta(n)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z
}

// Draw returns the next rank.
func (z *Zipf) Draw(r *rand.Rand) int {
	if z.theta == 0 {
		return r.Intn(z.n)
	}
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	i := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// ScheduleHash folds a generated schedule — any sequence of integers that
// describes it: due offsets, op kinds, key indexes — into one number that
// two runs can compare. It fits a float64 exactly.
type ScheduleHash struct{ h uint64 }

// NewScheduleHash starts a hash.
func NewScheduleHash() *ScheduleHash { return &ScheduleHash{h: 14695981039346656037} }

// Add folds one value in (FNV-1a over its eight bytes).
func (s *ScheduleHash) Add(v int64) {
	for i := 0; i < 8; i++ {
		s.h ^= uint64(v>>(8*i)) & 0xff
		s.h *= 1099511628211
	}
}

// Sum returns the hash reduced to 48 bits.
func (s *ScheduleHash) Sum() float64 { return float64(s.h >> 16) }
