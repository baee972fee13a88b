package harness

import "sort"

// Median returns the median of vs (0 for none).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the "exclusive" method), so a
// spread computed here matches the one the acceptance check computes.
// With fewer than two values all three are the single value (or 0).
func Quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func Spread(vs []float64) float64 {
	q1, q2, q3 := Quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
