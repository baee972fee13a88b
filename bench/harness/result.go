package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the one-line result a single workload run prints last on its
// standard output.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run is one workload run in a result file: the untraced end-to-end
// metrics merged with the traced run's per-layer metrics.
type Run struct {
	Workload         string            `json:"workload"`
	Seed             int64             `json:"seed"`
	Correct          bool              `json:"correct"`
	Attempted        int64             `json:"attempted"`
	Failed           int64             `json:"failed"`
	KilledExpected   int64             `json:"killed_expected"`
	OracleViolations int64             `json:"oracle_violations"`
	NoisyHost        bool              `json:"noisy_host"`
	GeneratorLimited bool              `json:"generator_limited"`
	EndToEnd         map[string]Metric `json:"end_to_end"`
	PerLayer         map[string]Metric `json:"per_layer"`
	Notes            []string          `json:"notes,omitempty"`
}

// File is a killbench result file.
type File struct {
	Schema string `json:"schema"`
	Env    Env    `json:"env"`
	Runs   []Run  `json:"runs"`
}

// Schema names the result-file layout.
const Schema = "killbench/1"

// Save writes the file as indented JSON.
func (f *File) Save(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadFile reads a result file.
func LoadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	return &f, nil
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric declaration; Bound is absent on per-layer ones.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdict of one (workload, metric) comparison.
const (
	VerdictOK         = "ok"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Row is one line of a comparison: the two sides' medians and quartiles,
// B's change against A in the metric's bad direction as a share of A's
// median, and the verdict against the metric's bound.
type Row struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // q1, median, q3
	NA, NB                 int
	WorseBy, Spread, Bound float64
	Verdict                string
}

// Compare judges every end-to-end metric of every workload of b against a.
// A metric is "worse" when B's median is worse than A's by more than the
// bound, "unresolved" when either side's own spread (interquartile range
// over median) is wider than the bound so a change of that size could not
// be told from noise, and "ok" otherwise.
func Compare(a, b *File, spec *Spec) []Row {
	values := func(f *File) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.EndToEnd {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := values(a), values(b)
	var rows []Row
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := va[wl.Name][m.Name], vb[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := Row{Workload: wl.Name, Metric: m.Name, Unit: m.Unit, NA: len(xa), NB: len(xb), Bound: m.Bound}
			r.A[0], r.A[1], r.A[2] = Quartiles(xa)
			r.B[0], r.B[1], r.B[2] = Quartiles(xb)
			if r.A[1] != 0 {
				r.WorseBy = (r.B[1] - r.A[1]) / r.A[1]
				if m.Better == "higher" {
					r.WorseBy = -r.WorseBy
				}
			}
			r.Spread = Spread(xa)
			if s := Spread(xb); s > r.Spread {
				r.Spread = s
			}
			switch {
			case r.WorseBy > m.Bound:
				r.Verdict = VerdictWorse
			case r.Spread > m.Bound && m.Name != "setup_s":
				r.Verdict = VerdictUnresolved
			default:
				r.Verdict = VerdictOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// FormatRows renders a comparison as an aligned table, one row per
// (workload, metric).
func FormatRows(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-20s %-6s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "unit", "A median", "B median", "worse by", "spread", "bound", "verdict")
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %-20s %-6s %14.4f %14.4f %+8.1f%% %7.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.A[1], r.B[1], 100*r.WorseBy, 100*r.Spread, 100*r.Bound, r.Verdict)
	}
	return sb.String()
}
