package harness

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Env is the environment stamp every result carries, so two numbers are
// only ever compared knowing what produced them.
type Env struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
}

// Stamp collects the environment. root is the checkout; the commit is
// "unknown" when it is not a git work tree (git is only asked when
// root/.git exists, so nothing above the checkout is ever searched).
func Stamp(root string, seed int64) Env {
	e := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		LoadAvg1:   loadAvg1(),
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// HostCPU is the host's aggregate CPU accounting from /proc/stat, in clock
// ticks: what a virtual machine's neighbours took from it shows as steal.
type HostCPU struct{ Total, Steal int64 }

// ReadHostCPU reads the first line of /proc/stat (zero if there is none).
func ReadHostCPU() HostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return HostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return HostCPU{}
	}
	var h HostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			h.Total += v
		}
		if i == 7 {
			h.Steal = v
		}
	}
	return h
}

// StealShareSince is the share of all CPU time since the earlier snapshot
// that was stolen.
func (h HostCPU) StealShareSince(earlier HostCPU) float64 {
	if d := h.Total - earlier.Total; d > 0 {
		return float64(h.Steal-earlier.Steal) / float64(d)
	}
	return 0
}

// Proc is a snapshot of the process-wide counters the per-op costs are
// differences of.
type Proc struct {
	CPUus      float64 // user + system
	CtxSw      int64   // voluntary + involuntary context switches
	MaxRSSMB   float64
	Mallocs    uint64
	GCCycles   uint32
	GCPauseMs  float64
	HeapInuse  uint64
	Goroutines int
}

// ReadProc snapshots the process (it stops the world briefly for
// MemStats, so call it at window edges only).
func ReadProc() Proc {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return Proc{
		CPUus:      tv(ru.Utime) + tv(ru.Stime),
		CtxSw:      ru.Nvcsw + ru.Nivcsw,
		MaxRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
		Mallocs:    ms.Mallocs,
		GCCycles:   ms.NumGC,
		GCPauseMs:  float64(ms.PauseTotalNs) / 1e6,
		HeapInuse:  ms.HeapInuse,
		Goroutines: runtime.NumGoroutine(),
	}
}
