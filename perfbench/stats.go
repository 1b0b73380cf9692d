package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs is sorted in place. NaN-free input is assumed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqMean is the interquartile mean of xs: the mean of what is left after
// dropping the lowest and highest quarter by rank; xs is sorted in place.
// It ignores a few outliers like a median but, unlike a median of
// bimodal values, moves smoothly with the share in each mode.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	cut := len(xs) / 4
	mid := xs[cut : len(xs)-cut]
	var s float64
	for _, x := range mid {
		s += x
	}
	return s / float64(len(mid))
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal column. ok is false where /proc/stat is unavailable.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (columns 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of CPU time the hypervisor stole over an
// interval, from /proc/stat deltas.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{total: t, steal: s, ok: ok}
}

// frac returns the stolen share since start, or -1 where unmeasurable.
func (m stealMeter) frac() float64 {
	t, s, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// runContext stamps a result with what makes it comparable to another:
// the source it was built from, the host and the scheduler width.
type runContext struct {
	Source     string  `json:"source"`
	Host       string  `json:"host"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	StealFrac  float64 `json:"steal_frac"`
	LateP50us  float64 `json:"gen_late_us_p50,omitempty"`
	LateP99us  float64 `json:"gen_late_us_p99,omitempty"`
	// The workload's measured properties: the share of streams replaying
	// an attacked trace, and of decided samples that alarmed or fired the
	// complementary check.
	AttackedFrac      float64 `json:"attacked_frac"`
	AlarmFrac         float64 `json:"alarm_frac"`
	ComplementaryFrac float64 `json:"complementary_frac"`
}

func newContext(root string) runContext {
	cpu := cpuModel()
	return runContext{
		Source:     sourceID(root),
		Host:       hostFingerprint(cpu),
		CPUModel:   cpu,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// sourceID names the code under test: the git commit when the tree is a
// repository, otherwise a hash of every Go source and go.mod under root.
func sourceID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		if len(ref) >= 12 && !strings.HasPrefix(ref, "ref:") {
			return "git-" + ref[:12]
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostFingerprint hashes what distinguishes one machine from another for
// timing purposes: CPU model, CPU count, memory size and kernel.
func hostFingerprint(cpu string) string {
	h := sha256.New()
	h.Write([]byte(cpu))
	h.Write([]byte(strconv.Itoa(runtime.NumCPU())))
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		first, _, _ := strings.Cut(string(b), "\n")
		h.Write([]byte(first))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
