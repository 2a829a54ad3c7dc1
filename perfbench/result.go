package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line. Its keys are fixed by the
// benchmark contract: correct, attempted, failed and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed for people, before the JSON line: sample counts,
	// the bases of ratios and the figures behind each metric.
	notes []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// units names the unit of every metric the benchmark can report; set
// refuses a name missing here, so a typo cannot invent a metric.
var units = map[string]string{
	// End to end.
	"setup_s":             "s",
	"frames_per_s":        "1/s",
	"frame_ms.p50":        "ms",
	"frame_ms.p90":        "ms",
	"heap_peak_mb":        "MB",
	"ok_ratio":            "ratio",
	"latency_ms.p50.low":  "ms",
	"latency_ms.p99.low":  "ms",
	"latency_ms.p50.high": "ms",
	"latency_ms.p99.high": "ms",
	"max_rps":             "1/s",
	// sim
	"sim.ns_per_user_frame":     "ns",
	"sim.alloc_bytes_per_frame": "B",
	"sim.allocs_per_frame":      "count",
	"runtime.gc_cycles":         "count",
	"runtime.gc_pause_ms":       "ms",
	// stream
	"stream.cpu_util": "ratio",
	"stream.speedup":  "ratio",
	// physics kernels, ns per user-frame
	"mobility.advance_ns":   "ns",
	"rng.jakes_ns":          "ns",
	"cellular.distances_ns": "ns",
	"channel.advance_ns":    "ns",
	"cellular.pilotset_ns":  "ns",
	"cellular.activeset_ns": "ns",
	"spatial.nearest_ns":    "ns",
	"vtaoc.batch_ns":        "ns",
	"sim.physics_share":     "ratio",
	"sim.other_share":       "ratio",
	// core
	"core.solves_per_frame":       "count",
	"core.requests_per_solve":     "count",
	"measurement.rows_per_region": "count",
	"core.greedy_ratio":           "ratio",
	"core.fallback_ratio":         "ratio",
	"core.solve_us.p50":           "us",
	"core.solve_us.p99":           "us",
	"core.solve_share":            "ratio",
	// serve
	"serve.handler_us.p50":   "us",
	"serve.handler_us.p99":   "us",
	"serve.decode_us.p50":    "us",
	"serve.transport_us.p50": "us",
	"serve.solve_share":      "ratio",
	"gen.late_ms.p99":        "ms",
	// tracing overhead, traced ÷ timed
	"trace.overhead.frames_per_s":        "ratio",
	"trace.overhead.latency_ms.p50.low":  "ratio",
	"trace.overhead.latency_ms.p50.high": "ratio",
}

func (r *result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " has no unit")
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	switch {
	case math.IsInf(v, 1):
		v = math.MaxFloat32 // a failed request's latency; JSON has no infinity
	case math.IsNaN(v):
		r.note("%s could not be measured (no samples); reported as -1", name)
		v = -1
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// print writes every metric by name and unit, sorted, then the contract's
// JSON line last.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// stamp identifies where and on what a result was measured. Results are
// comparable only when every field but Commit matches: the commit is what a
// before/after comparison varies, everything else is the machine.
type stamp struct {
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func newStamp(workload string, seconds, trace int) stamp {
	return stamp{
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
}

// sameMachine reports why two stamps are not comparable, or "" when they
// are.
func (s stamp) sameMachine(o stamp) string {
	a, b := s, o
	a.Commit, b.Commit = "", ""
	if a == b {
		return ""
	}
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return fmt.Sprintf("stamps differ: %s vs %s", x, y)
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

// commit names the measured code: a hash of the simulator's Go sources and
// go.mod, which a checkout without version control has too, preceded by
// the VCS revision when the binary was built inside a git checkout.
func commit() string {
	tree := treeHash()
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			return rev + "+dirty " + tree
		}
		if rev != "" {
			return rev + " " + tree
		}
	}
	return tree
}

// treeHash hashes the Go sources and go.mod files of the repository the
// benchmark is run from, skipping this directory and test data.
func treeHash() string {
	h := sha256.New()
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("internal"); err == nil {
			root = "."
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "perfbench" || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
