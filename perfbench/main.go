// Command perfbench is the repository's benchmark. It drives the simulator
// and the admission-oracle service from outside, through their public entry
// points only, on two workloads (metro, city), checks every output
// for correctness, and prints each metric by name and unit with the
// benchmark contract's JSON line last. See README.md for the workloads, the
// metrics and the map from per-layer to end-to-end metrics.
//
//	perfbench --workload metro --seed 1 --seconds 30 --trace 0
//	perfbench compare base.json change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// workloads are the benchmark's workloads, in the order README.md
// documents them.
var workloads = []string{"metro", "city"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	spans    string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "metro", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	fs.StringVar(&o.out, "out", "", "also write the stamped result to this JSON file, for perfbench compare")
	fs.StringVar(&o.spans, "spans", "", "traced run: span file (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}

	var res result
	var err error
	steal0, total0 := hostSteal()
	switch {
	case !slices.Contains(workloads, o.workload):
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.trace == 1:
		res, err = traced(o)
	default:
		res, err = timedSim(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		res.note("host CPU steal during the run: %.1f%% of CPU time (a busy host slows every figure)", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	st := newStamp(o.workload, o.seconds, o.trace)
	sb, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", sb)
	if o.out != "" {
		if err := writeStamped(o.out, st, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %d of %d attempted failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// finish fills the contract fields from the tally.
func (r *result) finish(t tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
}

// hostSteal returns the steal and total CPU time of the machine so far, in
// clock ticks, from the first line of /proc/stat: the time a virtual
// machine's CPUs were runnable but the host ran something else. Zero when
// it cannot be read.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// heapInUse is the heap memory occupied by live and not yet swept objects.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

type stamped struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func writeStamped(path string, st stamp, res result) error {
	b, err := json.MarshalIndent(stamped{st, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints each metric of two stamped results as new ÷ base, and
// refuses results measured on different machines or settings.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare BASE.json NEW.json")
	}
	var rs [2]stamped
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if why := rs[0].Stamp.sameMachine(rs[1].Stamp); why != "" {
		return fmt.Errorf("refusing to compare: %s", why)
	}
	fmt.Printf("base %s\nnew  %s\n", rs[0].Stamp.Commit, rs[1].Stamp.Commit)
	names := make([]string, 0, len(rs[0].Result.Metrics))
	for n := range rs[0].Result.Metrics {
		if _, ok := rs[1].Result.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := rs[0].Result.Metrics[n], rs[1].Result.Metrics[n]
		ratio := math.NaN()
		if a.Value != 0 {
			ratio = b.Value / a.Value
		}
		fmt.Printf("%-36s base %12.6g  new %12.6g %-6s  new/base %.4f\n", n, a.Value, b.Value, a.Unit, ratio)
	}
	return nil
}
