package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"jabasd/internal/cellular"
	"jabasd/internal/sim"
)

// defaultSeed is the seed the recorded digests below belong to. Claims
// made with it must also hold on the held-out seed 7 (see README.md).
const defaultSeed uint64 = 1

// digests pins, for the default seed, the fingerprint of each simulation
// workload's metrics (see fingerprint) and the SHA-256 of its solve trace.
// A change that alters a simulated outcome fails the gate here
// even if it is internally consistent.
var digests = map[string]struct{ metrics, trace string }{
	"metro": {
		metrics: "86a8aa7229658122ca08d0d1baee027d1ad7303abd28a298fafeafeffc67c53a",
		trace:   "fe450e22ad7ddd428a8b8293d5ea66394a92da2479844311cd3b22f488a7c33e",
	},
	"city": {
		metrics: "6777aaca2f2ab8d06a756e32063b95e38f065844facd918d9b5ccaf320d14eb1",
		trace:   "35ebd4da347f535726c808e05fc8c79543e79e58e5c12d11616b562093688ea8",
	},
}

// scenarioSeeds are the scenario seeds one timed run measures: the workload
// seed, then seeds derived from it. One metro scenario's frame cost depends
// on its seed by several percent, so metro averages four scenarios. A city
// scenario already averages 102,700 users.
func scenarioSeeds(workload string, seed uint64) []uint64 {
	k := 4
	if workload == "city" {
		k = 1
	}
	out := make([]uint64, k)
	for i := range out {
		out[i] = seed + uint64(i)*0x9E3779B97F4A7C15 // golden-ratio stride, wrapping
	}
	return out
}

// gate holds the correctness checks every run of one workload must pass.
type gate struct {
	want  map[uint64]string // per scenario seed, the fingerprint every run must reproduce
	t     tally
	errs  []string
	notes []string
}

// check counts one simulation run of scenario seed s: it must pass
// checkMetrics and reproduce the reference fingerprint.
func (g *gate) check(what string, s uint64, r simRun) {
	err := checkMetrics(r.metrics)
	if err == nil && r.print != g.want[s] {
		err = fmt.Errorf("metrics fingerprint %.12s differs from the reference %.12s", r.print, g.want[s])
	}
	g.record(what, err)
}

func (g *gate) record(what string, err error) {
	g.t.add(err == nil)
	if err != nil && len(g.errs) < 5 {
		g.errs = append(g.errs, what+": "+err.Error())
	}
}

// references runs the workload's simulation once per scenario seed with
// the solve trace on. Each run is the reference later runs of its seed
// must reproduce; for the default seed the first must also match the
// recorded digests. It returns the runs and traces in seed order.
func references(workload string, seeds []uint64) (*gate, []simRun, [][]byte, error) {
	g := &gate{want: map[uint64]string{}}
	var runs []simRun
	var traces [][]byte
	for i, s := range seeds {
		cfg, err := simConfig(workload, s)
		if err != nil {
			return nil, nil, nil, err
		}
		r, trace, err := recordTrace(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		g.want[s] = r.print
		td := traceDigest(trace)
		err = checkMetrics(r.metrics)
		if d, ok := digests[workload]; ok && i == 0 && s == defaultSeed && err == nil {
			switch {
			case r.print != d.metrics:
				err = fmt.Errorf("metrics fingerprint %s differs from the recorded digest %s", r.print, d.metrics)
			case td != d.trace:
				err = fmt.Errorf("solve trace digest %s differs from the recorded %s", td, d.trace)
			}
		}
		g.record(fmt.Sprintf("reference run, scenario seed %d", s), err)
		g.notes = append(g.notes, fmt.Sprintf("reference run, scenario seed %d: metrics fingerprint %s, solve trace %s", s, r.print, td))
		runs = append(runs, r)
		traces = append(traces, trace)
	}
	return g, runs, traces, nil
}

func (g *gate) finish(res *result) {
	res.finish(g.t)
	res.notes = append(res.notes, g.notes...)
	res.note("correctness: %d attempted, %d failed (fail_ratio %.6g)", g.t.attempted, g.t.failed, g.t.failRatio())
	for _, e := range g.errs {
		res.note("FAILED %s", e)
	}
}

// minReps is the fewest replications a timed sim run makes: keptPerSeed of
// each metro scenario seed, and one spare city replication.
func minReps(workload string) int {
	if workload == "city" {
		return keptPerSeed + 1
	}
	return 4 * keptPerSeed
}

// keptPerSeed is how many replications of each scenario seed the frame
// figures come from, the ones with the least host CPU steal. Three city
// replications hold the 105 frames a p90 needs; on metro a fixed count
// keeps every frame time the fastest of the same number of repeats, however
// many replications the budget allowed.
const keptPerSeed = 3

// quietest returns the n replications during which the host stole the
// least CPU time, in run order. A virtual machine's host can take a fifth
// of its CPU time for seconds at a time; every figure of a replication it
// hits slows by about as much, which no statistic over the replication
// removes. Replications are therefore kept by how little was stolen.
func quietest(runs []simRun, n int) []simRun {
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return runs[order[a]].steal < runs[order[b]].steal })
	keep := order[:min(n, len(order))]
	sort.Ints(keep)
	out := make([]simRun, len(keep))
	for i, k := range keep {
		out[i] = runs[k]
	}
	return out
}

// timedSim is the timed run of metro or city: after the reference runs,
// replications of the workload's simulation, cycling over its scenario
// seeds, run until the budget is spent, each timed from outside the frame
// loop.
func timedSim(o options) (result, error) {
	var res result
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	seeds := scenarioSeeds(o.workload, o.seed)
	g, _, _, err := references(o.workload, seeds)
	if err != nil {
		return res, err
	}
	var runs []simRun
	var spent time.Duration // in replications
	for {
		if n := len(runs); n >= minReps(o.workload) && n%len(seeds) == 0 && time.Since(start)+spent/time.Duration(n) > budget {
			break
		}
		t0 := time.Now()
		s := seeds[len(runs)%len(seeds)]
		cfg, err := simConfig(o.workload, s)
		if err != nil {
			return res, err
		}
		r, err := runSim(cfg, false)
		if err != nil {
			return res, err
		}
		g.check(fmt.Sprintf("replication %d (scenario seed %d)", len(runs)+1, s), s, r)
		runs = append(runs, r)
		spent += time.Since(t0)
	}
	bySeed := make([][]simRun, len(seeds))
	for i, r := range runs {
		bySeed[i%len(seeds)] = append(bySeed[i%len(seeds)], r)
	}
	kept, err := reportRuns(&res, o.workload, bySeed)
	if err != nil {
		return res, err
	}
	res.note("kept the %d of %d replications with the least host CPU steal per scenario seed (at most %.1f%%)", len(kept), len(runs), 100*maxSteal(kept))
	g.finish(&res)
	res.set("ok_ratio", 1-g.t.failRatio())
	return res, nil
}

func maxSteal(runs []simRun) float64 {
	m := 0.0
	for _, r := range runs {
		m = max(m, r.steal)
	}
	return m
}

// reportRuns sets the frame-loop metrics from the replications of each
// scenario seed and returns the ones the frame figures were taken from.
//
// Every replication of a scenario seed computes the same frames, bit for
// bit, so a frame's time is the fastest of its repeats in the seed's kept
// replications: the host can make a repeat slower by taking its CPU, never
// faster. frames_per_s and, on metro, frame_ms.p50 and .p90 come from these
// frame times. A city seed has too few frames for a p90 of them, so its
// quantiles pool the frames of its kept replications.
func reportRuns(res *result, workload string, bySeed [][]simRun) ([]simRun, error) {
	var kept []simRun
	var setups, heaps, times, pooled []float64
	for _, runs := range bySeed {
		for _, r := range runs {
			setups = append(setups, r.setup.Seconds())
		}
		var reps [][]float64
		for _, r := range quietest(runs, keptPerSeed) {
			kept = append(kept, r)
			heaps = append(heaps, mb(r.heapPeak))
			reps = append(reps, r.frameMS)
			pooled = append(pooled, r.frameMS...)
		}
		fastest, err := fastestFrames(reps)
		if err != nil {
			return nil, err
		}
		times = append(times, fastest...)
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	what := fmt.Sprintf("the same %d frame times", len(times))
	frames := times
	if workload == "city" {
		what = fmt.Sprintf("the %d frames of the %d kept replications, pooled", len(pooled), len(kept))
		frames = pooled
	}
	p50, _, err := quantile(frames, 0.5)
	if err != nil {
		return nil, err
	}
	p90, _, err := quantile(frames, 0.9)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups))
	res.set("frames_per_s", 1000*float64(len(times))/total)
	res.set("frame_ms.p50", p50)
	res.set("frame_ms.p90", p90)
	res.set("heap_peak_mb", median(heaps))
	res.note("frames_per_s: %d frame times over %d scenario seeds, each the fastest of %d repeats", len(times), len(bySeed), keptPerSeed)
	res.note("frame_ms: p50 and p90 of %s", what)
	res.note("setup_s is the median over all %d replications, heap_peak_mb (each replication's peak) over the kept ones", len(setups))
	return kept, nil
}

// users returns the data and voice user counts of cfg's layout.
func users(cfg sim.Config) (data, voice int) {
	cells := cellular.NewHexLayout(cfg.Rings, cfg.CellRadius, cfg.WrapAround).NumCells()
	return cells * cfg.DataUsersPerCell, cells * cfg.VoiceUsersPerCell
}

// traceDigest is the hex SHA-256 of a solve trace.
func traceDigest(trace []byte) string {
	sum := sha256.Sum256(trace)
	return hex.EncodeToString(sum[:])
}
