package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"jabasd/internal/sim"
)

func TestQuantilePercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	p90, beyond, err := quantile(xs, 0.9)
	if err != nil || p90 != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v (%d beyond, err %v), want 90 with 10 beyond", p90, beyond, err)
	}
	if _, beyond, err := quantile(xs[:99], 0.9); err == nil {
		t.Fatalf("p90 of 99 samples has %d beyond and passed; the rule needs 10", beyond)
	}
	if _, _, err := quantile(make([]float64, 999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples passed the rule")
	}
	if _, beyond, err := quantile(make([]float64, 1000), 0.99); err != nil || beyond != 10 {
		t.Fatalf("p99 of 1000 samples: %d beyond, err %v; want 10 beyond", beyond, err)
	}
	if p50, _, err := quantile([]float64{3, 1, 2}, 0.5); err != nil || p50 != 2 {
		t.Fatalf("p50 of {1,2,3} = %v, err %v", p50, err)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", m)
	}
}

func TestFastestFramesSkipInterruptedRepeats(t *testing.T) {
	// Three repeats of the same four frames; each repeat has one frame
	// slowed by 1000 ms, a different one each time. Every frame keeps its
	// own time.
	want := []float64{1, 2, 3, 4}
	var reps [][]float64
	for r := 0; r < 3; r++ {
		xs := slices.Clone(want)
		xs[r] += 1000
		reps = append(reps, xs)
	}
	got, err := fastestFrames(reps)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("fastestFrames = %v (err %v), want %v", got, err, want)
	}
	if !slices.Equal(reps[0], []float64{1001, 2, 3, 4}) {
		t.Fatalf("fastestFrames changed its input: %v", reps[0])
	}
	if _, err := fastestFrames([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("replications of different lengths were accepted")
	}
	if _, err := fastestFrames(nil); err == nil {
		t.Fatal("no replications were accepted")
	}
}

// A stall on the only connection delays every request due behind it.
// Latency runs from the due time, so the requests that queued behind the
// stall carry the wait, and the generator reports them as sent late.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	r := openLoop(1000, 40, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if r.fails.attempted != 40 || r.fails.failed != 0 {
		t.Fatalf("tally %+v, want 40 attempted, 0 failed", r.fails)
	}
	// Request 10 was due 10 ms in but could only be sent after the 60 ms
	// stall: about 50 ms late.
	if r.lateMS[10] < 40 || r.latencyMS[10] < r.lateMS[10] {
		t.Fatalf("request 10: late %.2f ms, latency %.2f ms; want >= 40 ms late and latency >= late", r.lateMS[10], r.latencyMS[10])
	}
	if r.latencyMS[0] < ms(stall) {
		t.Fatalf("stalled request latency %.2f ms < stall", r.latencyMS[0])
	}
	// Closed-loop timing (send to answer) would report the queued requests
	// as instantaneous; due-time latency must not.
	if p50, _, _ := quantile(append([]float64(nil), r.latencyMS...), 0.5); p50 < 10 {
		t.Fatalf("p50 %.2f ms hides the stall", p50)
	}
}

func TestOpenLoopFailedRequestMissesEveryLimit(t *testing.T) {
	r := openLoop(2000, 20, 2, func(i int) bool { return i != 3 })
	if r.fails.failed != 1 || r.fails.attempted != 20 {
		t.Fatalf("tally %+v, want 1 failed of 20", r.fails)
	}
	if !math.IsInf(r.latencyMS[3], 1) {
		t.Fatalf("failed request latency %v, want +Inf", r.latencyMS[3])
	}
	if got := r.fails.failRatio(); got != 0.05 {
		t.Fatalf("fail ratio %v, want 0.05", got)
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := openLoopResult{lateMS: []float64{0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2}}
	if steady.backlogGrew(2) {
		t.Fatal("punctual pass reported a growing backlog")
	}
	growing := openLoopResult{lateMS: []float64{0.1, 0.2, 1, 2, 3, 4, 5, 6}}
	if !growing.backlogGrew(2) {
		t.Fatal("lateness rising 0.15 -> 5.5 ms not reported as a growing backlog")
	}
}

func TestMaxRateLadder(t *testing.T) {
	ladder := geometricLadder(1000, 2000, 1.05)
	if ladder[0] != 1000 || ladder[len(ladder)-1] > 2000 || len(ladder) != 15 {
		t.Fatalf("ladder %v", ladder)
	}
	// p99 grows with the rate and crosses 2 ms between 1500 and 1600.
	var probed []float64
	got := maxRate(ladder, func(rate float64) bool {
		probed = append(probed, rate)
		return rung{p99MS: rate / 760}.passes(2)
	})
	if got != 1477 {
		t.Fatalf("max rate %v, want 1477 (the last rung with p99 <= 2 ms); probed %v", got, probed)
	}
	if len(probed) > 5 {
		t.Fatalf("bisection probed %d rungs of 15", len(probed))
	}
	// A failed request or a growing backlog disqualifies a rung whatever
	// its p99.
	if r := (rung{p99MS: 0.1, failed: 1}); r.passes(2) {
		t.Fatal("rung with a failed request passed")
	}
	if r := (rung{p99MS: 0.1, backlog: true}); r.passes(2) {
		t.Fatal("rung with a growing backlog passed")
	}
	if got := maxRate(ladder, func(float64) bool { return false }); got != 0 {
		t.Fatalf("no rung passes, got %v", got)
	}
	if got := maxRate(ladder, func(float64) bool { return true }); got != ladder[len(ladder)-1] {
		t.Fatalf("every rung passes, got %v", got)
	}
	// A rung passes on the first of two probes that passes: one stalled
	// probe does not fail it, two do.
	for _, c := range []struct {
		probes []bool
		want   bool
		tries  int
	}{
		{[]bool{true}, true, 1},
		{[]bool{false, true}, true, 2},
		{[]bool{false, false}, false, 2},
	} {
		tries := 0
		got := bestOf(2, func() bool { tries++; return c.probes[tries-1] })
		if got != c.want || tries != c.tries {
			t.Errorf("bestOf(2, %v) = %v after %d probes, want %v after %d", c.probes, got, tries, c.want, c.tries)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	var a, b tally
	a.add(true)
	a.add(false)
	b.add(true)
	b.add(true)
	a.merge(b)
	if a.attempted != 4 || a.failed != 1 || a.failRatio() != 0.25 {
		t.Fatalf("tally %+v ratio %v, want 1 of 4", a, a.failRatio())
	}
	var res result
	g := gate{t: a}
	g.finish(&res)
	if res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}
	if (tally{}).failRatio() != 0 {
		t.Fatal("empty tally has a fail ratio")
	}
}

func TestQuietestKeepsLeastStolenInRunOrder(t *testing.T) {
	runs := []simRun{{steal: 0.20, setup: 1}, {steal: 0.01, setup: 2}, {steal: 0.05, setup: 3}, {steal: 0.00, setup: 4}}
	got := quietest(runs, 2)
	if len(got) != 2 || got[0].setup != 2 || got[1].setup != 4 {
		t.Fatalf("quietest kept %+v, want the runs with setup 2 and 4, in run order", got)
	}
	if len(quietest(runs, 9)) != 4 {
		t.Fatal("asking for more runs than exist must keep them all")
	}
}

// The gate must fail on a simulated outcome that differs from the
// reference, even by one counter.
func TestGateRejectsPerturbedMetrics(t *testing.T) {
	m := &sim.Metrics{BurstsGenerated: 10, BurstsCompleted: 8}
	fp, err := fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	g := gate{want: map[uint64]string{1: fp}}
	g.check("same", 1, simRun{metrics: m, print: fp})
	perturbed := *m
	perturbed.BurstsCompleted++
	pfp, _ := fingerprint(&perturbed)
	g.check("perturbed", 1, simRun{metrics: &perturbed, print: pfp})
	skipped := *m
	skipped.SkippedCells = 1
	g.check("skipped", 1, simRun{metrics: &skipped, print: fp})
	if g.t.attempted != 3 || g.t.failed != 2 {
		t.Fatalf("gate tally %+v, want the perturbed and skipped runs failed", g.t)
	}
}

// The oracle client must count a 200 answer with other ratios than the
// recorded ones as a failure, as it does a non-200 answer.
func TestOracleClientRejectsWrongGrant(t *testing.T) {
	ratios, status := []int{2, 0, 1}, http.StatusOK
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]any{"ratios": ratios})
	}))
	defer srv.Close()
	oc := &oracleClient{http: srv.Client(), url: srv.URL}
	if !oc.post(&oracleCase{want: []int{2, 0, 1}}, "") {
		t.Fatal("matching grant rejected")
	}
	if oc.post(&oracleCase{want: []int{2, 1, 1}}, "") {
		t.Fatal("wrong grant accepted")
	}
	ratios = nil
	if oc.post(&oracleCase{want: []int{2, 0, 1}}, "") {
		t.Fatal("empty grant accepted")
	}
	ratios, status = []int{2, 0, 1}, http.StatusBadRequest
	if oc.post(&oracleCase{want: []int{2, 0, 1}}, "") {
		t.Fatal("non-200 answer accepted")
	}
}
