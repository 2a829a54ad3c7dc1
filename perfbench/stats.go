package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie strictly beyond it, so a p99 needs 1,000
// samples and a p90 needs 100.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place) and how many samples lie beyond that rank. It fails when the
// percentile rule is not met, so an undersized run cannot quietly report a
// tail that is really its maximum.
func quantile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("quantile %.2f of no samples", q)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	rank = min(max(rank, 1), n)
	beyond := n - rank
	if q > 0.5 && beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, the rule needs %d", 100*q, n, beyond, minBeyond)
	}
	return xs[rank-1], beyond, nil
}

// median returns the middle value of xs (mean of the middle two for an even
// count); it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// fastestFrames returns, for each frame index, the least time that frame
// took over reps, the frame times of replications that all computed the
// same frames. A frame the host interrupted in some replications then
// counts at its time in the others.
func fastestFrames(reps [][]float64) ([]float64, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("frame times of no replications")
	}
	out := slices.Clone(reps[0])
	for r, xs := range reps[1:] {
		if len(xs) != len(out) {
			return nil, fmt.Errorf("replication %d has %d frames, replication 0 has %d", r+1, len(xs), len(out))
		}
		for i, x := range xs {
			out[i] = min(out[i], x)
		}
	}
	return out, nil
}

// tally counts attempted and failed operations. A failed operation errored,
// returned a non-200 status or failed a correctness check.
type tally struct {
	attempted, failed int
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failRatio is failed ÷ attempted (0 for nothing attempted).
func (t tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// openLoopResult is one open-loop pass: per-request latency measured from
// when each request was due (a failed request counts as +Inf, missing any
// latency limit) and how late the generator sent each request.
type openLoopResult struct {
	latencyMS []float64
	lateMS    []float64
	fails     tally
}

// openLoop sends n requests due at a fixed rate from start over conns
// sender goroutines. The calling goroutine paces: it waits until each
// request is due and queues it, and the first idle sender takes it. When
// every sender is busy (a stalled call), due requests wait in the queue;
// because latency runs from the due time, that wait is counted, not
// omitted, and the wait shows as lateness. do reports whether the request
// succeeded.
func openLoop(rate float64, n, conns int, do func(i int) bool) openLoopResult {
	res := openLoopResult{latencyMS: make([]float64, n), lateMS: make([]float64, n)}
	ok := make([]bool, n)
	interval := time.Duration(float64(time.Second) / rate)
	queue := make(chan int, n) // holds every index, so the pacer never blocks
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Now()
				ok[i] = do(i)
				end := time.Now()
				res.lateMS[i] = ms(sent.Sub(due(i)))
				res.latencyMS[i] = ms(end.Sub(due(i)))
			}
		}()
	}
	for i := 0; i < n; i++ {
		waitUntil(due(i))
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range ok {
		res.fails.add(ok[i])
		if !ok[i] {
			res.latencyMS[i] = math.Inf(1)
		}
	}
	return res
}

// waitUntil returns at t. Go's timers wake through the network poller,
// which rounds sub-millisecond waits up to a millisecond when the process is
// otherwise idle; at thousands of requests a second that would make the
// generator, not the server, set the latency. A nanosleep system call wakes
// within tens of microseconds, and while it sleeps the runtime hands the
// pacer's processor to other goroutines.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// backlogGrew reports whether a pass fell behind its schedule: the
// generator's lateness over the last quarter of sends exceeds that over the
// first quarter by more than limitMS. A system keeping up sends the last
// requests as punctually as the first; one that is not accumulates a queue
// and every later send starts later.
func (r openLoopResult) backlogGrew(limitMS float64) bool {
	q := len(r.lateMS) / 4
	if q == 0 {
		return false
	}
	first := median(append([]float64(nil), r.lateMS[:q]...))
	last := median(append([]float64(nil), r.lateMS[len(r.lateMS)-q:]...))
	return last-first > limitMS
}

// rung is the outcome of one probe of a ladder rate.
type rung struct {
	p99MS   float64
	failed  int
	backlog bool
}

func (r rung) passes(limitMS float64) bool {
	return r.failed == 0 && !r.backlog && r.p99MS <= limitMS
}

// bestOf reports whether any of up to n tries passes, stopping at the
// first that does. Interference from outside the process only ever slows a
// pass, so the better of a few short passes is the one that measures the
// server; one stall of the machine cannot fail a rung.
func bestOf(n int, try func() bool) bool {
	for i := 0; i < n; i++ {
		if try() {
			return true
		}
	}
	return false
}

// maxRate returns the highest rate on the ascending ladder whose probe
// passes. It bisects, so it assumes a rate that fails is never followed by
// one that passes; a run that contradicts that (noise at the edge) settles
// on the last passing rung it saw. It returns 0 when even the lowest rung
// fails.
func maxRate(ladder []float64, passes func(rate float64) bool) float64 {
	lo, hi := -1, len(ladder) // ladder[lo] passes, ladder[hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if passes(ladder[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return ladder[lo]
}

// geometricLadder returns rates from lo up to at most hi, each step
// multiplying by ratio.
func geometricLadder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		out = append(out, math.Round(r))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
