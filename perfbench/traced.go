package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"jabasd/internal/core"
	"jabasd/internal/replay"
	"jabasd/internal/serve"
)

// traced is the per-layer pass. It repeats the workload's simulation three
// times — as timed, with the solve trace and frame spans on, and at
// FrameParallel 1 — and requires the three to agree; then it replays the
// physics kernels on state shaped like the workload, re-solves every
// recorded problem through core.JABASD.Schedule, and times the service's
// handler, decoder and transport on the recorded bodies. Spans are kept in
// memory and written to o.spans at the end.
func traced(o options) (result, error) {
	var res result
	spans := newSpanLog()
	cfg, err := simConfig(o.workload, o.seed)
	if err != nil {
		return res, err
	}
	data, voice := users(cfg)

	// 1. As timed, with allocation and GC counters around Run.
	timedRun, err := runSim(cfg, true)
	if err != nil {
		return res, err
	}
	// 2. Traced: solve trace on, one span per frame.
	g, refs, traces, err := references(o.workload, []uint64{o.seed})
	if err != nil {
		return res, err
	}
	tracedRun, trace := refs[0], traces[0]
	prev := tracedRun.start
	for f, end := range tracedRun.stamps {
		spans.add("frame-"+strconv.Itoa(f), "sim.frame", "", prev, end)
		prev = end
	}
	// 3. One worker.
	cfg1 := cfg
	cfg1.FrameParallel = 1
	oneRun, err := runSim(cfg1, false)
	if err != nil {
		return res, err
	}
	g.check("timed-style run", o.seed, timedRun)
	g.check("FrameParallel 1 run", o.seed, oneRun)

	frames := float64(len(timedRun.frameMS))
	fps := frames / timedRun.wall.Seconds()
	res.set("sim.ns_per_user_frame", float64(timedRun.wall.Nanoseconds())/(frames*float64(data)))
	res.set("sim.alloc_bytes_per_frame", float64(timedRun.mem.allocBytes)/frames)
	res.set("sim.allocs_per_frame", float64(timedRun.mem.allocs)/frames)
	res.set("runtime.gc_cycles", float64(timedRun.mem.gcCycles))
	res.set("runtime.gc_pause_ms", ms(timedRun.mem.gcPause))
	res.set("stream.cpu_util", timedRun.cpu.Seconds()/(timedRun.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	fps1 := frames / oneRun.wall.Seconds()
	res.set("stream.speedup", fps/fps1)
	tracedFPS := frames / tracedRun.wall.Seconds()
	res.set("trace.overhead.frames_per_s", tracedFPS/fps)
	res.note("%s simulation: %d frames, %d data and %d voice users; frames_per_s timed %.4g (FrameParallel %d), traced %.4g, FrameParallel 1 %.4g",
		o.workload, int(frames), data, voice, fps, frameParallel, tracedFPS, fps1)

	// Physics kernels.
	t0 := time.Now()
	k := replayKernels(cfg)
	spans.add("kernels", "physics.replay", "", t0, time.Now())
	k.report(&res)

	// Admission: re-solve every recorded problem.
	sol, err := resolve(trace, spans)
	if err != nil {
		return res, err
	}
	g.t.merge(tally{attempted: len(sol.us), failed: sol.bad})
	if sol.bad > 0 {
		g.errs = append(g.errs, fmt.Sprintf("re-solve: %d problems, the first: %v", sol.bad, sol.firstBad))
	}
	sol.report(&res, frames)

	// Service.
	cases, err := oracleCases(trace)
	if err != nil {
		return res, err
	}
	sv, err := traceService(cases, spans)
	if err != nil {
		return res, err
	}
	g.t.merge(sv.fails)
	solveP50 := median(append([]float64(nil), sol.us...))
	sv.report(&res, solveP50)

	// Attribution: the shares are of one frame on one worker (the
	// FrameParallel 1 run), so single-threaded kernel and solve replays
	// divide a single-threaded frame.
	frameNS := float64(oneRun.wall.Nanoseconds()) / frames
	reqPerFrame := float64(len(sol.us)) / frames * sol.requestsPerSolve
	physics := k.perFrameNS(data, voice, reqPerFrame) / frameNS
	solve := sol.totalNS / frames / frameNS
	res.set("sim.physics_share", physics)
	res.set("core.solve_share", solve)
	res.set("sim.other_share", 1-physics-solve)
	res.note("shares are of one FrameParallel 1 frame (%.4g ms): physics %.4g ms, solve %.4g ms", frameNS/1e6, physics*frameNS/1e6, solve*frameNS/1e6)

	if err := spans.write(o.spans); err != nil {
		return res, err
	}
	res.note("%d spans written to %s", len(spans.spans), o.spans)
	g.finish(&res)
	return res, nil
}

// solveStats is the admission layer measured on a solve trace.
type solveStats struct {
	us               []float64 // per-problem Schedule time, µs
	totalNS          float64
	requestsPerSolve float64
	rowsPerRegion    float64
	greedy, fallback int
	bad              int   // problems whose re-solve failed or granted other ratios
	firstBad         error // the first of them
}

// resolve re-solves every recorded problem with one warm JABA-SD instance,
// as the engine's workers and the oracle pool do, timing each Schedule call
// and checking it grants the recorded ratios.
func resolve(trace []byte, spans *spanLog) (solveStats, error) {
	var s solveStats
	hdr, problems, err := replay.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		return s, err
	}
	sched := core.NewJABASD()
	var reqs, rows int
	for _, p := range problems {
		prob := core.Problem{Requests: p.Requests, Region: p.Region, MaxRatio: hdr.MaxRatio, Objective: hdr.Objective, MAC: &hdr.MAC}
		t0 := time.Now()
		a, err := sched.Schedule(prob)
		t1 := time.Now()
		spans.add(fmt.Sprintf("f%d/c%d", p.Frame, p.Cell), "core.schedule", "", t0, t1)
		if err == nil && !slices.Equal(a.Ratios, p.Ratios) {
			err = fmt.Errorf("frame %d cell %d: re-solve granted %v, the run granted %v", p.Frame, p.Cell, a.Ratios, p.Ratios)
		}
		if err != nil {
			if s.bad == 0 {
				s.firstBad = err
			}
			s.bad++
		}
		d := t1.Sub(t0)
		s.us = append(s.us, float64(d)/1e3)
		s.totalNS += float64(d)
		reqs += len(p.Requests)
		rows += len(p.Region.Coeff)
		if len(p.Requests) > sched.GreedyFallbackSize {
			s.greedy++
		}
		if a.Fallback {
			s.fallback++
		}
	}
	n := float64(len(problems))
	s.requestsPerSolve = float64(reqs) / n
	s.rowsPerRegion = float64(rows) / n
	return s, nil
}

func (s solveStats) report(res *result, frames float64) {
	n := float64(len(s.us))
	res.set("core.solves_per_frame", n/frames)
	res.set("core.requests_per_solve", s.requestsPerSolve)
	res.set("measurement.rows_per_region", s.rowsPerRegion)
	res.set("core.greedy_ratio", float64(s.greedy)/n)
	res.set("core.fallback_ratio", float64(s.fallback)/n)
	xs := append([]float64(nil), s.us...)
	p50, _, _ := quantile(xs, 0.5)
	res.set("core.solve_us.p50", p50)
	if p99, beyond, err := quantile(xs, 0.99); err == nil {
		res.set("core.solve_us.p99", p99)
		res.note("core.solve_us: %d solves, %d beyond p99", len(xs), beyond)
	} else {
		res.set("core.solve_us.p99", xs[len(xs)-1])
		res.note("core.solve_us.p99 is the maximum: %v", err)
	}
}

// serviceStats is the service layer measured on the recorded bodies.
type serviceStats struct {
	handlerUS, decodeUS, transportUS []float64
	timed, traced                    oracleLoad // the same rounds with spans off and on
	maxRPS                           float64
	fails                            tally
}

// tracedRounds is the number of sub-pass rounds per rate in each of the
// traced run's two loopback measurements.
const tracedRounds = 4

// traceService times the oracle from the inside out: the handler alone
// (ServeHTTP into a response recorder), the body decode alone
// (json.Unmarshal into serve.OracleRequest), then over the loopback the
// fixed-rate rounds and the max_rps ladder with spans off, and the same
// rounds with a client span per request and a handler span from a wrapping
// handler. A request's client span minus its handler span is its transport.
func traceService(cases []oracleCase, spans *spanLog) (serviceStats, error) {
	var s serviceStats
	srv := serve.New(serve.Options{})
	h := srv.Handler()
	for i := range cases {
		c := &cases[i]
		var req serve.OracleRequest
		t0 := time.Now()
		err := json.Unmarshal(c.body, &req)
		s.decodeUS = append(s.decodeUS, float64(time.Since(t0))/1e3)
		if err != nil {
			s.fails.add(false)
			continue
		}
		d, ok := handle(h, c)
		s.handlerUS = append(s.handlerUS, float64(d)/1e3)
		s.fails.add(ok)
	}
	srv.Close()

	runtime.GC()
	client := newClient()
	o, _, err := startOracle(client, nil)
	if err != nil {
		return s, err
	}
	oc := &oracleClient{http: client, url: o.url, cases: cases}
	s.timed, err = oc.measure(tracedRounds)
	if err == nil {
		var t tally
		s.maxRPS, t = oc.maxRPS()
		s.fails.merge(t)
	}
	o.stop()
	client.CloseIdleConnections()
	if err != nil {
		return s, err
	}
	s.fails.merge(s.timed.fails)

	var mu sync.Mutex
	handlerDur := map[string]time.Duration{}
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			next.ServeHTTP(w, r)
			t1 := time.Now()
			id := r.Header.Get("X-Request-Id")
			spans.add(id, "serve.handler", "client.request", t0, t1)
			mu.Lock()
			handlerDur[id] = t1.Sub(t0)
			mu.Unlock()
		})
	}
	runtime.GC()
	client = newClient()
	defer client.CloseIdleConnections()
	o, _, err = startOracle(client, wrap)
	if err != nil {
		return s, err
	}
	oc = &oracleClient{http: client, url: o.url, cases: cases, spans: spans, clientDur: map[string]time.Duration{}}
	s.traced, err = oc.measure(tracedRounds)
	o.stop()
	if err != nil {
		return s, err
	}
	s.fails.merge(s.traced.fails)
	for id, d := range oc.clientDur {
		if hd, ok := handlerDur[id]; ok {
			s.transportUS = append(s.transportUS, float64(d-hd)/1e3)
		}
	}
	return s, nil
}

func (s serviceStats) report(res *result, solveP50US float64) {
	hp50, _, _ := quantile(s.handlerUS, 0.5)
	res.set("serve.handler_us.p50", hp50)
	hp99, _, err := quantile(s.handlerUS, 0.99)
	if err != nil {
		hp99 = s.handlerUS[len(s.handlerUS)-1]
		res.note("serve.handler_us.p99 is the maximum: %v", err)
	}
	res.set("serve.handler_us.p99", hp99)
	res.set("serve.decode_us.p50", median(s.decodeUS))
	res.set("serve.transport_us.p50", median(s.transportUS))
	res.set("serve.solve_share", solveP50US/hp50)
	late, _, err := quantile(s.timed.late, 0.99)
	if err != nil {
		late = math.NaN()
	}
	res.set("gen.late_ms.p99", late)
	res.set("latency_ms.p50.low", s.timed.p50[0])
	res.set("latency_ms.p50.high", s.timed.p50[1])
	res.set("latency_ms.p99.low", s.timed.p99[0])
	res.set("latency_ms.p99.high", s.timed.p99[1])
	res.set("max_rps", s.maxRPS)
	res.set("trace.overhead.latency_ms.p50.low", s.traced.p50[0]/s.timed.p50[0])
	res.set("trace.overhead.latency_ms.p50.high", s.traced.p50[1]/s.timed.p50[1])
	res.note("latency_ms.p50 spans off / on: low %.4g / %.4g ms, high %.4g / %.4g ms, each the median of %d sub-passes; %d handler, %d transport samples",
		s.timed.p50[0], s.traced.p50[0], s.timed.p50[1], s.traced.p50[1], tracedRounds, len(s.handlerUS), len(s.transportUS))
	res.note("max_rps: highest rate of the %.0f..%.0f req/s ladder (5%% steps) where 1 of 2 sub-passes keeps p99 <= %.0f ms with no failure and no growing backlog", ladder[0], ladder[len(ladder)-1], limitMS)
}
