package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"time"

	"jabasd/internal/replay"
	"jabasd/internal/serve"
)

// Oracle load shape. The latency limit is 10% of the 20 ms admission frame.
// The two fixed rates are far above a metro network's own admission
// traffic (about 10 problems a frame, 50 frames/s); the high one stays
// below the knee of a 2-vCPU host, whose max_rps moves between about 3,000
// and 13,000 req/s with the load of the machine around it.
const (
	limitMS     = 2.0
	rateLow     = 2000.0
	rateHigh    = 4000.0
	oracleConns = 2
)

// ladder is the fixed rate ladder max_rps is read from: 5% steps, so one
// rung is a 5% move.
var ladder = geometricLadder(1000, 30000, 1.05)

// oracleCase is one recorded (frame, cell) problem as an oracle request
// body, with the ratios the recording run granted.
type oracleCase struct {
	body []byte
	want []int
}

// oracleCases turns a solve trace into request bodies. The trace header
// carries the ratio cap, objective and MAC timers the problems were solved
// under; sending them along makes the oracle solve exactly the problem the
// engine solved.
func oracleCases(trace []byte) ([]oracleCase, error) {
	hdr, problems, err := replay.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		return nil, err
	}
	if len(problems) == 0 {
		return nil, errors.New("solve trace holds no problems")
	}
	out := make([]oracleCase, len(problems))
	for i, p := range problems {
		body, err := json.Marshal(serve.OracleRequest{
			Scheduler: hdr.Scheduler,
			Requests:  p.Requests,
			Region:    p.Region,
			MaxRatio:  hdr.MaxRatio,
			Objective: hdr.Objective,
			MAC:       &hdr.MAC,
		})
		if err != nil {
			return nil, err
		}
		out[i] = oracleCase{body: body, want: p.Ratios}
	}
	return out, nil
}

// oracleServer is an in-process serve.Server behind a loopback listener.
type oracleServer struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	served chan error
}

// startOracle builds the server and returns once it answers /v1/healthz.
// wrap, when non-nil, wraps the handler (the traced run uses it to time
// the handler from outside).
func startOracle(client *http.Client, wrap func(http.Handler) http.Handler) (*oracleServer, time.Duration, error) {
	t0 := time.Now()
	s := serve.New(serve.Options{})
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, 0, err
	}
	o := &oracleServer{srv: s, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { o.served <- o.http.Serve(ln) }()
	resp, err := client.Get(o.url + "/v1/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	setup := time.Since(t0)
	if err != nil {
		o.stop()
		return nil, 0, err
	}
	return o, setup, nil
}

// stop shuts the listener down, waits for Serve to return and closes the
// server's worker pool.
func (o *oracleServer) stop() {
	_ = o.http.Shutdown(context.Background()) // no deadline: idle keep-alive connections close at once
	<-o.served
	o.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     oracleConns,
		MaxIdleConnsPerHost: oracleConns,
		DisableCompression:  true,
	}}
}

// oracleClient posts recorded problems and checks every answer.
type oracleClient struct {
	http  *http.Client
	url   string
	cases []oracleCase
	next  int // index of the next case to send, cycling

	// spans, when set, gives every request an X-Request-Id and a
	// client.request span, and keeps its duration in clientDur.
	spans     *spanLog
	mu        sync.Mutex
	clientDur map[string]time.Duration
}

// post sends case c and reports whether the server answered 200 with
// exactly the recorded ratios. reqID, when non-empty, is sent as the
// X-Request-Id header so the traced run can pair client and handler spans.
func (oc *oracleClient) post(c *oracleCase, reqID string) bool {
	req, err := http.NewRequest(http.MethodPost, oc.url+"/v1/oracle", bytes.NewReader(c.body))
	if err != nil {
		return false
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := oc.http.Do(req)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var out serve.OracleResponse
	return json.Unmarshal(body, &out) == nil && slices.Equal(out.Ratios, c.want)
}

// pass runs one open-loop pass of n requests at rate, continuing through
// the cases where the last pass stopped.
func (oc *oracleClient) pass(rate float64, n int) openLoopResult {
	offset := oc.next
	oc.next += n
	return openLoop(rate, n, oracleConns, func(i int) bool {
		c := &oc.cases[(offset+i)%len(oc.cases)]
		if oc.spans == nil {
			return oc.post(c, "")
		}
		id := "req-" + strconv.Itoa(offset+i)
		t0 := time.Now()
		ok := oc.post(c, id)
		t1 := time.Now()
		oc.spans.add(id, "client.request", "", t0, t1)
		oc.mu.Lock()
		oc.clientDur[id] = t1.Sub(t0)
		oc.mu.Unlock()
		return ok
	})
}

// handle serves case c through h in process, with a response recorder. It
// returns how long ServeHTTP took and whether the answer is a 200 with
// exactly the recorded ratios.
func handle(h http.Handler, c *oracleCase) (time.Duration, bool) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/oracle", bytes.NewReader(c.body))
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	var out serve.OracleResponse
	return d, rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &out) == nil && slices.Equal(out.Ratios, c.want)
}

// oracleLoad is the open-loop measurement at the two fixed rates.
type oracleLoad struct {
	p50, p99 [2]float64 // median over sub-passes, at rateLow and rateHigh
	late     []float64  // generator lateness over the passes, ms
	fails    tally
}

// subPassSec is the length of one sub-pass; a sub-pass sends at least
// 1,000 requests so that its p99 has 10 samples beyond it.
const subPassSec = 0.5

func subPassN(rate float64) int { return max(1000, int(rate*subPassSec)) }

// measure runs k rounds of one sub-pass at each fixed rate, alternating the
// rates so that a slow stretch of the machine hits both alike, and reports
// each rate's median sub-pass p50 and p99. A median of short passes keeps a
// single stall from setting a run's figures.
func (oc *oracleClient) measure(k int) (oracleLoad, error) {
	var l oracleLoad
	var p50s, p99s [2][]float64
	for round := 0; round < k; round++ {
		for ri, rate := range []float64{rateLow, rateHigh} {
			r := oc.pass(rate, subPassN(rate))
			l.fails.merge(r.fails)
			l.late = append(l.late, r.lateMS...)
			p50, _, err := quantile(r.latencyMS, 0.5)
			if err != nil {
				return l, err
			}
			p99, _, err := quantile(r.latencyMS, 0.99)
			if err != nil {
				return l, err
			}
			p50s[ri] = append(p50s[ri], p50)
			p99s[ri] = append(p99s[ri], p99)
		}
	}
	for ri := range p50s {
		l.p50[ri] = median(p50s[ri])
		l.p99[ri] = median(p99s[ri])
	}
	return l, nil
}

// maxRPS bisects the ladder; a rung passes when either of two sub-passes
// keeps p99 within the limit with no failure and no growing backlog.
func (oc *oracleClient) maxRPS() (float64, tally) {
	var t tally
	rps := maxRate(ladder, func(rate float64) bool {
		return bestOf(2, func() bool {
			r := oc.pass(rate, subPassN(rate))
			t.merge(r.fails)
			p99, _, err := quantile(r.latencyMS, 0.99)
			return err == nil && rung{p99MS: p99, failed: r.fails.failed, backlog: r.backlogGrew(limitMS)}.passes(limitMS)
		})
	})
	return rps, t
}
