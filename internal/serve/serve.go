// Package serve is the memory-resident JABA-SD service behind cmd/jabaserve:
// a long-lived HTTP/JSON API over the same engine the CLIs drive. It keeps
// a bounded queue of simulation jobs (single runs, parameter sweeps, the
// experiment suite — the jobspec types, verbatim) drained by a fixed worker
// pool, streams sweep progress in grid order as CSV/NDJSON/SSE, and exposes
// the paper's per-frame admission ILP directly through an oracle endpoint
// backed by resident warm solvers, so scheduling a frame costs a solve
// rather than a process start.
//
// Endpoints (all under /v1):
//
//	GET    /v1/healthz          liveness
//	GET    /v1/presets          named scenario presets
//	GET    /v1/grids            built-in sweep grids
//	GET    /v1/axes             sweepable axis reference
//	POST   /v1/jobs             submit a JobSpec (202, or 429 when the queue is full)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel (idempotent; running jobs stop at the next frame)
//	GET    /v1/jobs/{id}/result finished result (409 while unfinished; ?format=json|csv)
//	GET    /v1/jobs/{id}/stream follow progress rows (CSV; NDJSON or SSE via Accept/?format)
//	POST   /v1/oracle           one frame's admission problem → the paper's grants
//
// Both POST bodies are capped at 1 MiB; a larger one is answered 413.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"jabasd/internal/report"
	"jabasd/internal/scenario"
	"jabasd/internal/sweep"
)

// Options sizes the server. Zero values pick the documented defaults.
type Options struct {
	// QueueDepth bounds how many jobs may wait beyond the ones running;
	// submissions past it receive 429 (default 16).
	QueueDepth int
	// Workers is the number of jobs run concurrently (default 2). Each
	// job's internal fan-out defaults to GOMAXPROCS/Workers so concurrent
	// jobs share the CPUs instead of oversubscribing them.
	Workers int
	// OracleWorkers is the number of resident warm JABA-SD solver
	// instances, which bounds concurrent oracle solves (default 2).
	OracleWorkers int
	// JournalDir, when set, persists every accepted JobSpec as
	// <JournalDir>/<id>.json until the job settles, and New re-submits any
	// specs found there — so jobs that were queued or running when the
	// process died are re-run after a restart. Jobs cancelled by server
	// shutdown keep their journal entry (they did not finish); jobs
	// cancelled through the API drop it.
	JournalDir string
	// EnableChaos accepts job specs carrying a chaos clause (injected
	// worker panics and hangs). Off by default: chaos is a test-and-drill
	// facility, not something a production queue should honour.
	EnableChaos bool
	// RetryBaseDelay is the first retry's backoff; attempt n waits
	// RetryBaseDelay << n (default 500ms). Tests shrink it.
	RetryBaseDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.OracleWorkers <= 0 {
		o.OracleWorkers = 2
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 500 * time.Millisecond
	}
	return o
}

// Server is the resident service: job queue, worker pool, oracle pool and
// the HTTP handler over them. Create with New, serve via Handler, stop with
// Close.
type Server struct {
	opts        Options
	mux         *http.ServeMux
	oracle      *oraclePool
	jobParallel int

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string
	nextID uint64
}

// New starts the worker pool and returns the server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:        opts,
		mux:         http.NewServeMux(),
		oracle:      newOraclePool(opts.OracleWorkers),
		jobParallel: max(1, runtime.GOMAXPROCS(0)/opts.Workers),
		baseCtx:     ctx,
		stop:        stop,
		queue:       make(chan *Job, opts.QueueDepth),
		jobs:        make(map[string]*Job),
	}
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	if opts.JournalDir != "" {
		s.recoverJournal()
	}
	return s
}

// recoverJournal re-submits the specs of jobs that had not settled when the
// previous process exited. Files that do not resolve (or no longer fit the
// queue) are left in place for the operator — recovery never destroys a
// spec it could not re-run.
func (s *Server) recoverJournal() {
	entries, err := os.ReadDir(s.opts.JournalDir)
	if err != nil {
		return
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.opts.JournalDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			continue
		}
		j, _, err := s.submit(spec)
		if err != nil {
			continue
		}
		// The resubmitted job journals under its own (new) id; drop the old
		// entry unless the names happen to coincide.
		if j.journal != path {
			os.Remove(path)
		}
	}
}

// Submission failure modes the HTTP layer maps to distinct status codes.
var (
	errShuttingDown = errors.New("serve: server is shutting down")
	errQueueFull    = errors.New("serve: job queue full")
)

// submit resolves, registers, journals and enqueues one job, returning it
// with its status as submitted (queued).
func (s *Server) submit(spec JobSpec) (*Job, JobStatus, error) {
	if spec.DeadlineSec < 0 {
		return nil, JobStatus{}, errors.New("serve: deadline_sec must be >= 0")
	}
	if spec.Retries < 0 {
		return nil, JobStatus{}, errors.New("serve: retries must be >= 0")
	}
	if spec.Chaos != nil {
		if !s.opts.EnableChaos {
			return nil, JobStatus{}, errors.New("serve: chaos injection is disabled; start the server with -chaos")
		}
		if err := spec.Chaos.validate(); err != nil {
			return nil, JobStatus{}, err
		}
	}
	work, err := spec.resolve(s.jobParallel)
	if err != nil {
		return nil, JobStatus{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, JobStatus{}, errShuttingDown
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := newJob(id, spec, work, ctx, cancel)
	if s.opts.JournalDir != "" {
		// Journal before enqueueing: once a worker can see the job its
		// crash-recovery record must already exist.
		j.journal = filepath.Join(s.opts.JournalDir, id+".json")
		data, err := json.Marshal(spec)
		if err == nil {
			err = os.WriteFile(j.journal, data, 0o644)
		}
		if err != nil {
			s.nextID--
			s.mu.Unlock()
			cancel()
			return nil, JobStatus{}, fmt.Errorf("serve: journaling job: %w", err)
		}
	}
	// Registration and enqueueing happen under one lock so a full queue
	// leaves no orphaned job behind. The status is captured before the job
	// is enqueued: once a worker can see it, it may already be running.
	st := j.status()
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.mu.Unlock()
		return j, st, nil
	default:
		s.nextID--
		s.mu.Unlock()
		cancel()
		if j.journal != "" {
			os.Remove(j.journal)
		}
		return nil, JobStatus{}, errQueueFull
	}
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close rejects further submissions, cancels every queued and running job
// and waits for the workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()       // cancels every job context: running jobs stop at the next frame
	close(s.queue) // workers exit once the queue drains
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.mu.Lock()
		if j.state != StateQueued { // cancelled while waiting
			j.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.broadcast()
		j.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job with the server's fault containment: a panic in
// the job fails the job (never the worker), an optional per-job deadline
// bounds its wall clock, and transient failures retry with exponential
// backoff up to the spec's retry budget. Deadline expiry and cancellation
// are terminal — retrying either would only repeat it.
func (s *Server) runJob(j *Job) {
	deadline := time.Duration(j.Spec.DeadlineSec * float64(time.Second))
	var err error
	for attempt := 0; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt + 1
		j.mu.Unlock()
		err = s.runAttempt(j, deadline)
		if err == nil {
			return // the job's work already called finish with its result
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if attempt >= j.Spec.Retries {
			break
		}
		// A fresh resolve gives the retry a clean result accumulator (the
		// first attempt's runnable may hold partial rows); the original
		// resolved at submission, so a failure here is transient too.
		if work, rerr := j.Spec.resolve(s.jobParallel); rerr == nil {
			j.mu.Lock()
			j.work = work
			j.rows = nil
			j.broadcast()
			j.mu.Unlock()
		}
		select {
		case <-time.After(s.opts.RetryBaseDelay << uint(attempt)):
		case <-j.ctx.Done():
			err = j.ctx.Err()
			j.finish(err, nil)
			return
		}
	}
	if errors.Is(err, context.DeadlineExceeded) && deadline > 0 {
		err = fmt.Errorf("serve: job exceeded its %gs deadline: %w", j.Spec.DeadlineSec, err)
	}
	j.finish(err, nil)
}

// runAttempt runs one attempt under the job's context (bounded by the
// deadline when one is set), converting a panic anywhere in the job's work
// into an ordinary error.
func (s *Server) runAttempt(j *Job, deadline time.Duration) (err error) {
	ctx := j.ctx
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	if c := j.Spec.Chaos; c != nil {
		if cerr := c.fire(ctx); cerr != nil {
			return cerr
		}
	}
	return j.work.run(ctx, j)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("GET /v1/grids", s.handleGrids)
	s.mux.HandleFunc("GET /v1/axes", s.handleAxes)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("POST /v1/oracle", s.handleOracle)
}

// writeJSON renders v with a status code; the API always answers JSON
// except for CSV/SSE streams.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps the request body of POST /v1/jobs and /v1/oracle. The
// largest real payloads are admission problems of a few kilobytes (one
// city-preset frame's busiest cell is under 10 KB), so 1 MiB leaves ample
// room while keeping a hostile body from being buffered whole.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body, capped at maxBodyBytes, into v. On
// failure it writes the error response — 413 when the cap was exceeded, 400
// otherwise, prefixed by what — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "%s: %v", what, err)
	}
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while the queue accepts work,
// 503 once the server is draining or the queue is saturated — the signal a
// load balancer uses to stop routing submissions here.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	queued := len(s.queue)
	body := map[string]any{"queued": queued, "queue_depth": s.opts.QueueDepth}
	switch {
	case closed:
		body["status"] = "shutting-down"
		writeJSON(w, http.StatusServiceUnavailable, body)
	case queued >= s.opts.QueueDepth:
		body["status"] = "saturated"
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handlePresets(w http.ResponseWriter, _ *http.Request) {
	type preset struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []preset
	for _, n := range scenario.Names() {
		out = append(out, preset{Name: n, Description: scenario.Describe(n)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGrids(w http.ResponseWriter, _ *http.Request) {
	type grid struct {
		Name   string   `json:"name"`
		Preset string   `json:"preset"`
		Axes   []string `json:"axes"`
		Points int      `json:"points"`
	}
	var out []grid
	for _, g := range sweep.Grids() {
		points, err := g.Points()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "grid %s: %v", g.Name, err)
			return
		}
		names := make([]string, len(g.Axes))
		for i, ax := range g.Axes {
			names[i] = ax.Name
		}
		out = append(out, grid{Name: g.Name, Preset: g.Preset, Axes: names, Points: len(points)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAxes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sweep.Axes())
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec, "decode job spec") {
		return
	}
	_, st, err := s.submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later or raise -queue-depth", s.opts.QueueDepth)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// job resolves the {id} path value, or writes a 404.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	j.userStop = true
	if j.state == StateQueued {
		// The worker will skip it; settle the state now so the cancel is
		// visible immediately.
		j.state = StateCancelled
		j.err = context.Canceled.Error()
		j.broadcast()
		j.dropJournalLocked()
	}
	j.mu.Unlock()
	j.cancel() // running jobs notice at the next frame boundary
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, errMsg, result := j.state, j.err, j.result
	header := j.work.header
	rows := j.rows
	j.mu.Unlock()

	switch state {
	case StateDone:
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
		return
	default:
		writeError(w, http.StatusConflict, "job is %s; result available once done", state)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		writeCSVRows(w, header, rows)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or csv)", format)
	}
}

func writeCSVRows(w io.Writer, header []string, rows []row) {
	if header != nil {
		io.WriteString(w, report.CSVLine(header))
	}
	for _, r := range rows {
		if r.cells != nil {
			io.WriteString(w, report.CSVLine(r.cells))
		}
	}
}

// streamFormat picks the stream framing: explicit ?format first, then the
// Accept header, defaulting to CSV (the jabasweep byte-compatible form).
func streamFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "csv", "ndjson", "sse":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want csv, ndjson or sse)", f)
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "text/event-stream"):
		return "sse", nil
	case strings.Contains(accept, "application/x-ndjson"):
		return "ndjson", nil
	default:
		return "csv", nil
	}
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	format, err := streamFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
	case "sse":
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	if format == "csv" {
		j.mu.Lock()
		header := j.work.header
		j.mu.Unlock()
		if header != nil {
			io.WriteString(w, report.CSVLine(header))
			flush()
		}
	}

	// Follow the row log: emit everything new, then wait for the next
	// broadcast. Rows are append-only and each row is immutable once
	// appended, so the slice snapshot taken under the lock stays valid
	// outside it.
	sent := 0
	for {
		j.mu.Lock()
		if sent > len(j.rows) {
			// A retry reset the row log; re-follow from the start.
			sent = 0
		}
		pending := j.rows[sent:]
		state := j.state
		errMsg := j.err
		updated := j.updated
		j.mu.Unlock()

		for _, rw := range pending {
			switch format {
			case "csv":
				if rw.cells != nil {
					io.WriteString(w, report.CSVLine(rw.cells))
				}
			case "ndjson":
				w.Write(rw.event)
				io.WriteString(w, "\n")
			case "sse":
				io.WriteString(w, "event: row\ndata: ")
				w.Write(rw.event)
				io.WriteString(w, "\n\n")
			}
		}
		sent += len(pending)
		flush()

		if state.Terminal() {
			final, _ := json.Marshal(map[string]string{"state": string(state), "error": errMsg})
			switch format {
			case "ndjson":
				w.Write(final)
				io.WriteString(w, "\n")
			case "sse":
				io.WriteString(w, "event: end\ndata: ")
				w.Write(final)
				io.WriteString(w, "\n\n")
			}
			flush()
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleOracle(w http.ResponseWriter, r *http.Request) {
	var req OracleRequest
	if !decodeBody(w, r, &req, "decode oracle request") {
		return
	}
	a, err := s.oracle.schedule(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, OracleResponse{
		Ratios:     a.Ratios,
		Objective:  a.Objective,
		Scheduler:  a.Scheduler,
		Served:     a.Served(),
		TotalRatio: a.TotalRatio(),
	})
}
