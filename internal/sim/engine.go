package sim

import (
	"context"
	"fmt"
	"math"

	"jabasd/internal/cellular"
	"jabasd/internal/channel"
	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/load"
	"jabasd/internal/mac"
	"jabasd/internal/mathx"
	"jabasd/internal/measurement"
	"jabasd/internal/mobility"
	"jabasd/internal/replay"
	"jabasd/internal/rng"
	"jabasd/internal/spatial"
	"jabasd/internal/stream"
	"jabasd/internal/trace"
	"jabasd/internal/traffic"
	"jabasd/internal/vtaoc"
)

// schCSIOffsetDB calibrates the supplemental-channel symbol Es/Io from the
// user's downlink geometry (serving-cell power over other-cell interference
// plus noise): the SCH enjoys the spreading/coding gain of the orthogonal
// coder on top of the raw geometry. The exact value only shifts where users
// sit on the VTAOC mode ladder; 12 dB places cell-centre users in the top
// modes and cell-edge users around modes 1-2, matching the qualitative
// behaviour of the adaptive physical layer papers.
const schCSIOffsetDB = 12.0

// nominalOtherCellActivity is the fraction of P_max neighbouring cells are
// assumed to transmit at when computing a user's interference (used for FCH
// power budgeting and geometry; the admission accounting itself uses the
// actual tracked loads).
const nominalOtherCellActivity = 0.75

// phy abstracts the adaptive coder vs the fixed-rate ablation.
type phy interface {
	AverageThroughput(meanCSIDB float64) float64
	Throughput(csiDB float64) float64
}

// burst is an ongoing (granted) data burst.
type burst struct {
	user      *dataUser
	ratio     int
	remaining float64
	// load is the resource this burst consumes per cell while active:
	// forward -> watts of base-station power, reverse -> watts of received
	// interference, fixed at grant time.
	load load.Vec
	// setupRemaining is the MAC set-up delay still to elapse before bits flow.
	setupRemaining float64
	servedBits     float64
	serviceTime    float64
	grantedAt      float64
	// instBP is this frame's instantaneous VTAOC throughput (bits per
	// symbol), set by the physics pass (updateUsers) once set-up has elapsed
	// and read by serveBursts.
	instBP float64
}

// dataUser is one packet-data mobile. Its physics state — position, fast
// fading and per-cell shadowing/gain — lives in the engine's SoA batches
// (mobB, fadeB, chanB), indexed by id; gain aliases the user's row of the
// channel batch so the admission code reads it exactly as before.
type dataUser struct {
	id       int
	gain     []float64 // aliases chanB.GainRow(id): long-term linear gain per slot of cand
	pilots   []cellular.PilotMeasurement
	active   []int
	reduced  []int
	hostCell int
	source   *traffic.DataModel
	macM     *mac.Machine

	// ver counts measurement changes (fast path): it is bumped whenever the
	// user's gains moved beyond RegionEpsilon or its reduced set changed, and
	// the incremental region cache keys on it. prevReduced is the previous
	// frame's reduced set for the change test.
	ver         uint64
	prevReduced []int

	// Window state (see windowed.go): cand is the user's slot-to-cell row
	// (global cell indices, ascending) — its row of the channel window when
	// PilotCells > 0, else the engine's shared identity row — and bucket is
	// the spatial-grid bucket the window was last targeted at (-1 before the
	// first frame, and always with the identity row).
	cand   []int32
	bucket int

	queuedReq  *traffic.BurstRequest
	queuedCell int
	firstGrant bool
	// serving is the user's ongoing burst, nil when none: set by commitCell
	// and on checkpoint resume, cleared by completeBurst. It is derived from
	// e.bursts and never serialised.
	serving *burst

	fchPower  load.Vec // forward FCH power per reduced-set cell (W), rebuilt per frame
	revFCHRx  load.Vec // reverse FCH received power per cell (W), rebuilt per frame
	revPilot  load.Vec // scratch: reverse pilot report attached to a burst request
	scrm      load.Vec // scratch: SCRM forward pilot report (strongest-first)
	meanCSIdB float64  // local-mean SCH Es/Io (dB)
	geometry  float64  // linear serving-power / (other + noise)
}

// voiceUser is one circuit voice mobile (background load only).
type voiceUser struct {
	model *traffic.VoiceModel
	mob   mobility.Model
	cell  int // serving cell, re-evaluated each frame from position only
}

// Engine runs one replication.
type Engine struct {
	cfg       Config
	layout    *cellular.Layout
	region    mobility.Region
	coder     *vtaoc.Coder
	phy       phy
	scheduler core.Scheduler
	src       *rng.Source

	users  []*dataUser
	voice  []*voiceUser
	queues []*traffic.Queue // per cell
	bursts []*burst

	// Structure-of-arrays physics state for the data users, indexed by user
	// id: waypoint mobility, Jakes fast fading and the long-term channel
	// (path loss x shadowing). Each user's rows are touched only by the
	// goroutine updating that user, so the chunked update fan-out is
	// race-free.
	mobB  *mobility.WaypointBatch
	fadeB *rng.JakesBatch
	chanB *channel.Batch

	// Windowed physics (PilotCells > 0; both nil when the window is the
	// whole layout): the spatial bucket index and the windowed channel
	// state. winB embeds the Batch chanB points at (with cells == window
	// width), so the advance kernels and gain rows are shared; spix
	// additionally serves the voice users' nearest-cell queries, replacing
	// their O(cells) scans.
	spix *spatial.Index
	winB *channel.Window

	// incr caches per-cell admissible regions across frames (fast path
	// only; the exact reference path always rebuilds). Safe to share across
	// snapshot workers: a cell is solved by exactly one worker per frame.
	incr *measurement.IncrementalRegions

	// Per-run constants hoisted out of the per-user frame loop. The exact
	// path computes identical values to the per-call originals; the linear
	// pilot thresholds serve the fast path only.
	fchPG      float64 // W/Rb of the FCH
	ebioTarget float64 // linear FCH Eb/Io target
	addFactor  float64 // 10^(-SoftHandoffAddDB/10)
	minEcIo    float64 // 10^(PilotMinEcIoDB/10)

	// loads is the per-cell resource ledger for this frame: forward-link
	// transmit power (W) or reverse-link received power (W) depending on
	// the configured direction. Allocated once, refilled every frame.
	loads *load.Ledger

	// seq is the sequential frame mode's admission worker — scratch and
	// region builder reused across cells and frames so the admission loop
	// does not allocate, and the engine's own scheduler — and seqGrant its
	// one grant slot (the snapshot loop has one per active cell in grants).
	seq      frameWorker
	seqGrant cellGrants

	// Snapshot frame mode state, nil/empty in sequential mode: the worker
	// pool of the physics pass and the solve phase (nil when FrameParallel
	// == 1), the per-worker scratch, and the per-frame active-cell and grant
	// buffers.
	pool    *stream.Pool
	workers []*frameWorker
	active  []int
	grants  []cellGrants

	// Telemetry, nil/empty when cfg.Trace is unset: the recorder wrapping
	// the configured sink and the per-cell frame counters, reset every
	// frame. All writes happen on the engine's sequential sections (gather
	// results are copied out of the per-cell grant slots), so the trace is
	// byte-identical for any FrameParallel.
	rec        *trace.Recorder
	traceCells []traceCell

	// solveRec, non-nil when cfg.SolveTrace is set, streams the solve
	// trace (see internal/replay). Emission happens only on the engine's
	// sequential sections; the parallel solve phases capture deep copies
	// into their grant slots first.
	solveRec *replay.Recorder

	// loadStepDone latches cfg.LoadStep so the step applies exactly once.
	loadStepDone bool

	// fault, non-nil when cfg.Faults carries events, is the per-frame fault
	// state (down mask, derate vector, load-event cursor — see fault.go).
	// faultDirty and anyDown are its per-frame digests, recomputed by
	// applyFaults and read-only for the rest of the frame.
	fault      *fault.State
	faultDirty bool
	anyDown    bool

	// retryPend marks cells whose last attempted solve was skipped (region
	// build or scheduler failure); a subsequent successful solve counts as a
	// recovered retry in Metrics.SolveRetries. The queue keeps the requests
	// either way — the admission layer retries a failed cell next frame by
	// construction — this makes the recovery observable.
	retryPend []bool

	metrics *Metrics
	now     float64
	frame   int
}

// traceCell accumulates one cell's telemetry counters for the current
// frame; see trace.Record for the field semantics.
type traceCell struct {
	offered      int
	admitted     int
	grantedRatio int
	completed    int
	delaySum     float64
	active       int
	spill        int
	solve        string
}

// admitScratch is one admission worker's per-cell working set: the queue
// snapshot, the scheduler requests and the direction-specific measurement
// attachments. It is reused across cells and frames.
type admitScratch struct {
	items []*traffic.BurstRequest
	reqs  []core.Request
	users []*dataUser
	fwd   []measurement.ForwardRequest
	rev   []measurement.ReverseRequest
	csi   []float64 // live users' mean CSI, input to the batched PHY eval
	bp    []float64 // per-user average throughput, batch output
	vers  []uint64  // live users' measurement versions, for the region cache
	// region is the admissible region the last solveCell call built (or
	// fetched from the incremental cache) — kept for the solve trace, which
	// deep-copies it out of this reused scratch.
	region measurement.Region
}

// frameWorker owns the mutable state one snapshot-phase worker needs so the
// concurrent solves never share anything: scratch buffers, a region builder
// and a scheduler instance cloned from the engine's (see core.Cloner).
type frameWorker struct {
	scratch admitScratch
	regionB measurement.RegionBuilder
	sched   core.Scheduler
}

// cellGrants is the outcome of one cell's solve phase, held until the
// commit phase applies it in cell-index order. The slices are reused
// buffers; only entries with a positive ratio are recorded.
type cellGrants struct {
	cell     int
	skipped  bool // region build or scheduler failed; counted, not granted
	fallback bool // exact solve hit its node budget; grants are greedy's
	offered  int  // live requests gathered, for the telemetry trace
	users    []*dataUser
	ratios   []int
	// prob is the deep-copied solve-trace record (nil unless tracing):
	// captured by the worker, emitted by the sequential commit phase so the
	// stream order never depends on worker scheduling.
	prob *replay.Problem
}

// NewEngine builds a ready-to-run engine for the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	coder, err := vtaoc.New(cfg.VTAOC)
	if err != nil {
		return nil, err
	}
	if !cfg.ExactPHY {
		// Fast path: evaluate the VTAOC ladder through the PR 5 lookup table
		// (documented <= 5e-7 absolute of the exact integral). The exact
		// reference mode keeps the integral so golden outputs stay
		// byte-identical.
		coder.Tabulate()
	}
	var p phy = coder
	if cfg.UseFixedRatePHY {
		fr, err := vtaoc.NewFixedRate(coder, cfg.FixedRateMode)
		if err != nil {
			return nil, err
		}
		p = fr
	}
	sched, err := NewScheduler(cfg.Scheduler, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if j, ok := sched.(*core.JABASD); ok {
		// Graceful degradation: bound the exact solve's node count; a capped
		// solve falls back to the greedy schedule (see core.JABASD.NodeBudget).
		// Clone() carries the budget, so snapshot workers degrade at
		// exactly the same point.
		j.NodeBudget = cfg.SolveNodeBudget
	}
	layout := cellular.NewHexLayout(cfg.Rings, cfg.CellRadius, cfg.WrapAround)
	w, h := layout.Bounds()
	e := &Engine{
		cfg:       cfg,
		layout:    layout,
		region:    mobility.Region{Width: w, Height: h, Wrap: cfg.WrapAround},
		coder:     coder,
		phy:       p,
		scheduler: sched,
		seq:       frameWorker{sched: sched},
		src:       rng.New(cfg.Seed),
		metrics: &Metrics{
			Scheduler: sched.Name(),
			Direction: cfg.Direction.String(),
			Cells:     layout.NumCells(),
		},
	}
	e.fchPG = cfg.RatePlan.FCHSpreadingGain / cfg.RatePlan.FCHThroughput
	e.ebioTarget = mathx.Linear(cfg.FCHEbIoTargetDB)
	e.addFactor = math.Pow(10, -cfg.SoftHandoffAddDB/10)
	e.minEcIo = math.Pow(10, cfg.PilotMinEcIoDB/10)
	if !cfg.ExactPHY {
		e.incr = measurement.NewIncrementalRegions(layout.NumCells(), cfg.RegionEpsilon)
	}
	if cfg.PilotCells > 0 {
		e.spix = spatial.New(layout, cfg.PilotCells)
	}
	e.queues = make([]*traffic.Queue, layout.NumCells())
	for k := range e.queues {
		e.queues[k] = traffic.NewQueue()
	}
	e.fault = newFaultState(cfg, layout.NumCells())
	e.retryPend = make([]bool, layout.NumCells())
	e.loads = load.NewLedger(layout.NumCells())
	if cfg.Trace != nil {
		e.rec = trace.NewRecorder(cfg.Trace, cfg.TraceEvery)
		e.traceCells = make([]traceCell, layout.NumCells())
	}
	if cfg.SolveTrace != nil {
		kind := cfg.Scheduler
		if kind == "" {
			kind = SchedulerJABASD
		}
		e.solveRec = replay.NewRecorder(cfg.SolveTrace, replay.Header{
			Scheduler:    string(kind),
			Objective:    cfg.Objective,
			MaxRatio:     cfg.RatePlan.MaxSpreadingRatio,
			MAC:          cfg.MAC,
			FrameLengthS: cfg.FrameLength,
			Seed:         cfg.Seed,
		})
	}
	if cfg.FrameMode.normalize() == FrameSnapshot {
		cl, ok := sched.(core.Cloner)
		if !ok {
			return nil, fmt.Errorf("sim: scheduler %s does not implement core.Cloner, required by the snapshot frame mode (one independent instance per worker)", sched.Name())
		}
		e.initFrameWorkers(cl)
	}
	e.populate()
	return e, nil
}

// initFrameWorkers sets up the snapshot mode's worker pool and per-worker
// state. FrameParallel == 1 keeps the physics pass and the solve phase
// inline (no pool, no goroutines) but still runs the snapshot semantics
// through worker 0, so the output is identical to any other worker count.
func (e *Engine) initFrameWorkers(cl core.Cloner) {
	n := 1
	if e.cfg.FrameParallel != 1 {
		e.pool = stream.NewPool(e.cfg.FrameParallel)
		n = e.pool.Workers()
	}
	e.workers = make([]*frameWorker, n)
	for i := range e.workers {
		e.workers[i] = &frameWorker{sched: cl.Clone()}
	}
	e.active = make([]int, 0, e.layout.NumCells())
	e.grants = make([]cellGrants, e.layout.NumCells())
}

// Close releases the snapshot-mode worker pool, if any. Run closes the
// engine when it finishes; tests that drive step() directly on a
// snapshot-mode engine should defer Close themselves. Closing is idempotent
// and a closed engine falls back to the inline solve path.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}

// populate creates the data and voice users. The data users' physics state
// is seeded into the SoA batches from exactly the substreams the former
// per-user objects received (mobility from userSrc.Split(1), fading from
// Split(2), per-cell shadowing from Split(10+k)), so the batch kernels
// reproduce the per-object trajectories bit for bit.
func (e *Engine) populate() {
	nCells := e.layout.NumCells()
	nData := nCells * e.cfg.DataUsersPerCell
	e.mobB = mobility.NewWaypointBatch(e.region, e.cfg.MinSpeed, e.cfg.MaxSpeed, 30, nData)
	e.fadeB = rng.NewJakesBatch(nData, 16, e.cfg.DopplerHz)
	// ident is the identity candidate row every user shares when the window
	// is the whole layout: O(cells) memory, never retargeted.
	var ident []int32
	if e.spix != nil {
		// Windowed physics: per-user channel state spans only the candidate
		// window. chanB aliases the window's embedded Batch (cells == window
		// width), so the shared advance/paused/ready plumbing is untouched.
		e.winB = channel.NewWindow(nData, e.spix.Window(), e.cfg.PathLoss, e.cfg.ShadowSigmaDB, e.cfg.ShadowDecorrM)
		e.chanB = e.winB.Batch
	} else {
		e.chanB = channel.NewBatch(nData, nCells, e.cfg.PathLoss, e.cfg.ShadowSigmaDB, e.cfg.ShadowDecorrM)
		ident = make([]int32, nCells)
		for k := range ident {
			ident[k] = int32(k)
		}
	}
	// The per-user measurement buffers are carved from two slabs at their
	// steady-state capacity — one pilot per gain-row slot, at most three
	// active-set cells — so the first frame does not regrow every user's
	// slices. Each slice's capacity is capped at its own span, so a growing
	// append copies out instead of running into the next user's.
	width := e.chanB.Cells()
	pilotSlab := make([]cellular.PilotMeasurement, nData*width)
	const setCap = 3
	setSlab := make([]int, nData*3*setCap)
	set := func(uid, i int) []int {
		off := (3*uid + i) * setCap
		return setSlab[off : off : off+setCap]
	}
	uid := 0
	for c := 0; c < nCells; c++ {
		for i := 0; i < e.cfg.DataUsersPerCell; i++ {
			// Split consumes one parent draw per call, so the split order
			// below (1, 2, 3, then 10..10+cells) must match the scalar
			// engine's exactly to keep every substream — and with it the
			// golden outputs — bit-identical.
			userSrc := e.src.Split(uint64(1000 + uid))
			e.mobB.SeedUser(uid, userSrc.Split(1))
			e.fadeB.SeedUser(uid, userSrc.Split(2))
			dataSrc := userSrc.Split(3)
			e.chanB.SeedUser(uid, userSrc, 10)
			u := &dataUser{
				id:          uid,
				gain:        e.chanB.GainRow(uid),
				pilots:      pilotSlab[uid*width : uid*width : (uid+1)*width],
				active:      set(uid, 0),
				reduced:     set(uid, 1),
				prevReduced: set(uid, 2),
				cand:        ident,
				bucket:      -1,
				source:      traffic.NewDataModel(dataSrc, uid, e.cfg.Data),
				macM:        mac.MustNewMachine(e.cfg.MAC),
				fchPower:    load.MakeVec(3),
				revFCHRx:    load.MakeVec(3),
				revPilot:    load.MakeVec(3),
				scrm:        load.MakeVec(measurement.SCRMMaxPilots),
			}
			if e.winB != nil {
				u.cand = e.winB.CellRow(uid)
			}
			e.users = append(e.users, u)
			uid++
		}
		for i := 0; i < e.cfg.VoiceUsersPerCell; i++ {
			vsrc := e.src.Split(uint64(500000 + c*1000 + i))
			e.voice = append(e.voice, &voiceUser{
				model: traffic.NewVoiceModel(vsrc.Split(1), 1.0, 1.35),
				mob:   mobility.NewRandomWaypoint(vsrc.Split(2), e.region, e.cfg.MinSpeed, e.cfg.MaxSpeed, 30),
				cell:  -1,
			})
		}
	}
}

// Run executes the replication and returns its metrics. Cancelling the
// context stops the frame loop promptly (the context is checked once per
// admission frame, tens of microseconds of work) and returns the context's
// error; the partially accumulated metrics are discarded. A resumed engine
// (Checkpoint.Resume) continues from its checkpointed frame; a fresh one
// starts at 0.
func (e *Engine) Run(ctx context.Context) (*Metrics, error) {
	defer e.Close()
	frames := int(math.Ceil(e.cfg.SimTime / e.cfg.FrameLength))
	for f := e.frame; f < frames; f++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
		// step advanced e.frame to f+1; a checkpoint is always of a frame
		// boundary, after the frame's trace records were emitted.
		if e.cfg.CheckpointEvery > 0 && e.cfg.CheckpointSink != nil && e.frame%e.cfg.CheckpointEvery == 0 {
			if err := e.cfg.CheckpointSink(e.frame, e.Checkpoint); err != nil {
				return nil, fmt.Errorf("sim: checkpoint at frame %d: %w", e.frame, err)
			}
		}
	}
	e.metrics.QueueLength.Finish(e.now)
	e.metrics.ObservedTime = e.cfg.SimTime - e.cfg.WarmupTime
	if e.rec != nil {
		if err := e.rec.Flush(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if e.solveRec != nil {
		if err := e.solveRec.Err(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return e.metrics, nil
}

// step advances the system by one frame.
func (e *Engine) step() {
	dt := e.cfg.FrameLength
	if e.traceCells != nil {
		clear(e.traceCells)
	}
	e.applyFaults()
	e.applyLoadStep()
	e.updateUsers(dt)
	e.migrateQueued()
	e.generateTraffic(dt)
	e.accumulateLoads()
	e.serveBursts(dt)
	e.admit()
	e.collect()
	e.emitTrace()
	e.frame++
}

// applyLoadStep switches every data source to the stepped reading time the
// first frame at or after LoadStep.AtSec. It runs before traffic generation
// so the step's first frame already offers load at the new rate.
func (e *Engine) applyLoadStep() {
	ls := e.cfg.LoadStep
	if ls == nil || e.loadStepDone || e.now < ls.AtSec {
		return
	}
	for _, u := range e.users {
		u.source.SetMeanReadingTime(ls.ReadingTimeSec)
	}
	e.loadStepDone = true
}

// advanceVoice advances one voice user. The serving cell is a pure function
// of the position, so a paused user (zero travel) keeps its cell without
// the nearest-cell search; the -1 sentinel from populate forces the first
// evaluation. The fast path compares squared distances (saving one sqrt per
// candidate); the exact reference path keeps the metre-domain comparison so
// goldens cannot shift on sqrt-rounding ties. With a spatial index present
// (PilotCells > 0) the search expands bucket rings instead of scanning all
// cells — the index is exhaustively tested to return the very cell the
// linear scans would, tie-breaks included, so the choice of search is
// invisible in the results.
// Under a fault schedule a voice user on an out-of-service cell hands off
// to the nearest surviving cell; paused users re-run the search on frames
// where the down mask changed, so recovery hands them cleanly back.
func (e *Engine) advanceVoice(v *voiceUser, dt float64) {
	v.model.Advance(dt)
	travelled := v.mob.Advance(dt)
	if travelled <= 0 && v.cell >= 0 && !e.faultDirty {
		return
	}
	pos := v.mob.Position()
	switch {
	case e.spix != nil && e.cfg.ExactPHY:
		v.cell = e.spix.NearestCell(pos)
	case e.spix != nil:
		v.cell = e.spix.NearestCellSq(pos)
	case e.cfg.ExactPHY:
		v.cell = e.layout.NearestCell(pos)
	default:
		v.cell = e.layout.NearestCellSq(pos)
	}
	if e.anyDown && e.fault.Down[v.cell] {
		v.cell = e.nearestUpCell(pos, v.cell)
	}
}

// updateUsers is the frame's physics pass: it advances every voice user,
// then every data user (mobility, channel state, pilot sets, MAC state and
// the serving burst's instantaneous throughput). Each user's new state is a
// pure function of its own previous state and of the fault mask applyFaults
// fixed for the frame, so with a pool the pass runs as one dispatch — voice
// chunks first, data chunks after — and the result is identical to the
// sequential loop.
func (e *Engine) updateUsers(dt float64) {
	if e.pool == nil {
		for _, v := range e.voice {
			e.advanceVoice(v, dt)
		}
		for _, u := range e.users {
			e.advanceData(u, dt)
		}
		return
	}
	const voiceChunk, dataChunk = 64, 32
	nv := (len(e.voice) + voiceChunk - 1) / voiceChunk
	nd := (len(e.users) + dataChunk - 1) / dataChunk
	e.pool.Run(nv+nd, func(_, task int) {
		if task < nv {
			lo := task * voiceChunk
			for _, v := range e.voice[lo:min(lo+voiceChunk, len(e.voice))] {
				e.advanceVoice(v, dt)
			}
			return
		}
		lo := (task - nv) * dataChunk
		for _, u := range e.users[lo:min(lo+dataChunk, len(e.users))] {
			e.advanceData(u, dt)
		}
	})
}

// advanceData advances one data user and, when its burst is past set-up,
// evaluates the burst's instantaneous VTAOC throughput on the user's fast
// fading. No phase between this pass and serveBursts changes the burst's
// set-up time, the user's mean CSI or the frame time, so serveBursts sees
// exactly the value it would have computed itself.
func (e *Engine) advanceData(u *dataUser, dt float64) {
	e.updateUser(u, dt)
	if b := u.serving; b != nil && b.setupRemaining <= 0 {
		instCSI := u.meanCSIdB + mathx.DB(math.Max(e.fadeB.PowerAt(u.id, e.now), 1e-12))
		b.instBP = e.phy.Throughput(instCSI)
	}
}

// intSlicesEqual reports a == b elementwise.
func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// generateTraffic advances the data sources and enqueues new burst requests.
func (e *Engine) generateTraffic(dt float64) {
	for _, u := range e.users {
		req := u.source.Advance(dt, e.now)
		if req == nil {
			continue
		}
		u.queuedReq = req
		u.queuedCell = u.hostCell
		u.firstGrant = false
		e.queues[u.hostCell].Push(req)
		if e.now >= e.cfg.WarmupTime {
			e.metrics.BurstsGenerated++
		}
	}
}

// accumulateLoads recomputes the per-cell resource ledger for this frame
// from the background (voice + FCH) channels and the ongoing bursts.
func (e *Engine) accumulateLoads() {
	switch e.cfg.Direction {
	case Forward:
		e.loads.Fill(e.cfg.CommonOverheadFrac * e.cfg.MaxCellPowerW)
		for _, v := range e.voice {
			// cell < 0 is the pre-first-frame sentinel; step() always runs
			// the physics pass before the loads are accumulated.
			if v.model.Active() && v.cell >= 0 {
				e.loads.Add(v.cell, e.cfg.VoiceChannelW)
			}
		}
		for _, u := range e.users {
			e.loads.AddVec(u.fchPower)
		}
	case Reverse:
		// Reverse-link quantities are tracked in rise-over-thermal units:
		// the noise floor contributes 1 and the budget is ReverseRiseLimit.
		e.loads.Fill(1)
		// Voice users raise the reverse interference of their serving cell by
		// a fixed per-user share of the budget while talking.
		voiceShare := (e.cfg.ReverseRiseLimit - 1) / 40
		for _, v := range e.voice {
			if v.model.Active() && v.cell >= 0 {
				e.loads.Add(v.cell, voiceShare)
			}
		}
		for _, u := range e.users {
			e.loads.AddVec(u.revFCHRx)
		}
	}
	// Ongoing bursts occupy the resource they were granted.
	for _, b := range e.bursts {
		e.loads.AddVec(b.load)
	}
}

// serveBursts delivers bits on the active bursts, at the throughput the
// physics pass evaluated, and retires completed ones in burst order.
func (e *Engine) serveBursts(dt float64) {
	remaining := e.bursts[:0]
	for _, b := range e.bursts {
		u := b.user
		if b.setupRemaining > 0 {
			b.setupRemaining -= dt
			b.serviceTime += dt
			remaining = append(remaining, b)
			continue
		}
		// Instantaneous VTAOC throughput rides the fast fading; the physics
		// pass evaluated it.
		rate := e.cfg.RatePlan.SCHBitRate(b.ratio, b.instBP)
		delivered := rate * dt
		if delivered > b.remaining {
			delivered = b.remaining
		}
		b.remaining -= delivered
		b.servedBits += delivered
		b.serviceTime += dt
		if e.now >= e.cfg.WarmupTime {
			e.metrics.BitsDelivered += delivered
		}
		u.macM.Touch(e.now)
		if b.remaining <= 0 {
			e.completeBurst(b)
			continue
		}
		remaining = append(remaining, b)
	}
	e.bursts = remaining
}

// completeBurst records statistics for a finished burst and releases the user.
func (e *Engine) completeBurst(b *burst) {
	u := b.user
	req := u.queuedReq
	if req != nil {
		delay := e.now + e.cfg.FrameLength - req.ArrivalTime
		if e.traceCells != nil {
			// The trace keeps warm-up samples: transients are its purpose.
			tc := &e.traceCells[u.queuedCell]
			tc.completed++
			tc.delaySum += delay
		}
		if e.now >= e.cfg.WarmupTime {
			e.metrics.BurstDelay.Add(delay)
			e.metrics.BurstsCompleted++
			if b.serviceTime > 0 {
				avgRate := b.servedBits / b.serviceTime
				e.metrics.ServedRate.Add(avgRate)
				if avgRate >= e.cfg.CoverageRateFraction*e.cfg.RatePlan.FCHBitRate() {
					e.metrics.CoveredBursts++
				}
			}
		}
	}
	u.queuedReq = nil
	u.serving = nil
	u.source.BurstDone()
	u.macM.Touch(e.now)
}

// admit runs the measurement and scheduling sub-layers for every cell, in
// the configured frame mode. All per-cell working storage lives in the
// admission scratch sets and region builders, and the JABA-SD schedulers
// carry their own warm ilp.Solver/greedy scratch (cloned per worker in
// snapshot mode), so the steady-state admission loop is allocation-free
// through the integer programme up to the returned per-cell assignment.
func (e *Engine) admit() {
	if e.cfg.FrameMode.normalize() == FrameSnapshot {
		e.admitSnapshot()
		return
	}
	e.admitSequential()
}

// admitSequential is the legacy intra-frame-coupled mode: cells admit in
// index order against the live ledger, so cell k's admissible region
// already reflects the grants cells 0..k-1 made earlier in the same frame.
// A failed solve skips the cell this frame rather than abort the run: the
// queue keeps the requests, so the cell is retried next frame (noteSolve
// counts the recovery when it lands).
func (e *Engine) admitSequential() {
	loads := e.loads.Values() // live: commits below mutate it in place
	for k := 0; k < e.layout.NumCells(); k++ {
		if e.queues[k].Len() == 0 || e.cellDown(k) {
			continue
		}
		e.solveInto(&e.seqGrant, k, &e.seq, loads)
		e.commitSolved(&e.seqGrant)
	}
}

// noteSolve folds one attempted cell-solve's outcome into the robustness
// counters: a skip marks the cell pending retry, a success after a skip is
// a recovered retry, and a budget-capped exact solve that degraded to the
// greedy schedule counts as a fallback. Called only from the sequential
// commit sections, so the counters are deterministic for any worker count.
func (e *Engine) noteSolve(k int, skipped, fallback bool) {
	if skipped {
		e.metrics.SkippedCells++
		e.retryPend[k] = true
		return
	}
	if e.retryPend[k] {
		e.retryPend[k] = false
		e.metrics.SolveRetries++
	}
	if fallback {
		e.metrics.FallbackSolves++
	}
}

// traceSolve records one cell's admission outcome for the telemetry trace:
// the number of live requests gathered and whether the solve was abandoned
// or degraded to the greedy fallback. Cells that never gathered a live
// request stay at trace.SolveIdle.
func (e *Engine) traceSolve(cell, offered int, skipped, fallback bool) {
	if e.traceCells == nil {
		return
	}
	tc := &e.traceCells[cell]
	tc.offered = offered
	switch {
	case skipped:
		tc.solve = trace.SolveSkipped
	case fallback:
		tc.solve = trace.SolveFallback
	case offered > 0:
		tc.solve = trace.SolveOK
	}
}

// admitSnapshot is the paper-faithful mode: a measure+solve phase builds
// every queued cell's admissible region and solves its scheduler ILP
// against the immutable frame-start ledger (the previous frame's
// measurements), fanned out over the worker pool; a commit phase then
// applies the grants in cell-index order. The fan-out is one task per
// active cell, or with Config.Tiles = T > 0 at most T tasks, each solving a
// contiguous run of the active cells; either way a task solves on its
// pool worker's scheduler clone and scratch, and the shared region cache
// entry of a cell is touched only by that cell's solve. No cell's solution
// reads another cell's grant, so the solves are independent and the output
// depends on neither the worker nor the tile count; the fixed commit order
// makes it byte-identical as well. Cells may jointly overshoot a shared budget
// within the frame — exactly the paper's semantics, absorbed next frame
// when the ledger is rebuilt from the granted bursts.
func (e *Engine) admitSnapshot() {
	e.active = e.active[:0]
	for k := 0; k < e.layout.NumCells(); k++ {
		if e.queues[k].Len() > 0 && !e.cellDown(k) {
			e.active = append(e.active, k)
		}
	}
	n := len(e.active)
	if n == 0 {
		return
	}
	loads := e.loads.Values() // immutable until the commit phase
	tasks := n
	if e.cfg.Tiles > 0 && e.cfg.Tiles < n {
		tasks = e.cfg.Tiles
	}
	solve := func(w, t int) {
		for i := t * n / tasks; i < (t+1)*n/tasks; i++ {
			e.solveInto(&e.grants[i], e.active[i], e.workers[w], loads)
		}
	}
	if e.pool != nil {
		e.pool.Run(tasks, solve)
	} else {
		for t := 0; t < tasks; t++ {
			solve(0, t)
		}
	}
	for i := range e.active {
		e.commitSolved(&e.grants[i])
	}
}

// solveInto runs cell k's measure+solve phase on worker w against the
// ledger loads and records the outcome in g: the live requests gathered,
// whether the solve was skipped or fell back to greedy, the positive grants
// and — when tracing — a deep copy of the solved problem. In snapshot mode
// the scheduler is first reseeded for (frame, cell) (core.CellSeeder), so
// the grants do not depend on which worker or task solved the cell; the
// sequential scheduler keeps its stream across cells and frames.
func (e *Engine) solveInto(g *cellGrants, k int, w *frameWorker, loads []float64) {
	g.cell = k
	g.skipped = false
	g.fallback = false
	g.offered = 0
	g.users = g.users[:0]
	g.ratios = g.ratios[:0]
	g.prob = nil
	if !e.gatherCell(k, &w.scratch, loads) {
		return
	}
	g.offered = len(w.scratch.reqs)
	if cs, ok := w.sched.(core.CellSeeder); ok && e.cfg.FrameMode.normalize() == FrameSnapshot {
		cs.SeedCell(uint64(e.frame), uint64(k))
	}
	assignment, err := e.solveCell(k, &w.scratch, &w.regionB, w.sched, loads)
	if err != nil {
		g.skipped = true
		return
	}
	g.fallback = assignment.Fallback
	if e.solveRec != nil {
		g.prob = replay.CopyProblem(e.frame, e.now, k, w.scratch.reqs, w.scratch.region, assignment.Ratios)
	}
	for j, m := range assignment.Ratios {
		if m > 0 {
			g.users = append(g.users, w.scratch.users[j])
			g.ratios = append(g.ratios, m)
		}
	}
}

// commitSolved applies one solved cell on the sequential commit section:
// the telemetry and robustness counters, the solve-trace record, then the
// grants. Every frame mode commits through it in ascending cell order, so
// the counters, traces and ledger are identical for any worker or tile
// count.
func (e *Engine) commitSolved(g *cellGrants) {
	e.traceSolve(g.cell, g.offered, g.skipped, g.fallback)
	if g.skipped {
		e.noteSolve(g.cell, true, false)
		return
	}
	if g.offered > 0 {
		e.noteSolve(g.cell, false, g.fallback)
	}
	if g.prob != nil {
		e.solveRec.Emit(g.prob)
		g.prob = nil
	}
	e.commitCell(g.cell, e.queues[g.cell], g.users, g.ratios)
}

// gatherCell drains cell k's queue into the scratch working set: stale
// entries are dropped from the queue, live requests become core.Requests
// plus their direction-specific measurement attachments. loads is the
// per-cell ledger the reverse-link pilot reports normalise against — the
// live ledger in sequential mode, the frame-start ledger in snapshot mode
// (identical storage; snapshot mode simply defers the mutations). The
// per-user revPilot/scrm scratch is safe to fill concurrently because a
// user has at most one outstanding request, queued in exactly one cell.
// Reports whether anything is left to schedule.
func (e *Engine) gatherCell(k int, s *admitScratch, loads []float64) bool {
	queue := e.queues[k]
	s.items = append(s.items[:0], queue.Items()...)
	s.reqs = s.reqs[:0]
	s.users = s.users[:0]
	s.fwd = s.fwd[:0]
	s.rev = s.rev[:0]
	s.csi = s.csi[:0]
	s.vers = s.vers[:0]
	// First pass: drop stale entries and collect the live users' CSI, so the
	// physical layer evaluates the whole cell in one batched call over the
	// (tabulated) mode ladder. AverageThroughput is a pure function, so the
	// two-pass shape returns exactly the per-item values the interleaved
	// loop produced.
	for _, item := range s.items {
		u := e.userByID(item.UserID)
		if u == nil || u.queuedReq != item {
			queue.Remove(item) // stale entry
			continue
		}
		s.users = append(s.users, u)
		s.csi = append(s.csi, u.meanCSIdB)
	}
	if len(s.users) == 0 {
		return false
	}
	s.bp = e.avgThroughputBatch(s.bp, s.csi)
	for i, u := range s.users {
		item := u.queuedReq
		bp := s.bp[i]
		wait := e.now - item.ArrivalTime
		s.vers = append(s.vers, u.ver)
		s.reqs = append(s.reqs, core.Request{
			UserID:        u.id,
			SizeBits:      item.SizeBits,
			WaitingTime:   wait,
			SetupDelay:    u.macM.SetupDelayNow(e.now),
			Priority:      item.Priority,
			AvgThroughput: bp,
			MaxRatio:      e.cfg.RatePlan.MaxUsefulRatio(item.SizeBits, bp, e.cfg.MinBurstDuration),
		})
		switch e.cfg.Direction {
		case Forward:
			// The request shares the user's FCH ledger: the region builder
			// only reads it, and the region is consumed within this frame.
			s.fwd = append(s.fwd, measurement.ForwardRequest{UserID: u.id, FCHPower: u.fchPower, Alpha: 1})
		case Reverse:
			zeta := 4.0
			u.revPilot.Reset()
			for i := 0; i < u.revFCHRx.Len(); i++ {
				c, x := u.revFCHRx.At(i)
				u.revPilot.Set(c, x/(zeta*math.Max(loads[c], 1)))
			}
			// The pilots are sorted strongest-first, so the first
			// SCRMMaxPilots entries are exactly the SCRM payload.
			u.scrm.Reset()
			for i, pm := range u.pilots {
				if i >= measurement.SCRMMaxPilots {
					break
				}
				u.scrm.Set(int(pm.Cell), pm.EcIo)
			}
			s.rev = append(s.rev, measurement.ReverseRequest{
				UserID:       u.id,
				HostCell:     u.hostCell,
				ReversePilot: u.revPilot,
				SCRM:         measurement.SCRM{Pilots: u.scrm},
				Zeta:         zeta,
				Alpha:        1,
			})
		}
	}
	return len(s.reqs) > 0
}

// avgThroughputBatch fills dst with the physical layer's average throughput
// for each CSI value. The adaptive coder evaluates the whole vector in one
// batched pass over the (tabulated) ladder; other phy implementations (the
// fixed-rate ablation) fall back to the scalar call per element. Either way
// every element equals e.phy.AverageThroughput of its input.
func (e *Engine) avgThroughputBatch(dst, csi []float64) []float64 {
	if c, ok := e.phy.(*vtaoc.Coder); ok {
		return c.AverageThroughputBatch(dst, csi)
	}
	if cap(dst) < len(csi) {
		dst = make([]float64, len(csi))
	}
	dst = dst[:len(csi)]
	for i, v := range csi {
		dst[i] = e.phy.AverageThroughput(v)
	}
	return dst
}

// solveCell builds cell k's admissible region for the gathered requests
// against the given ledger and solves the scheduling problem with the given
// scheduler and region builder. On the fast path the region comes from the
// engine's incremental cache (rebuilt through rb only when the cell's
// request set, measurement versions or — reverse link — involved-cell loads
// changed); the exact reference path has no cache and always rebuilds. The
// returned assignment indexes s.users.
func (e *Engine) solveCell(k int, s *admitScratch, rb *measurement.RegionBuilder, sched core.Scheduler, loads []float64) (core.Assignment, error) {
	var region measurement.Region
	var err error
	switch e.cfg.Direction {
	case Forward:
		maxLoad := e.cfg.MaxCellPowerW
		if e.fault != nil {
			// Degraded cell: the forward budget is the derated transmit
			// power. Derate is 1 for healthy cells (exact multiply by 1, no
			// bit drift) and the incremental cache recomputes its bounds
			// from MaxLoad on every reuse, so no invalidation is needed.
			maxLoad *= e.fault.Derate[k]
		}
		state := measurement.ForwardState{
			CurrentLoad: loads,
			MaxLoad:     maxLoad,
			GammaS:      e.cfg.RatePlan.GammaS,
		}
		if e.incr != nil {
			region, _, err = e.incr.ForwardCell(k, rb, state, s.fwd, s.vers)
		} else {
			region, err = rb.Forward(state, s.fwd)
		}
	case Reverse:
		state := measurement.ReverseState{
			TotalReceived: loads,
			MaxReceived:   e.cfg.ReverseRiseLimit,
			GammaS:        e.cfg.RatePlan.GammaS,
			ShadowMargin:  e.cfg.ShadowMargin,
		}
		if e.incr != nil {
			region, _, err = e.incr.ReverseCell(k, rb, state, s.rev, s.vers)
		} else {
			region, err = rb.Reverse(state, s.rev)
		}
	}
	if err != nil {
		return core.Assignment{}, err
	}
	s.region = region
	return sched.Schedule(core.Problem{
		Requests:  s.reqs,
		Region:    region,
		MaxRatio:  e.cfg.RatePlan.MaxSpreadingRatio,
		Objective: e.cfg.Objective,
		MAC:       &e.cfg.MAC,
	})
}

// commitCell applies cell k's grants: granted requests leave the queue,
// bursts start with their per-cell footprint frozen, and the live ledger
// and admission statistics are updated. users[j] receives ratios[j]; zero
// ratios are no-ops.
func (e *Engine) commitCell(k int, queue *traffic.Queue, users []*dataUser, ratios []int) {
	for j, m := range ratios {
		if m <= 0 {
			continue
		}
		if e.traceCells != nil {
			e.traceCells[k].admitted++
			e.traceCells[k].grantedRatio += m
		}
		u := users[j]
		item := u.queuedReq
		queue.Remove(item)
		// Freeze the burst's per-cell footprint at grant time: the user's
		// ledgers are rebuilt every frame, so the burst needs its own copy.
		var granted load.Vec
		switch e.cfg.Direction {
		case Forward:
			granted = u.fchPower.CloneScaled(e.cfg.RatePlan.GammaS * float64(m))
		case Reverse:
			granted = u.revFCHRx.CloneScaled(e.cfg.RatePlan.GammaS * float64(m))
		}
		b := &burst{
			user:           u,
			ratio:          m,
			remaining:      item.SizeBits,
			load:           granted,
			setupRemaining: u.macM.SetupDelayNow(e.now),
			grantedAt:      e.now,
		}
		e.bursts = append(e.bursts, b)
		u.serving = b
		e.loads.AddVec(granted)
		if e.now >= e.cfg.WarmupTime {
			e.metrics.AssignedRatio.Add(float64(m))
			if !u.firstGrant {
				e.metrics.AdmissionWait.Add(e.now - item.ArrivalTime)
			}
		}
		u.firstGrant = true
	}
}

// collect records per-frame statistics.
func (e *Engine) collect() {
	if e.now < e.cfg.WarmupTime {
		return
	}
	budget := e.cfg.MaxCellPowerW
	if e.cfg.Direction == Reverse {
		budget = e.cfg.ReverseRiseLimit
	}
	for k := 0; k < e.layout.NumCells(); k++ {
		e.metrics.CellLoad.Add(mathx.Clamp(e.loads.Get(k)/budget, 0, 2))
	}
	total := 0
	for _, q := range e.queues {
		total += q.Len()
	}
	e.metrics.QueueLength.Observe(e.now, float64(total))
}

// emitTrace appends one telemetry record per cell for a sampled frame. It
// runs at the end of step, after serve/admit/collect, so the records see
// the frame's completed bursts, the committed grants and the end-of-frame
// queue lengths and loads.
func (e *Engine) emitTrace() {
	if e.rec == nil || !e.rec.Sampled(e.frame) {
		return
	}
	for _, b := range e.bursts {
		e.traceCells[b.user.queuedCell].active++
	}
	budget := e.cfg.MaxCellPowerW
	if e.cfg.Direction == Reverse {
		budget = e.cfg.ReverseRiseLimit
	}
	for k := range e.traceCells {
		tc := &e.traceCells[k]
		solve := tc.solve
		if solve == "" {
			solve = trace.SolveIdle
		}
		down := 0
		if e.cellDown(k) {
			down = 1
		}
		e.rec.Emit(trace.Record{
			Frame:        e.frame,
			TimeS:        e.now,
			Cell:         k,
			Offered:      tc.offered,
			Admitted:     tc.admitted,
			GrantedRatio: tc.grantedRatio,
			Completed:    tc.completed,
			DelaySumS:    tc.delaySum,
			QueueLen:     e.queues[k].Len(),
			ActiveBursts: tc.active,
			Load:         e.loads.Get(k) / budget,
			Down:         down,
			Spill:        tc.spill,
			Solve:        solve,
		})
	}
}

// userByID finds a data user by identifier.
func (e *Engine) userByID(id int) *dataUser {
	if id >= 0 && id < len(e.users) && e.users[id].id == id {
		return e.users[id]
	}
	for _, u := range e.users {
		if u.id == id {
			return u
		}
	}
	return nil
}

// Run executes a single replication of the scenario described by cfg. The
// context cancels the run mid-flight (checked every frame).
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx)
}

// String describes the engine.
func (e *Engine) String() string {
	return fmt.Sprintf("Engine(%s, %d cells, %d data users, %s link)",
		e.scheduler.Name(), e.layout.NumCells(), len(e.users), e.cfg.Direction)
}
