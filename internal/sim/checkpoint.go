package sim

// Versioned checkpoint/resume of the full engine state. A checkpoint is
// taken at a frame boundary (after step() returns) and records everything
// the next frame reads that is not a pure function of the configuration:
// the master and per-entity draw streams, the SoA channel state, each data
// user's measurement snapshot (paused users carry it across frames), the
// MAC machines, the traffic sources, the queue contents, the ongoing bursts
// and the accumulated metrics. Everything else — distance rows, the load
// ledger, the incremental region caches, the Jakes fading table, solver
// warm state — is per-frame scratch or static after seeding, rebuilt
// deterministically by NewEngine + the next step().
//
// Resume rebuilds the engine from the stored configuration (populate
// consumes exactly the draws it consumed originally, recreating every
// substream and alias) and then overwrites the mutable state in place, so
// slices handed out by the batches (gain rows, window slot maps) keep
// aliasing the restored storage. A run continued from a checkpoint at frame
// k is byte-identical to the uninterrupted run from frame k on — metrics
// and trace included — which TestCheckpointResumeByteIdentical gates.
//
// The stored configuration is authoritative for everything semantic; the
// caller may only change the non-semantic execution knobs (FrameParallel,
// Tiles, TraceEvery, CheckpointEvery and the sinks) before resuming. A
// semantic hash in the header refuses mismatched resumes with a precise
// error instead of silently diverging.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"jabasd/internal/cellular"
	"jabasd/internal/checkpoint"
	"jabasd/internal/core"
	"jabasd/internal/mobility"
	"jabasd/internal/traffic"
)

// semanticConfigHash hashes the scenario-defining part of the
// configuration: the execution knobs that provably never change results
// (worker counts, tiling, telemetry and checkpoint cadence — the engine's
// determinism tests lock that in) are zeroed first, and the fields with an
// empty-means-default encoding are normalised so "" and the spelled-out
// default hash identically.
func semanticConfigHash(cfg Config) ([sha256.Size]byte, error) {
	cfg.FrameParallel = 0
	cfg.Tiles = 0
	cfg.TraceEvery = 0
	cfg.CheckpointEvery = 0
	cfg.Trace = nil
	cfg.CheckpointSink = nil
	cfg.FrameMode = cfg.FrameMode.normalize()
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedulerJABASD
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("sim: hashing config: %w", err)
	}
	return sha256.Sum256(b), nil
}

// Checkpoint serialises the engine's complete state to w in the versioned
// container format of internal/checkpoint. It must be called at a frame
// boundary — between Run frames via Config.CheckpointSink, or after Run
// returns — never from inside a frame.
func (e *Engine) Checkpoint(w io.Writer) error {
	hash, err := semanticConfigHash(e.cfg)
	if err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(e.cfg)
	if err != nil {
		return fmt.Errorf("sim: marshaling config: %w", err)
	}
	cw := checkpoint.NewWriter(w)

	cw.Section("config")
	cw.Bytes(cfgJSON)
	cw.Bytes(hash[:])

	cw.Section("engine")
	cw.Int(e.frame)
	cw.F64(e.now)
	cw.Bool(e.loadStepDone)
	// Fault runtime: only the load-event cursor is stored — the down/derate
	// state is a pure function of simulated time, reconstructed on resume —
	// plus the pending-retry marks feeding Metrics.SolveRetries.
	if e.fault != nil {
		cw.Int(e.fault.LoadCursor())
	} else {
		cw.Int(0)
	}
	for _, p := range e.retryPend {
		cw.Bool(p)
	}
	e.src.EncodeState(cw)
	cw.Int(len(e.users))
	cw.Int(len(e.voice))
	cw.Int(e.layout.NumCells())
	if e.winB != nil {
		cw.Int(e.winB.Width())
	} else {
		cw.Int(0)
	}

	// Scheduler stream state: only the sequential-mode Random scheduler
	// carries a semantic stream across frames (snapshot workers reseed
	// per (frame, cell) via core.CellSeeder, so their clones hold none).
	cw.Section("sched")
	if r, ok := e.scheduler.(*core.Random); ok && e.cfg.FrameMode.normalize() == FrameSequential {
		cw.Bool(true)
		r.Src.EncodeState(cw)
	} else {
		cw.Bool(false)
	}

	cw.Section("mobility")
	e.mobB.EncodeState(cw)

	cw.Section("channel")
	if e.winB != nil {
		e.winB.EncodeState(cw)
	} else {
		e.chanB.EncodeState(cw)
	}

	cw.Section("users")
	for _, u := range e.users {
		cw.Int(len(u.pilots))
		for _, pm := range u.pilots {
			cw.Int(int(pm.Cell))
			cw.F64(pm.EcIo)
			cw.F64(pm.EcIoDB)
			cw.F64(pm.GainDB)
		}
		cw.Ints(u.active)
		cw.Ints(u.reduced)
		cw.Ints(u.prevReduced)
		cw.Int(u.hostCell)
		cw.U64(u.ver)
		cw.Int(u.bucket)
		cw.F64(u.geometry)
		cw.F64(u.meanCSIdB)
		u.fchPower.EncodeState(cw)
		u.revFCHRx.EncodeState(cw)
		cw.Int(u.queuedCell)
		cw.Bool(u.firstGrant)
		u.macM.EncodeState(cw)
		u.source.EncodeState(cw)
	}

	cw.Section("voice")
	for _, v := range e.voice {
		v.model.EncodeState(cw)
		rw, ok := v.mob.(*mobility.RandomWaypoint)
		if !ok {
			return fmt.Errorf("sim: voice mobility model %T is not checkpointable", v.mob)
		}
		rw.EncodeState(cw)
		cw.Int(v.cell)
	}

	// Queue entries are stored by value; resume re-links each to its user's
	// restored pending request, recreating the pointer sharing gatherCell's
	// staleness test depends on.
	cw.Section("queues")
	for _, q := range e.queues {
		items := q.Items()
		cw.Int(len(items))
		for _, it := range items {
			cw.Int(it.UserID)
			cw.F64(it.SizeBits)
			cw.F64(it.ArrivalTime)
			cw.F64(it.Priority)
		}
	}

	cw.Section("bursts")
	cw.Int(len(e.bursts))
	for _, b := range e.bursts {
		cw.Int(b.user.id)
		cw.Int(b.ratio)
		cw.F64(b.remaining)
		cw.F64(b.setupRemaining)
		cw.F64(b.servedBits)
		cw.F64(b.serviceTime)
		cw.F64(b.grantedAt)
		b.load.EncodeState(cw)
	}

	cw.Section("metrics")
	m := e.metrics
	m.BurstDelay.EncodeState(cw)
	m.AdmissionWait.EncodeState(cw)
	m.ServedRate.EncodeState(cw)
	m.CellLoad.EncodeState(cw)
	m.QueueLength.EncodeState(cw)
	m.AssignedRatio.EncodeState(cw)
	cw.I64(m.BurstsGenerated)
	cw.I64(m.BurstsCompleted)
	cw.I64(m.BurstsExpired)
	cw.I64(m.SkippedCells)
	cw.I64(m.SolveRetries)
	cw.I64(m.FallbackSolves)
	cw.I64(m.SpilloverHandoffs)
	cw.I64(m.OutageCellFrames)
	cw.I64(m.CoveredBursts)
	cw.F64(m.BitsDelivered)
	cw.F64(m.ObservedTime)

	return cw.Close()
}

// Checkpoint is a checkpoint opened for resuming: the configuration has
// been decoded and verified, the state sections are still pending. The
// two-phase API lets the caller adjust the non-semantic execution knobs
// (attach a trace sink, change the worker count) before Resume rebuilds
// the engine.
type Checkpoint struct {
	cfg  Config
	hash [sha256.Size]byte
	rd   *checkpoint.Reader
	used bool
}

// ReadCheckpoint opens a checkpoint stream and decodes its configuration.
// The reader must deliver the bytes Engine.Checkpoint wrote; they are
// consumed incrementally, so r should stay readable until Resume returns.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	rd, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("sim: opening checkpoint: %w", err)
	}
	if err := rd.Section("config"); err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint config: %w", err)
	}
	cfgJSON := rd.Bytes()
	storedHash := rd.Bytes()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint config: %w", err)
	}
	c := &Checkpoint{rd: rd}
	if err := json.Unmarshal(cfgJSON, &c.cfg); err != nil {
		return nil, fmt.Errorf("sim: checkpoint config does not parse: %w", err)
	}
	if len(storedHash) != sha256.Size {
		return nil, fmt.Errorf("sim: checkpoint config hash is %d bytes, want %d", len(storedHash), sha256.Size)
	}
	copy(c.hash[:], storedHash)
	// The stored hash must match the stored config: a mismatch means the
	// checkpoint was produced by a build whose semantic-field set differs
	// from ours (or the file was tampered with), and resuming would not be
	// byte-faithful either way.
	want, err := semanticConfigHash(c.cfg)
	if err != nil {
		return nil, err
	}
	if want != c.hash {
		return nil, fmt.Errorf("sim: checkpoint config hash mismatch: the checkpoint was written by an incompatible build (semantic config fields differ)")
	}
	return c, nil
}

// ReadCheckpointFile opens a checkpoint file. The whole file is read into
// memory, so the file may be replaced while the resume is in flight.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint: %w", err)
	}
	return ReadCheckpoint(bytes.NewReader(b))
}

// Config returns the configuration the checkpointed run was using. Callers
// typically take it, adjust the non-semantic execution knobs and pass it to
// Resume.
func (c *Checkpoint) Config() Config { return c.cfg }

// Compatible reports whether cfg could resume this checkpoint: it must be
// semantically identical to the stored configuration. It does not consume
// the checkpoint, so callers can validate a resume before committing to it.
func (c *Checkpoint) Compatible(cfg Config) error {
	got, err := semanticConfigHash(cfg)
	if err != nil {
		return err
	}
	if got != c.hash {
		return fmt.Errorf("sim: resume config differs from the checkpoint's scenario (only FrameParallel, Tiles, TraceEvery, CheckpointEvery and the sinks may change across a resume)")
	}
	return nil
}

// Resume rebuilds an engine from the checkpoint under cfg and restores the
// saved state into it. cfg must be semantically identical to the stored
// configuration — only FrameParallel, Tiles, TraceEvery, CheckpointEvery
// and the sinks may differ — otherwise Resume refuses with an error naming
// the mismatch. Resume consumes the checkpoint; it can be called once.
func (c *Checkpoint) Resume(cfg Config) (*Engine, error) {
	if c.used {
		return nil, fmt.Errorf("sim: checkpoint already resumed")
	}
	c.used = true
	if err := c.Compatible(cfg); err != nil {
		return nil, err
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.decodeState(c.rd); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// decodeState restores every state section into the freshly built engine.
// All decoding goes through the sticky reader; structural damage surfaces
// as an error here, never as a silently diverging engine.
func (e *Engine) decodeState(rd *checkpoint.Reader) error {
	frames := int(math.Ceil(e.cfg.SimTime / e.cfg.FrameLength))

	if err := rd.Section("engine"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	frame := rd.Int()
	now := rd.F64()
	loadStepDone := rd.Bool()
	faultLoadIdx := rd.Int()
	for k := range e.retryPend {
		e.retryPend[k] = rd.Bool()
	}
	e.src.DecodeState(rd)
	nUsers, nVoice, nCells, width := rd.Int(), rd.Int(), rd.Int(), rd.Int()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	if frame < 0 || frame > frames {
		return fmt.Errorf("sim: checkpoint frame %d outside the scenario's 0..%d", frame, frames)
	}
	if e.fault != nil {
		// Rebuild the down/derate state as of the checkpointed run's last
		// applyFaults: the mask is a pure function of simulated time, so
		// advancing to the last completed frame's time reproduces it — and
		// with it the next frame's mask-change flag — exactly. The load
		// cursor is the one piece of fault state that is not (each event
		// fires once), hence the stored index.
		if frame > 0 {
			e.fault.Advance(float64(frame-1) * e.cfg.FrameLength)
		}
		if err := e.fault.SetLoadCursor(faultLoadIdx); err != nil {
			return fmt.Errorf("sim: resuming: %w", err)
		}
	}
	wantWidth := 0
	if e.winB != nil {
		wantWidth = e.winB.Width()
	}
	if nUsers != len(e.users) || nVoice != len(e.voice) || nCells != e.layout.NumCells() || width != wantWidth {
		return fmt.Errorf("sim: checkpoint population (%d users, %d voice, %d cells, window %d) does not match the scenario (%d, %d, %d, %d)",
			nUsers, nVoice, nCells, width, len(e.users), len(e.voice), e.layout.NumCells(), wantWidth)
	}
	e.frame = frame
	e.now = now
	e.loadStepDone = loadStepDone

	if err := rd.Section("sched"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	if rd.Bool() {
		r, ok := e.scheduler.(*core.Random)
		if !ok {
			return fmt.Errorf("sim: checkpoint carries random-scheduler state but the scenario's scheduler is %s", e.scheduler.Name())
		}
		r.Src.DecodeState(rd)
	}

	if err := rd.Section("mobility"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	e.mobB.DecodeState(rd)

	if err := rd.Section("channel"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	if e.winB != nil {
		e.winB.DecodeState(rd) // in place: u.gain and u.cand keep aliasing
	} else {
		e.chanB.DecodeState(rd)
	}

	if err := rd.Section("users"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	for _, u := range e.users {
		np := rd.Int()
		if np < 0 || np > nCells {
			rd.Fail("user %d has %d pilots, cells %d", u.id, np, nCells)
			break
		}
		u.pilots = u.pilots[:0]
		for i := 0; i < np; i++ {
			cell := rd.Int()
			if cell < 0 || cell >= nCells {
				rd.Fail("user %d pilot names cell %d, cells %d", u.id, cell, nCells)
				break
			}
			// The slot is not stored: it is the cell's position in the
			// (already decoded) candidate row — the cell itself on the
			// identity row. A cell missing from the row gets slot -1, which
			// the next pilot update treats as stale and rebuilds from.
			slot := cellular.FindCell(u.cand, int32(cell))
			// Keyed composite-literal operands evaluate in lexical order, so
			// the three reads land in the fields they were written from.
			u.pilots = append(u.pilots, cellular.PilotMeasurement{
				Cell:   int32(cell),
				Slot:   int32(slot),
				EcIo:   rd.F64(),
				EcIoDB: rd.F64(),
				GainDB: rd.F64(),
			})
		}
		u.active = append(u.active[:0], rd.Ints()...)
		u.reduced = append(u.reduced[:0], rd.Ints()...)
		u.prevReduced = append(u.prevReduced[:0], rd.Ints()...)
		u.hostCell = rd.Int()
		u.ver = rd.U64()
		u.bucket = rd.Int()
		u.geometry = rd.F64()
		u.meanCSIdB = rd.F64()
		u.fchPower.DecodeState(rd)
		u.revFCHRx.DecodeState(rd)
		u.queuedCell = rd.Int()
		u.firstGrant = rd.Bool()
		u.macM.DecodeState(rd)
		u.source.DecodeState(rd)
		u.queuedReq = u.source.Pending()
		if rd.Err() != nil {
			break
		}
	}

	if err := rd.Section("voice"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	for _, v := range e.voice {
		v.model.DecodeState(rd)
		rw, ok := v.mob.(*mobility.RandomWaypoint)
		if !ok {
			return fmt.Errorf("sim: voice mobility model %T is not checkpointable", v.mob)
		}
		rw.DecodeState(rd)
		cell := rd.Int()
		if cell < -1 || cell >= nCells {
			rd.Fail("voice user cell %d out of range", cell)
			break
		}
		v.cell = cell
	}

	if err := rd.Section("queues"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	linked := make([]bool, len(e.users))
	for _, q := range e.queues {
		n := rd.Int()
		if n < 0 || n > len(e.users) {
			rd.Fail("queue holds %d entries, users %d", n, len(e.users))
			break
		}
		for i := 0; i < n; i++ {
			uid := rd.Int()
			size, arr, prio := rd.F64(), rd.F64(), rd.F64()
			if rd.Err() != nil {
				break
			}
			// Re-link the entry to the user's restored pending request when
			// it IS that request; anything else was a stale entry in the
			// original queue and is recreated as one (a fresh pointer, which
			// gatherCell drops exactly like the original).
			if u := e.userByID(uid); u != nil && u.queuedReq != nil && !linked[u.id] &&
				u.queuedReq.SizeBits == size && u.queuedReq.ArrivalTime == arr && u.queuedReq.Priority == prio {
				linked[u.id] = true
				q.Push(u.queuedReq)
				continue
			}
			q.Push(&traffic.BurstRequest{UserID: uid, SizeBits: size, ArrivalTime: arr, Priority: prio})
		}
	}

	if err := rd.Section("bursts"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	nb := rd.Int()
	if nb < 0 || nb > len(e.users) {
		rd.Fail("%d ongoing bursts, users %d", nb, len(e.users))
	}
	for i := 0; i < nb && rd.Err() == nil; i++ {
		uid := rd.Int()
		u := e.userByID(uid)
		if u == nil {
			rd.Fail("burst %d names unknown user %d", i, uid)
			break
		}
		if u.serving != nil {
			// A user has at most one outstanding request, so at most one burst.
			rd.Fail("burst %d names user %d, which already has a burst", i, uid)
			break
		}
		b := &burst{
			user:           u,
			ratio:          rd.Int(),
			remaining:      rd.F64(),
			setupRemaining: rd.F64(),
			servedBits:     rd.F64(),
			serviceTime:    rd.F64(),
			grantedAt:      rd.F64(),
		}
		b.load.DecodeState(rd)
		e.bursts = append(e.bursts, b)
		u.serving = b
	}

	if err := rd.Section("metrics"); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	m := e.metrics
	m.BurstDelay.DecodeState(rd)
	m.AdmissionWait.DecodeState(rd)
	m.ServedRate.DecodeState(rd)
	m.CellLoad.DecodeState(rd)
	m.QueueLength.DecodeState(rd)
	m.AssignedRatio.DecodeState(rd)
	m.BurstsGenerated = rd.I64()
	m.BurstsCompleted = rd.I64()
	m.BurstsExpired = rd.I64()
	m.SkippedCells = rd.I64()
	m.SolveRetries = rd.I64()
	m.FallbackSolves = rd.I64()
	m.SpilloverHandoffs = rd.I64()
	m.OutageCellFrames = rd.I64()
	m.CoveredBursts = rd.I64()
	m.BitsDelivered = rd.F64()
	m.ObservedTime = rd.F64()

	if err := rd.Close(); err != nil {
		return fmt.Errorf("sim: resuming: %w", err)
	}
	return nil
}

// Frame returns the next frame the engine will run — for a fresh engine 0,
// for a resumed one the checkpoint's frame.
func (e *Engine) Frame() int { return e.frame }

// FileCheckpointSink returns a CheckpointSink that (re)writes path on every
// checkpoint, atomically: the state is serialised to path.tmp and renamed
// over path, so a crash mid-write never leaves a truncated checkpoint
// behind.
func FileCheckpointSink(path string) func(frame int, write func(io.Writer) error) error {
	return func(frame int, write func(io.Writer) error) error {
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, path)
	}
}
