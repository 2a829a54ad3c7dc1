package sim

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"jabasd/internal/fault"
	"jabasd/internal/trace"
)

// ckCapture is an in-memory CheckpointSink: it keeps every emitted blob,
// keyed by frame.
type ckCapture struct {
	blobs map[int][]byte
}

func (c *ckCapture) sink(frame int, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if c.blobs == nil {
		c.blobs = make(map[int][]byte)
	}
	c.blobs[frame] = buf.Bytes()
	return nil
}

// runEngine runs cfg to completion and returns the metrics plus the
// engine's own final-state checkpoint bytes (taken after Run, a valid frame
// boundary).
func runEngine(t *testing.T, cfg Config) (*Metrics, []byte) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	m, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var final bytes.Buffer
	if err := e.Checkpoint(&final); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	return m, final.Bytes()
}

// tracesFrom filters the records at or after frame k — what a run resumed
// at k must reproduce.
func tracesFrom(records []trace.Record, k int) []trace.Record {
	out := []trace.Record{}
	for _, r := range records {
		if r.Frame >= k {
			out = append(out, r)
		}
	}
	return out
}

// resumeScenarios is the gate's covering set: metro (19-cell default-shaped)
// and city-style (windowed, tiled) maps, both frame modes, tiled and
// untiled, exact and fast PHY, plus the stateful corners (load step, reverse
// link, the random scheduler's stream).
func resumeScenarios() map[string]Config {
	metro := func() Config {
		cfg := DefaultConfig()
		cfg.Rings = 1
		cfg.SimTime = 3
		cfg.WarmupTime = 1
		cfg.FrameLength = 0.05
		cfg.DataUsersPerCell = 4
		cfg.VoiceUsersPerCell = 3
		cfg.Data.MeanReadingTimeSec = 2
		cfg.Data.MaxSizeBits = 400_000
		return cfg
	}
	city := func() Config {
		cfg := metro()
		cfg.Rings = 3
		cfg.SimTime = 1.5
		cfg.WarmupTime = 0.5
		cfg.DataUsersPerCell = 2
		cfg.VoiceUsersPerCell = 2
		cfg.PilotCells = 24
		cfg.FrameMode = FrameSnapshot
		cfg.Tiles = 4
		cfg.FrameParallel = 2
		return cfg
	}
	scenarios := map[string]Config{}

	cfg := metro() // sequential + fast PHY + mid-run load step
	cfg.LoadStep = &LoadStep{AtSec: 1.5, ReadingTimeSec: 1}
	scenarios["seq-fast-loadstep"] = cfg

	cfg = metro() // sequential + exact PHY + reverse link
	cfg.ExactPHY = true
	cfg.Direction = Reverse
	scenarios["seq-exact-reverse"] = cfg

	cfg = metro() // sequential + the one scheduler with a cross-frame stream
	cfg.Scheduler = SchedulerRandom
	cfg.SimTime = 2
	scenarios["seq-random-sched"] = cfg

	cfg = metro() // snapshot, untiled, parallel workers
	cfg.FrameMode = FrameSnapshot
	cfg.FrameParallel = 2
	scenarios["snap-fast"] = cfg

	cfg = metro() // snapshot, untiled, exact PHY
	cfg.FrameMode = FrameSnapshot
	cfg.ExactPHY = true
	cfg.SimTime = 2
	scenarios["snap-exact"] = cfg

	scenarios["city-tiled-fast"] = city()

	cfg = city() // tiled + windowed + exact PHY
	cfg.ExactPHY = true
	cfg.SimTime = 1
	scenarios["city-tiled-exact"] = cfg

	// Fault-bearing scenarios: the middle checkpoint (frame 30 of 60 for the
	// metro shape, t=1.5s) lands inside the outage window, so the gate proves
	// a resume mid-outage reconstructs the fault mask, the load cursor and
	// the spillover state byte-identically.
	cfg = metro() // sequential + centre-cell outage + flash-crowd load event
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{{Cell: 0, StartSec: 1.2, EndSec: 1.8}},
		Load:  []fault.LoadEvent{{AtSec: 1.0, ReadingTimeSec: 1}},
	}
	scenarios["seq-fast-outage"] = cfg

	cfg = metro() // snapshot + derated centre + neighbour outage
	cfg.FrameMode = FrameSnapshot
	cfg.FrameParallel = 2
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{
			{Cell: 0, StartSec: 0.8, EndSec: 2.2, Derate: 0.4},
			{Cell: 3, StartSec: 1.2, EndSec: 1.8},
		},
	}
	scenarios["snap-outage-derate"] = cfg

	cfg = city() // tiled + windowed + outage crossing the mid checkpoint
	cfg.Faults = &fault.Schedule{
		Cells: []fault.CellEvent{{Cell: 0, StartSec: 0.6, EndSec: 0.9}},
	}
	scenarios["city-tiled-outage"] = cfg

	return scenarios
}

// TestCheckpointResumeByteIdentical is the PR's gate: for every scenario and
// for checkpoints at the first, a middle and the last frame, a run resumed
// from the checkpoint must reproduce the uninterrupted run exactly — the
// metrics struct, every telemetry record from the resume point on, and the
// final-state checkpoint bytes. It also gates that checkpointing itself is
// non-invasive: the checkpointing run's metrics and trace equal the plain
// run's.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for name, cfg := range resumeScenarios() {
		t.Run(name, func(t *testing.T) {
			frames := int(cfg.SimTime/cfg.FrameLength + 0.5)

			// Plain reference run. CheckpointEvery matches the checkpointing
			// run so the final-state blobs' embedded configs compare equal;
			// with no sink attached nothing is emitted.
			plain := cfg
			plain.CheckpointEvery = 1
			var t0 trace.Memory
			plain.Trace = &t0
			m0, f0 := runEngine(t, plain)

			// Checkpointing run: capture a blob at every frame boundary.
			full := cfg
			var tA trace.Memory
			full.Trace = &tA
			cap := &ckCapture{}
			full.CheckpointEvery = 1
			full.CheckpointSink = cap.sink
			mA, fA := runEngine(t, full)

			if !reflect.DeepEqual(m0, mA) {
				t.Fatalf("checkpointing perturbed the run:\nplain %+v\nwith  %+v", m0, mA)
			}
			if !reflect.DeepEqual(t0.Records, tA.Records) {
				t.Fatal("checkpointing perturbed the trace")
			}
			if !bytes.Equal(f0, fA) {
				t.Fatal("checkpointing perturbed the final state")
			}

			for _, k := range []int{1, frames / 2, frames - 1} {
				blob := cap.blobs[k]
				if blob == nil {
					t.Fatalf("no checkpoint captured at frame %d", k)
				}
				c, err := ReadCheckpoint(bytes.NewReader(blob))
				if err != nil {
					t.Fatalf("k=%d: ReadCheckpoint: %v", k, err)
				}
				rcfg := c.Config() // keeps CheckpointEvery=1; no sink => no emission
				var tB trace.Memory
				rcfg.Trace = &tB
				eB, err := c.Resume(rcfg)
				if err != nil {
					t.Fatalf("k=%d: Resume: %v", k, err)
				}
				if eB.Frame() != k {
					t.Fatalf("k=%d: resumed engine reports frame %d", k, eB.Frame())
				}
				checkPilotSlots(t, eB, k)
				mB, err := eB.Run(context.Background())
				if err != nil {
					t.Fatalf("k=%d: resumed Run: %v", k, err)
				}
				if !reflect.DeepEqual(mA, mB) {
					t.Errorf("k=%d: resumed metrics differ:\nfull    %+v\nresumed %+v", k, mA, mB)
				}
				if want := tracesFrom(tA.Records, k); !reflect.DeepEqual(want, tB.Records) {
					t.Errorf("k=%d: resumed trace differs (%d vs %d records)", k, len(tB.Records), len(want))
				}
				var fB bytes.Buffer
				if err := eB.Checkpoint(&fB); err != nil {
					t.Fatalf("k=%d: final checkpoint of resumed engine: %v", k, err)
				}
				if !bytes.Equal(fA, fB.Bytes()) {
					t.Errorf("k=%d: final engine state differs byte-wise", k)
				}
			}
		})
	}
}

// checkPilotSlots asserts that every pilot entry's slot names its own cell
// in the user's candidate row — a window's row or the shared identity row.
// Checkpoints do not store slots, so this is what Resume must restore.
func checkPilotSlots(t *testing.T, e *Engine, k int) {
	t.Helper()
	n := 0
	for _, u := range e.users {
		for _, p := range u.pilots {
			if s := int(p.Slot); s < 0 || s >= len(u.cand) || u.cand[s] != p.Cell {
				t.Fatalf("k=%d: user %d: pilot of cell %d has slot %d, candidates %v", k, u.id, p.Cell, p.Slot, u.cand)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatalf("k=%d: resumed engine holds no pilots", k)
	}
}

// checkpointBlob runs a small scenario a few frames and returns one blob.
func checkpointBlob(t *testing.T, cfg Config) []byte {
	t.Helper()
	cap := &ckCapture{}
	cfg.CheckpointEvery = 10
	cfg.CheckpointSink = cap.sink
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	blob := cap.blobs[10]
	if blob == nil {
		t.Fatal("no checkpoint captured")
	}
	return blob
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 1
	cfg.WarmupTime = 0.2
	cfg.FrameLength = 0.05
	cfg.DataUsersPerCell = 2
	cfg.VoiceUsersPerCell = 2
	cfg.Data.MeanReadingTimeSec = 2
	cfg.Data.MaxSizeBits = 400_000
	return cfg
}

// TestResumeRefusesSemanticConfigChange: every scenario-shaping change must
// be refused with the hash-mismatch error; the execution knobs must pass.
func TestResumeRefusesSemanticConfigChange(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())

	semantic := map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed++ },
		"simtime":   func(c *Config) { c.SimTime *= 2 },
		"users":     func(c *Config) { c.DataUsersPerCell++ },
		"direction": func(c *Config) { c.Direction = Reverse },
		"scheduler": func(c *Config) { c.Scheduler = SchedulerFCFS },
		"framemode": func(c *Config) { c.FrameMode = FrameSnapshot },
	}
	for name, mut := range semantic {
		c, err := ReadCheckpoint(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.Config()
		mut(&cfg)
		if _, err := c.Resume(cfg); err == nil || !strings.Contains(err.Error(), "differs") {
			t.Errorf("%s: semantic change not refused: %v", name, err)
		}
	}

	// The execution knobs may change across a resume.
	c, err := ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Config()
	cfg.TraceEvery = 3
	cfg.CheckpointEvery = 0
	e, err := c.Resume(cfg)
	if err != nil {
		t.Fatalf("execution-knob change refused: %v", err)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResumeIsSingleShot: a checkpoint is consumed by its first Resume.
func TestResumeIsSingleShot(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())
	c, err := ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume(c.Config()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume(c.Config()); err == nil {
		t.Fatal("second Resume should fail")
	}
}

// TestCheckpointCorruptionNeverPanicsOrMisRestores samples single-byte flips
// and truncations over a real checkpoint: each must surface as an error from
// ReadCheckpoint or Resume — never a panic, and never a silently diverging
// engine (every section is CRC-framed, so damage past the header cannot
// decode cleanly).
func TestCheckpointCorruptionNeverPanicsOrMisRestores(t *testing.T) {
	blob := checkpointBlob(t, tinyConfig())

	try := func(data []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on corrupt checkpoint: %v", r)
			}
		}()
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return err
		}
		_, err = c.Resume(c.Config())
		return err
	}

	step := len(blob)/400 + 1
	for off := 0; off < len(blob); off += step {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x55
		if try(mut) == nil {
			t.Fatalf("flip at offset %d (of %d) not detected", off, len(blob))
		}
	}
	for cut := 0; cut < len(blob); cut += step {
		if try(blob[:cut]) == nil {
			t.Fatalf("truncation to %d bytes (of %d) not detected", cut, len(blob))
		}
	}
}
