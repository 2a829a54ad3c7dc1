package sim

// Tests for the chunked (Tiles > 0) snapshot dispatch and the windowed
// (city-scale) physics: the tile-count determinism gate mirroring the
// FrameParallel gate, and the full-width identity of the windowed path.

import (
	"context"
	"reflect"
	"testing"

	"jabasd/internal/cellular"
	"jabasd/internal/channel"
	"jabasd/internal/trace"
)

// runTraced runs cfg with an in-memory trace attached and returns the
// metrics fingerprint plus the raw records.
func runTraced(t *testing.T, cfg Config) ([6]float64, []trace.Record) {
	t.Helper()
	mem := &trace.Memory{}
	cfg.Trace = mem
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(m), mem.Records
}

// TestTileCountDeterminism is the determinism contract of the chunked
// snapshot dispatch, mirroring TestSnapshotModeIdenticalAcrossWorkerCounts:
// every cell is solved against the immutable frame-start ledger by exactly
// one task, its scheduler RNG is reseeded per (frame, cell) and grants
// commit in global cell order, so metrics AND traces are exactly identical
// for any tile count — including tiles=1 versus the per-cell dispatch — at
// any solve-phase parallelism.
func TestTileCountDeterminism(t *testing.T) {
	for _, dir := range []Direction{Forward, Reverse} {
		base := quickConfig()
		base.SimTime = 4
		base.Direction = dir
		base.FrameMode = FrameSnapshot
		base.DataUsersPerCell = 8 // enough contention that grants matter
		var wantFP [6]float64
		var wantTrace []trace.Record
		first := true
		for _, par := range []int{1, 2} {
			for _, tiles := range []int{0, 1, 3, 7, 19} {
				cfg := base
				cfg.FrameParallel = par
				cfg.Tiles = tiles
				fp, rec := runTraced(t, cfg)
				if first {
					wantFP, wantTrace = fp, rec
					first = false
					if fp[1] == 0 {
						t.Fatalf("%s: no bursts completed; scenario too light to test determinism", dir)
					}
					continue
				}
				if fp != wantFP {
					t.Errorf("%s tiles=%d par=%d: metrics diverged: %v vs %v", dir, tiles, par, fp, wantFP)
				}
				if !reflect.DeepEqual(rec, wantTrace) {
					t.Errorf("%s tiles=%d par=%d: trace diverged from the untiled snapshot trace", dir, tiles, par)
				}
			}
		}
	}
}

// TestTileCountDeterminismExact covers the exact reference path (no region
// cache, dB-domain kernels) with the same gate.
func TestTileCountDeterminismExact(t *testing.T) {
	base := quickConfig()
	base.SimTime = 3
	base.FrameMode = FrameSnapshot
	base.ExactPHY = true
	var want [6]float64
	var wantTrace []trace.Record
	for i, tiles := range []int{0, 1, 4} {
		cfg := base
		cfg.FrameParallel = 2
		cfg.Tiles = tiles
		fp, rec := runTraced(t, cfg)
		if i == 0 {
			want, wantTrace = fp, rec
			continue
		}
		if fp != want {
			t.Errorf("exact tiles=%d: metrics diverged: %v vs %v", tiles, fp, want)
		}
		if !reflect.DeepEqual(rec, wantTrace) {
			t.Errorf("exact tiles=%d: trace diverged", tiles)
		}
	}
}

// TestWindowedFullWidthIdentity pins the property the one physics path is
// built on: the shared identity row of PilotCells = 0 (a plain
// channel.Batch, never retargeted) and a full-width channel.Window
// (PilotCells covering every cell, so its candidate list is the identity
// and its retargets are no-ops after the first frame) run every summation
// in the same order and reproduce each other exactly, on both the fast and
// the exact kernels, tiled or not.
func TestWindowedFullWidthIdentity(t *testing.T) {
	for _, exact := range []bool{false, true} {
		for _, dir := range []Direction{Forward, Reverse} {
			base := quickConfig()
			base.SimTime = 4
			base.Direction = dir
			base.ExactPHY = exact
			full, fullTrace := runTraced(t, base)
			win := base
			win.PilotCells = 19 // >= 7 cells: the window is the whole layout
			got, gotTrace := runTraced(t, win)
			if got != full {
				t.Errorf("exact=%v %s: full-width windowed run diverged: %v vs %v", exact, dir, got, full)
			}
			if !reflect.DeepEqual(gotTrace, fullTrace) {
				t.Errorf("exact=%v %s: full-width windowed trace diverged", exact, dir)
			}
			tiled := win
			tiled.FrameMode = FrameSnapshot
			tiled.FrameParallel = 2
			tiled.Tiles = 3
			ref := win
			ref.FrameMode = FrameSnapshot
			ref.FrameParallel = 2
			wantFP, wantTrace := runTraced(t, ref)
			gotFP, gotTrace2 := runTraced(t, tiled)
			if gotFP != wantFP {
				t.Errorf("exact=%v %s: tiled windowed run diverged from untiled snapshot: %v vs %v", exact, dir, gotFP, wantFP)
			}
			if !reflect.DeepEqual(gotTrace2, wantTrace) {
				t.Errorf("exact=%v %s: tiled windowed trace diverged", exact, dir)
			}
		}
	}
}

// TestWindowedNarrowRunCompletes exercises a genuinely restricted window (a
// 4-ring map with a 19-cell window, so retargets actually happen) end to
// end: the run must stay healthy — traffic served, every user's reduced set
// inside its window — while using O(users x window) instead of O(users x
// cells) channel state.
func TestWindowedNarrowRunCompletes(t *testing.T) {
	cfg := quickConfig()
	cfg.Rings = 4 // 61 cells, window covers less than a third
	cfg.SimTime = 4
	cfg.DataUsersPerCell = 2
	cfg.VoiceUsersPerCell = 1
	cfg.PilotCells = 19
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.winB == nil || e.spix == nil {
		t.Fatal("PilotCells did not enable the windowed physics")
	}
	if e.winB.Width() != 19 {
		t.Fatalf("window width = %d, want 19", e.winB.Width())
	}
	m, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.BurstsCompleted == 0 {
		t.Error("windowed run completed no bursts")
	}
	for _, u := range e.users {
		for _, k := range u.reduced {
			if cellular.FindCell(u.cand, int32(k)) < 0 {
				t.Fatalf("user %d reduced-set cell %d outside its candidate window %v", u.id, k, u.cand)
			}
		}
	}
}

// TestIdentityWindowBeyondMaxWidth runs PilotCells = 0 on a layout wider
// than channel.MaxWindowWidth: the identity row has no width cap, and every
// user's candidate row aliases one shared backing array, O(cells) memory
// instead of a users x cells slot map.
func TestIdentityWindowBeyondMaxWidth(t *testing.T) {
	cfg := quickConfig()
	cfg.Rings = 10 // 331 cells
	cfg.SimTime = 0.4
	cfg.WarmupTime = 0
	cfg.DataUsersPerCell = 1
	cfg.VoiceUsersPerCell = 0
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.layout.NumCells(); n <= channel.MaxWindowWidth {
		t.Fatalf("layout has %d cells, want more than channel.MaxWindowWidth = %d", n, channel.MaxWindowWidth)
	}
	if e.winB != nil || e.spix != nil {
		t.Fatal("PilotCells = 0 built a channel window or spatial index")
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	row := e.users[0].cand
	if len(row) != e.layout.NumCells() {
		t.Fatalf("identity row has %d cells, want %d", len(row), e.layout.NumCells())
	}
	for k, c := range row {
		if int(c) != k {
			t.Fatalf("identity row[%d] = %d", k, c)
		}
	}
	for _, u := range e.users {
		if &u.cand[0] != &row[0] || len(u.cand) != len(row) {
			t.Fatalf("user %d does not share the identity row", u.id)
		}
		if len(u.pilots) == 0 || len(u.reduced) == 0 {
			t.Fatalf("user %d holds no measurements after the run", u.id)
		}
	}
}
