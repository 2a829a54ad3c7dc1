package sim

// Tiled snapshot mode (Config.Tiles > 0): the hex grid is partitioned into
// contiguous cell spans (shard.NewPlan) and each tile exclusively owns the
// admission-side mutable state of its cells — the scheduler clone, the
// region builder, the incremental region cache and the per-frame
// active-cell and grant buffers. The solve phase then fans out one task per
// TILE (instead of one per queued cell), so a worker streams through its
// tile's cells with warm scratch and a private region cache, touching
// nothing another tile writes. The only cross-tile data a tile consumes is
// the frame-start load ledger of cells outside its span — the interference
// halo its users' SCRM reports name (shard.Halo bounds it when the windowed
// physics cap measurement reach). The ledger is immutable during the solve
// phase, so in shared memory the halo exchange degenerates to read-only
// access; a distributed port would ship exactly those halo entries at the
// frame boundary.
//
// Determinism: a cell is solved by exactly one tile, its scheduler RNG is
// reseeded per (frame, cell) via core.CellSeeder, its region-cache entry
// sees the same call sequence whether it lives in the engine-wide cache or
// a tile's private one, and the commit phase walks tiles and cells in
// ascending global order. Metrics and traces are therefore byte-identical
// for ANY tile count — including tiles=1 versus the untiled snapshot path —
// which TestTileCountDeterminism locks in.

import (
	"math"

	"jabasd/internal/core"
	"jabasd/internal/measurement"
	"jabasd/internal/shard"
	"jabasd/internal/stream"
)

// simTile owns one contiguous cell span's admission state. Everything a
// solve task mutates lives here, so concurrent tiles share no mutable
// state.
type simTile struct {
	span shard.Span
	// halo lists the cells outside the span whose frame-start loads the
	// tile's solves may read (ascending). Diagnostic: the shared-memory
	// engine reads them straight from the immutable ledger; the list sizes
	// what a distributed port would exchange per frame.
	halo   []int
	worker frameWorker
	// incr is the tile-private admissible-region cache (fast path only).
	// Only the span's cells are ever touched, so per-cell entries evolve
	// exactly as they would in the engine-wide cache.
	incr   *measurement.IncrementalRegions
	active []int        // span cells with queued requests this frame
	grants []cellGrants // one slot per active cell, parallel to active
}

// initTiles sets up the tiled snapshot mode: the cell partition, the halo
// map and one simTile per span, each with its own scheduler clone and (fast
// path) region cache. FrameParallel == 1 keeps the solve phase inline, like
// initFrameWorkers.
func (e *Engine) initTiles(cl core.Cloner) {
	if e.cfg.FrameParallel != 1 {
		e.pool = stream.NewPool(e.cfg.FrameParallel)
	}
	e.plan = shard.NewPlan(e.layout.NumCells(), e.cfg.Tiles)
	// Halo radius: a user queued at a span cell sits within the cell's
	// service area (≤ CellRadius from the site) and measures cells within
	// CandidateRadius + BucketDiagonal of itself (windowed physics). Without
	// a window every cell is measurable, so the halo is the whole map.
	radius := math.Inf(1)
	if e.spix != nil {
		radius = e.layout.CellRadius + e.spix.CandidateRadius() + e.spix.BucketDiagonal()
	}
	halos := shard.Halo(e.plan, e.layout, radius)
	e.tiles = make([]*simTile, e.plan.Tiles())
	for t := range e.tiles {
		tile := &simTile{
			span:   e.plan.Span(t),
			halo:   halos[t],
			worker: frameWorker{sched: cl.Clone()},
		}
		tile.active = make([]int, 0, tile.span.Len())
		tile.grants = make([]cellGrants, tile.span.Len())
		if !e.cfg.ExactPHY {
			tile.incr = measurement.NewIncrementalRegions(e.layout.NumCells(), e.cfg.RegionEpsilon)
		}
		e.tiles[t] = tile
	}
}

// admitTiled is admitSnapshot with tile-grained fan-out: each tile solves
// its own queued cells in ascending order against the immutable frame-start
// ledger, then a sequential commit phase applies the grants in global cell
// order (tiles ascending, active cells ascending within each tile — the
// spans are contiguous, so that IS ascending cell order).
func (e *Engine) admitTiled() {
	any := false
	for _, t := range e.tiles {
		t.active = t.active[:0]
		for k := t.span.Lo; k < t.span.Hi; k++ {
			if e.queues[k].Len() > 0 && !e.cellDown(k) {
				t.active = append(t.active, k)
			}
		}
		if len(t.active) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	loads := e.loads.Values() // immutable until the commit phase
	solve := func(_, ti int) {
		t := e.tiles[ti]
		for i, k := range t.active {
			e.solveInto(&t.grants[i], k, &t.worker, t.incr, loads)
		}
	}
	if e.pool != nil {
		e.pool.Run(len(e.tiles), solve)
	} else {
		for ti := range e.tiles {
			solve(0, ti)
		}
	}
	for _, t := range e.tiles {
		for i := range t.active {
			e.commitSolved(&t.grants[i])
		}
	}
}
