package sim

import (
	"fmt"
	"testing"
)

// cityConfig mirrors the scenario "city" preset (scenario imports sim, so
// the preset cannot be looked up from here): an 18-ring wrap-around grid —
// 1027 cells of 500 m radius — with 100 data and 20 voice users per cell,
// windowed physics and the snapshot frame mode.
func cityConfig() Config {
	cfg := DefaultConfig()
	cfg.Rings = 18
	cfg.CellRadius = 500
	cfg.DataUsersPerCell = 100
	cfg.VoiceUsersPerCell = 20
	cfg.FrameMode = FrameSnapshot
	cfg.PilotCells = 24
	return cfg
}

// BenchmarkCityTiles measures the city-scale frame loop — 1027 cells,
// 102,700 data users — at increasing tile counts, reporting frames/sec.
// FrameParallel tracks the tile count, so tiles-1 is the single-core
// baseline and tiles-8 is the eight-way fan-out of the same byte-identical
// computation. Tiles only chunk the one snapshot solve loop (they own no
// state), so the ratio of the two frames/sec numbers is the multicore
// scaling FrameParallel buys the physics pass and the solves. Engine construction
// (populating ~123k users) happens outside the timer; the loop drives
// whole frames through the same step() the Run loop calls.
func BenchmarkCityTiles(b *testing.B) {
	for _, tiles := range []int{1, 8} {
		b.Run(fmt.Sprintf("tiles-%d", tiles), func(b *testing.B) {
			cfg := cityConfig()
			cfg.Tiles = tiles
			cfg.FrameParallel = tiles
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			// One untimed frame settles the per-user buffers and first-frame
			// draws, so the timed frames are steady state.
			e.now = 0
			e.step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.now = float64(e.frame) * cfg.FrameLength
				e.step()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}
