package main

import (
	"math"
	"time"

	"jabasd/internal/cellular"
	"jabasd/internal/channel"
	"jabasd/internal/mobility"
	"jabasd/internal/rng"
	"jabasd/internal/sim"
	"jabasd/internal/spatial"
	"jabasd/internal/vtaoc"
)

// kernelFrames is how many frames each kernel is replayed for, after one
// untimed frame that seeds every user's channel state.
func kernelFrames(users int) int { return max(4, 120000/users) }

// kernelCosts is the replayed cost of each public physics kernel, in ns per
// call. The per-user kernels (mobility, distances, channel, pilot set,
// active set) are timed over every data user of a frame, paused users
// included exactly as the engine skips them, so their cost per user-frame
// times the user count is their cost per frame. Jakes and VTAOC run per
// served burst and per gathered request, and the nearest-cell search per
// voice user.
type kernelCosts struct {
	mobility, distances, channel, pilotset, activeset float64 // ns per data-user frame
	jakes, vtaoc, nearest                             float64 // ns per call
}

// perFrameNS rolls the kernel costs up to one frame of the workload:
// requests is the mean count of requests gathered per frame (each is one
// VTAOC evaluation and, once granted, about one Jakes draw per frame of
// service), voice the voice-user count.
func (k kernelCosts) perFrameNS(users, voice int, requests float64) float64 {
	perUser := k.mobility + k.distances + k.channel + k.pilotset + k.activeset
	return perUser*float64(users) + (k.jakes+k.vtaoc)*requests + k.nearest*float64(voice)
}

// replayKernels times the physics kernels on state shaped like the
// workload: the same layout, user count, window width, mobility, channel
// parameters and seed as cfg. It mirrors the engine's per-user control
// flow (a paused user with ready channel state skips the rest of the
// frame) through the kernels' public entry points only, one kernel at a
// time over all users, so each kernel's time is measured on its own.
func replayKernels(cfg sim.Config) kernelCosts {
	layout := cellular.NewHexLayout(cfg.Rings, cfg.CellRadius, cfg.WrapAround)
	w, h := layout.Bounds()
	region := mobility.Region{Width: w, Height: h, Wrap: cfg.WrapAround}
	cells := layout.NumCells()
	n := cells * cfg.DataUsersPerCell
	mob := mobility.NewWaypointBatch(region, cfg.MinSpeed, cfg.MaxSpeed, 30, n)
	fade := rng.NewJakesBatch(n, 16, cfg.DopplerHz)
	var ix *spatial.Index
	var win *channel.Window
	var ch *channel.Batch
	if cfg.PilotCells > 0 {
		ix = spatial.New(layout, cfg.PilotCells)
		win = channel.NewWindow(n, ix.Window(), cfg.PathLoss, cfg.ShadowSigmaDB, cfg.ShadowDecorrM)
		ch = win.Batch
	} else {
		ch = channel.NewBatch(n, cells, cfg.PathLoss, cfg.ShadowSigmaDB, cfg.ShadowDecorrM)
	}
	src := rng.New(cfg.Seed)
	for u := 0; u < n; u++ {
		us := src.Split(uint64(1000 + u))
		mob.SeedUser(u, us.Split(1))
		fade.SeedUser(u, us.Split(2))
		us.Split(3)
		ch.SeedUser(u, us, 10)
	}
	coder := vtaoc.MustNew(cfg.VTAOC)
	coder.Tabulate()

	addFactor := math.Pow(10, -cfg.SoftHandoffAddDB/10)
	minEcIo := math.Pow(10, cfg.PilotMinEcIoDB/10)
	dt := cfg.FrameLength
	trav := make([]float64, n)
	pos := make([]cellular.Point, n)
	bucket := make([]int, n)
	for u := range bucket {
		bucket[u] = -1
	}
	pilots := make([][]cellular.PilotMeasurement, n)
	active := make([][]int, n)
	csi := make([]float64, n)
	for u := range csi {
		csi[u] = src.Uniform(-5, 20) // local-mean CSI spread of a loaded cell, dB
	}
	bp := make([]float64, n)
	var sink float64

	var k kernelCosts
	frames := kernelFrames(n)
	moving := make([]int, 0, n)
	for f := 0; f <= frames; f++ {
		timed := f > 0 // frame 0 takes every user's first draws
		now := float64(f) * dt
		lap := func(acc *float64, t0 time.Time) {
			if timed {
				*acc += float64(time.Since(t0))
			}
		}

		t0 := time.Now()
		for u := 0; u < n; u++ {
			trav[u] = mob.Advance(u, dt)
		}
		lap(&k.mobility, t0)
		moving = moving[:0]
		for u := 0; u < n; u++ {
			if trav[u] != 0 || !ch.Ready(u) {
				moving = append(moving, u)
				pos[u] = mob.Position(u)
			}
		}

		t0 = time.Now()
		if win != nil {
			// Window upkeep is part of the channel kernel's cost on city.
			for _, u := range moving {
				if b := ix.BucketOf(pos[u]); b != bucket[u] {
					bucket[u] = b
					if win.Retarget(u, ix.Candidates(b)) {
						pilots[u] = pilots[u][:0]
					}
				}
			}
		}
		lap(&k.channel, t0)

		t0 = time.Now()
		for _, u := range moving {
			if win != nil {
				layout.DistancesSqForInto(pos[u], win.CellRow(u), ch.DistRow(u))
			} else {
				layout.DistancesSqInto(pos[u], ch.DistRow(u))
			}
		}
		lap(&k.distances, t0)

		t0 = time.Now()
		for _, u := range moving {
			ch.AdvanceFast(u, trav[u], cfg.RegionEpsilon)
		}
		lap(&k.channel, t0)

		t0 = time.Now()
		for _, u := range moving {
			if win != nil {
				pilots[u] = cellular.PilotSetCellsLinearInto(pilots[u], win.CellRow(u), ch.GainRow(u), cfg.PilotFraction, cfg.MaxCellPowerW, cfg.NoiseW)
			} else {
				pilots[u] = cellular.PilotSetLinearInto(pilots[u], ch.GainRow(u), cfg.PilotFraction, cfg.MaxCellPowerW, cfg.NoiseW)
			}
		}
		lap(&k.pilotset, t0)

		t0 = time.Now()
		for _, u := range moving {
			active[u] = cellular.ActiveSetLinearInto(active[u], pilots[u], addFactor, minEcIo, 3)
		}
		lap(&k.activeset, t0)

		if win != nil {
			// The windowed path looks each active cell's gain up by slot.
			t0 = time.Now()
			for _, u := range moving {
				row := win.CellRow(u)
				for _, c := range active[u] {
					sink += float64(cellular.FindCell(row, int32(c)))
				}
			}
			lap(&k.pilotset, t0)
		}

		t0 = time.Now()
		for u := 0; u < n; u++ {
			sink += fade.PowerAt(u, now)
		}
		lap(&k.jakes, t0)

		t0 = time.Now()
		bp = coder.AverageThroughputBatch(bp, csi)
		lap(&k.vtaoc, t0)

		t0 = time.Now()
		for u := 0; u < n; u++ {
			if ix != nil {
				sink += float64(ix.NearestCellSq(mob.Position(u)))
			} else {
				sink += float64(layout.NearestCellSq(mob.Position(u)))
			}
		}
		lap(&k.nearest, t0)
	}
	kernelSink = sink + bp[0]
	per := float64(n * frames)
	k.mobility /= per
	k.distances /= per
	k.channel /= per
	k.pilotset /= per
	k.activeset /= per
	k.jakes /= per
	k.vtaoc /= per
	k.nearest /= per
	return k
}

// kernelSink keeps the replayed results live so the compiler cannot drop
// the calls.
var kernelSink float64

func (k kernelCosts) report(res *result) {
	res.set("mobility.advance_ns", k.mobility)
	res.set("cellular.distances_ns", k.distances)
	res.set("channel.advance_ns", k.channel)
	res.set("cellular.pilotset_ns", k.pilotset)
	res.set("cellular.activeset_ns", k.activeset)
	res.set("rng.jakes_ns", k.jakes)
	res.set("vtaoc.batch_ns", k.vtaoc)
	res.set("spatial.nearest_ns", k.nearest)
}
