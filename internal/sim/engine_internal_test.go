package sim

// White-box tests for the engine internals: user/channel state updates, load
// accounting, admission bookkeeping and burst service. They complement the
// black-box scenario tests in sim_test.go.

import (
	"math"
	"testing"

	"jabasd/internal/core"
	"jabasd/internal/traffic"
)

func newTestEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rings = 1
	cfg.SimTime = 5
	cfg.WarmupTime = 0
	cfg.DataUsersPerCell = 3
	cfg.VoiceUsersPerCell = 2
	cfg.Data.MeanReadingTimeSec = 1
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPopulateCounts(t *testing.T) {
	e := newTestEngine(t, nil)
	if len(e.users) != 7*3 {
		t.Errorf("data users = %d, want 21", len(e.users))
	}
	if len(e.voice) != 7*2 {
		t.Errorf("voice users = %d, want 14", len(e.voice))
	}
	if len(e.queues) != 7 || e.loads.NumCells() != 7 {
		t.Error("per-cell structures sized wrong")
	}
	// The SoA physics batches must cover every user, and each user's gain
	// slice must alias its row of the channel batch (one gain per cell).
	if e.mobB == nil || e.fadeB == nil || e.chanB == nil {
		t.Fatal("physics batches not initialised")
	}
	if e.mobB.Len() != len(e.users) {
		t.Fatalf("mobility batch sized for %d users, want %d", e.mobB.Len(), len(e.users))
	}
	for _, u := range e.users {
		if len(u.gain) != 7 || u.source == nil || u.macM == nil {
			t.Fatal("user substructures not initialised")
		}
		if row := e.chanB.GainRow(u.id); &u.gain[0] != &row[0] {
			t.Fatalf("user %d gain does not alias its channel batch row", u.id)
		}
	}
}

func TestUpdateUsersProducesConsistentState(t *testing.T) {
	e := newTestEngine(t, nil)
	e.now = 0
	e.updateUsers(e.cfg.FrameLength)
	for _, u := range e.users {
		// Gains must be positive and finite.
		for k, g := range u.gain {
			if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
				t.Fatalf("user %d gain to cell %d invalid: %v", u.id, k, g)
			}
		}
		// Reduced active set must be 1 or 2 cells, subset of the active set
		// (when the active set is non-empty), and hostCell its first entry.
		if len(u.reduced) < 1 || len(u.reduced) > 2 {
			t.Fatalf("reduced set size %d", len(u.reduced))
		}
		if u.hostCell != u.reduced[0] {
			t.Error("hostCell must be the strongest reduced-set cell")
		}
		// FCH powers exist exactly for the reduced-set cells and respect the cap.
		cap := e.cfg.FCHTargetFraction * e.cfg.MaxCellPowerW
		if u.fchPower.Len() != len(u.reduced) {
			t.Errorf("fchPower entries %d != reduced set %d", u.fchPower.Len(), len(u.reduced))
		}
		for i := 0; i < u.fchPower.Len(); i++ {
			if _, p := u.fchPower.At(i); p <= 0 || p > cap+1e-12 {
				t.Errorf("FCH power %v outside (0, %v]", p, cap)
			}
		}
		// Geometry and CSI must be finite.
		if math.IsNaN(u.meanCSIdB) || math.IsInf(u.meanCSIdB, 0) {
			t.Error("meanCSIdB not finite")
		}
		// Reverse FCH received powers (normalised) must be positive.
		for i := 0; i < u.revFCHRx.Len(); i++ {
			if _, x := u.revFCHRx.At(i); x <= 0 || math.IsNaN(x) {
				t.Errorf("reverse FCH received power invalid: %v", x)
			}
		}
	}
}

func TestAccumulateLoadsForwardIncludesOverheadAndFCH(t *testing.T) {
	e := newTestEngine(t, nil)
	e.updateUsers(e.cfg.FrameLength)
	e.accumulateLoads()
	minOverhead := e.cfg.CommonOverheadFrac * e.cfg.MaxCellPowerW
	for k, load := range e.loads.Values() {
		if load < minOverhead {
			t.Errorf("cell %d load %v below the common-channel overhead %v", k, load, minOverhead)
		}
	}
	// Total FCH power across cells must be accounted: the sum of loads must
	// exceed overhead*K by at least the sum of all users' FCH powers.
	sumLoad, sumFCH := 0.0, 0.0
	for _, l := range e.loads.Values() {
		sumLoad += l
	}
	for _, u := range e.users {
		sumFCH += u.fchPower.Sum()
	}
	if sumLoad < minOverhead*float64(e.loads.NumCells())+sumFCH-1e-9 {
		t.Error("per-cell loads do not account for all FCH power")
	}
}

func TestAccumulateLoadsReverseStartsAtNoiseFloor(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.Direction = Reverse })
	e.updateUsers(e.cfg.FrameLength)
	e.accumulateLoads()
	for k, load := range e.loads.Values() {
		if load < 1 {
			t.Errorf("cell %d reverse load %v below the normalised noise floor", k, load)
		}
		if load > e.cfg.ReverseRiseLimit*3 {
			t.Errorf("cell %d reverse load %v implausibly high before any burst", k, load)
		}
	}
}

func TestAdmitGrantsAndAccountsLoad(t *testing.T) {
	e := newTestEngine(t, func(c *Config) {
		c.Data.MeanReadingTimeSec = 0.2 // requests appear almost immediately
	})
	// Drive a few frames manually until a burst is granted.
	granted := false
	for f := 0; f < 200 && !granted; f++ {
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
		granted = len(e.bursts) > 0
	}
	if !granted {
		t.Fatal("no burst was ever granted")
	}
	for _, b := range e.bursts {
		if b.ratio < 1 || b.ratio > e.cfg.RatePlan.MaxSpreadingRatio {
			t.Errorf("granted ratio %d out of range", b.ratio)
		}
		if b.remaining <= 0 {
			t.Error("active burst has nothing left to send")
		}
		if b.load.Len() == 0 {
			t.Error("active burst holds no resources")
		}
		for i := 0; i < b.load.Len(); i++ {
			if cell, p := b.load.At(i); p <= 0 {
				t.Errorf("burst load at cell %d is %v", cell, p)
			}
		}
		// The user that owns the burst must not be queued anywhere.
		for _, q := range e.queues {
			for _, item := range q.Items() {
				if item == b.user.queuedReq && b.user.queuedReq != nil {
					t.Error("granted request still sits in a queue")
				}
			}
		}
	}
}

func TestServeBurstsCompletesAndReleasesUser(t *testing.T) {
	e := newTestEngine(t, func(c *Config) {
		c.Data.MeanReadingTimeSec = 0.2
		c.Data.MinSizeBits = 20_000
		c.Data.MaxSizeBits = 20_000 // tiny bursts finish quickly
	})
	completedBefore := e.metrics.BurstsCompleted
	for f := 0; f < 600; f++ {
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
	}
	if e.metrics.BurstsCompleted <= completedBefore {
		t.Fatal("no burst completed")
	}
	// Completed users must be back in the thinking state (pending nil).
	busy := 0
	for _, u := range e.users {
		if u.queuedReq != nil {
			busy++
		}
	}
	if busy == len(e.users) {
		t.Error("every user is still busy; BurstDone propagation suspect")
	}
	if e.metrics.BitsDelivered <= 0 {
		t.Error("no bits were accounted as delivered")
	}
}

// TestFrameHotPathStaysAllocationFree pins the point of the dense cell-load
// ledgers: once the per-user buffers have reached steady state, the
// measurement side of the frame loop (the physics pass over voice and data
// users with its serving-burst throughput, then load accumulation) performs
// no allocations at all.
func TestFrameHotPathStaysAllocationFree(t *testing.T) {
	e := newTestEngine(t, nil)
	// Warm up: the first frames grow the per-user buffers to capacity.
	for f := 0; f < 10; f++ {
		e.now = float64(f) * e.cfg.FrameLength
		e.step()
	}
	dt := e.cfg.FrameLength
	allocs := testing.AllocsPerRun(20, func() {
		e.updateUsers(dt)
		e.accumulateLoads()
	})
	if allocs != 0 {
		t.Errorf("steady-state frame measurement path allocated %v times per frame, want 0", allocs)
	}
}

func TestUserByID(t *testing.T) {
	e := newTestEngine(t, nil)
	for _, u := range e.users {
		if got := e.userByID(u.id); got != u {
			t.Fatalf("userByID(%d) returned the wrong user", u.id)
		}
	}
	if e.userByID(-1) != nil || e.userByID(10_000) != nil {
		t.Error("unknown ids should return nil")
	}
}

func TestCollectRespectsWarmup(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.WarmupTime = 2 })
	e.now = 1 // before warm-up
	e.accumulateLoads()
	e.collect()
	if e.metrics.CellLoad.Count() != 0 {
		t.Error("statistics must not be collected during warm-up")
	}
	e.now = 3
	e.collect()
	if e.metrics.CellLoad.Count() == 0 {
		t.Error("statistics must be collected after warm-up")
	}
}

// queueTestRequest manufactures a queued burst request for user u, as
// generateTraffic would have, and returns it. The engine must have run at
// least one step so the user's channel state exists.
func queueTestRequest(e *Engine, u *dataUser, sizeBits float64) *traffic.BurstRequest {
	req := &traffic.BurstRequest{UserID: u.id, SizeBits: sizeBits, ArrivalTime: e.now, Priority: 1}
	u.queuedReq = req
	u.queuedCell = u.hostCell
	u.firstGrant = false
	e.queues[u.hostCell].Push(req)
	return req
}

// admitModes runs the sub-test once per admission path so the edge cases
// cover the sequential loop and the snapshot loop, the latter with both its
// per-cell and its chunked (Tiles > 0) dispatch.
func admitModes(t *testing.T, mutate func(*Config), fn func(t *testing.T, e *Engine)) {
	t.Helper()
	for _, m := range []struct {
		name  string
		mode  FrameMode
		tiles int
	}{
		{"sequential", FrameSequential, 0},
		{"snapshot", FrameSnapshot, 0},
		{"snapshot-tiles3", FrameSnapshot, 3},
	} {
		t.Run(m.name, func(t *testing.T) {
			e := newTestEngine(t, func(c *Config) {
				c.FrameMode = m.mode
				c.Tiles = m.tiles
				c.FrameParallel = 2
				if mutate != nil {
					mutate(c)
				}
			})
			defer e.Close()
			// One step gives every user valid channel state and pilot sets.
			e.now = 0
			e.step()
			e.now = e.cfg.FrameLength
			// Quiesce: drop the organic traffic the step produced, so the
			// probe request injected by the sub-test is the only one in play.
			for _, q := range e.queues {
				for _, item := range append([]*traffic.BurstRequest(nil), q.Items()...) {
					q.Remove(item)
				}
			}
			for _, u := range e.users {
				u.queuedReq = nil
				u.serving = nil
			}
			e.bursts = e.bursts[:0]
			fn(t, e)
		})
	}
}

// TestAdmitDropsStaleQueueEntries: a queue entry whose user no longer backs
// it (the request pointer was superseded or cleared) must be removed during
// gathering without producing a grant.
func TestAdmitDropsStaleQueueEntries(t *testing.T) {
	admitModes(t, nil, func(t *testing.T, e *Engine) {
		u := e.users[0]
		stale := queueTestRequest(e, u, 100_000)
		u.queuedReq = nil // supersede: the queue entry is now stale
		k := u.queuedCell
		before := len(e.bursts)
		e.admit()
		if got := e.queues[k].Len(); got != 0 {
			t.Errorf("stale entry still queued (len=%d)", got)
		}
		if len(e.bursts) != before {
			t.Error("stale entry produced a burst")
		}
		if e.metrics.SkippedCells != 0 {
			t.Error("a stale entry is not a skipped cell")
		}
		_ = stale
	})
}

// TestAdmitCountsSkippedCellsOnRegionError: when the measurement sub-layer
// cannot build the admissible region, the cell is skipped for the frame and
// the failure is counted instead of silently swallowed.
func TestAdmitCountsSkippedCellsOnRegionError(t *testing.T) {
	admitModes(t, nil, func(t *testing.T, e *Engine) {
		u := e.users[0]
		queueTestRequest(e, u, 100_000)
		e.cfg.RatePlan.GammaS = 0 // invalid measurement input => region error
		before := len(e.bursts)
		e.admit()
		if e.metrics.SkippedCells == 0 {
			t.Fatal("region error did not count a skipped cell")
		}
		if e.queues[u.queuedCell].Len() != 1 {
			t.Error("skipped cell should leave the queue untouched")
		}
		if len(e.bursts) != before {
			t.Error("skipped cell must not grant")
		}
	})
}

// TestAdmitZeroRatioAssignmentLeavesQueue: an over-budget cell yields the
// all-zero assignment — requests stay queued for the next frame and no
// burst, load or skip is recorded.
func TestAdmitZeroRatioAssignmentLeavesQueue(t *testing.T) {
	admitModes(t, nil, func(t *testing.T, e *Engine) {
		u := e.users[0]
		queueTestRequest(e, u, 100_000)
		// Saturate the ledger: every cell far beyond the power budget makes
		// every region bound negative, forcing m = 0 for all requests.
		e.loads.Fill(10 * e.cfg.MaxCellPowerW)
		bursts := len(e.bursts)
		ratios := e.metrics.AssignedRatio.Count()
		e.admit()
		if e.queues[u.queuedCell].Len() != 1 {
			t.Error("zero-ratio assignment must keep the request queued")
		}
		if len(e.bursts) != bursts {
			t.Error("zero-ratio assignment must not start a burst")
		}
		if e.metrics.SkippedCells != 0 {
			t.Error("an infeasible frame is a valid zero assignment, not a skipped cell")
		}
		if e.metrics.AssignedRatio.Count() != ratios {
			t.Error("zero grants must not be recorded as assigned ratios")
		}
	})
}

// TestSnapshotSolvePhaseLeavesLedgerUntouched pins the snapshot invariant
// the parallel solve phase relies on: gathering and solving must not write
// the shared ledger; only the commit phase may.
func TestSnapshotSolvePhaseLeavesLedgerUntouched(t *testing.T) {
	e := newTestEngine(t, func(c *Config) {
		c.FrameMode = FrameSnapshot
		c.FrameParallel = 1
	})
	defer e.Close()
	e.now = 0
	e.step()
	e.now = e.cfg.FrameLength
	u := e.users[0]
	queueTestRequest(e, u, 100_000)
	before := append([]float64(nil), e.loads.Values()...)
	s := &e.workers[0].scratch
	if !e.gatherCell(u.queuedCell, s, e.loads.Values()) {
		t.Fatal("gather found nothing to schedule")
	}
	if _, err := e.solveCell(u.queuedCell, s, &e.workers[0].regionB, e.workers[0].sched, e.loads.Values()); err != nil {
		t.Fatal(err)
	}
	for k, v := range e.loads.Values() {
		if v != before[k] {
			t.Fatalf("solve phase mutated the ledger at cell %d: %v -> %v", k, before[k], v)
		}
	}
}

// TestSnapshotWorkersOwnDisjointSchedulers pins the per-worker-scratch
// contract the warm solvers lean on: every snapshot worker must hold its own
// scheduler clone (distinct from the engine's and from every other
// worker's), because a JABA-SD instance now carries mutable ILP solver
// arenas that would race if shared across the solve fan-out.
func TestSnapshotWorkersOwnDisjointSchedulers(t *testing.T) {
	e := newTestEngine(t, func(cfg *Config) {
		cfg.FrameMode = FrameSnapshot
		cfg.FrameParallel = 4
	})
	defer e.Close()
	if len(e.workers) < 2 {
		t.Fatalf("expected multiple workers, got %d", len(e.workers))
	}
	seen := map[core.Scheduler]bool{e.scheduler: true}
	for i, w := range e.workers {
		if w.sched == nil {
			t.Fatalf("worker %d has no scheduler", i)
		}
		if seen[w.sched] {
			t.Fatalf("worker %d shares a scheduler instance with the engine or another worker", i)
		}
		seen[w.sched] = true
	}
}
