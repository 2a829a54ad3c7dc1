package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"jabasd/internal/scenario"
	"jabasd/internal/sim"
)

// Simulation workload sizes. SimTime is shortened from the presets so one
// replication fits many times into a run; the layouts, user counts and
// execution knobs are the presets' own, except that FrameParallel (and on
// city Tiles) is pinned to 2 so the figures do not depend on the core count.
const (
	metroSimTime  = 8.0 // 400 frames, 5 s of them warm-up (preset default)
	citySimTime   = 0.7 // 35 frames, the first 25 warm-up (preset default)
	frameParallel = 2
	cityTiles     = 2
)

// simConfig returns the workload's scenario at the given seed.
func simConfig(workload string, seed uint64) (sim.Config, error) {
	var cfg sim.Config
	var err error
	switch workload {
	case "metro":
		cfg, err = scenario.Lookup(scenario.PresetMetro)
		cfg.SimTime = metroSimTime
	case "city":
		cfg, err = scenario.Lookup(scenario.PresetCity)
		cfg.SimTime = citySimTime
		cfg.Tiles = cityTiles
	default:
		return cfg, fmt.Errorf("no simulation workload %q", workload)
	}
	if err != nil {
		return cfg, err
	}
	cfg.Seed = seed
	cfg.FrameParallel = frameParallel
	return cfg, nil
}

// simRun is one replication measured from outside the engine.
type simRun struct {
	setup    time.Duration // sim.NewEngine
	wall     time.Duration // Engine.Run
	cpu      time.Duration // process user+system CPU over Run
	start    time.Time     // when Run was called
	stamps   []time.Time   // frame boundaries, from the frame hook
	frameMS  []float64     // host time of each frame
	heapPeak uint64        // peak heap bytes in use at frame boundaries
	steal    float64       // share of the machine's CPU time the host stole during Run
	mem      memDelta      // allocation and GC counters over Run
	metrics  *sim.Metrics
	print    string // fingerprint of metrics, see fingerprint
}

// memDelta is the runtime.MemStats difference across Run.
type memDelta struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
}

// runSim builds an engine and runs it once. The only hook into the frame
// loop is Config.CheckpointSink with CheckpointEvery 1: it is called at
// every frame boundary, takes a timestamp and samples the heap, and never
// serialises the engine.
func runSim(cfg sim.Config, withMem bool) (simRun, error) {
	var r simRun
	frames := int(cfg.SimTime/cfg.FrameLength + 0.5)
	stamps := make([]time.Time, 0, frames)
	cfg.CheckpointEvery = 1
	cfg.CheckpointSink = func(int, func(io.Writer) error) error {
		stamps = append(stamps, time.Now())
		r.heapPeak = max(r.heapPeak, heapInUse())
		return nil
	}

	runtime.GC()
	t0 := time.Now()
	e, err := sim.NewEngine(cfg)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}
	var before, after runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&before)
	}
	cpu0 := cpuTime()
	steal0, total0 := hostSteal()
	start := time.Now()
	m, err := e.Run(context.Background())
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	if steal1, total1 := hostSteal(); total1 > total0 {
		r.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if withMem {
		runtime.ReadMemStats(&after)
		r.mem = memDelta{
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			allocs:     after.Mallocs - before.Mallocs,
			gcCycles:   after.NumGC - before.NumGC,
			gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		}
	}
	if err != nil {
		return r, err
	}
	r.start, r.stamps = start, stamps
	prev := start
	for _, s := range stamps {
		r.frameMS = append(r.frameMS, ms(s.Sub(prev)))
		prev = s
	}
	r.metrics = m
	r.print, err = fingerprint(m)
	return r, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fingerprint is the SHA-256 of a canonical JSON rendering of the simulated
// metrics. sim.Metrics marshals its counters, but its sample and running
// statistics keep their state unexported, so the rendering adds every
// recorded delay sample and each statistic's exact moments through their
// public accessors. Two runs with equal fingerprints produced the same
// simulated outcome, bit for bit.
func fingerprint(m *sim.Metrics) (string, error) {
	base, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	type running struct{ N, Mean, Var, Min, Max float64 }
	run := func(count int64, mean, v, lo, hi float64) running {
		return running{float64(count), mean, v, lo, hi}
	}
	doc := struct {
		Metrics       json.RawMessage
		BurstDelay    []float64
		AdmissionWait []float64
		ServedRate    running
		CellLoad      running
		AssignedRatio running
		QueueMean     float64
		QueueDuration float64
	}{
		Metrics:       base,
		BurstDelay:    m.BurstDelay.Values(),
		AdmissionWait: m.AdmissionWait.Values(),
		ServedRate:    run(m.ServedRate.Count(), m.ServedRate.Mean(), m.ServedRate.Variance(), m.ServedRate.Min(), m.ServedRate.Max()),
		CellLoad:      run(m.CellLoad.Count(), m.CellLoad.Mean(), m.CellLoad.Variance(), m.CellLoad.Min(), m.CellLoad.Max()),
		AssignedRatio: run(m.AssignedRatio.Count(), m.AssignedRatio.Mean(), m.AssignedRatio.Variance(), m.AssignedRatio.Min(), m.AssignedRatio.Max()),
		QueueMean:     m.QueueLength.Mean(),
		QueueDuration: m.QueueLength.Duration(),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkMetrics is the model-level part of the correctness gate: no cell's
// admission was skipped and no burst was finished twice.
func checkMetrics(m *sim.Metrics) error {
	if m.SkippedCells != 0 {
		return fmt.Errorf("%d cell-frames skipped admission", m.SkippedCells)
	}
	if m.BurstsCompleted+m.BurstsExpired > m.BurstsGenerated {
		return fmt.Errorf("bursts completed %d + expired %d exceed generated %d", m.BurstsCompleted, m.BurstsExpired, m.BurstsGenerated)
	}
	if m.BurstsGenerated == 0 {
		return fmt.Errorf("no bursts generated")
	}
	return nil
}

// recordTrace runs cfg once with Config.SolveTrace on and returns the run
// and the trace bytes. The trace carries every (frame, cell) problem the
// admission layer solved, with the ratios it granted.
func recordTrace(cfg sim.Config) (simRun, []byte, error) {
	var buf bytes.Buffer
	cfg.SolveTrace = &buf
	r, err := runSim(cfg, false)
	return r, buf.Bytes(), err
}
