// Package sim is the dynamic system-level simulator used to evaluate the
// burst admission algorithms, following the methodology the paper describes:
// a multi-cell wideband CDMA network with user mobility, per-frame power
// control effects, soft hand-off (reduced active set), lognormal shadowing,
// Rayleigh fast fading, an adaptive (VTAOC) physical layer and a burst
// admission layer run every frame. Independent replications run in parallel
// across goroutines.
package sim

import (
	"errors"
	"fmt"
	"io"

	"jabasd/internal/channel"
	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/mac"
	"jabasd/internal/trace"
	"jabasd/internal/traffic"
	"jabasd/internal/vtaoc"
)

// LoadStep describes a mid-run step change in the offered load: at
// simulated time AtSec every data source switches its mean reading (think)
// time to ReadingTimeSec — a shorter time means more frequent downloads, so
// stepping it down models a flash crowd arriving. The current reading
// period's remaining time is rescaled proportionally, so the step takes
// effect immediately instead of one think-time later. The transient
// experiment E12 uses this to measure the admission layer's step response.
type LoadStep struct {
	// AtSec is the simulated time the step applies (>= 0).
	AtSec float64
	// ReadingTimeSec is the new mean reading time in seconds (> 0).
	ReadingTimeSec float64
}

// Direction selects which link the burst traffic uses.
type Direction int

const (
	// Forward simulates forward-link (base-to-mobile) data bursts, limited by
	// the cells' transmit power budget.
	Forward Direction = iota
	// Reverse simulates reverse-link (mobile-to-base) data bursts, limited by
	// the cells' received interference budget.
	Reverse
)

// String names the direction.
func (d Direction) String() string {
	if d == Reverse {
		return "reverse"
	}
	return "forward"
}

// MarshalJSON encodes the direction by name ("forward"/"reverse") so
// configuration files and API payloads stay readable.
func (d Direction) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// UnmarshalJSON accepts the names and, for configuration files written
// before the string encoding, the raw ordinals 0 and 1.
func (d *Direction) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"forward"`, `0`:
		*d = Forward
	case `"reverse"`, `1`:
		*d = Reverse
	default:
		return fmt.Errorf("sim: unknown direction %s (want \"forward\" or \"reverse\")", data)
	}
	return nil
}

// FrameMode selects how the per-frame burst admission fans out over cells.
type FrameMode string

const (
	// FrameSequential is the legacy mode: cells run their measurement and
	// scheduling sub-layers one after another in cell-index order, each cell
	// seeing the load the grants of lower-numbered cells added earlier in
	// the same frame. The empty string means FrameSequential.
	FrameSequential FrameMode = "sequential"
	// FrameSnapshot is the paper-faithful mode: every cell builds its
	// admissible region and solves its scheduler ILP against the immutable
	// frame-start load ledger (the previous frame's measurements), and the
	// resulting grants are committed in cell-index order afterwards. The
	// solve phase fans out over FrameParallel workers; because no cell's
	// solution depends on another cell's grant within the frame, the output
	// is byte-identical for any worker count.
	FrameSnapshot FrameMode = "snapshot"
)

// normalize maps the empty mode to FrameSequential.
func (m FrameMode) normalize() FrameMode {
	if m == "" {
		return FrameSequential
	}
	return m
}

// SchedulerKind selects the scheduling sub-layer algorithm.
type SchedulerKind string

// Available scheduler kinds.
const (
	SchedulerJABASD     SchedulerKind = "jaba-sd"
	SchedulerGreedy     SchedulerKind = "jaba-sd-greedy"
	SchedulerFCFS       SchedulerKind = "fcfs"
	SchedulerEqualShare SchedulerKind = "equal-share"
	SchedulerRandom     SchedulerKind = "random"
)

// NewScheduler instantiates the named scheduler.
func NewScheduler(kind SchedulerKind, seed uint64) (core.Scheduler, error) {
	switch kind {
	case SchedulerJABASD, "":
		return core.NewJABASD(), nil
	case SchedulerGreedy:
		return &core.GreedyJABASD{}, nil
	case SchedulerFCFS:
		return &core.FCFS{}, nil
	case SchedulerEqualShare:
		return &core.EqualShare{}, nil
	case SchedulerRandom:
		return core.NewRandom(seed), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheduler %q", kind)
	}
}

// Config holds every parameter of one simulation scenario.
type Config struct {
	// Randomness and duration.
	Seed        uint64
	SimTime     float64 // simulated seconds
	WarmupTime  float64 // statistics discarded before this time
	FrameLength float64 // admission frame, seconds (cdma2000: 20 ms)

	// Topology.
	Rings      int     // hexagonal rings around the centre cell (2 => 19 cells)
	CellRadius float64 // metres
	WrapAround bool

	// Population.
	DataUsersPerCell  int
	VoiceUsersPerCell int

	// Mobility.
	MinSpeed float64 // m/s
	MaxSpeed float64 // m/s

	// Radio / channel.
	PathLoss           channel.PathLossModel
	ShadowSigmaDB      float64
	ShadowDecorrM      float64
	DopplerHz          float64
	NoiseW             float64 // thermal noise power at a receiver, watts
	MaxCellPowerW      float64 // P_max, forward-link power budget per cell
	CommonOverheadFrac float64 // fraction of P_max always spent on pilot/common channels
	VoiceChannelW      float64 // forward power of one active voice channel at cell edge reference
	FCHTargetFraction  float64 // cap on one user's FCH power as a fraction of P_max
	FCHEbIoTargetDB    float64 // forward FCH Eb/Io target
	ReverseRiseLimit   float64 // L_max / thermal-noise (rise over thermal) cap, linear
	SoftHandoffAddDB   float64 // active set add threshold
	PilotMinEcIoDB     float64 // minimum usable pilot
	PilotFraction      float64 // fraction of cell power on the pilot
	ShadowMargin       float64 // κ margin for projected neighbour interference

	// Physical layer.
	VTAOC           vtaoc.Config
	RatePlan        vtaoc.RatePlan
	UseFixedRatePHY bool // ablation: replace the adaptive coder with one fixed mode
	FixedRateMode   int

	// ExactPHY selects the bit-exact reference physics: the scalar-equivalent
	// channel/pilot kernels (math.Pow, dB-domain pilot comparisons), the exact
	// VTAOC integral instead of its lookup table, and full per-frame region
	// rebuilds. It exists to keep golden outputs byte-identical to the
	// pre-batching engine; the default (false) runs the fast SoA kernels —
	// gains within ~1e-12 relative, VTAOC within 5e-7 absolute, statistically
	// equivalent shadowing draws — for a several-fold frame-rate gain.
	ExactPHY bool
	// RegionEpsilon is the relative drift tolerance of the fast path's
	// incremental admissible-region cache: a user's measurements count as
	// changed when a gain moved by more than this fraction since its last
	// region build (0, the default, re-marks every moving user each frame so
	// cached regions are reused only when bitwise unchanged). Ignored when
	// ExactPHY is set.
	RegionEpsilon float64

	// Traffic.
	Data traffic.DataModelConfig

	// Admission layer.
	Scheduler        SchedulerKind
	Objective        core.Objective
	MAC              mac.Config
	MinBurstDuration float64 // T_l of equation (24), seconds

	// FrameMode selects sequential (legacy, intra-frame coupled) or
	// snapshot (paper-faithful, intra-frame independent) admission; empty
	// means sequential.
	FrameMode FrameMode
	// FrameParallel bounds the snapshot-mode frame workers, which run the
	// per-user physics pass and the cell solves: 1 runs both inline without
	// a pool, larger values size the pool, and 0 means auto — GOMAXPROCS for
	// a single run, but inline when an outer replication/sweep fan-out
	// already saturates the CPUs (see ResolveFrameParallel). It never
	// affects the results and is ignored in sequential mode.
	FrameParallel int
	// Tiles is the task grain of the snapshot measure+solve phase: a
	// positive value splits each frame's active cells into at most that
	// many contiguous chunks, one pool task each, instead of one task per
	// active cell (0, the default). A chunk owns no state: every task
	// solves on its pool worker's scheduler clone and scratch against the
	// one shared region cache, and there is no halo. Requires the snapshot
	// frame mode. Like FrameParallel it never affects the results: metrics
	// and traces are byte-identical for any tile count, including 0.
	Tiles int
	// PilotCells sizes each user's measurement window (see windowed.go).
	// 0 (the default) means the window is the whole layout: every user
	// measures every cell, which the bit-exact goldens pin, at any layout
	// size. A positive value bounds the window to the nearest PilotCells
	// cells of the user's spatial-grid bucket (see internal/spatial): pilot
	// sets, shadowing state and interference sums then cost O(window)
	// instead of O(cells) per user per frame, which is what makes 1000-cell
	// maps tractable. A window narrower than the layout is a (deterministic)
	// modelling approximation — cells outside it are treated as negligible
	// — so it changes results relative to 0. Must be at least 4 (the active
	// set plus slack) and at most channel.MaxWindowWidth; >= 19 (a two-ring
	// neighbourhood) is recommended.
	PilotCells int

	// Trace, when non-nil, receives per-frame per-cell telemetry records
	// (offered/admitted bursts, cell load, queue length, solve status,
	// burst-delay samples — see trace.Record). The engine wraps it in a
	// trace.Recorder and emits only from its sequential sections, so the
	// stream is byte-identical for any FrameParallel. Warm-up frames are
	// included: transient analysis is what the trace is for. The sink is
	// not part of the scenario (never serialised); RunReplications attaches
	// it to replication 0 only, so a sink never sees interleaved engines.
	Trace trace.Sink `json:"-"`
	// TraceEvery samples every N-th frame into Trace (0 or 1 = every
	// frame). Counters reset each frame, so a sampled row is that frame's
	// activity, not an aggregate since the last sample.
	TraceEvery int

	// SolveTrace, when non-nil, receives the JSONL solve trace: every
	// (frame, cell) scheduling problem the admission layer solves —
	// requests, admissible region and assigned ratios — in commit order
	// (see internal/replay). The stream is byte-identical for any
	// FrameParallel/Tiles. Never serialised; like Trace it is attached to
	// replication 0 only by RunReplications.
	SolveTrace io.Writer `json:"-"`

	// CheckpointEvery, when positive with CheckpointSink set, serialises
	// the full engine state to the sink after every N-th frame (see
	// Engine.Checkpoint). Like the trace it is an execution knob, not part
	// of the scenario: a checkpointing run's outputs are byte-identical to
	// a plain one.
	CheckpointEvery int
	// CheckpointSink receives the periodic checkpoints: it is called with
	// the just-completed frame index and a callback that serialises the
	// engine into the writer it is given (see FileCheckpointSink for the
	// atomic-file implementation). A sink error aborts the run. Never
	// serialised.
	CheckpointSink func(frame int, write func(io.Writer) error) error `json:"-"`

	// LoadStep, when non-nil, applies a mid-run offered-load step change
	// (see LoadStep); nil leaves the traffic stationary.
	LoadStep *LoadStep

	// Faults, when non-nil, injects the piecewise fault schedule (cell
	// outages, transmit-power derating, offered-load curves — see
	// internal/fault) into the run. Semantic: it changes results, is part
	// of the checkpoint's scenario hash, and its effects stay byte-identical
	// for any FrameParallel/Tiles. A nil or empty schedule leaves every
	// output bit-identical to a fault-free build.
	Faults *fault.Schedule
	// SolveNodeBudget, when positive, bounds each exact JABA-SD solve at
	// that many branch-and-bound nodes; a capped solve degrades to the
	// greedy schedule deterministically (counted in Metrics.FallbackSolves,
	// traced as "fallback"). Node counts are a pure function of the
	// problem, so this is the deterministic analogue of a per-frame solver
	// time budget. 0 means unbounded; other schedulers ignore it.
	SolveNodeBudget int

	// Coverage accounting: a completed burst counts as "covered" when its
	// average served rate meets this fraction of the FCH rate.
	CoverageRateFraction float64

	// Direction of the data bursts.
	Direction Direction
}

// DefaultConfig returns the baseline scenario used throughout the
// experiments: 19 wrap-around cells of 1 km radius, 10 data and 8 voice
// users per cell, vehicular mobility, JABA-SD with the delay-aware objective.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		SimTime:     60,
		WarmupTime:  5,
		FrameLength: 0.02,

		Rings:      2,
		CellRadius: 1000,
		WrapAround: true,

		DataUsersPerCell:  10,
		VoiceUsersPerCell: 8,

		MinSpeed: 1,
		MaxSpeed: 14, // ~3.6 .. 50 km/h

		PathLoss:           channel.DefaultPathLoss(),
		ShadowSigmaDB:      8,
		ShadowDecorrM:      50,
		DopplerHz:          55,
		NoiseW:             4e-15, // ≈ -114 dBm in 3.75 MHz
		MaxCellPowerW:      20,
		CommonOverheadFrac: 0.2,
		VoiceChannelW:      0.25,
		FCHTargetFraction:  0.05,
		FCHEbIoTargetDB:    7,
		ReverseRiseLimit:   10, // 10 dB rise over thermal
		SoftHandoffAddDB:   5,
		PilotMinEcIoDB:     -16,
		PilotFraction:      0.2,
		ShadowMargin:       1.5,

		VTAOC:         vtaoc.DefaultConfig(),
		RatePlan:      vtaoc.DefaultRatePlan(),
		FixedRateMode: 3,

		Data: traffic.DefaultDataModelConfig(),

		Scheduler:        SchedulerJABASD,
		Objective:        core.DefaultObjective(),
		MAC:              mac.DefaultConfig(),
		MinBurstDuration: 0.08,

		CoverageRateFraction: 1.0,
		Direction:            Forward,
	}
}

// Validate checks the configuration for inconsistencies. Every violation is
// reported, joined into one error (errors.Join), so a hand-written scenario
// file or API payload with several mistakes surfaces them all in one round
// trip instead of one per submission.
func (c Config) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("sim: "+format, args...))
	}
	if c.SimTime <= 0 || c.FrameLength <= 0 {
		fail("SimTime and FrameLength must be positive")
	}
	if c.WarmupTime < 0 || c.WarmupTime >= c.SimTime {
		fail("WarmupTime must be in [0, SimTime)")
	}
	if c.Rings < 0 || c.CellRadius <= 0 {
		fail("invalid topology")
	}
	if c.DataUsersPerCell < 0 || c.VoiceUsersPerCell < 0 {
		fail("negative user counts")
	}
	if c.MaxCellPowerW <= 0 || c.NoiseW <= 0 {
		fail("power budget and noise must be positive")
	}
	if c.CommonOverheadFrac < 0 || c.CommonOverheadFrac >= 1 {
		fail("CommonOverheadFrac must be in [0,1)")
	}
	if c.ReverseRiseLimit <= 1 {
		fail("ReverseRiseLimit must exceed 1")
	}
	if err := c.VTAOC.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.RatePlan.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.MAC.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Objective.Validate(); err != nil {
		errs = append(errs, err)
	}
	if _, err := NewScheduler(c.Scheduler, c.Seed); err != nil {
		errs = append(errs, err)
	}
	switch c.FrameMode.normalize() {
	case FrameSequential, FrameSnapshot:
	default:
		fail("unknown frame mode %q (want %q or %q)",
			c.FrameMode, FrameSequential, FrameSnapshot)
	}
	if c.FrameParallel < 0 {
		fail("FrameParallel must be >= 0")
	}
	if c.Tiles < 0 {
		fail("Tiles must be >= 0")
	}
	if c.Tiles > 0 && c.FrameMode.normalize() != FrameSnapshot {
		fail("Tiles requires the snapshot frame mode")
	}
	if c.PilotCells != 0 && (c.PilotCells < 4 || c.PilotCells > channel.MaxWindowWidth) {
		fail("PilotCells must be 0 (the window is the whole layout) or in [4, %d]", channel.MaxWindowWidth)
	}
	if c.TraceEvery < 0 {
		fail("TraceEvery must be >= 0")
	}
	if c.CheckpointEvery < 0 {
		fail("CheckpointEvery must be >= 0")
	}
	if ls := c.LoadStep; ls != nil {
		if ls.AtSec < 0 || ls.AtSec >= c.SimTime {
			fail("LoadStep.AtSec must be in [0, SimTime)")
		}
		if ls.ReadingTimeSec <= 0 {
			fail("LoadStep.ReadingTimeSec must be positive")
		}
	}
	if c.SolveNodeBudget < 0 {
		fail("SolveNodeBudget must be >= 0")
	}
	if c.Faults != nil {
		cells := 1 + 3*c.Rings*(c.Rings+1)
		if err := c.Faults.Validate(cells, c.SimTime); err != nil {
			errs = append(errs, err)
		}
	}
	if c.UseFixedRatePHY && (c.FixedRateMode < 1 || c.FixedRateMode > c.VTAOC.NumModes) {
		fail("FixedRateMode out of range")
	}
	if c.RegionEpsilon < 0 {
		fail("RegionEpsilon must be >= 0")
	}
	return errors.Join(errs...)
}
