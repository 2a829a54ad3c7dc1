package sim

// Per-user physics over a candidate window. Each data user tracks channel
// state to the cells of its candidate row u.cand — global cell indices,
// ascending — and every gain lookup goes through the row's slots; each
// pilot entry carries its slot beside its cell, so no per-frame pass
// searches the row. All downstream admission code is unaffected: pilots,
// active and reduced sets carry global cell indices. There is one physics
// path; Config.PilotCells only chooses the row:
//
//   - PilotCells > 0 (city scale): the row is the candidate window of the
//     user's spatial-grid bucket (internal/spatial), so channel state and
//     per-frame work are O(users x window) instead of O(users x cells). The
//     window is retargeted when the user crosses into a bucket with a
//     different candidate list (channel.Window carries the shadowing state
//     of the cells that stay).
//   - PilotCells = 0: the window is the whole layout. Every user's row
//     aliases one shared identity row [0, cells) over a plain channel.Batch,
//     retargetWindow returns at once, and the fast path's squared-distance
//     kernel takes its batched whole-layout form.
//
// On the identity row the arithmetic — including the order of the Io and
// interference summations — is a scan over every cell, and a full-width
// channel.Window reproduces it bit for bit, which
// TestWindowedFullWidthIdentity locks in.

import (
	"math"

	"jabasd/internal/cellular"
	"jabasd/internal/mathx"
)

// retargetWindow points user u's channel window at its position's bucket
// candidates and reports whether the candidate list changed. Buckets change
// rarely relative to frames, so the common case is two integer compares;
// the identity row never moves.
func (e *Engine) retargetWindow(u *dataUser, pos cellular.Point) bool {
	if e.winB == nil {
		return false
	}
	b := e.spix.BucketOf(pos)
	if b == u.bucket {
		return false
	}
	u.bucket = b
	return e.winB.Retarget(u.id, e.spix.Candidates(b))
}

// updateUser advances one data user by one frame: position, per-slot gain,
// pilot/active/reduced sets, geometry, FCH ledgers and MAC state. The exact
// reference path (ExactPHY) reproduces the original scalar chain bit for
// bit: metre distances, the exact channel kernel and dB-domain pilot
// selection. The default fast path evaluates the same model on squared
// distances, the fast channel kernel (FastLog10/FastExp10, ziggurat
// shadowing draws) and linear-domain pilot selection. A zero-travel frame
// leaves the shadowing state — and with it every derived quantity, down to
// the FCH ledgers — bitwise unchanged, so a paused user skips the
// recompute; the exact path still consumes the Gaussian draws its reference
// stream takes.
func (e *Engine) updateUser(u *dataUser, dt float64) {
	exact := e.cfg.ExactPHY
	travelled := e.mobB.Advance(u.id, dt)
	if travelled == 0 && e.chanB.Ready(u.id) {
		if exact {
			e.chanB.AdvancePausedExact(u.id)
		}
		if e.faultDirty {
			e.measure(u, false)
			return
		}
		u.macM.AdvanceTo(e.now)
		return
	}
	pos := e.mobB.Position(u.id)
	// A retarget leaves stale slots in the pilot list, so the pilot update
	// starts from a clean rebuild; entering slots carry an invalidated
	// epsilon baseline, so the measurement version must bump.
	retargeted := e.retargetWindow(u, pos)
	if retargeted {
		u.pilots = u.pilots[:0]
	}
	dirty := retargeted
	if exact {
		e.layout.DistancesForInto(pos, u.cand, e.chanB.DistRow(u.id))
		e.chanB.AdvanceExact(u.id, travelled)
	} else {
		e.layout.DistancesSqForInto(pos, u.cand, e.chanB.DistRow(u.id))
		dirty = e.chanB.AdvanceFast(u.id, travelled, e.cfg.RegionEpsilon) || dirty
	}
	e.measure(u, dirty)
}

// measure derives user u's pilot, active and reduced sets and its
// admission-facing quantities from its current gains. On the fast path it
// also bumps the measurement version — the incremental region cache's key —
// when dirty (gains moved beyond RegionEpsilon, or the window moved) or the
// reduced set changed; the exact path always rebuilds regions and leaves
// the version alone. A paused user runs it on frames where the down mask
// changed: its mobility, fading and channel streams stay exactly as the
// paused shortcut leaves them, so a fault-free run cannot diverge.
func (e *Engine) measure(u *dataUser, dirty bool) {
	if e.cfg.ExactPHY {
		u.pilots = cellular.PilotSetCellsInto(u.pilots, u.cand, u.gain, e.cfg.PilotFraction, e.cfg.MaxCellPowerW, e.cfg.NoiseW)
		e.filterDownPilots(u)
		u.active = cellular.ActiveSetInto(u.active, u.pilots, e.cfg.SoftHandoffAddDB, e.cfg.PilotMinEcIoDB, 3)
		e.deriveLinkBudget(u)
		return
	}
	u.pilots = cellular.PilotSetCellsLinearInto(u.pilots, u.cand, u.gain, e.cfg.PilotFraction, e.cfg.MaxCellPowerW, e.cfg.NoiseW)
	e.filterDownPilots(u)
	u.active = cellular.ActiveSetLinearInto(u.active, u.pilots, e.addFactor, e.minEcIo, 3)
	e.deriveLinkBudget(u)
	if !dirty {
		dirty = !intSlicesEqual(u.reduced, u.prevReduced)
	}
	if dirty {
		u.ver++
	}
	u.prevReduced = append(u.prevReduced[:0], u.reduced...)
}

// deriveLinkBudget derives the admission-facing quantities from the
// freshly built pilot and active sets: reduced set, host cell, geometry,
// mean CSI and the FCH ledgers, then advances the MAC state. The
// interference total sums the window's cells (ascending cell order) and
// each reduced-set cell's gain is read through the Slot of its pilot entry.
// Reduced-set cells are always in the window — they come from the window's
// own pilot set — and the pilot update has just checked or rebuilt every
// slot against u.cand.
func (e *Engine) deriveLinkBudget(u *dataUser) {
	u.reduced = cellular.ReducedActiveSetInto(u.reduced, u.pilots, u.active)
	if len(u.reduced) == 0 {
		// Degenerate coverage hole: fall back to the strongest cell.
		u.reduced = append(u.reduced, int(u.pilots[0].Cell))
	}
	u.hostCell = u.reduced[0]

	// The reduced set lists pilots in pilot order (at most two of them), so
	// one forward pass over the pilots finds each one's slot.
	var slots [2]int32
	for i, j := 0, 0; j < len(u.reduced); i++ {
		if int(u.pilots[i].Cell) == u.reduced[j] {
			slots[j] = u.pilots[i].Slot
			j++
		}
	}
	hostSlot := int(slots[0])

	// Downlink geometry: serving-cell power over other-cell interference
	// plus noise, with neighbours at nominal activity.
	interference := e.cfg.NoiseW
	for s, g := range u.gain {
		if s == hostSlot {
			continue
		}
		interference += nominalOtherCellActivity * e.cfg.MaxCellPowerW * g
	}
	hostGain := u.gain[hostSlot]
	u.geometry = e.cfg.MaxCellPowerW * hostGain / interference
	u.meanCSIdB = mathx.DB(u.geometry) + schCSIOffsetDB

	// Forward FCH power needed at each reduced-active-set cell (equation 6
	// inputs): P = EbIo_target * I / (gain * processing gain), capped.
	cap := e.cfg.FCHTargetFraction * e.cfg.MaxCellPowerW
	u.fchPower.Reset()
	for j, k := range u.reduced {
		g := u.gain[slots[j]]
		req := e.ebioTarget * interference / (g * e.fchPG)
		u.fchPower.Set(k, math.Min(req, cap))
	}

	// Reverse FCH received power at every reduced-set cell, assuming the
	// mobile's reverse power control holds the target at its best cell
	// against a nominal half-limit interference level. Stored normalised by
	// the thermal noise power (rise-over-thermal units) so that the
	// admission arithmetic works on O(1) quantities.
	nominalL := e.cfg.NoiseW * (1 + (e.cfg.ReverseRiseLimit-1)/2)
	revTx := e.ebioTarget * nominalL / (hostGain * e.fchPG)
	u.revFCHRx.Reset()
	for j, k := range u.reduced {
		g := u.gain[slots[j]]
		u.revFCHRx.Set(k, revTx*g/e.cfg.NoiseW)
	}

	u.macM.AdvanceTo(e.now)
}
