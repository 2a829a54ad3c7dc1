package cellular

import "math"

// Batched / linear-domain variants of the geometry and pilot kernels for the
// simulator's fast physics path. The dB-domain PilotSetInto spends two
// log10 calls per (user, cell) pair on EcIoDB/GainDB values whose only hot
// consumer — the active-set rules — compares differences of logs, which is
// exactly a ratio comparison in the linear domain. PilotSetLinearInto skips
// the logs (leaving the dB fields zero) and ActiveSetLinearInto applies the
// identical add/drop rules on linear thresholds the caller precomputes once:
//
//	minEcIo      = 10^(minEcIoDB/10)
//	addFactor    = 10^(-addThresholdDB/10)
//
// so `p.EcIoDB >= best - addThresholdDB` becomes `p.EcIo >= best*addFactor`.
// Decisions can differ from the dB path only when a pilot sits within a few
// ulps of a threshold; the engine's exact reference mode keeps the dB path.

// DistancesInto fills dst[k] with the distance from p to base station k
// (honouring wrap-around), identically to per-cell Distance calls.
func (l *Layout) DistancesInto(p Point, dst []float64) {
	for k := range l.Cells {
		dst[k] = l.Distance(p, k)
	}
}

// DistancesSqInto fills dst[k] with the SQUARED distance from p to base
// station k, saving the square root for callers — like the fast path-loss
// kernel — that only need log10(d) = log10(d^2)/2.
func (l *Layout) DistancesSqInto(p Point, dst []float64) {
	if !l.WrapAround {
		for k := range l.Cells {
			b := l.Cells[k].Position
			dx, dy := p.X-b.X, p.Y-b.Y
			dst[k] = dx*dx + dy*dy
		}
		return
	}
	halfW, halfH := l.width/2, l.height/2
	for k := range l.Cells {
		b := l.Cells[k].Position
		// math.Abs compiles to a sign-bit clear; the sign of p-b is a coin
		// flip per cell, so an if/neg pair here mispredicts constantly. The
		// wrap tests below stay as branches — whether a given (user, cell)
		// pair wraps is stable across frames, so they predict well.
		dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
		if dx > halfW {
			dx = l.width - dx
		}
		if dy > halfH {
			dy = l.height - dy
		}
		dst[k] = dx*dx + dy*dy
	}
}

// NearestCellSq returns the index of the base station closest to p by
// scanning SQUARED distances — no square roots, same wrap-around handling
// as DistancesSqInto. Because sqrt is monotonic the winner matches
// NearestCell except when two true distances round to the same float64 after
// sqrt while their squares differ (NearestCell then keeps the earlier index,
// NearestCellSq the truly closer one); the engine's exact reference path
// keeps NearestCell so golden outputs cannot shift on that measure-zero edge.
func (l *Layout) NearestCellSq(p Point) int {
	best, bestD2 := -1, math.Inf(1)
	if !l.WrapAround {
		for k := range l.Cells {
			b := l.Cells[k].Position
			dx, dy := p.X-b.X, p.Y-b.Y
			if d2 := dx*dx + dy*dy; d2 < bestD2 {
				best, bestD2 = k, d2
			}
		}
		return best
	}
	halfW, halfH := l.width/2, l.height/2
	for k := range l.Cells {
		b := l.Cells[k].Position
		dx, dy := math.Abs(p.X-b.X), math.Abs(p.Y-b.Y)
		if dx > halfW {
			dx = l.width - dx
		}
		if dy > halfH {
			dy = l.height - dy
		}
		if d2 := dx*dx + dy*dy; d2 < bestD2 {
			best, bestD2 = k, d2
		}
	}
	return best
}

// PilotSetLinearInto is PilotSetInto without the per-cell dB conversions:
// EcIo is computed and sorted exactly as in the dB version, while EcIoDB and
// GainDB are left zero. Use with ActiveSetLinearInto.
//
// Unlike PilotSetInto it is frame-coherent: when dst already holds one entry
// per cell (the steady state of a per-mobile buffer), the new EcIo values
// are written into LAST frame's order and the insertion sort only repairs
// the few rank inversions one frame of channel drift produces — O(n) instead
// of the O(n^2) moves a from-scratch sort of n cells costs. The sorted
// result is identical as long as EcIo values are distinct (exact ties may
// order by history rather than by cell index); callers must therefore give
// each mobile its own buffer.
func PilotSetLinearInto(dst []PilotMeasurement, gains []float64, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	scale := pilotFraction * txPower / total
	if len(dst) == len(gains) {
		for i := range dst {
			dst[i].EcIo = scale * gains[dst[i].Cell]
		}
	} else {
		dst = dst[:0]
		for k, g := range gains {
			dst = append(dst, PilotMeasurement{Cell: int32(k), Slot: int32(k), EcIo: scale * g})
		}
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1].EcIo < dst[j].EcIo; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return dst
}

// ActiveSetLinearInto applies the ActiveSetInto add rules in the linear
// domain: minEcIo and addFactor are the precomputed linear forms of the dB
// thresholds (see the package comment above).
func ActiveSetLinearInto(dst []int, pilots []PilotMeasurement, addFactor, minEcIo float64, maxSize int) []int {
	dst = dst[:0]
	if len(pilots) == 0 || maxSize <= 0 {
		return dst
	}
	threshold := pilots[0].EcIo * addFactor
	for _, p := range pilots {
		if len(dst) >= maxSize {
			break
		}
		if p.EcIo < minEcIo {
			continue
		}
		if p.EcIo >= threshold {
			dst = append(dst, int(p.Cell))
		}
	}
	return dst
}
