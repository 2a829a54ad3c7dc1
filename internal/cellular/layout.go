// Package cellular models the multi-cell wideband CDMA network geometry:
// a hexagonal grid of base stations with wrap-around, forward-link pilot
// strength (Ec/Io) computation, and the active-set / reduced-active-set
// bookkeeping that drives soft hand-off and the paper's burst admission
// measurements (Section 3.1). The reduced active set for the high-speed SCH
// is the set of the two base stations with the strongest pilots, as in
// cdma2000.
package cellular

import (
	"fmt"
	"math"
)

// Point is a position in metres on the simulation plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// BaseStation is one cell site.
type BaseStation struct {
	ID       int
	Position Point
}

// Layout is a set of base stations arranged on a hexagonal grid. When
// WrapAround is true, distances are computed on a torus spanned by the grid's
// bounding box so edge cells see the same interference environment as centre
// cells (the standard trick for removing boundary effects in cellular
// simulation).
type Layout struct {
	Cells      []BaseStation
	CellRadius float64 // hexagon circumradius in metres
	WrapAround bool
	width      float64
	height     float64
}

// NewHexLayout builds a hexagonal layout with the given number of rings
// around a centre cell (rings = 0 gives 1 cell, 1 gives 7, 2 gives 19, ...).
func NewHexLayout(rings int, cellRadius float64, wrapAround bool) *Layout {
	if rings < 0 {
		rings = 0
	}
	if cellRadius <= 0 {
		cellRadius = 1000
	}
	l := &Layout{CellRadius: cellRadius, WrapAround: wrapAround}
	// Axial hex coordinates -> cartesian, pointy-top orientation with
	// inter-site distance sqrt(3)*R.
	d := math.Sqrt(3) * cellRadius
	id := 0
	for q := -rings; q <= rings; q++ {
		for r := -rings; r <= rings; r++ {
			s := -q - r
			if abs(q) > rings || abs(r) > rings || abs(s) > rings {
				continue
			}
			x := d * (float64(q) + float64(r)/2)
			y := d * (math.Sqrt(3) / 2) * float64(r)
			l.Cells = append(l.Cells, BaseStation{ID: id, Position: Point{x, y}})
			id++
		}
	}
	// Bounding box for wrap-around; pad by one inter-site distance.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, c := range l.Cells {
		minX = math.Min(minX, c.Position.X)
		maxX = math.Max(maxX, c.Position.X)
		minY = math.Min(minY, c.Position.Y)
		maxY = math.Max(maxY, c.Position.Y)
	}
	l.width = maxX - minX + d
	l.height = maxY - minY + d
	return l
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NumCells returns the number of base stations.
func (l *Layout) NumCells() int { return len(l.Cells) }

// Bounds returns the width and height of the service area used for mobility
// and wrap-around.
func (l *Layout) Bounds() (width, height float64) { return l.width, l.height }

// Distance returns the distance from position p to base station k, honouring
// wrap-around when enabled.
func (l *Layout) Distance(p Point, k int) float64 {
	b := l.Cells[k].Position
	if !l.WrapAround {
		return p.Dist(b)
	}
	dx := math.Abs(p.X - b.X)
	dy := math.Abs(p.Y - b.Y)
	if dx > l.width/2 {
		dx = l.width - dx
	}
	if dy > l.height/2 {
		dy = l.height - dy
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// NearestCell returns the index of the base station closest to p.
func (l *Layout) NearestCell(p Point) int {
	best, bestD := -1, math.Inf(1)
	for k := range l.Cells {
		if d := l.Distance(p, k); d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// String describes the layout.
func (l *Layout) String() string {
	return fmt.Sprintf("Layout(%d cells, R=%.0f m, wrap=%v)", len(l.Cells), l.CellRadius, l.WrapAround)
}

// PilotMeasurement is the strength of one cell's pilot as seen by a mobile.
// Cell is the global cell index; Slot is the index of the gain the entry
// was formed from in the caller's gain row — the cell itself on a full
// scan, the cell's position in the candidate list on a window — so later
// per-frame passes read the gain without searching for it. Both are int32
// to keep the entry at 32 bytes: a city keeps ~100k users' pilot sets
// resident.
type PilotMeasurement struct {
	Cell   int32
	Slot   int32
	EcIo   float64 // linear Ec/Io (pilot chip energy over total received density)
	EcIoDB float64
	GainDB float64 // link gain (path loss + shadowing) used to form the pilot
}

// PilotSet computes the pilot Ec/Io of every cell at a mobile whose link
// gains (linear, combining path loss and shadowing, but NOT fast fading —
// pilots are measured over many symbols) are given per cell. pilotFraction is
// the fraction of each cell's transmit power devoted to the pilot, txPower is
// the common cell transmit power and noise the thermal noise power at the
// mobile. The result is sorted by decreasing Ec/Io.
func PilotSet(gains []float64, pilotFraction, txPower, noise float64) []PilotMeasurement {
	return PilotSetInto(make([]PilotMeasurement, 0, len(gains)), gains, pilotFraction, txPower, noise)
}

// PilotSetInto is PilotSet writing into dst (reused, resliced to length
// zero), so a caller that keeps a per-mobile buffer pays no allocation per
// frame. The sort is an insertion sort: the set is small and nearly sorted
// from one frame to the next, and it avoids sort.Slice's reflection-based
// swapper showing up in the frame loop.
func PilotSetInto(dst []PilotMeasurement, gains []float64, pilotFraction, txPower, noise float64) []PilotMeasurement {
	total := noise
	for _, g := range gains {
		total += txPower * g
	}
	dst = dst[:0]
	for k, g := range gains {
		ec := pilotFraction * txPower * g
		ecio := ec / total
		dst = append(dst, PilotMeasurement{
			Cell:   int32(k),
			Slot:   int32(k),
			EcIo:   ecio,
			EcIoDB: 10 * math.Log10(math.Max(ecio, 1e-30)),
			GainDB: 10 * math.Log10(math.Max(g, 1e-30)),
		})
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1].EcIo < dst[j].EcIo; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return dst
}

// ActiveSet returns the cells whose pilot is within addThresholdDB of the
// strongest pilot and above the absolute minimum minEcIoDB, capped at
// maxSize. This models the FCH soft hand-off active set.
func ActiveSet(pilots []PilotMeasurement, addThresholdDB, minEcIoDB float64, maxSize int) []int {
	if len(pilots) == 0 || maxSize <= 0 {
		return nil
	}
	return ActiveSetInto([]int{}, pilots, addThresholdDB, minEcIoDB, maxSize)
}

// ActiveSetInto is ActiveSet writing into dst (reused, resliced to length
// zero).
func ActiveSetInto(dst []int, pilots []PilotMeasurement, addThresholdDB, minEcIoDB float64, maxSize int) []int {
	dst = dst[:0]
	if len(pilots) == 0 || maxSize <= 0 {
		return dst
	}
	best := pilots[0].EcIoDB
	for _, p := range pilots {
		if len(dst) >= maxSize {
			break
		}
		if p.EcIoDB < minEcIoDB {
			continue
		}
		if best-p.EcIoDB <= addThresholdDB {
			dst = append(dst, int(p.Cell))
		}
	}
	return dst
}

// ReducedActiveSet returns the reduced active set used for the high-speed
// supplemental channel: the (at most) two strongest pilots of the FCH active
// set, as assumed by the paper (footnote 4).
func ReducedActiveSet(pilots []PilotMeasurement, activeSet []int) []int {
	if len(activeSet) == 0 {
		return nil
	}
	return ReducedActiveSetInto([]int{}, pilots, activeSet)
}

// ReducedActiveSetInto is ReducedActiveSet writing into dst (reused,
// resliced to length zero). The active set is at most a handful of cells, so
// membership is a linear scan rather than a per-frame map.
func ReducedActiveSetInto(dst []int, pilots []PilotMeasurement, activeSet []int) []int {
	dst = dst[:0]
	for _, p := range pilots { // pilots already sorted by strength
		for _, c := range activeSet {
			if c == int(p.Cell) {
				dst = append(dst, c)
				break
			}
		}
		if len(dst) == 2 {
			break
		}
	}
	return dst
}
