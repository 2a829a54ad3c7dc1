// Package spatial provides a grid-bucketed spatial index over a hexagonal
// cell layout, so that the per-user geometry queries of a city-size map —
// nearest serving cell, candidate pilot cells — stop scanning all O(cells)
// base stations. The service area is divided into uniform rectangular
// buckets roughly one inter-site distance wide; each bucket knows the cells
// whose sites fall inside it and a precomputed list of the K nearest cells
// to its centre (the pilot candidate window). Nearest-cell queries expand
// bucket rings outward from the query point and terminate with an exact
// distance bound, so NearestCell and NearestCellSq return exactly the cell
// the corresponding cellular.Layout linear scans would, including the
// lowest-index winner on distance ties. On a wrap-around layout the bucket
// grid lives on the same torus the layout's distances use.
package spatial

import (
	"math"
	"sort"

	"jabasd/internal/cellular"
)

// Index is the grid-bucketed cell index for one layout. It is immutable
// after New and therefore safe to share across goroutines.
type Index struct {
	layout *cellular.Layout
	wrap   bool

	// Bucket-grid geometry: the box [ox, ox+ew) x [oy, oy+eh) split into
	// nx x ny buckets of bw x bh metres. With wrap-around the box is the
	// layout's torus period; without it the box additionally covers the
	// cell sites (which are centred on the origin while mobility positions
	// live in [0, width) x [0, height)).
	ox, oy float64
	ew, eh float64
	nx, ny int
	bw, bh float64

	// members lists the cells whose site falls in each bucket, in CSR form:
	// bucket b owns members[memberStart[b]:memberStart[b+1]], ascending.
	memberStart []int32
	members     []int32

	// cand holds each bucket's candidate window: the `window` cells nearest
	// to the bucket centre (ties broken toward the lower cell index),
	// sorted ascending by cell index. Bucket b owns
	// cand[b*window : (b+1)*window].
	window int
	cand   []int32
}

// New builds the index for a layout with per-bucket candidate windows of
// the given size (clamped to the cell count; values < 1 mean every cell).
// Construction is O(buckets x cells) and is meant to run once at engine
// start-up.
func New(l *cellular.Layout, window int) *Index {
	cells := l.NumCells()
	if window < 1 || window > cells {
		window = cells
	}
	w, h := l.Bounds()
	ix := &Index{layout: l, wrap: l.WrapAround, window: window}
	if ix.wrap {
		ix.ox, ix.oy = 0, 0
		ix.ew, ix.eh = w, h
	} else {
		// Cover both the mobility box [0,w) x [0,h) and the cell sites.
		minX, maxX, minY, maxY := 0.0, w, 0.0, h
		for _, c := range l.Cells {
			minX = math.Min(minX, c.Position.X)
			maxX = math.Max(maxX, c.Position.X)
			minY = math.Min(minY, c.Position.Y)
			maxY = math.Max(maxY, c.Position.Y)
		}
		ix.ox, ix.oy = minX, minY
		ix.ew, ix.eh = maxX-minX, maxY-minY
	}
	// Bucket size ~ one inter-site distance: a ring-1 neighbourhood of
	// buckets then covers a cell's immediate interferers.
	target := math.Sqrt(3) * l.CellRadius
	ix.nx = gridDim(ix.ew, target)
	ix.ny = gridDim(ix.eh, target)
	ix.bw = ix.ew / float64(ix.nx)
	ix.bh = ix.eh / float64(ix.ny)

	ix.buildMembers()
	ix.buildCandidates()
	return ix
}

// gridDim splits an extent into buckets of roughly the target size.
func gridDim(extent, target float64) int {
	n := int(extent / target)
	if n < 1 {
		n = 1
	}
	return n
}

// buildMembers buckets every cell site by position (CSR layout).
func (ix *Index) buildMembers() {
	n := ix.nx * ix.ny
	counts := make([]int32, n+1)
	bucketOf := make([]int32, len(ix.layout.Cells))
	for k, c := range ix.layout.Cells {
		bx, by := ix.bucketXY(c.Position)
		b := int32(by*ix.nx + bx)
		bucketOf[k] = b
		counts[b+1]++
	}
	for b := 0; b < n; b++ {
		counts[b+1] += counts[b]
	}
	ix.memberStart = counts
	ix.members = make([]int32, len(ix.layout.Cells))
	fill := make([]int32, n)
	for k := range ix.layout.Cells {
		b := bucketOf[k]
		ix.members[ix.memberStart[b]+fill[b]] = int32(k)
		fill[b]++
	}
}

// buildCandidates precomputes each bucket's window of nearest cells.
func (ix *Index) buildCandidates() {
	n := ix.nx * ix.ny
	cells := ix.layout.NumCells()
	ix.cand = make([]int32, n*ix.window)
	type distCell struct {
		d float64
		k int32
	}
	scratch := make([]distCell, cells)
	for b := 0; b < n; b++ {
		cx := ix.ox + (float64(b%ix.nx)+0.5)*ix.bw
		cy := ix.oy + (float64(b/ix.nx)+0.5)*ix.bh
		centre := cellular.Point{X: cx, Y: cy}
		for k := 0; k < cells; k++ {
			scratch[k] = distCell{d: ix.layout.Distance(centre, k), k: int32(k)}
		}
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i].d != scratch[j].d {
				return scratch[i].d < scratch[j].d
			}
			return scratch[i].k < scratch[j].k
		})
		row := ix.cand[b*ix.window : (b+1)*ix.window]
		for i := range row {
			row[i] = scratch[i].k
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
}

// Window returns the candidate window size (cells per bucket).
func (ix *Index) Window() int { return ix.window }

// NumBuckets returns the number of grid buckets.
func (ix *Index) NumBuckets() int { return ix.nx * ix.ny }

// bucketXY maps a point to grid coordinates: modulo the torus period under
// wrap-around, clamped to the box otherwise.
func (ix *Index) bucketXY(p cellular.Point) (int, int) {
	x, y := p.X-ix.ox, p.Y-ix.oy
	if ix.wrap {
		x = math.Mod(x, ix.ew)
		if x < 0 {
			x += ix.ew
		}
		y = math.Mod(y, ix.eh)
		if y < 0 {
			y += ix.eh
		}
	}
	bx := int(x / ix.bw)
	if bx < 0 {
		bx = 0
	} else if bx >= ix.nx {
		bx = ix.nx - 1
	}
	by := int(y / ix.bh)
	if by < 0 {
		by = 0
	} else if by >= ix.ny {
		by = ix.ny - 1
	}
	return bx, by
}

// BucketOf returns the bucket index of a position. Positions are expected
// within one torus period of the service area (as mobility produces them).
func (ix *Index) BucketOf(p cellular.Point) int {
	bx, by := ix.bucketXY(p)
	return by*ix.nx + bx
}

// Candidates returns the bucket's candidate cell window, sorted ascending
// by cell index. The slice aliases the index's storage; callers must not
// modify it.
func (ix *Index) Candidates(bucket int) []int32 {
	return ix.cand[bucket*ix.window : (bucket+1)*ix.window]
}

// NearestCell returns the cell nearest to p by metre distances, identical
// to cellular.Layout.NearestCell (including its lowest-index tie-break) but
// via the expanding bucket-ring search.
func (ix *Index) NearestCell(p cellular.Point) int {
	return ix.nearest(p, false)
}

// NearestCellSq returns the cell nearest to p by squared distances,
// identical to cellular.Layout.NearestCellSq.
func (ix *Index) NearestCellSq(p cellular.Point) int {
	return ix.nearest(p, true)
}

// nearest runs the expanding ring search. Cells in a bucket at Chebyshev
// ring r from the query's bucket are at least (r-1)*min(bw,bh) metres away
// (the query point may sit anywhere inside its own bucket, hence the -1),
// so once the best distance drops strictly below that bound no farther ring
// can improve on it — nor tie it with a lower index, because the bound is
// compared strictly.
func (ix *Index) nearest(p cellular.Point, sq bool) int {
	bx, by := ix.bucketXY(p)
	best, bestD := -1, math.Inf(1)
	scan := func(b int32) {
		for _, k := range ix.members[ix.memberStart[b]:ix.memberStart[b+1]] {
			var d float64
			if sq {
				d = ix.layout.DistanceSq(p, int(k))
			} else {
				d = ix.layout.Distance(p, int(k))
			}
			if d < bestD || (d == bestD && int(k) < best) {
				best, bestD = int(k), d
			}
		}
	}
	minb := math.Min(ix.bw, ix.bh)
	rMax := ix.nx
	if ix.ny > rMax {
		rMax = ix.ny
	}
	for r := 0; r <= rMax; r++ {
		if best >= 0 && r >= 1 {
			bound := float64(r-1) * minb
			if sq {
				bound *= bound
			}
			if bestD < bound {
				break
			}
		}
		ix.scanRing(bx, by, r, scan)
	}
	return best
}

// scanRing visits every bucket on the Chebyshev ring of radius r around
// (bx, by): the full square for r = 0, its perimeter otherwise. Ring
// coordinates wrap on a torus grid and are skipped outside a bounded grid.
// On a torus narrower than the ring some buckets are visited more than
// once, which is wasteful but harmless — the scan callback is idempotent.
func (ix *Index) scanRing(bx, by, r int, scan func(bucket int32)) {
	visit := func(x, y int) {
		if ix.wrap {
			x = wrapIdx(x, ix.nx)
			y = wrapIdx(y, ix.ny)
		} else if x < 0 || x >= ix.nx || y < 0 || y >= ix.ny {
			return
		}
		scan(int32(y*ix.nx + x))
	}
	if r == 0 {
		visit(bx, by)
		return
	}
	for dx := -r; dx <= r; dx++ {
		visit(bx+dx, by-r)
		visit(bx+dx, by+r)
	}
	for dy := -r + 1; dy <= r-1; dy++ {
		visit(bx-r, by+dy)
		visit(bx+r, by+dy)
	}
}

// wrapIdx wraps a grid index into [0, n).
func wrapIdx(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}
