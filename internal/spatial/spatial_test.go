package spatial

import (
	"testing"

	"jabasd/internal/cellular"
	"jabasd/internal/rng"
)

// layouts under test: degenerate single cell up to a mid-size map, with and
// without wrap-around.
func testLayouts() []*cellular.Layout {
	var ls []*cellular.Layout
	for _, rings := range []int{0, 1, 2, 4} {
		for _, wrap := range []bool{true, false} {
			ls = append(ls, cellular.NewHexLayout(rings, 750, wrap))
		}
	}
	return ls
}

// testPoints yields deterministic query positions inside the service area
// plus adversarial ones: cell sites themselves, bucket-ish boundaries and
// exact midpoints between adjacent sites (distance ties).
func testPoints(l *cellular.Layout, src *rng.Source) []cellular.Point {
	w, h := l.Bounds()
	pts := []cellular.Point{
		{X: 0, Y: 0},
		{X: w / 2, Y: h / 2},
		{X: w - 1e-9, Y: h - 1e-9},
	}
	for _, c := range l.Cells {
		pts = append(pts, c.Position)
	}
	if len(l.Cells) > 1 {
		a, b := l.Cells[0].Position, l.Cells[1].Position
		pts = append(pts, cellular.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2})
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, cellular.Point{X: src.Uniform(0, w), Y: src.Uniform(0, h)})
	}
	return pts
}

func TestNearestMatchesLinearScan(t *testing.T) {
	src := rng.New(7)
	for _, l := range testLayouts() {
		ix := New(l, 7)
		for _, p := range testPoints(l, src) {
			if got, want := ix.NearestCell(p), l.NearestCell(p); got != want {
				t.Fatalf("%s: NearestCell(%v) = %d, linear scan = %d", l, p, got, want)
			}
			if got, want := ix.NearestCellSq(p), l.NearestCellSq(p); got != want {
				t.Fatalf("%s: NearestCellSq(%v) = %d, linear scan = %d", l, p, got, want)
			}
		}
	}
}

func TestDistanceSqMatchesBatch(t *testing.T) {
	src := rng.New(9)
	for _, l := range testLayouts() {
		n := l.NumCells()
		batch := make([]float64, n)
		for _, p := range testPoints(l, src) {
			l.DistancesSqInto(p, batch)
			for k := 0; k < n; k++ {
				if got := l.DistanceSq(p, k); got != batch[k] {
					t.Fatalf("%s: DistanceSq(%v, %d) = %v, DistancesSqInto = %v", l, p, k, got, batch[k])
				}
			}
		}
	}
}

func TestCandidates(t *testing.T) {
	for _, l := range testLayouts() {
		for _, window := range []int{1, 3, 7, 1000} {
			ix := New(l, window)
			want := window
			if want > l.NumCells() {
				want = l.NumCells()
			}
			if ix.Window() != want {
				t.Fatalf("%s window=%d: Window() = %d, want %d", l, window, ix.Window(), want)
			}
			for b := 0; b < ix.NumBuckets(); b++ {
				cand := ix.Candidates(b)
				if len(cand) != want {
					t.Fatalf("%s: bucket %d has %d candidates, want %d", l, b, len(cand), want)
				}
				for i, c := range cand {
					if c < 0 || int(c) >= l.NumCells() {
						t.Fatalf("%s: bucket %d candidate %d out of range", l, b, c)
					}
					if i > 0 && cand[i-1] >= c {
						t.Fatalf("%s: bucket %d candidates not strictly ascending: %v", l, b, cand)
					}
				}
			}
		}
	}
}

// TestCandidatesContainNearest: the candidate window of a point's bucket
// must contain the point's true nearest cell whenever the window is at
// least a one-ring neighbourhood — that is the property the windowed
// physics path relies on to pick host cells.
func TestCandidatesContainNearest(t *testing.T) {
	src := rng.New(11)
	for _, l := range testLayouts() {
		window := 9
		if window > l.NumCells() {
			window = l.NumCells()
		}
		ix := New(l, window)
		for _, p := range testPoints(l, src) {
			nearest := int32(l.NearestCell(p))
			cand := ix.Candidates(ix.BucketOf(p))
			found := false
			for _, c := range cand {
				if c == nearest {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: nearest cell %d of %v missing from bucket candidates %v", l, nearest, p, cand)
			}
		}
	}
}
