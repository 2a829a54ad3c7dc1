package cellular

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"jabasd/internal/rng"
)

// randomWindow draws an ascending candidate list of width distinct cells
// out of n.
func randomWindow(src *rng.Source, n, width int) []int32 {
	perm := src.Perm(n)[:width]
	cells := make([]int32, width)
	for i, k := range perm {
		cells[i] = int32(k)
	}
	slices.Sort(cells)
	return cells
}

// checkSlots fails unless every entry's slot names its own cell.
func checkSlots(t *testing.T, what string, pilots []PilotMeasurement, cells []int32) {
	t.Helper()
	for i, p := range pilots {
		if s := int(p.Slot); s < 0 || s >= len(cells) || cells[s] != p.Cell {
			t.Fatalf("%s: entry %d (cell %d) has slot %d, which names %v", what, i, p.Cell, p.Slot, cells)
		}
	}
}

// TestWindowDistancesMatchPerCell pins the candidate distance kernels to
// the per-cell Distance and DistanceSq calls, bit for bit, on the identity
// list (where DistancesSqForInto takes the batched whole-layout kernel) and
// on narrower windows.
func TestWindowDistancesMatchPerCell(t *testing.T) {
	src := rng.New(5)
	for _, wrap := range []bool{false, true} {
		l := NewHexLayout(3, 1000, wrap)
		n := l.NumCells()
		ident := make([]int32, n)
		for k := range ident {
			ident[k] = int32(k)
		}
		w, h := l.Bounds()
		d := make([]float64, n)
		d2 := make([]float64, n)
		for trial := 0; trial < 200; trial++ {
			p := Point{X: src.Uniform(0, w), Y: src.Uniform(0, h)}
			cells := ident
			if trial%2 == 1 {
				cells = randomWindow(src, n, 1+src.Intn(n-1))
			}
			l.DistancesForInto(p, cells, d)
			l.DistancesSqForInto(p, cells, d2)
			for i, k := range cells {
				if d[i] != l.Distance(p, int(k)) || d2[i] != l.DistanceSq(p, int(k)) {
					t.Fatalf("wrap=%v window of %d: cell %d got (%v, %v), want (%v, %v)",
						wrap, len(cells), k, d[i], d2[i], l.Distance(p, int(k)), l.DistanceSq(p, int(k)))
				}
			}
		}
	}
}

// TestPilotSetCellsLinearCoherentMatchesRebuild is the frame-coherent
// window kernel's property test: whatever dst it is handed — last frame's
// set under gain drift, a set built over another window, one shortened by a
// down-cell filter, or one whose slots are garbage — the result must equal
// a from-scratch rebuild in order, EcIo and Slot, and every entry's slot
// must name its cell.
func TestPilotSetCellsLinearCoherentMatchesRebuild(t *testing.T) {
	const (
		numCells      = 200
		width         = 24
		pilotFraction = 0.2
		txPower       = 20.0
		noise         = 4e-15
	)
	src := rng.New(12)
	cells := randomWindow(src, numCells, width)
	gains := make([]float64, width)
	for i := range gains {
		gains[i] = math.Pow(10, src.Uniform(-15, -8))
	}
	var dst []PilotMeasurement
	var sawCoherent bool
	for trial := 0; trial < 3000; trial++ {
		switch r := src.Intn(20); {
		case r == 0:
			// Retarget without the caller's reslice: dst now belongs to a
			// different window of the same width.
			cells = randomWindow(src, numCells, width)
		case r == 1 && len(dst) > 1:
			// A down-cell filter dropped some entries, order preserved.
			kept := dst[:0]
			for _, p := range dst {
				if src.Intn(4) != 0 {
					kept = append(kept, p)
				}
			}
			dst = kept
		case r == 2 && len(dst) > 0:
			// Garbage slots: negative, out of range and merely wrong.
			dst[src.Intn(len(dst))].Slot = []int32{-1, width, math.MaxInt32, 0}[src.Intn(4)]
		}
		// One frame of drift: small lognormal moves, occasionally enough
		// to swap neighbouring ranks.
		for i := range gains {
			gains[i] *= math.Pow(10, src.Normal(0, 0.05))
		}

		sawCoherent = sawCoherent || len(dst) == width
		dst = PilotSetCellsLinearInto(dst, cells, gains, pilotFraction, txPower, noise)
		want := PilotSetCellsLinearInto(nil, cells, gains, pilotFraction, txPower, noise)
		if !slices.Equal(dst, want) {
			t.Fatalf("trial %d: coherent result differs from rebuild:\ngot  %+v\nwant %+v", trial, dst, want)
		}
		checkSlots(t, "linear", dst, cells)
	}
	if !sawCoherent {
		t.Fatal("the frame-coherent branch never ran")
	}
}

// TestPilotKernelsSetSlots pins the Slot of every pilot kernel's output:
// the candidate position on the window kernels, the cell itself on the
// full-scan ones.
func TestPilotKernelsSetSlots(t *testing.T) {
	src := rng.New(5)
	cells := randomWindow(src, 100, 24)
	gains := make([]float64, len(cells))
	for i := range gains {
		gains[i] = math.Pow(10, src.Uniform(-15, -8))
	}
	checkSlots(t, "PilotSetCellsInto", PilotSetCellsInto(nil, cells, gains, 0.2, 20, 4e-15), cells)
	checkSlots(t, "PilotSetCellsLinearInto", PilotSetCellsLinearInto(nil, cells, gains, 0.2, 20, 4e-15), cells)

	identity := make([]int32, len(gains))
	for i := range identity {
		identity[i] = int32(i)
	}
	checkSlots(t, "PilotSetInto", PilotSetInto(nil, gains, 0.2, 20, 4e-15), identity)
	checkSlots(t, "PilotSetLinearInto", PilotSetLinearInto(nil, gains, 0.2, 20, 4e-15), identity)
}

// TestPilotMeasurementSize guards the entry's footprint: a city keeps
// ~100k users' 24-entry pilot sets resident, and 40 bytes instead of 32
// moves each set into a larger allocation size class.
func TestPilotMeasurementSize(t *testing.T) {
	if got := unsafe.Sizeof(PilotMeasurement{}); got > 32 {
		t.Fatalf("PilotMeasurement is %d bytes, want <= 32", got)
	}
}

// BenchmarkPilotSetCellsLinear measures the steady-state frame-coherent
// update of a 24-cell window pilot set under one frame of gain drift,
// reporting the cost per user-frame. It cycles over a pool of users so the
// insertion sort sees realistic near-sorted input rather than one set
// drifting forever.
func BenchmarkPilotSetCellsLinear(b *testing.B) {
	const (
		users = 1024
		width = 24
	)
	src := rng.New(3)
	cells := make([][]int32, users)
	gains := make([][]float64, users)
	drift := make([][]float64, users)
	pilots := make([][]PilotMeasurement, users)
	for u := range cells {
		cells[u] = randomWindow(src, 1027, width)
		gains[u] = make([]float64, width)
		drift[u] = make([]float64, width)
		for i := range gains[u] {
			gains[u][i] = math.Pow(10, src.Uniform(-15, -8))
			drift[u][i] = math.Pow(10, src.Normal(0, 0.02))
		}
		pilots[u] = PilotSetCellsLinearInto(make([]PilotMeasurement, 0, width), cells[u], gains[u], 0.2, 20, 4e-15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := range pilots {
			g := gains[u]
			for k, d := range drift[u] {
				g[k] *= d
			}
			pilots[u] = PilotSetCellsLinearInto(pilots[u], cells[u], g, 0.2, 20, 4e-15)
		}
		for u := range drift { // drift back and forth so gains stay bounded
			for k, d := range drift[u] {
				drift[u][k] = 1 / d
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*users), "ns/user-frame")
}
