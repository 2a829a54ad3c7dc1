package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agree too often: %d/100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children agree too often: %d/100", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	mk := func() *Source { return New(99).Split(5) }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not reproducible")
		}
	}
}

// TestSplitIntoMatchesSplit pins SplitInto to Split: the same parent
// history yields the same child and leaves the parent in the same state,
// whatever dst held before (here a used source with a cached spare).
func TestSplitIntoMatchesSplit(t *testing.T) {
	pa, pb := New(11), New(11)
	dst := New(3)
	dst.StdNormal() // leaves a cached Box-Muller spare
	for i := uint64(0); i < 50; i++ {
		want := pa.Split(i)
		pb.SplitInto(dst, i)
		if *dst != *want {
			t.Fatalf("index %d: SplitInto %+v, Split %+v", i, *dst, *want)
		}
		if *pa != *pb {
			t.Fatalf("index %d: parents diverged", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(2, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("normal mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("normal variance = %v, want ~9", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(19)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(4)
	}
	mean := sum / float64(n)
	if math.Abs(mean-4) > 0.1 {
		t.Errorf("exponential mean = %v, want ~4", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) should panic")
		}
	}()
	New(1).Exponential(0)
}

func TestRayleighPowerUnitMean(t *testing.T) {
	r := New(23)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.RayleighPower()
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("Rayleigh power mean = %v, want ~1", mean)
	}
}

func TestRayleighEnvelopeMoments(t *testing.T) {
	r := New(29)
	n := 200000
	sumsq := 0.0
	for i := 0; i < n; i++ {
		v := r.Rayleigh(1)
		sumsq += v * v
	}
	// E[X^2] = 2 sigma^2 = 2.
	meansq := sumsq / float64(n)
	if math.Abs(meansq-2) > 0.05 {
		t.Errorf("Rayleigh second moment = %v, want ~2", meansq)
	}
}

func TestLogNormalDBMedian(t *testing.T) {
	r := New(31)
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormalDB(0, 8)
	}
	// Median of a 0-dB-mean lognormal is 1 in linear scale; test via counting.
	below := 0
	for _, v := range vals {
		if v < 1 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("lognormal median fraction below 1 = %v, want ~0.5", frac)
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.2, 100)
		if v < 100 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestParetoMean(t *testing.T) {
	r := New(41)
	alpha, xm := 2.5, 10.0
	want := alpha * xm / (alpha - 1)
	n := 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Pareto(alpha, xm)
	}
	mean := sum / float64(n)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("Pareto mean = %v, want ~%v", mean, want)
	}
}

func TestBoundedPareto(t *testing.T) {
	r := New(43)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(1.1, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
	if got := New(1).BoundedPareto(1.1, 10, 5); got != 10 {
		t.Errorf("BoundedPareto with cap < xm = %v, want xm", got)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(47)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		n := 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean)/math.Max(mean, 1) > 0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
	if New(1).Poisson(-1) != 0 {
		t.Error("Poisson(-1) should be 0")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(53)
	n := 100000
	count := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			count++
		}
	}
	frac := float64(count) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(59)
	f := func(seed uint64) bool {
		p := New(seed).Perm(20)
		seen := make(map[int]bool)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(61)
	for i := 0; i < 100000; i++ {
		if r.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func TestJakesUnitMeanPower(t *testing.T) {
	src := New(71)
	j := NewJakes(src, 16, 30)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += j.PowerAt(float64(i) * 0.01)
	}
	mean := sum / float64(n)
	if mean < 0.7 || mean > 1.3 {
		t.Errorf("Jakes mean power = %v, want ~1", mean)
	}
}

func TestJakesTemporalCorrelation(t *testing.T) {
	src := New(73)
	j := NewJakes(src, 16, 10) // 10 Hz Doppler => coherence ~ 40 ms
	// Samples 1 ms apart should be highly correlated; samples 1 s apart much less.
	p0 := j.PowerAt(0)
	pClose := j.PowerAt(0.0005)
	if math.Abs(p0-pClose) > 0.5*math.Max(p0, 1e-9)+0.2 {
		t.Errorf("Jakes power changed too fast over 0.5 ms: %v -> %v", p0, pClose)
	}
	// Envelope should vary substantially over many coherence times.
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < 1000; i++ {
		p := j.PowerAt(float64(i) * 0.05)
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max/math.Max(min, 1e-12) < 10 {
		t.Errorf("Jakes fading range too small: min=%v max=%v", min, max)
	}
}

func TestJakesDefaultOscillators(t *testing.T) {
	j := NewJakes(New(1), 0, 5)
	if len(j.phases) != 8 {
		t.Errorf("default oscillator count = %d, want 8", len(j.phases))
	}
	if j.Doppler() != 5 {
		t.Errorf("Doppler() = %v", j.Doppler())
	}
}

func TestParetoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pareto with bad params should panic")
		}
	}()
	New(1).Pareto(0, 1)
}
