package core

import (
	"math"
	"testing"
	"testing/quick"

	"jabasd/internal/mac"
	"jabasd/internal/measurement"
	"jabasd/internal/rng"
)

// smallProblem builds a 3-request, single-cell forward-link problem with a
// known optimum.
func smallProblem(kind ObjectiveKind) Problem {
	// Cell headroom 10 units; request costs per unit m: 2, 3, 5.
	region := measurement.Region{
		Coeff: [][]float64{{2, 3, 5}},
		Bound: []float64{10},
		Cells: []int{0},
	}
	obj := Objective{Kind: kind, Lambda: 0.05, RateScale: 16}
	return Problem{
		Requests: []Request{
			{UserID: 1, SizeBits: 1e6, WaitingTime: 0.5, AvgThroughput: 0.5, MaxRatio: 8},
			{UserID: 2, SizeBits: 1e6, WaitingTime: 4.0, AvgThroughput: 0.25, MaxRatio: 8},
			{UserID: 3, SizeBits: 1e6, WaitingTime: 12.0, AvgThroughput: 1.0, MaxRatio: 8},
		},
		Region:    region,
		MaxRatio:  8,
		Objective: obj,
	}
}

func TestRequestOverallDelay(t *testing.T) {
	r := Request{WaitingTime: 3, SetupDelay: 0.5}
	if r.OverallDelay() != 3.5 {
		t.Errorf("OverallDelay = %v", r.OverallDelay())
	}
}

func TestObjectiveKindString(t *testing.T) {
	if ObjectiveThroughput.String() != "J1-throughput" ||
		ObjectiveDelayAware.String() != "J2-delay-aware" ||
		ObjectiveKind(7).String() == "" {
		t.Error("ObjectiveKind.String broken")
	}
}

func TestObjectiveValidate(t *testing.T) {
	if (Objective{Kind: ObjectiveThroughput}).Validate() != nil {
		t.Error("J1 needs no parameters")
	}
	if (Objective{Kind: ObjectiveDelayAware, Lambda: -1, RateScale: 1}).Validate() == nil {
		t.Error("negative lambda should fail")
	}
	if (Objective{Kind: ObjectiveDelayAware, Lambda: 1, RateScale: 0}).Validate() == nil {
		t.Error("zero rate scale should fail")
	}
	if DefaultObjective().Validate() != nil {
		t.Error("default objective should validate")
	}
}

func TestObjectivePenalty(t *testing.T) {
	o := Objective{Kind: ObjectiveDelayAware, Lambda: 2, RateScale: 10}
	if got := o.Penalty(5, 0); got != 10 {
		t.Errorf("Penalty(5,0) = %v, want 10", got)
	}
	if got := o.Penalty(5, 10); got != 0 {
		t.Errorf("Penalty at full rate = %v, want 0", got)
	}
	if got := o.Penalty(5, 20); got != 0 {
		t.Errorf("Penalty above rate scale = %v, want 0 (clamped)", got)
	}
	if got := o.Penalty(5, 5); got != 5 {
		t.Errorf("Penalty(5,5) = %v, want 5", got)
	}
	j1 := Objective{Kind: ObjectiveThroughput}
	if j1.Penalty(100, 0) != 0 {
		t.Error("J1 penalty must be zero")
	}
}

func TestObjectiveValueJ1(t *testing.T) {
	o := Objective{Kind: ObjectiveThroughput}
	reqs := []Request{
		{AvgThroughput: 0.5, Priority: 0},
		{AvgThroughput: 0.25, Priority: 1}, // priority doubles its weight
	}
	got := o.Value(reqs, []int{2, 4})
	want := 2*0.5 + 4*0.25*2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("J1 = %v, want %v", got, want)
	}
	// Short assignment vectors treat missing entries as zero.
	if o.Value(reqs, []int{2}) != 1 {
		t.Error("missing assignments should count as zero")
	}
}

func TestProblemValidate(t *testing.T) {
	p := smallProblem(ObjectiveThroughput)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.MaxRatio = 0
	if bad.Validate() == nil {
		t.Error("MaxRatio 0 should fail")
	}
	bad2 := smallProblem(ObjectiveThroughput)
	bad2.Region.Coeff = [][]float64{{1, 2}}
	if bad2.Validate() == nil {
		t.Error("region width mismatch should fail")
	}
	bad3 := smallProblem(ObjectiveThroughput)
	bad3.Requests[0].AvgThroughput = -1
	if bad3.Validate() == nil {
		t.Error("negative throughput should fail")
	}
	ragged := smallProblem(ObjectiveThroughput)
	ragged.Region.Bound = ragged.Region.Bound[:len(ragged.Region.Bound)-1]
	if ragged.Validate() == nil {
		t.Error("region with fewer bounds than rows should fail")
	}
}

func TestProblemMACRecomputesSetupDelay(t *testing.T) {
	cfg := mac.DefaultConfig()
	p := smallProblem(ObjectiveDelayAware)
	p.MAC = &cfg
	reqs := p.effectiveRequests()
	// Request 2 waited 4 s -> Control-Hold penalty D1; request 3 waited 12 s -> D2.
	if reqs[0].SetupDelay != 0 || reqs[1].SetupDelay != cfg.D1 || reqs[2].SetupDelay != cfg.D2 {
		t.Errorf("setup delays = %v %v %v", reqs[0].SetupDelay, reqs[1].SetupDelay, reqs[2].SetupDelay)
	}
	// Without MAC config the provided values pass through.
	p.MAC = nil
	reqs = p.effectiveRequests()
	if reqs[1].SetupDelay != 0 {
		t.Error("without MAC the setup delay should be untouched")
	}
}

func TestUpperBoundsClamp(t *testing.T) {
	p := smallProblem(ObjectiveThroughput)
	p.Requests[0].MaxRatio = 50 // above the global M
	p.Requests[1].MaxRatio = -3 // nonsense, clamps to 0... but Validate rejects negatives
	p.Requests[1].MaxRatio = 2
	ub := p.upperBounds()
	if ub[0] != p.MaxRatio || ub[1] != 2 || ub[2] != 8 {
		t.Errorf("upperBounds = %v", ub)
	}
}

func allSchedulers() []Scheduler {
	return []Scheduler{NewJABASD(), &GreedyJABASD{}, &FCFS{}, &EqualShare{}, NewRandom(7)}
}

func TestAllSchedulersProduceAdmissibleAssignments(t *testing.T) {
	for _, kind := range []ObjectiveKind{ObjectiveThroughput, ObjectiveDelayAware} {
		p := smallProblem(kind)
		for _, s := range allSchedulers() {
			a, err := s.Schedule(p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if len(a.Ratios) != len(p.Requests) {
				t.Fatalf("%s: wrong assignment length", s.Name())
			}
			if !p.Region.Feasible(a.Ratios) {
				t.Errorf("%s produced an inadmissible assignment %v", s.Name(), a.Ratios)
			}
			ub := p.upperBounds()
			for j, m := range a.Ratios {
				if m < 0 || m > ub[j] {
					t.Errorf("%s violated the ratio bounds: %v", s.Name(), a.Ratios)
				}
			}
			if a.Scheduler == "" {
				t.Errorf("%s did not label the assignment", s.Name())
			}
		}
	}
}

func TestJABASDIsOptimalOnSmallProblem(t *testing.T) {
	p := smallProblem(ObjectiveThroughput)
	// Utilities per unit m: 0.5, 0.25, 1.0; costs: 2, 3, 5.
	// Optimal J1: request 3 has utility/cost 0.2, request 1 has 0.25; the
	// exact optimum is m = [5,0,0] (J1 = 2.5) vs [0,0,2] (2.0) vs mixes.
	jaba := NewJABASD()
	a, err := jaba.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Objective-2.5) > 1e-9 {
		t.Errorf("JABA-SD objective = %v (%v), want 2.5", a.Objective, a.Ratios)
	}
	// And it must dominate every baseline on the objective it optimises.
	for _, s := range []Scheduler{&FCFS{}, &EqualShare{}, NewRandom(3)} {
		b, err := s.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if b.Objective > a.Objective+1e-9 {
			t.Errorf("%s (%v) beat JABA-SD (%v)", s.Name(), b.Objective, a.Objective)
		}
	}
}

func TestDelayAwareObjectiveFavoursWaitingUser(t *testing.T) {
	// Two requests contending for headroom 5, identical cost 1 per unit.
	// Request A: great channel (bp=1.0), fresh (w=0). Request B: poor channel
	// (bp=0.4), has waited 30 s (beyond T3). With J1 all resource goes to A;
	// with a sufficiently aggressive J2 the scheduler serves B first.
	region := measurement.Region{Coeff: [][]float64{{1, 1}}, Bound: []float64{5}, Cells: []int{0}}
	mk := func(obj Objective) Problem {
		return Problem{
			Requests: []Request{
				{UserID: 1, SizeBits: 1e6, WaitingTime: 0, AvgThroughput: 1.0, MaxRatio: 5},
				{UserID: 2, SizeBits: 1e6, WaitingTime: 30, AvgThroughput: 0.4, MaxRatio: 5},
			},
			Region:    region,
			MaxRatio:  5,
			Objective: obj,
		}
	}
	jaba := NewJABASD()
	a1, err := jaba.Schedule(mk(Objective{Kind: ObjectiveThroughput}))
	if err != nil {
		t.Fatal(err)
	}
	if a1.Ratios[0] != 5 || a1.Ratios[1] != 0 {
		t.Errorf("J1 should give everything to the good channel, got %v", a1.Ratios)
	}
	a2, err := jaba.Schedule(mk(Objective{Kind: ObjectiveDelayAware, Lambda: 0.5, RateScale: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Ratios[1] == 0 {
		t.Errorf("J2 with heavy delay weight should serve the waiting user, got %v", a2.Ratios)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := Problem{MaxRatio: 4, Objective: DefaultObjective()}
	for _, s := range allSchedulers() {
		a, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(a.Ratios) != 0 || a.Served() != 0 || a.TotalRatio() != 0 {
			t.Errorf("%s: empty problem should give empty assignment", s.Name())
		}
	}
}

func TestOverloadedCellRejectsAll(t *testing.T) {
	p := smallProblem(ObjectiveThroughput)
	p.Region.Bound = []float64{-1} // cell already above its power budget
	for _, s := range allSchedulers() {
		a, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, m := range a.Ratios {
			if m != 0 {
				t.Errorf("%s admitted a burst into an overloaded cell: %v", s.Name(), a.Ratios)
			}
		}
	}
}

func TestEqualShareIsEqual(t *testing.T) {
	// Plenty of headroom: everyone should get min(level, own bound), and the
	// levels should be identical across requests with equal bounds.
	region := measurement.Region{Coeff: [][]float64{{1, 1, 1}}, Bound: []float64{100}, Cells: []int{0}}
	p := Problem{
		Requests: []Request{
			{UserID: 1, AvgThroughput: 0.9, MaxRatio: 8},
			{UserID: 2, AvgThroughput: 0.1, MaxRatio: 8},
			{UserID: 3, AvgThroughput: 0.5, MaxRatio: 4},
		},
		Region:    region,
		MaxRatio:  8,
		Objective: Objective{Kind: ObjectiveThroughput},
	}
	a, err := (&EqualShare{}).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ratios[0] != 8 || a.Ratios[1] != 8 || a.Ratios[2] != 4 {
		t.Errorf("EqualShare = %v, want [8 8 4]", a.Ratios)
	}
}

func TestFCFSServesOldestFirst(t *testing.T) {
	// Headroom for only one full grant: the older request must win even
	// though the newer one has the better channel.
	region := measurement.Region{Coeff: [][]float64{{1, 1}}, Bound: []float64{4}, Cells: []int{0}}
	p := Problem{
		Requests: []Request{
			{UserID: 1, WaitingTime: 0.1, AvgThroughput: 1.0, MaxRatio: 4},
			{UserID: 2, WaitingTime: 9.0, AvgThroughput: 0.1, MaxRatio: 4},
		},
		Region:    region,
		MaxRatio:  4,
		Objective: Objective{Kind: ObjectiveThroughput},
	}
	a, err := (&FCFS{}).Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ratios[1] != 4 || a.Ratios[0] != 0 {
		t.Errorf("FCFS = %v, want [0 4]", a.Ratios)
	}
}

func TestGreedyMatchesOptimalOnSingleConstraintProperty(t *testing.T) {
	// With a single constraint row the greedy should equal the exact solver
	// almost always; we allow a small optimality gap (integer effects).
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(4)
		reqs := make([]Request, n)
		costs := make([]float64, n)
		for j := 0; j < n; j++ {
			reqs[j] = Request{
				UserID:        j,
				SizeBits:      1e6,
				WaitingTime:   src.Uniform(0, 20),
				AvgThroughput: src.Uniform(0.1, 1),
				MaxRatio:      1 + src.Intn(8),
			}
			costs[j] = src.Uniform(0.5, 3)
		}
		region := measurement.Region{Coeff: [][]float64{costs}, Bound: []float64{src.Uniform(2, 20)}, Cells: []int{0}}
		p := Problem{Requests: reqs, Region: region, MaxRatio: 8,
			Objective: Objective{Kind: ObjectiveThroughput}}
		exact, err1 := NewJABASD().Schedule(p)
		greedy, err2 := (&GreedyJABASD{}).Schedule(p)
		if err1 != nil || err2 != nil {
			return false
		}
		if exact.Objective <= 0 {
			return greedy.Objective >= -1e-9
		}
		// The greedy carries a 1/2-approximation guarantee on a single
		// constraint (density greedy + best-single-request fallback).
		return greedy.Objective >= 0.5*exact.Objective-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJABASDGreedyFallbackOnLargeProblems(t *testing.T) {
	src := rng.New(99)
	n := 20
	reqs := make([]Request, n)
	costs := make([]float64, n)
	for j := 0; j < n; j++ {
		reqs[j] = Request{UserID: j, SizeBits: 1e6, AvgThroughput: src.Uniform(0.1, 1), MaxRatio: 8}
		costs[j] = src.Uniform(0.5, 3)
	}
	region := measurement.Region{Coeff: [][]float64{costs}, Bound: []float64{30}, Cells: []int{0}}
	p := Problem{Requests: reqs, Region: region, MaxRatio: 8, Objective: Objective{Kind: ObjectiveThroughput}}
	s := NewJABASD()
	a, err := s.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Region.Feasible(a.Ratios) {
		t.Error("fallback assignment infeasible")
	}
	if a.Scheduler != "JABA-SD" {
		t.Errorf("fallback should still be labelled JABA-SD, got %q", a.Scheduler)
	}
}

func TestSchedulersRejectInvalidProblem(t *testing.T) {
	bad := smallProblem(ObjectiveThroughput)
	bad.MaxRatio = 0
	for _, s := range allSchedulers() {
		if _, err := s.Schedule(bad); err == nil {
			t.Errorf("%s accepted an invalid problem", s.Name())
		}
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := Assignment{Ratios: []int{0, 3, 2, 0}}
	if a.Served() != 2 {
		t.Errorf("Served = %d", a.Served())
	}
	if a.TotalRatio() != 5 {
		t.Errorf("TotalRatio = %d", a.TotalRatio())
	}
}

func TestRandomSchedulerDefaultSource(t *testing.T) {
	s := &Random{}
	p := smallProblem(ObjectiveThroughput)
	if _, err := s.Schedule(p); err != nil {
		t.Fatal(err)
	}
	if s.Src == nil {
		t.Error("Random should lazily create a source")
	}
}

// TestAllSchedulersImplementCloner enforces the snapshot-frame-mode
// contract: every registered scheduler must be clonable into independent
// per-worker instances, and clones must behave identically to the original
// on the same problem (stateful ones after an identical SeedCell).
func TestAllSchedulersImplementCloner(t *testing.T) {
	p := smallProblem(ObjectiveDelayAware)
	scheds := []Scheduler{NewJABASD(), &GreedyJABASD{}, &FCFS{}, &EqualShare{}, NewRandom(7)}
	for _, s := range scheds {
		cl, ok := s.(Cloner)
		if !ok {
			t.Errorf("%s does not implement Cloner; the snapshot frame mode cannot use it", s.Name())
			continue
		}
		c := cl.Clone()
		if c == nil {
			t.Fatalf("%s.Clone returned nil", s.Name())
		}
		if c.Name() != s.Name() {
			t.Errorf("%s clone renamed itself to %s", s.Name(), c.Name())
		}
		if seeder, stateful := s.(CellSeeder); stateful {
			// Stateful schedulers: identical (frame, cell) seeds must yield
			// identical assignments on original and clone alike.
			cseeder := c.(CellSeeder)
			seeder.SeedCell(3, 5)
			cseeder.SeedCell(3, 5)
		}
		a, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := c.Schedule(p)
		if err != nil {
			t.Fatalf("%s clone: %v", s.Name(), err)
		}
		if len(a.Ratios) != len(b.Ratios) {
			t.Fatalf("%s clone returned a different assignment length", s.Name())
		}
		for j := range a.Ratios {
			if a.Ratios[j] != b.Ratios[j] {
				t.Errorf("%s clone diverged from the original at request %d: %d vs %d",
					s.Name(), j, b.Ratios[j], a.Ratios[j])
			}
		}
	}
}

// TestRandomSeedCellIsPureFunctionOfIndices: the Random scheduler's SeedCell
// must fully determine its draws — re-seeding with the same (frame, cell)
// replays the same permutation, different indices change it.
func TestRandomSeedCellIsPureFunctionOfIndices(t *testing.T) {
	p := smallProblem(ObjectiveDelayAware)
	r := NewRandom(42)
	r.SeedCell(1, 2)
	a, err := r.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	r.SeedCell(1, 2)
	b, err := r.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Ratios {
		if a.Ratios[j] != b.Ratios[j] {
			t.Fatal("same (frame, cell) seed replayed a different permutation")
		}
	}
	// Different cells must (for this problem) be able to produce different
	// orders at least somewhere over a handful of cells; identical output for
	// every cell would mean the seed is ignored.
	differs := false
	for cell := uint64(0); cell < 16 && !differs; cell++ {
		r.SeedCell(1, cell)
		c, err := r.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Ratios {
			if c.Ratios[j] != a.Ratios[j] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("SeedCell appears to ignore the cell index")
	}
}
