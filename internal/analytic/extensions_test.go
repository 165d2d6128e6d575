package analytic

import (
	"errors"
	"math"
	"testing"
)

func TestSequentBinomialExceedsEvenChains(t *testing.T) {
	// Randomly hashed chains cost slightly more than perfectly balanced
	// ones; the gap should be well under one examination.
	p := paper200TPS(0.2, 0, 19)
	even, err := SequentTxn(p)
	if err != nil {
		t.Fatal(err)
	}
	binom, err := SequentBinomial(p)
	if err != nil {
		t.Fatal(err)
	}
	if binom <= even {
		t.Fatalf("binomial correction %v not above even-chain %v", binom, even)
	}
	if binom-even > 1 {
		t.Fatalf("correction too large: %v vs %v", binom, even)
	}
}

func TestSequentBinomialDegenerate(t *testing.T) {
	v, err := SequentBinomial(Params{N: 1, R: 0.2, H: 5})
	if err != nil || v != 1 {
		t.Fatalf("single PCB: %v, %v", v, err)
	}
	if _, err := SequentBinomial(Params{N: 10}); err != ErrNeedH {
		t.Fatalf("missing H: %v", err)
	}
}

func TestSequentWithImbalanceOrdering(t *testing.T) {
	p := paper200TPS(0.2, 0, 19)
	plain, err := Sequent(p)
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := SequentWithImbalance(p)
	if err != nil {
		t.Fatal(err)
	}
	if corrected <= plain {
		t.Fatalf("imbalance-corrected %v not above plain %v", corrected, plain)
	}
	// The simulation measures 54.0 at these parameters; the corrected
	// model should sit between Eq 22 (53.0) and the measurement + noise.
	if corrected < 53.0 || corrected > 54.5 {
		t.Fatalf("corrected model %v outside plausible band", corrected)
	}
}

func TestChainsForTargetPaperExample(t *testing.T) {
	// §3.5: going from 19 to 100 chains drops the cost from 53 to < 9, so
	// the minimal H for a cost of 9 must be at most 100 and more than 51
	// (which yields 18.3).
	p := paper200TPS(0.2, 0, 0)
	h, err := ChainsForTarget(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if h <= 51 || h > 100 {
		t.Fatalf("H for cost 9 = %d, expected in (51, 100]", h)
	}
	// The returned H must actually meet the target, and H-1 must not.
	at := func(h int) float64 {
		v, err := Sequent(Params{N: 2000, R: 0.2, H: h})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if at(h) > 9 {
		t.Fatalf("cost at H=%d is %v > 9", h, at(h))
	}
	if at(h-1) <= 9 {
		t.Fatalf("H=%d is not minimal (H-1 gives %v)", h, at(h-1))
	}
}

func TestChainsForTargetBounds(t *testing.T) {
	p := paper200TPS(0.2, 0, 0)
	if _, err := ChainsForTarget(p, 0.5); !errors.Is(err, ErrUnreachableTarget) {
		t.Fatalf("sub-1 target: %v", err)
	}
	// A generous target is met by a single chain.
	h, err := ChainsForTarget(p, 2000)
	if err != nil || h != 1 {
		t.Fatalf("loose target: H=%d err=%v", h, err)
	}
	// Cost 1 is reachable at H = N (every chain holds at most one PCB).
	h, err = ChainsForTarget(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h > 2000 {
		t.Fatalf("H for cost 1 = %d", h)
	}
}

func TestMemoryForChains(t *testing.T) {
	if MemoryForChains(19, 16) != 304 {
		t.Fatal("19 chains at 16B should be 304B")
	}
	if MemoryForChains(-1, 16) != 0 || MemoryForChains(19, -1) != 0 {
		t.Fatal("negative inputs should yield 0")
	}
}

func TestCrowcroftEntryGeneralReproducesExponential(t *testing.T) {
	p := paper200TPS(0.5, 0, 0)
	a := DefaultRate
	f := func(t float64) float64 { return a * math.Exp(-a*t) }
	got, err := CrowcroftEntryGeneral(p, f, a)
	if err != nil {
		t.Fatal(err)
	}
	want := CrowcroftEntry(p)
	if math.Abs(got-want) > 1e-3*want {
		t.Fatalf("general integrator %v vs closed form %v", got, want)
	}
}

func TestCrowcroftEntryGeneralUniformThink(t *testing.T) {
	// Uniform think time on [5, 15] (same 10 s mean): more regular than
	// exponential, so more users overtake between a given user's
	// transactions and the entry cost must exceed the exponential case,
	// approaching the deterministic worst case from below.
	p := paper200TPS(0.2, 0, 0)
	lo, hi := 5.0, 15.0
	f := func(t float64) float64 {
		if t < lo || t > hi {
			return 0
		}
		return 1 / (hi - lo)
	}
	// The density has bounded support; any positive decay bound works for
	// the tail transform since f vanishes beyond 15.
	got, err := CrowcroftEntryGeneral(p, f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	expCase := CrowcroftEntry(p)
	det := CrowcroftDeterministic(p.N)
	if got <= expCase || got >= det {
		t.Fatalf("uniform-think entry %v not between exponential %v and deterministic %v",
			got, expCase, det)
	}
}

func TestChainSweep(t *testing.T) {
	series, err := ChainSweep(paper200TPS(0.2, 0, 0), 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Points) != 150 {
		t.Fatalf("series shape wrong: %d/%d", len(series), len(series[0].Points))
	}
	even := series[0].Points
	// Monotone non-increasing in H; pinned paper values at H=19 and 100.
	prev := math.Inf(1)
	for _, pt := range even {
		if pt.Y > prev+1e-9 {
			t.Fatalf("cost increased at H=%v", pt.X)
		}
		prev = pt.Y
	}
	if v := even[18].Y; math.Abs(v-53.0) > 0.1 {
		t.Fatalf("H=19 point = %v", v)
	}
	if v := even[99].Y; v >= 9 {
		t.Fatalf("H=100 point = %v", v)
	}
	// Binomial correction sits above the even-chain curve everywhere H<N.
	for i := range even {
		if series[1].Points[i].Y < even[i].Y {
			t.Fatalf("correction below even-chain model at H=%v", even[i].X)
		}
	}
}

func TestCrowcroftEntryRenewalRecoversPoisson(t *testing.T) {
	// With exponential survival the renewal form must land on Eq. 5's
	// closed form (within the documented <0.1% window approximation).
	p := paper200TPS(0.2, 0, 0)
	a := DefaultRate
	f := func(t float64) float64 { return a * math.Exp(-a*t) }
	got, err := CrowcroftEntryRenewal(p, f, StationarySurvivalExp(a), a)
	if err != nil {
		t.Fatal(err)
	}
	want := CrowcroftEntry(p)
	if math.Abs(got-want)/want > 0.002 {
		t.Fatalf("renewal-with-exp %v vs Eq 5 %v", got, want)
	}
}

func TestStationarySurvivalUniformShape(t *testing.T) {
	s := StationarySurvivalUniform(5, 15, 0.201)
	if v := s(0); math.Abs(v-1) > 1e-12 {
		t.Fatalf("S(0) = %v", v)
	}
	if v := s(20); v != 0 {
		t.Fatalf("S(beyond max) = %v", v)
	}
	// Monotone non-increasing.
	prev := 2.0
	for w := 0.0; w <= 16; w += 0.25 {
		v := s(w)
		if v > prev+1e-12 || v < 0 {
			t.Fatalf("survival not monotone at w=%v", w)
		}
		prev = v
	}
}

// TestRenewalModelSpansPaperEndpoints: the renewal generalization must
// recover both of the paper's §3.2 data points — exponential think times
// (Eq. 5) and deterministic think times (full scan) — from one formula.
func TestRenewalModelSpansPaperEndpoints(t *testing.T) {
	p := paper200TPS(0.2, 0.001, 0)
	a := DefaultRate

	// Exponential endpoint.
	fExp := func(tt float64) float64 { return a * math.Exp(-a*tt) }
	expCost, err := CrowcroftEntryRenewal(p, fExp, StationarySurvivalExp(a), a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(expCost-CrowcroftEntry(p))/CrowcroftEntry(p) > 0.002 {
		t.Fatalf("exponential endpoint %v vs Eq 5 %v", expCost, CrowcroftEntry(p))
	}

	// Near-deterministic endpoint: think uniform on [9.5, 10.5] against a
	// perfectly regular peer cycle of 10 + R + D seconds. (A true delta
	// density is invisible to quadrature; a unit-width needle approaches
	// the same limit.) The cost must land within ~2% of the full scan and
	// clearly above the exponential case.
	const c = 10.0
	fDet := func(tt float64) float64 {
		if tt < c-0.5 || tt > c+0.5 {
			return 0
		}
		return 1.0
	}
	detCost, err := CrowcroftEntryRenewal(p, fDet, StationarySurvivalConst(c+p.R+p.D), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := CrowcroftDeterministic(p.N)
	if detCost < 0.97*want || detCost > want {
		t.Fatalf("near-deterministic endpoint %v vs full scan %v", detCost, want)
	}
	if detCost < 1.5*expCost {
		t.Fatalf("regularity did not dominate: %v vs exponential %v", detCost, expCost)
	}
}
