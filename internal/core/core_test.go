package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"probsum/internal/conflict"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// Paper fixtures (Section 3 / 4.2).

func paperCoverExample() (subscription.Subscription, []subscription.Subscription) {
	s := subscription.New(interval.New(830, 870), interval.New(1003, 1006))
	s1 := subscription.New(interval.New(820, 850), interval.New(1001, 1007))
	s2 := subscription.New(interval.New(840, 880), interval.New(1002, 1009))
	return s, []subscription.Subscription{s1, s2}
}

func paperNonCoverExample() (subscription.Subscription, []subscription.Subscription) {
	s := subscription.New(interval.New(830, 890), interval.New(1003, 1006))
	s1 := subscription.New(interval.New(820, 850), interval.New(1002, 1009))
	s2 := subscription.New(interval.New(840, 870), interval.New(1001, 1007))
	return s, []subscription.Subscription{s1, s2}
}

func paperConflictFreeExample() (subscription.Subscription, []subscription.Subscription) {
	s := subscription.New(interval.New(830, 870), interval.New(1003, 1006))
	s1 := subscription.New(interval.New(820, 850), interval.New(1001, 1007))
	s2 := subscription.New(interval.New(840, 880), interval.New(1002, 1009))
	s3 := subscription.New(interval.New(810, 890), interval.New(1004, 1005))
	return s, []subscription.Subscription{s1, s2, s3}
}

func mustChecker(t *testing.T, opts ...Option) *Checker {
	t.Helper()
	c, err := NewChecker(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExhaustiveCoverPaperExamples(t *testing.T) {
	s, set := paperCoverExample()
	got, err := ExhaustiveCover(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("Table 3 example: s must be covered by s1 ∨ s2")
	}
	s, set = paperNonCoverExample()
	got, err = ExhaustiveCover(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("Table 6 example: s must not be covered")
	}
}

func TestExhaustiveCoverLimit(t *testing.T) {
	s := subscription.New(interval.New(0, 1<<30), interval.New(0, 1<<30))
	if _, err := ExhaustiveCover(s, nil); err == nil {
		t.Error("expected size-limit error")
	}
}

func TestCheckerPaperCoverExample(t *testing.T) {
	s, set := paperCoverExample()

	// The paper's pipeline: neither row covers s alone, so the YES is
	// RSPC's.
	c := mustChecker(t, WithSeed(1, 2), WithErrorProbability(1e-6), WithResidual(false))
	res, err := c.Covered(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != CoveredProbably || res.Reason != ReasonTrialsExhausted {
		t.Errorf("paper pipeline: expected probabilistic YES via exhausted trials, got %v/%v", res.Decision, res.Reason)
	}
	if res.ExecutedTrials == 0 {
		t.Error("paper pipeline: expected at least one executed trial")
	}

	// The default pipeline subtracts s1 and s2 from s, finds nothing
	// left and names both as the cover.
	c = mustChecker(t, WithSeed(1, 2), WithErrorProbability(1e-6))
	if res, err = c.Covered(s, set); err != nil {
		t.Fatal(err)
	}
	if res.Decision != Covered || res.Reason != ReasonResidualCover {
		t.Errorf("expected exact YES via the residual stage, got %v/%v", res.Decision, res.Reason)
	}
	if res.ExecutedTrials != 0 || !slices.Equal(res.ReducedSet, []int{0, 1}) {
		t.Errorf("trials = %d, cover = %v; want 0 trials and cover [0 1]", res.ExecutedTrials, res.ReducedSet)
	}
}

func TestCheckerPaperNonCoverExample(t *testing.T) {
	c := mustChecker(t, WithSeed(1, 2))
	s, set := paperNonCoverExample()
	res, err := c.Covered(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != NotCovered {
		t.Fatalf("decision = %v, want not-covered", res.Decision)
	}
	// The fast path should fire: sorted counts [1,2] dominate [1,2].
	if res.Reason != ReasonPolyhedronWitness {
		t.Errorf("reason = %v, want polyhedron-witness", res.Reason)
	}
	want := subscription.New(interval.New(871, 890), interval.New(1003, 1006))
	if !res.PolyhedronWitness.Equal(want) {
		t.Errorf("witness = %v, want %v", res.PolyhedronWitness, want)
	}
}

func TestCheckerPairwisePath(t *testing.T) {
	c := mustChecker(t, WithSeed(1, 2))
	s := subscription.New(interval.New(10, 20), interval.New(10, 20))
	small := subscription.New(interval.New(12, 14), interval.New(10, 20))
	big := subscription.New(interval.New(0, 100), interval.New(0, 100))
	res, err := c.Covered(s, []subscription.Subscription{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Covered || res.Reason != ReasonPairwiseCover {
		t.Fatalf("got %v/%v, want covered/pairwise-cover", res.Decision, res.Reason)
	}
	if res.CoveringRow != 1 {
		t.Errorf("covering row = %d, want 1", res.CoveringRow)
	}
}

func TestCheckerEmptySet(t *testing.T) {
	c := mustChecker(t, WithSeed(1, 2))
	s := subscription.New(interval.New(0, 5))
	res, err := c.Covered(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != NotCovered {
		t.Errorf("empty set must not cover: %v", res.Decision)
	}
}

func TestCheckerUnsatisfiableSubscription(t *testing.T) {
	c := mustChecker(t)
	s := subscription.New(interval.Empty())
	if _, err := c.Covered(s, nil); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestCheckerOptionValidation(t *testing.T) {
	if _, err := NewChecker(WithErrorProbability(0)); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NewChecker(WithErrorProbability(1)); err == nil {
		t.Error("delta=1 accepted")
	}
	if _, err := NewChecker(WithMaxTrials(0)); err == nil {
		t.Error("maxTrials=0 accepted")
	}
}

func TestCheckerSeedReproducibility(t *testing.T) {
	s, set := paperNonCoverExample()
	run := func() Result {
		c := mustChecker(t, WithSeed(7, 9), WithFastPaths(false), WithMCS(false), WithResidual(false))
		res, err := c.Covered(s, set)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.ExecutedTrials != r2.ExecutedTrials {
		t.Errorf("trials differ: %d vs %d", r1.ExecutedTrials, r2.ExecutedTrials)
	}
	if len(r1.PointWitness) != len(r2.PointWitness) {
		t.Fatalf("witness shape differs")
	}
	for i := range r1.PointWitness {
		if r1.PointWitness[i] != r2.PointWitness[i] {
			t.Errorf("witness differs at %d", i)
		}
	}
}

func TestMCSPaperExample(t *testing.T) {
	// Section 4.2 worked example: MCS removes s3 (conflict-free
	// entries) and keeps {s1, s2}.
	s, set := paperConflictFreeExample()
	tbl, err := conflict.Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	res := MCS(tbl)
	if res.AliveCount != 2 || !res.Alive[0] || !res.Alive[1] || res.Alive[2] {
		t.Errorf("MCS alive = %v, want s1,s2 only", res.Alive)
	}
	want := []int{0, 1}
	got := res.Indices()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Indices = %v, want %v", got, want)
	}
	naive := MCSNaive(tbl)
	if naive.AliveCount != res.AliveCount {
		t.Errorf("naive disagreement: %v vs %v", naive.Alive, res.Alive)
	}
}

// genInstance builds a random instance over small domains so the
// exhaustive oracle stays cheap.
func genInstance(r *rand.Rand, m, k int, domain int64) (subscription.Subscription, []subscription.Subscription) {
	box := func(bias bool) subscription.Subscription {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := r.Int64N(domain)
			width := r.Int64N(domain - lo)
			if bias {
				// Larger boxes make cover cases reachable.
				width = domain - lo - 1
				if width > 0 {
					width = r.Int64N(width) + 1
				}
			}
			bounds[a] = interval.New(lo, lo+width)
		}
		return subscription.Subscription{Bounds: bounds}
	}
	s := box(false)
	set := make([]subscription.Subscription, k)
	for i := range set {
		set[i] = box(true)
	}
	return s, set
}

func TestMCSMatchesNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(4), 1+r.IntN(10), 25)
		tbl, err := conflict.Build(s, set)
		if err != nil {
			return false
		}
		fast, slow := MCS(tbl), MCSNaive(tbl)
		if fast.AliveCount != slow.AliveCount {
			return false
		}
		for i := range fast.Alive {
			if fast.Alive[i] != slow.Alive[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMCSPreservesCoverRelation(t *testing.T) {
	// Proposition 4: s ⊑ S iff s ⊑ S' where S' is the minimized set.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(3), 1+r.IntN(8), 12)
		tbl, err := conflict.Build(s, set)
		if err != nil {
			return false
		}
		res := MCS(tbl)
		reduced := make([]subscription.Subscription, 0, res.AliveCount)
		for i, ok := range res.Alive {
			if ok {
				reduced = append(reduced, set[i])
			}
		}
		full, err := ExhaustiveCover(s, set)
		if err != nil {
			return false
		}
		mini, err := ExhaustiveCover(s, reduced)
		if err != nil {
			return false
		}
		return full == mini
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCheckerSoundNo(t *testing.T) {
	// A NO from the checker is always exact: the oracle must agree.
	cfg := &quick.Config{MaxCount: 150}
	c := mustChecker(t, WithSeed(11, 13), WithErrorProbability(1e-9))
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(3), 1+r.IntN(8), 12)
		res, err := c.Covered(s, set)
		if err != nil {
			return false
		}
		truth, err := ExhaustiveCover(s, set)
		if err != nil {
			return false
		}
		if res.Decision == NotCovered && truth {
			return false // claimed NO on a covered instance
		}
		if res.Decision.IsCovered() && !truth {
			// Probabilistic false YES: permitted, but at δ=1e-9 over
			// tiny instances it should effectively never happen.
			t.Logf("false YES on s=%v set=%v", s, set)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCheckerWitnessesAreGenuine(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	c := mustChecker(t, WithSeed(3, 5))
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(3), 1+r.IntN(8), 15)
		res, err := c.Covered(s, set)
		if err != nil || res.Decision != NotCovered {
			return err == nil
		}
		switch res.Reason {
		case ReasonPointWitness:
			if !s.ContainsPoint(res.PointWitness) {
				return false
			}
			// The point witnesses non-coverage of the MCS-reduced set;
			// Proposition 4 lifts that to the full set (soundness of
			// the overall NO is oracle-checked in TestCheckerSoundNo).
			// It may legitimately lie inside a removed redundant
			// subscription, so only the reduced set is asserted here.
			reduced := set
			if res.ReducedSet != nil {
				reduced = make([]subscription.Subscription, 0, len(res.ReducedSet))
				for _, idx := range res.ReducedSet {
					reduced = append(reduced, set[idx])
				}
			}
			for _, si := range reduced {
				if si.ContainsPoint(res.PointWitness) {
					return false
				}
			}
		case ReasonPolyhedronWitness:
			w := res.PolyhedronWitness
			if !w.IsSatisfiable() || !s.Covers(w) {
				return false
			}
			for _, si := range set {
				if w.Intersects(si) {
					return false
				}
			}
		case ReasonEmptyMCS:
			// Fine: soundness is covered by TestCheckerSoundNo.
		default:
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCheckerAblationsAgreeWithOracle(t *testing.T) {
	// Disabling MCS and/or fast paths must not change soundness, with
	// the residual stage off (so RSPC does the deciding) or alone.
	cfg := &quick.Config{MaxCount: 80}
	checkers := []*Checker{
		mustChecker(t, WithSeed(1, 1), WithResidual(false), WithMCS(false), WithErrorProbability(1e-9)),
		mustChecker(t, WithSeed(2, 2), WithResidual(false), WithFastPaths(false), WithErrorProbability(1e-9)),
		mustChecker(t, WithSeed(3, 3), WithResidual(false), WithMCS(false), WithFastPaths(false), WithErrorProbability(1e-9)),
		mustChecker(t, WithSeed(4, 4), WithMCS(false), WithFastPaths(false), WithErrorProbability(1e-9)),
	}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(3), 1+r.IntN(6), 10)
		truth, err := ExhaustiveCover(s, set)
		if err != nil {
			return false
		}
		for _, c := range checkers {
			res, err := c.Covered(s, set)
			if err != nil {
				return false
			}
			if res.Decision == NotCovered && truth {
				return false
			}
			if res.Decision.IsCovered() && !truth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRSPCWitnessIsGenuine(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	rng := rand.New(rand.NewPCG(5, 8))
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(3), 1+r.IntN(6), 20)
		out := RSPC(s, set, nil, 50, rng)
		if !out.Found() {
			return out.Trials == 50
		}
		if out.Trials < 1 || out.Trials > 50 {
			return false
		}
		if !s.ContainsPoint(out.Witness) {
			return false
		}
		for _, si := range set {
			if si.ContainsPoint(out.Witness) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTrialBoundInvertsEquationOne(t *testing.T) {
	// δ = (1-ρ)^d must hold after rounding d up.
	for _, rho := range []float64{0.5, 0.1, 0.01, 1e-4} {
		for _, delta := range []float64{1e-3, 1e-6, 1e-10} {
			d := TrialBound(delta, math.Log(rho))
			achieved := math.Pow(1-rho, d)
			if achieved > delta*1.0001 {
				t.Errorf("rho=%g delta=%g: d=%g achieves %g", rho, delta, d, achieved)
			}
			// One fewer trial must not suffice (d is tight).
			if d > 1 {
				if under := math.Pow(1-rho, d-1); under < delta*0.9999 {
					t.Errorf("rho=%g delta=%g: d=%g not tight (%g)", rho, delta, d, under)
				}
			}
		}
	}
}

func TestTrialBoundEdgeCases(t *testing.T) {
	if d := TrialBound(1e-6, math.Log(1.0)); d != 1 {
		t.Errorf("rho=1: d=%g, want 1", d)
	}
	if d := TrialBound(1e-6, math.Inf(-1)); !math.IsInf(d, 1) {
		t.Errorf("rho=0: d=%g, want +Inf", d)
	}
	if d := TrialBound(1, math.Log(0.5)); d != 1 {
		t.Errorf("delta>=1: d=%g, want 1", d)
	}
}

func TestLog10TrialBoundMatchesDirect(t *testing.T) {
	for _, rho := range []float64{0.3, 1e-3, 1e-6, 1e-10} {
		for _, delta := range []float64{1e-3, 1e-10} {
			direct := math.Log10(TrialBound(delta, math.Log(rho)))
			viaLog := Log10TrialBound(delta, math.Log(rho))
			if math.Abs(direct-viaLog) > 0.01 {
				t.Errorf("rho=%g delta=%g: direct=%g log-form=%g", rho, delta, direct, viaLog)
			}
		}
	}
	// Extreme exponent that overflows the direct form.
	logRho := -200.0 // rho = e^-200
	got := Log10TrialBound(1e-10, logRho)
	want := math.Log10(-math.Log(1e-10)) - logRho/ln10
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("extreme exponent: got %g, want %g", got, want)
	}
}

func TestEstimateRhoPaperNonCover(t *testing.T) {
	// For the Table 6 example: on x1 the minimum gap over entries is
	// min(width=61, s1.high gap = 890-850 = 40, s2.low gap = 840-830 = 10,
	// s2.high gap = 890-870 = 20) = 10; on x2 no entries, so the full
	// width 4 is used. I(sw) = 10*4 = 40, I(s) = 61*4 = 244.
	s, set := paperNonCoverExample()
	tbl, err := conflict.Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	rho := EstimateRho(tbl, nil)
	want := 40.0 / 244.0
	if math.Abs(rho-want) > 1e-12 {
		t.Errorf("rho = %g, want %g", rho, want)
	}
}

func TestEstimateRhoRespectsAliveMask(t *testing.T) {
	s, set := paperNonCoverExample()
	tbl, err := conflict.Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	// With only s1 alive, x1 min gap = 40 (s1's high entry), so
	// rho = (40*4)/(61*4).
	alive := []bool{true, false}
	rho := EstimateRho(tbl, alive)
	want := 40.0 / 61.0
	if math.Abs(rho-want) > 1e-12 {
		t.Errorf("rho = %g, want %g", rho, want)
	}
}

func TestDecisionAndReasonStrings(t *testing.T) {
	for d, want := range map[Decision]string{
		NotCovered:      "not-covered",
		Covered:         "covered",
		CoveredProbably: "covered-probably",
		Decision(99):    "unknown",
	} {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", d, got, want)
		}
	}
	for r, want := range map[Reason]string{
		ReasonPairwiseCover:     "pairwise-cover",
		ReasonPolyhedronWitness: "polyhedron-witness",
		ReasonEmptyMCS:          "empty-mcs",
		ReasonPointWitness:      "point-witness",
		ReasonTrialsExhausted:   "trials-exhausted",
		ReasonResidualCover:     "residual-cover",
		Reason(99):              "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d).String() = %q, want %q", r, got, want)
		}
	}
	if NotCovered.IsCovered() || !Covered.IsCovered() || !CoveredProbably.IsCovered() {
		t.Error("IsCovered misclassifies")
	}
	// bench/replay sizes its reason tally by ReasonTrialsExhausted, so
	// the paper's reasons keep their values and new ones go after it.
	if ReasonPairwiseCover != 1 || ReasonTrialsExhausted != 5 || ReasonResidualCover != 6 {
		t.Error("Reason values moved")
	}
}
