package core

import (
	"math/rand/v2"
	"testing"

	"probsum/internal/workload"
)

// TestCoveredIntoZeroAllocSteadyState pins the tentpole property of
// the hot path: once the checker's scratch and the reused Result have
// grown to the workload's high-water mark, a covered decision (the
// steady state of a broker absorbing redundant subscriptions) performs
// no heap allocations at all — whether the residual stage decides it
// or, with the stage off, MCS and RSPC do.
func TestCoveredIntoZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name     string
		residual bool
		want     Reason
	}{
		{"residual", true, ReasonResidualCover},
		{"rspc", false, ReasonTrialsExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(101, 102))
			in := workload.RedundantCovering(rng, workload.Config{K: 100, M: 10})
			checker, err := NewChecker(WithSeed(1, 2), WithMaxTrials(200), WithResidual(tc.residual))
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			// Warm up: grow every buffer.
			if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
				t.Fatal(err)
			}
			if res.Reason != tc.want {
				t.Fatalf("warm-up decided by %v, want %v", res.Reason, tc.want)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("CoveredInto steady state allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestCoveredIntoNoCoverAllocBound keeps the definite-NO paths honest:
// they never allocate to run the pipeline itself, and this instance,
// which the residual stage answers with a point witness, not at all:
// the witness is appended into the reused Result's own room.
func TestCoveredIntoNoCoverAllocBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 104))
	in := workload.NonCover(rng, workload.Config{K: 100, M: 10}, 0.05)
	checker, err := NewChecker(WithSeed(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
		t.Fatal(err)
	}
	if res.Decision != NotCovered {
		t.Fatalf("decision = %v, want not-covered", res.Decision)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
			t.Fatal(err)
		}
	})
	if res.Reason != ReasonPointWitness || res.ExecutedTrials != 0 {
		t.Fatalf("decided by %v after %d trials, want a residual point witness", res.Reason, res.ExecutedTrials)
	}
	if allocs != 0 {
		t.Fatalf("residual not-covered path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestCoveredIntoMatchesCovered locks the wrapper and the in-place
// variant to identical decision sequences: two checkers with the same
// seed, one driven through Covered and one through CoveredInto over
// the same instances, must agree on every field that defines the
// decision.
func TestCoveredIntoMatchesCovered(t *testing.T) {
	rng := rand.New(rand.NewPCG(105, 106))
	a, err := NewChecker(WithSeed(7, 8), WithMaxTrials(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChecker(WithSeed(7, 8), WithMaxTrials(500))
	if err != nil {
		t.Fatal(err)
	}
	var into Result
	for i := 0; i < 50; i++ {
		var in workload.Instance
		if i%2 == 0 {
			in = workload.RedundantCovering(rng, workload.Config{K: 40, M: 6})
		} else {
			in = workload.NonCover(rng, workload.Config{K: 40, M: 6}, 0.05)
		}
		got, err := a.Covered(in.S, in.Set)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.CoveredInto(&into, in.S, in.Set); err != nil {
			t.Fatal(err)
		}
		if got.Decision != into.Decision || got.Reason != into.Reason ||
			got.CoveringRow != into.CoveringRow || got.ExecutedTrials != into.ExecutedTrials {
			t.Fatalf("instance %d: Covered=(%v,%v,row=%d,trials=%d) CoveredInto=(%v,%v,row=%d,trials=%d)",
				i, got.Decision, got.Reason, got.CoveringRow, got.ExecutedTrials,
				into.Decision, into.Reason, into.CoveringRow, into.ExecutedTrials)
		}
	}
}

// TestRSPCFlatWitnessExact verifies the NO-path guarantee survives the
// flat layout and the fast sampler: every point witness the pipeline
// reports must lie inside s and outside every member of the minimized
// cover set (by Proposition 4 the witness may legitimately fall inside
// a subscription MCS removed as redundant).
func TestRSPCFlatWitnessExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(107, 108))
	// Fast paths, residual stage and MCS off so non-cover is decided by
	// RSPC alone, not by a deterministic witness or an empty MCS.
	checker, err := NewChecker(WithSeed(9, 10), WithFastPaths(false), WithResidual(false), WithMCS(false))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	witnesses := 0
	for i := 0; i < 100; i++ {
		in := workload.NonCover(rng, workload.Config{K: 30, M: 4}, 0.10)
		if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
			t.Fatal(err)
		}
		if res.Reason != ReasonPointWitness {
			continue
		}
		witnesses++
		if !in.S.ContainsPoint(res.PointWitness) {
			t.Fatalf("instance %d: witness %v outside s %v", i, res.PointWitness, in.S)
		}
		// With MCS disabled the witness search ran over the full set,
		// so the witness must be outside every member.
		for j, sub := range in.Set {
			if sub.ContainsPoint(res.PointWitness) {
				t.Fatalf("instance %d: witness %v inside set[%d] %v", i, res.PointWitness, j, sub)
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no point witnesses produced; scenario lost its teeth")
	}
}
