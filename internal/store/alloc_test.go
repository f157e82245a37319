package store

import (
	"slices"
	"testing"

	"probsum/internal/core"
	"probsum/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAdmissionAllocs pins the admission path's allocations on the
// narrow mix over 1500 admitted subscriptions: a steady-state
// candidates call makes none, and a Subscribe plus Unsubscribe round
// trip no more than two: the node, and the witness or coverer list its
// decision returns. The node's coverer and child maps are made on first
// link, so an active leaf makes neither.
func TestAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const k = 1500
	subs := subscribeStream(t, 31, 32, k+256, workload.NarrowComparisonConfig(6))
	checker, err := core.NewChecker(core.WithSeed(33, 34))
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(PolicyGroup, WithChecker(checker))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range subs[:k] {
		if _, err := st.Subscribe(ID(i), s); err != nil {
			t.Fatal(err)
		}
	}
	probes := subs[k:]
	for _, p := range probes {
		st.candidates(p, false) // grow the query scratch to its steady size
	}
	i := 0
	if a := testing.AllocsPerRun(len(probes), func() { st.candidates(probes[i%len(probes)], i%2 == 0); i++ }); a != 0 {
		t.Errorf("candidates allocates %.2f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() {
		if _, err := st.Subscribe(k, probes[i%len(probes)]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Unsubscribe(k); err != nil {
			t.Fatal(err)
		}
		i++
	}); a > 2 {
		t.Errorf("Subscribe plus Unsubscribe allocates %.2f per round trip, want <= 2", a)
	}
}

// TestWalkWitnessesKept keeps the result of every arrival the walk
// answers NO: the witnesses are carved from shared chunks, yet each
// still holds, after all the admissions and churn that follow, the
// point it was returned with, ends its capacity at its length so an
// append cannot reach its neighbour, and lies inside its arrival.
func TestWalkWitnessesKept(t *testing.T) {
	st, err := New(PolicyGroup, WithCheckerOptions(core.WithSeed(35, 36)))
	if err != nil {
		t.Fatal(err)
	}
	subs := subscribeStream(t, 37, 38, 1500, workload.NarrowComparisonConfig(6))
	type kept struct {
		w, was  []int64
		arrival int
	}
	var ws []kept
	for i, s := range subs {
		res, err := st.Subscribe(ID(i), s)
		if err != nil {
			t.Fatal(err)
		}
		if w := res.Checker.PointWitness; w != nil {
			ws = append(ws, kept{w, slices.Clone(w), i})
		}
		if i%4 == 3 {
			if _, err := st.Unsubscribe(ID(i - 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(ws) < 128 {
		t.Fatalf("%d witnesses, want at least two chunks' worth", len(ws))
	}
	for _, k := range ws {
		if !slices.Equal(k.w, k.was) || cap(k.w) != len(k.w) || !subs[k.arrival].ContainsPoint(k.w) {
			t.Fatalf("arrival %d: witness %v (cap %d), returned as %v", k.arrival, k.w, cap(k.w), k.was)
		}
	}
}
