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
// containing call, or check run over the candidate rows, makes none
// (AllocsPerRun rounds down, and the checker copies out the odd
// definite-NO witness), and a Subscribe plus Unsubscribe round
// trip fewer than two on average (AllocsPerRun rounds down): the node,
// and for a covered arrival the coverer list its decision returns and
// the node's copy of it. A witness, the walk's or the checker's, is
// carved from the store's shared chunk. An active leaf links nothing.
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
		// Grow the query and checker scratch to their steady size.
		if _, _, err := st.check(p); err != nil {
			t.Fatal(err)
		}
		st.containing(p)
	}
	i := 0
	if a := testing.AllocsPerRun(len(probes), func() {
		if p := probes[i%len(probes)]; i%2 == 0 {
			st.containing(p)
		} else if _, _, err := st.check(p); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("containing and check allocate %.2f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(500, func() {
		if _, err := st.Subscribe(k, probes[i%len(probes)]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Unsubscribe(k); err != nil {
			t.Fatal(err)
		}
		i++
	}); a > 1 {
		t.Errorf("Subscribe plus Unsubscribe allocates %.2f per round trip, want < 2", a)
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
