package store

import (
	"math"
	"slices"
	"testing"

	"probsum/internal/core"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// TestWalkAnswersAreExact admits the narrow mix with churn and, before
// each admission, asks the walk alone about the arrival: every NO's
// witness must lie inside the arrival and outside every active row, and
// every YES must name the lowest-ID active row containing the arrival,
// each checked by brute force over the store's nodes. The walk must
// decide at least half the arrivals, and the store's accounting must
// show both probed and gathered decisions.
func TestWalkAnswersAreExact(t *testing.T) {
	st := groupStore(t)
	subs := subscribeStream(t, 61, 62, 1200, workload.NarrowComparisonConfig(6))
	var nos, yeses int
	for i, s := range subs {
		status, coverers, res, ok := st.walk(s)
		if ok {
			var active []ID
			for id, n := range st.nodes {
				if n.slot >= 0 {
					active = append(active, id)
				}
			}
			slices.Sort(active)
			switch status {
			case StatusActive:
				nos++
				w := res.PointWitness
				if res.Decision != core.NotCovered || res.Reason != core.ReasonPointWitness || !s.ContainsPoint(w) {
					t.Fatalf("arrival %d %v: NO %+v, witness not inside it", i, s, res)
				}
				for _, id := range active {
					if st.nodes[id].sub().ContainsPoint(w) {
						t.Fatalf("arrival %d: witness %v lies in active row %d %v", i, w, id, st.nodes[id].sub())
					}
				}
			case StatusCovered:
				yeses++
				if res.Decision != core.Covered || res.Reason != core.ReasonPairwiseCover {
					t.Fatalf("arrival %d: YES %+v", i, res)
				}
				want := slices.IndexFunc(active, func(id ID) bool { return st.nodes[id].sub().Covers(s) })
				if want < 0 || !slices.Equal(coverers, []ID{active[want]}) {
					t.Fatalf("arrival %d: walk named %v, lowest containing active row is index %d of %v", i, coverers, want, active)
				}
			}
		}
		if _, err := st.Subscribe(ID(i), s); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if _, err := st.Unsubscribe(ID(i - 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.CheckerStats()
	if nos == 0 || yeses == 0 || 2*(nos+yeses) < len(subs) {
		t.Fatalf("walk decided %d NOs and %d YESes of %d arrivals", nos, yeses, len(subs))
	}
	if stats.Probed == 0 || stats.Probed >= stats.Calls || stats.CandidateRows == 0 {
		t.Fatalf("stats %+v: want some calls probed and some gathered", stats)
	}
}

// TestWalkFullRange walks boxes whose bounds reach both ends of int64:
// the centre of [MinInt64, MaxInt64] is -1, and a step off a row's end
// lands at its Hi+1 or Lo-1 without overflow.
func TestWalkFullRange(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	full := boxN(lo, hi, lo, hi)
	cases := []struct {
		name    string
		rows    []subscription.Subscription
		witness []int64 // nil: s is covered
		probed  bool    // the walk decides, not the checker
	}{
		{"centre", []subscription.Subscription{boxN(0, hi, lo, hi)}, []int64{-1, -1}, true},
		// The centre lies in row 0, which ends at 10 on attribute 0:
		// step to 11, in row 1, which starts at -1 on attribute 1 (step
		// 1 tries that attribute first): step to -2, in no row.
		{"steps", []subscription.Subscription{boxN(lo, 10, lo, hi), boxN(11, hi, -1, hi)}, []int64{11, -2}, true},
		// The walk steps to hi, off row 0, then to lo, off row 1, and
		// back, until it gives up; the checker finds the union covers s.
		{"edges", []subscription.Subscription{boxN(lo, hi-1, lo, hi), boxN(lo+1, hi, lo, hi)}, nil, false},
		{"cover", []subscription.Subscription{full}, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := groupStore(t)
			for i, r := range tc.rows {
				if _, err := st.Subscribe(ID(i), r); err != nil {
					t.Fatal(err)
				}
			}
			before := st.CheckerStats()
			res, err := st.Subscribe(ID(len(tc.rows)), full)
			if err != nil {
				t.Fatal(err)
			}
			stats := st.CheckerStats()
			switch {
			case tc.witness != nil:
				if res.Status != StatusActive || !slices.Equal(res.Checker.PointWitness, tc.witness) {
					t.Fatalf("%+v: want a NO with witness %v", res, tc.witness)
				}
			case tc.probed:
				if res.Status != StatusCovered || !slices.Equal(res.Coverers, []ID{0}) || res.Checker.Reason != core.ReasonPairwiseCover {
					t.Fatalf("%+v: want a pairwise cover by 0", res)
				}
			default:
				if res.Status != StatusCovered {
					t.Fatalf("%+v: want the checker to cover it", res)
				}
			}
			if probed := stats.Probed - before.Probed; probed != 0 != tc.probed ||
				tc.probed && (probed != 1 || stats.CandidateRows != before.CandidateRows) {
				t.Fatalf("stats %+v after %+v: probed %v, want %v with no rows gathered", stats, before, probed, tc.probed)
			}
		})
	}
}
