package store

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// subscribeStream builds a deterministic arrival sequence of the given
// comparison mix.
func subscribeStream(t *testing.T, seed1, seed2 uint64, n int, cfg workload.ComparisonConfig) []subscription.Subscription {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed1, seed2))
	stream, err := workload.NewComparisonStream(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]subscription.Subscription, n)
	for i := range subs {
		subs[i] = stream.Next()
	}
	return subs
}

// equivalenceMixes are the arrival mixes the pruned store is compared
// on: the paper's Section 6.4 mix, with enough overlap for coverage
// decisions to fire both ways, and the narrow mix psbench admits, where
// every arrival meets hundreds of active rows but intersects only some.
var equivalenceMixes = []struct {
	name string
	cfg  workload.ComparisonConfig
}{
	{"paper", workload.DefaultComparisonConfig(6)},
	{"narrow", workload.NarrowComparisonConfig(6)},
}

// driveEquivalence feeds the same subscribe/unsubscribe sequence to a
// pruned and an unpruned store and requires identical observable
// behavior after every operation: statuses, coverers, promotions, and
// the active ID set.
func driveEquivalence(t *testing.T, cfg workload.ComparisonConfig, mkStore func() *Store) {
	t.Helper()
	pruned := mkStore()
	full := mkStore()
	full.unpruned = true

	subs := subscribeStream(t, 41, 42, 400, cfg)
	rng := rand.New(rand.NewPCG(43, 44))
	live := make([]ID, 0, len(subs))
	for i, s := range subs {
		id := ID(i)
		rp, err := pruned.Subscribe(id, s)
		if err != nil {
			t.Fatalf("pruned subscribe %d: %v", i, err)
		}
		rf, err := full.Subscribe(id, s)
		if err != nil {
			t.Fatalf("full subscribe %d: %v", i, err)
		}
		if rp.Status != rf.Status {
			t.Fatalf("subscribe %d: pruned status %v, full status %v", i, rp.Status, rf.Status)
		}
		if !slices.Equal(rp.Coverers, rf.Coverers) {
			t.Fatalf("subscribe %d: pruned coverers %v, full coverers %v", i, rp.Coverers, rf.Coverers)
		}
		// The residual stage walks the same intersecting rows in the same
		// order either way, so it names the same cover: the same Coverers
		// (above), and the same row positions, which the store clears.
		pc, fc := rp.Checker, rf.Checker
		if !slices.IsSorted(pc.ReducedSet) ||
			pc.Reason == core.ReasonResidualCover && fc.Reason == core.ReasonResidualCover && !slices.Equal(pc.ReducedSet, fc.ReducedSet) {
			t.Fatalf("subscribe %d: pruned reduced set %v, full %v", i, pc.ReducedSet, fc.ReducedSet)
		}
		live = append(live, id)

		// Churn: occasionally remove a random live subscription so the
		// promotion path runs under pruning too.
		if i%5 == 4 && len(live) > 0 {
			j := rng.IntN(len(live))
			victim := live[j]
			live = slices.Delete(live, j, j+1)
			up, err := pruned.Unsubscribe(victim)
			if err != nil {
				t.Fatalf("pruned unsubscribe %d: %v", victim, err)
			}
			uf, err := full.Unsubscribe(victim)
			if err != nil {
				t.Fatalf("full unsubscribe %d: %v", victim, err)
			}
			if up.WasActive != uf.WasActive || !slices.Equal(up.Promoted, uf.Promoted) {
				t.Fatalf("unsubscribe %d: pruned (active=%v promoted=%v), full (active=%v promoted=%v)",
					victim, up.WasActive, up.Promoted, uf.WasActive, uf.Promoted)
			}
		}
		if !slices.Equal(pruned.ActiveIDs(), full.ActiveIDs()) {
			t.Fatalf("after op %d: pruned active %v != full active %v", i, pruned.ActiveIDs(), full.ActiveIDs())
		}
	}
	if pruned.ActiveLen() == pruned.Len() {
		t.Fatal("no subscription was ever covered; workload lost its teeth")
	}
	p, f := pruned.CheckerStats(), full.CheckerStats()
	if p.Calls > 0 && p.CandidateRows >= f.CandidateRows {
		t.Fatalf("pruning handed the checker %d rows over %d calls, the full set %d: nothing was pruned",
			p.CandidateRows, p.Calls, f.CandidateRows)
	}
}

func TestPrunedEquivalencePairwise(t *testing.T) {
	for _, mix := range equivalenceMixes {
		t.Run(mix.name, func(t *testing.T) {
			driveEquivalence(t, mix.cfg, func() *Store {
				st, err := New(PolicyPairwise)
				if err != nil {
					t.Fatal(err)
				}
				return st
			})
		})
	}
}

func TestPrunedEquivalenceGroup(t *testing.T) {
	for _, mix := range equivalenceMixes {
		t.Run(mix.name, func(t *testing.T) {
			driveEquivalence(t, mix.cfg, func() *Store {
				checker, err := core.NewChecker(core.WithSeed(51, 52))
				if err != nil {
					t.Fatal(err)
				}
				st, err := New(PolicyGroup, WithChecker(checker))
				if err != nil {
					t.Fatal(err)
				}
				return st
			})
		})
	}
}

// requireExactCandidates fails unless the rows the coverage decision
// for probe considers are exactly the active rows whose boxes
// intersect it — the rows check hands the checker include every one of
// them, and the checker keeps exactly those — and, for the pairwise
// decision, exactly those containing it. A store under a policy that
// never checks is given a checker for the purpose.
func requireExactCandidates(t *testing.T, st *Store, probe subscription.Subscription) {
	t.Helper()
	var wantMeet, wantCover []ID
	activeIDs := st.ActiveIDs()
	for p, row := range st.ActiveSubscriptions() {
		if row.Intersects(probe) {
			wantMeet = append(wantMeet, activeIDs[p])
		}
		if row.Covers(probe) {
			wantCover = append(wantCover, activeIDs[p])
		}
	}
	if got := sortedIDs(st.containing(probe)); !slices.Equal(got, wantCover) {
		t.Fatalf("containing %v: got %v, want %v (active %v)", probe, got, wantCover, activeIDs)
	}
	if st.checker == nil {
		c, err := core.NewChecker(core.WithSeed(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		st.checker = c
	}
	handed, rows, err := st.check(probe)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedIDs(handed)
	for _, id := range got {
		if _, ok := slices.BinarySearch(activeIDs, id); !ok {
			t.Fatalf("check %v handed the checker %d, not an active row (active %v)", probe, id, activeIDs)
		}
	}
	for _, id := range wantMeet {
		if _, ok := slices.BinarySearch(got, id); !ok {
			t.Fatalf("check %v handed the checker %v, which lacks the intersecting row %d", probe, got, id)
		}
	}
	if rows != len(wantMeet) {
		t.Fatalf("check %v: the checker kept %d rows of %v, want the %d intersecting %v", probe, rows, got, len(wantMeet), wantMeet)
	}
}

// sortedIDs returns a sorted copy of ids.
func sortedIDs(ids []int64) []ID {
	out := make([]ID, len(ids))
	for i, id := range ids {
		out[i] = ID(id)
	}
	slices.Sort(out)
	return out
}

// TestCandidateIndexConsistency churns a store and cross-checks the
// candidate set against a brute-force scan of the active set after
// every operation.
func TestCandidateIndexConsistency(t *testing.T) {
	for _, mix := range equivalenceMixes {
		t.Run(mix.name, func(t *testing.T) {
			st, err := New(PolicyPairwise)
			if err != nil {
				t.Fatal(err)
			}
			subs := subscribeStream(t, 61, 62, 300, mix.cfg)
			probes := subscribeStream(t, 63, 64, 50, mix.cfg)
			rng := rand.New(rand.NewPCG(65, 66))
			var live []ID
			for i, s := range subs {
				id := ID(i)
				if _, err := st.Subscribe(id, s); err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
				if i%4 == 3 && len(live) > 0 {
					j := rng.IntN(len(live))
					victim := live[j]
					live = slices.Delete(live, j, j+1)
					if _, err := st.Unsubscribe(victim); err != nil {
						t.Fatal(err)
					}
				}
				requireExactCandidates(t, st, probes[i%len(probes)])
			}
		})
	}
}

// boxN builds a subscription from (lo, hi) pairs.
func boxN(bounds ...int64) subscription.Subscription {
	s := subscription.Subscription{Bounds: make([]interval.Interval, len(bounds)/2)}
	for a := range s.Bounds {
		s.Bounds[a] = interval.New(bounds[2*a], bounds[2*a+1])
	}
	return s
}

// TestCandidateIndexEdges drives the store's indexes through the cases
// a steady population never reaches — rows outside the grid hull,
// reused slots, a drained store repopulated under another attribute
// count, two attribute counts active at once, bounds at the int64
// limits — and requires exact candidates after each step. Under
// PolicyNone every subscription is active, so each Subscribe is one
// activation.
func TestCandidateIndexEdges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	type step struct {
		sub   subscription.Subscription // subscribed under the next ID when set
		unsub []ID
	}
	grid := func(n int, m int) []step {
		var steps []step
		for i := 0; i < n; i++ {
			b := make([]int64, 0, 2*m)
			for a := 0; a < m; a++ {
				v := int64((i*37 + a*11) % 1000)
				b = append(b, v, v+int64(i%50))
			}
			steps = append(steps, step{sub: boxN(b...)})
		}
		return steps
	}
	ids := func(from, to, stride int) []ID {
		var out []ID
		for i := from; i < to; i += stride {
			out = append(out, ID(i))
		}
		return out
	}
	cases := []struct {
		name   string
		steps  []step
		probes []subscription.Subscription
	}{{
		name: "outside the hull after the population",
		steps: append(grid(200, 2),
			step{sub: boxN(1100, 1500, 0, 10)},    // within 2× the hull: clamped to the edge cell
			step{sub: boxN(-400, -300, 990, 999)}, // clamped on the low edge
			step{sub: boxN(90_000, 90_001, 5, 5)}, // far outside: re-cuts the grid
		),
		probes: []subscription.Subscription{
			boxN(1200, 1300, 0, 2000), boxN(999, 1100, 0, 0), boxN(-350, -350, 995, 995),
			boxN(-250, 1050, 0, 2000), boxN(-250, 1050, 0, 995), // contain the population, yet miss both rows past it
			boxN(2000, 80_000, 0, 999), boxN(90_001, 95_000, 0, 5), boxN(lo, hi, 5, 5), boxN(0, 0, 0, 0),
		},
	}, {
		name: "slot reuse after churn",
		steps: append(append(append(grid(150, 3),
			step{unsub: ids(0, 150, 3)}),
			grid(60, 3)...),
			step{unsub: ids(1, 150, 2)},
			step{sub: boxN(0, 999, 0, 999, 500, 500)},
		),
		probes: []subscription.Subscription{
			boxN(0, 100, 0, 100, 0, 100), boxN(400, 600, 0, 999, 500, 500), boxN(0, 999, 0, 999, 0, 999), boxN(999, 999, 999, 999, 999, 999),
		},
	}, {
		name: "drain and repopulate under another arity",
		steps: append(append(append(grid(80, 2),
			step{unsub: ids(0, 80, 1)}),
			grid(70, 4)...),
			step{sub: boxN(0, 5, 0, 5)}, // mixed arity: a second index until it leaves
			step{unsub: []ID{150}},
		),
		probes: []subscription.Subscription{
			boxN(100, 200, 0, 999, 0, 999, 300, 301), boxN(0, 0, 0, 0, 0, 0, 0, 0), boxN(5000, 6000, 0, 999, 0, 999, 0, 999),
		},
	}, {
		name: "bounds at the int64 limits",
		steps: []step{
			{sub: boxN(lo, hi, 0, 0)},
			{sub: boxN(lo, lo, lo, hi)},
			{sub: boxN(hi, hi, hi, hi)},
			{sub: boxN(-1, 1, lo, -1)},
			{sub: boxN(lo+1, hi-1, 0, hi)},
			{sub: boxN(0, hi, lo, 0)},
		},
		probes: []subscription.Subscription{
			boxN(lo, lo, 0, 0), boxN(hi, hi, hi, hi), boxN(lo, hi, lo, hi), boxN(0, 0, 1, 1),
			boxN(hi-1, hi, lo, lo), boxN(lo, lo+1, hi, hi), boxN(-1, -1, -1, -1),
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := New(PolicyNone)
			if err != nil {
				t.Fatal(err)
			}
			next := ID(0)
			for _, s := range tc.steps {
				if s.sub.Bounds != nil {
					if _, err := st.Subscribe(next, s.sub); err != nil {
						t.Fatal(err)
					}
					next++
				}
				for _, id := range s.unsub {
					if _, err := st.Unsubscribe(id); err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range tc.probes {
					requireExactCandidates(t, st, p)
				}
			}
		})
	}
}

// TestCandidateIndexRecut drives the store's index across a clamp and a
// re-cut of its grid (pinned in package cells): a row outside the grid
// but within twice its width, then one that stretches the hull past
// that. The candidates stay exact throughout.
func TestCandidateIndexRecut(t *testing.T) {
	st, err := New(PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	subscribe := func(id ID, lo, hi int64) {
		t.Helper()
		if _, err := st.Subscribe(id, boxN(lo, hi)); err != nil {
			t.Fatal(err)
		}
	}
	probes := []subscription.Subscription{boxN(995, 1000), boxN(1500, 1500), boxN(-1, 0), boxN(-9, -2)}
	check := func() {
		t.Helper()
		for _, p := range probes {
			requireExactCandidates(t, st, p)
		}
	}
	subscribe(0, 0, 999)
	for i := int64(1); i < 100; i++ {
		subscribe(ID(i), 10*i, 10*i+9)
	}
	check()
	subscribe(100, 1000, 1998) // hull [0, 1998]: exactly twice the grid's width
	check()
	subscribe(101, -1, -1) // hull [-1, 1998]: past twice the width
	check()
}

// TestGroupPrunedSoundness checks pruned group decisions against the
// exhaustive oracle on a small domain: a NotCovered decision is
// witness-backed and must be exactly right; a covered decision must
// agree with the oracle (failure probability bounded by δ per check
// and pinned by the fixed seed).
func TestGroupPrunedSoundness(t *testing.T) {
	checker, err := core.NewChecker(core.WithSeed(71, 72))
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(PolicyGroup, WithChecker(checker))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(73, 74))
	dom := interval.New(0, 15)
	randSub := func() subscription.Subscription {
		bounds := make([]interval.Interval, 2)
		for a := range bounds {
			lo := dom.Lo + rng.Int64N(dom.Count())
			hi := lo + rng.Int64N(dom.Hi-lo+1)
			bounds[a] = interval.New(lo, hi)
		}
		return subscription.Subscription{Bounds: bounds}
	}
	for i := 0; i < 300; i++ {
		s := randSub()
		active := st.ActiveSubscriptions()
		oracle, err := core.ExhaustiveCover(s, active)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Subscribe(ID(i), s)
		if err != nil {
			t.Fatal(err)
		}
		covered := res.Status == StatusCovered
		if covered != oracle {
			t.Fatalf("subscription %d (%v): store says covered=%v, oracle says %v", i, s, covered, oracle)
		}
	}
	if st.CoveredLen() == 0 {
		t.Fatal("nothing was covered; workload lost its teeth")
	}
}
