// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per figure, running the corresponding
// experiment at reduced scale) plus micro-benchmarks of the core
// operations whose complexities the paper states, and ablation benches
// for the design choices called out in DESIGN.md.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=BenchmarkFig06 -benchmem
package probsum_test

import (
	"math/rand/v2"
	"testing"

	"probsum/internal/benchcases"
	"probsum/internal/conflict"
	"probsum/internal/core"
	"probsum/internal/experiments"
	"probsum/internal/interval"
	"probsum/internal/match"
	"probsum/internal/pairwise"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// benchScale keeps figure benchmarks to a few hundred milliseconds;
// cmd/paperbench runs the full paper scale.
const benchScale = experiments.Scale(0.02)

// benchFigure runs one experiment per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig06RedundantCoveringReduction(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig07RedundantCoveringTrialBound(b *testing.B) { benchFigure(b, "fig7") }
func BenchmarkFig08NonCoverReduction(b *testing.B)           { benchFigure(b, "fig8") }
func BenchmarkFig09NonCoverTrialBound(b *testing.B)          { benchFigure(b, "fig9") }
func BenchmarkFig10NonCoverActualIterations(b *testing.B)    { benchFigure(b, "fig10") }
func BenchmarkFig11ExtremeIterations(b *testing.B)           { benchFigure(b, "fig11") }
func BenchmarkFig12ExtremeFalseDecisions(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13ComparisonGrowth(b *testing.B)            { benchFigure(b, "fig13") }
func BenchmarkFig14ComparisonRatio(b *testing.B)             { benchFigure(b, "fig14") }
func BenchmarkEq2Chain(b *testing.B)                         { benchFigure(b, "eq2") }

// Micro-benchmarks of the paper's complexity claims. Hot-path bodies
// live in internal/benchcases, shared with cmd/paperbench -benchjson
// so the JSON trajectory measures exactly these benchmarks.

// benchInstance builds the canonical instance (k=100, m=10).
func benchInstance(scenario string) workload.Instance {
	return benchcases.Instance(scenario)
}

// BenchmarkConflictTableBuild measures the O(m·k) table construction.
func BenchmarkConflictTableBuild(b *testing.B) {
	in := benchInstance("cover")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conflict.Build(in.S, in.Set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCS measures the minimized-cover-set reduction with the
// per-attribute extrema optimization (OPT-2).
func BenchmarkMCS(b *testing.B) {
	in := benchInstance("cover")
	tbl, err := conflict.Build(in.S, in.Set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MCS(tbl)
	}
}

// BenchmarkMCSNaive is the ablation against the paper's literal
// O(m²k³) formulation.
func BenchmarkMCSNaive(b *testing.B) {
	in := benchInstance("cover")
	tbl, err := conflict.Build(in.S, in.Set)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MCSNaive(tbl)
	}
}

// BenchmarkRSPC measures the Monte-Carlo point-witness search on a
// non-covered instance (it usually terminates early with a witness).
func BenchmarkRSPC(b *testing.B) {
	in := benchInstance("noncover")
	rng := rand.New(rand.NewPCG(7, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RSPC(in.S, in.Set, nil, 1000, rng)
	}
}

// BenchmarkCheckerCovered measures the full Algorithm 4 pipeline on
// the covered scenario (worst case: all trials execute).
func BenchmarkCheckerCovered(b *testing.B) {
	in := benchInstance("cover")
	checker := benchcases.Checker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Covered(in.S, in.Set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoveredInto measures the zero-allocation hot path: the
// same pipeline as BenchmarkCheckerCovered but through CoveredInto
// with a reused Result, the way stores and brokers drive it. Expect 0
// allocs/op in steady state (covered decisions). dense is the narrow
// mix against a 1200-row active set at the production trial cap.
func BenchmarkCoveredInto(b *testing.B) {
	for _, tc := range []struct{ name, scenario string }{
		{"covered", "cover"},
		{"noncover", "noncover"},
	} {
		b.Run(tc.name, func(b *testing.B) { benchcases.CoveredInto(b, tc.scenario) })
	}
	b.Run("dense", benchcases.CoveredIntoDense)
}

// BenchmarkCheckerNonCover measures the pipeline when fast paths can
// short-circuit.
func BenchmarkCheckerNonCover(b *testing.B) {
	in := benchInstance("noncover")
	checker, err := core.NewChecker(core.WithErrorProbability(1e-6), core.WithSeed(3, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Covered(in.S, in.Set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerNoMCSAblation quantifies what MCS buys: the same
// covered instance without the reduction.
func BenchmarkCheckerNoMCSAblation(b *testing.B) {
	in := benchInstance("cover")
	checker, err := core.NewChecker(
		core.WithErrorProbability(1e-6),
		core.WithSeed(5, 6),
		core.WithMCS(false),
		core.WithMaxTrials(2000),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Covered(in.S, in.Set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairwiseBaseline measures the classical pairwise check the
// paper compares against.
func BenchmarkPairwiseBaseline(b *testing.B) {
	in := benchInstance("cover")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairwise.CoveredBySingle(in.S, in.Set)
	}
}

// Matching benchmarks (Algorithm 5 substrate).

func benchMatchSetup(b *testing.B) ([]match.ID, []subscription.Subscription, []subscription.Publication) {
	b.Helper()
	rng := rand.New(rand.NewPCG(11, 12))
	stream, err := workload.NewComparisonStream(rng, workload.DefaultComparisonConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	const k = 2000
	ids := make([]match.ID, k)
	subs := make([]subscription.Subscription, k)
	for i := 0; i < k; i++ {
		ids[i] = match.ID(i)
		subs[i] = stream.Next()
	}
	pubs := make([]subscription.Publication, 256)
	for i := range pubs {
		vals := make([]int64, 8)
		for a := range vals {
			vals[a] = rng.Int64N(10_000)
		}
		pubs[i] = subscription.Publication{Values: vals}
	}
	return ids, subs, pubs
}

// BenchmarkMatchBruteForce is the O(k·m) scan baseline.
func BenchmarkMatchBruteForce(b *testing.B) {
	ids, subs, pubs := benchMatchSetup(b)
	var bf match.BruteForce
	for i, id := range ids {
		bf.Add(id, subs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Match(pubs[i%len(pubs)])
	}
}

// BenchmarkMatchITreeIndex is the dynamic cell-bitset matcher the
// broker publish path uses (lazy rebuild outside the timed loop).
func BenchmarkMatchITreeIndex(b *testing.B) {
	ids, subs, pubs := benchMatchSetup(b)
	idx := match.NewITreeIndex()
	for i, id := range ids {
		idx.Add(id, subs[i])
	}
	idx.Match(pubs[0]) // build the base before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Match(pubs[i%len(pubs)])
	}
}

// BenchmarkStoreMatchForest measures Algorithm 5 with the multi-level
// cover forest versus its two-phase literal form.
func BenchmarkStoreMatchForest(b *testing.B) {
	st, pubs := benchStoreSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Match(pubs[i%len(pubs)])
	}
}

// BenchmarkStoreMatchTwoPhase is the literal Algorithm 5 baseline.
func BenchmarkStoreMatchTwoPhase(b *testing.B) {
	st, pubs := benchStoreSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.MatchTwoPhase(pubs[i%len(pubs)])
	}
}

// BenchmarkStoreSubscribe measures the steady-state cost of one
// subscribe/unsubscribe round-trip against a populated store — the
// arrival hot path the cell-bitset candidate index accelerates. On the
// paper's mix ("pairwise", "group") under a hundred rows stay active
// and an arrival intersects most of them, so the index sheds little;
// "dense", the narrow mix, sheds seven rows in eight.
func BenchmarkStoreSubscribe(b *testing.B) {
	b.Run("pairwise", func(b *testing.B) { benchcases.StoreSubscribe(b, store.PolicyPairwise) })
	b.Run("group", func(b *testing.B) { benchcases.StoreSubscribe(b, store.PolicyGroup) })
	b.Run("dense", benchcases.StoreSubscribeDense)
}

// BenchmarkStoreSubscribeSparse is the large-active-set regime the
// candidate index targets: thousands of narrow boxes stay active, and
// each arriving subscription is a shrunken copy of one of them — the
// covered-arrival suppression path the paper optimizes. The index
// prunes straight to the few intersecting rows. Covered arrivals never
// touch the active set, so the measurement isolates the coverage
// decision itself.
func BenchmarkStoreSubscribeSparse(b *testing.B) {
	const (
		k = 4000
		m = 4
	)
	sparseSub := func(rng *rand.Rand) subscription.Subscription {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := rng.Int64N(9_800)
			bounds[a] = interval.New(lo, lo+40+rng.Int64N(160))
		}
		return subscription.Subscription{Bounds: bounds}
	}
	shrink := func(s subscription.Subscription) subscription.Subscription {
		bounds := make([]interval.Interval, len(s.Bounds))
		for a, iv := range s.Bounds {
			q := iv.Count() / 4
			bounds[a] = interval.New(iv.Lo+q, iv.Hi-q)
		}
		return subscription.Subscription{Bounds: bounds}
	}
	for _, tc := range []struct {
		name   string
		policy store.Policy
	}{
		{"pairwise", store.PolicyPairwise},
		{"group", store.PolicyGroup},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(91, 92))
			var opts []store.Option
			if tc.policy == store.PolicyGroup {
				checker, err := core.NewChecker(core.WithSeed(93, 94), core.WithMaxTrials(2000))
				if err != nil {
					b.Fatal(err)
				}
				opts = append(opts, store.WithChecker(checker))
			}
			st, err := store.New(tc.policy, opts...)
			if err != nil {
				b.Fatal(err)
			}
			base := make([]subscription.Subscription, k)
			for i := range base {
				base[i] = sparseSub(rng)
				if _, err := st.Subscribe(store.ID(i), base[i]); err != nil {
					b.Fatal(err)
				}
			}
			probes := make([]subscription.Subscription, 256)
			for i := range probes {
				probes[i] = shrink(base[rng.IntN(k)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := store.ID(k + 1 + i)
				res, err := st.Subscribe(id, probes[i%len(probes)])
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != store.StatusCovered {
					b.Fatalf("probe %d unexpectedly active", i)
				}
				if _, err := st.Unsubscribe(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableSubscribeBatch measures burst admission through the
// public subsume.Table: a shuffled 512-subscription burst of broad
// parents and narrow children, admitted per-item in arrival order
// versus through SubscribeBatch (which re-sorts by volume inside one
// critical section, so parents admit first and children take the
// pairwise fast path). The acceptance target is batch ≥ 2x per-item
// on this workload. "dense" is one 100-subscription batch of the
// narrow mix into a table holding 1500, the admission psbench's
// admit-churn measures.
func BenchmarkTableSubscribeBatch(b *testing.B) {
	b.Run("peritem", func(b *testing.B) { benchcases.TableSubscribeBatch(b, false) })
	b.Run("batch", func(b *testing.B) { benchcases.TableSubscribeBatch(b, true) })
	b.Run("dense", benchcases.TableSubscribeBatchDense)
}

// BenchmarkTableUnsubscribeBatch measures a cancellation burst — the
// burst workload's broad parents withdrawn at once — removed per-item
// (each removal runs its own promotion cascade) versus through
// UnsubscribeBatch (the same loop inside one call and one lock
// acquisition), so the two cases differ by the Table's locking only.
func BenchmarkTableUnsubscribeBatch(b *testing.B) {
	b.Run("peritem", func(b *testing.B) { benchcases.TableUnsubscribeBatch(b, false) })
	b.Run("batch", func(b *testing.B) { benchcases.TableUnsubscribeBatch(b, true) })
}

func benchStoreSetup(b *testing.B) (*store.Store, []subscription.Publication) {
	b.Helper()
	rng := rand.New(rand.NewPCG(21, 22))
	stream, err := workload.NewComparisonStream(rng, workload.DefaultComparisonConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.New(store.PolicyPairwise)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, err := st.Subscribe(store.ID(i), stream.Next()); err != nil {
			b.Fatal(err)
		}
	}
	pubs := make([]subscription.Publication, 256)
	for i := range pubs {
		vals := make([]int64, 8)
		for a := range vals {
			vals[a] = rng.Int64N(10_000)
		}
		pubs[i] = subscription.Publication{Values: vals}
	}
	return st, pubs
}
