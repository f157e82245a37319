// Package benchcases holds the hot-path benchmark bodies shared by
// the repository's bench_test.go and cmd/paperbench's -benchjson
// emitter. Keeping one copy guarantees the BENCH_<date>.json
// trajectory measures exactly what `go test -bench` measures — same
// workloads, same seeds, same loops.
package benchcases

import (
	"math/rand/v2"
	"testing"

	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/internal/workload"
	"probsum/subsume"
)

// Instance builds the canonical micro-benchmark instance (k=100,
// m=10) for scenario "cover" or "noncover".
func Instance(scenario string) workload.Instance {
	rng := rand.New(rand.NewPCG(1, 2))
	cfg := workload.Config{K: 100, M: 10}
	switch scenario {
	case "cover":
		return workload.RedundantCovering(rng, cfg)
	case "noncover":
		return workload.NonCover(rng, cfg, 0.05)
	default:
		panic("unknown scenario " + scenario)
	}
}

// Checker builds the canonical micro-benchmark checker (δ=1e-6, seed
// 1/2, 2000-trial cap).
func Checker(b *testing.B) *core.Checker {
	b.Helper()
	c, err := core.NewChecker(
		core.WithErrorProbability(1e-6),
		core.WithSeed(1, 2),
		core.WithMaxTrials(2000),
	)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// CoveredInto is the zero-allocation checker benchmark body: the
// Algorithm 4 pipeline through CoveredInto with a reused Result.
func CoveredInto(b *testing.B, scenario string) {
	in := Instance(scenario)
	checker := Checker(b)
	var res core.Result
	if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checker.CoveredInto(&res, in.S, in.Set); err != nil {
			b.Fatal(err)
		}
	}
}

// CoveredIntoDense is CoveredInto on the dense regime a broker under
// churn sees: 64 arrivals of the narrow mix, each checked against the
// ~1200 subscriptions 1500 earlier arrivals left active — the whole
// active set, no candidate index in front — at the production trial
// cap. Four answers in five are a NO with a witness, the rest covers
// (one in four of those by no single subscription).
func CoveredIntoDense(b *testing.B) {
	rng := rand.New(rand.NewPCG(31, 32))
	stream, err := workload.NewComparisonStream(rng, workload.NarrowComparisonConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	checker, err := core.NewChecker(core.WithSeed(1, 2))
	if err != nil {
		b.Fatal(err)
	}
	var active []subscription.Subscription
	var res core.Result
	for i := 0; i < 1500; i++ {
		s := stream.Next()
		if err := checker.CoveredInto(&res, s, active); err != nil {
			b.Fatal(err)
		}
		if !res.Decision.IsCovered() {
			active = append(active, s)
		}
	}
	probes := make([]subscription.Subscription, 64)
	for i := range probes {
		probes[i] = stream.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checker.CoveredInto(&res, probes[i%len(probes)], active); err != nil {
			b.Fatal(err)
		}
	}
}

// tableBurstSchema is the burst-workload attribute space.
func tableBurstSchema() *subsume.Schema { return subsume.UniformSchema(6, 0, 9999) }

// TableBurst builds the burst workload for the Table batch benchmark:
// a shuffled mix of broad "parent" boxes and narrow children shrunk
// inside them — the arrival pattern of a subscriber population with a
// few aggregate interests and many specific ones. Shuffled arrival
// order is the worst case for per-item admission (children arriving
// before their parent are admitted active and checked expensively);
// the batch path re-sorts by volume, so parents admit first and the
// children fall to the pairwise fast path.
func TableBurst(size int) ([]subsume.ID, []subsume.Subscription) {
	rng := rand.New(rand.NewPCG(41, 42))
	m := tableBurstSchema().Len()
	nParents := size / 16
	parents := make([]subsume.Subscription, nParents)
	subs := make([]subsume.Subscription, 0, size)
	for i := range parents {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := rng.Int64N(6000)
			bounds[a] = interval.New(lo, lo+2000+rng.Int64N(1500))
		}
		parents[i] = subscription.Subscription{Bounds: bounds}
		subs = append(subs, parents[i])
	}
	for len(subs) < size {
		p := parents[rng.IntN(nParents)]
		bounds := make([]interval.Interval, m)
		for a, b := range p.Bounds {
			w := (b.Hi - b.Lo) / 4
			off := rng.Int64N(b.Hi - b.Lo - w)
			bounds[a] = interval.New(b.Lo+off, b.Lo+off+w)
		}
		subs = append(subs, subscription.Subscription{Bounds: bounds})
	}
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	ids := make([]subsume.ID, len(subs))
	for i := range ids {
		ids[i] = subsume.ID(i + 1)
	}
	return ids, subs
}

// TableSubscribeBatch is the Table burst-admission benchmark body:
// one 512-subscription burst per iteration into a fresh Group table,
// through SubscribeBatch (batch=true) or per-item Subscribe in
// arrival order (batch=false). Table construction is excluded from
// the timing.
func TableSubscribeBatch(b *testing.B, batch bool) {
	ids, subs := TableBurst(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl, err := subsume.NewTable(subsume.Group,
			subsume.WithTableChecker(subsume.WithSeed(43, 44), subsume.WithMaxTrials(2000)),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if batch {
			if _, err := tbl.SubscribeBatch(ids, subs); err != nil {
				b.Fatal(err)
			}
		} else {
			for j, id := range ids {
				if _, err := tbl.Subscribe(id, subs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// TableSubscribeBatchDense is burst admission on the narrow mix, the
// regime psbench's admit-churn drives: a Group table at the production
// trial cap holds 1500 subscriptions admitted in batches of 100, and
// each iteration admits one more batch of 100 through SubscribeBatch.
// The batch is withdrawn again outside the timing, so every iteration
// meets the same table.
func TableSubscribeBatchDense(b *testing.B) {
	const base, batch = 1500, 100
	rng := rand.New(rand.NewPCG(31, 32))
	stream, err := workload.NewComparisonStream(rng, workload.NarrowComparisonConfig(6))
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := subsume.NewTable(subsume.Group, subsume.WithTableChecker(subsume.WithSeed(43, 44)))
	if err != nil {
		b.Fatal(err)
	}
	next := subsume.ID(0)
	burst := func() ([]subsume.ID, []subsume.Subscription) {
		ids := make([]subsume.ID, batch)
		subs := make([]subsume.Subscription, batch)
		for i := range ids {
			next++
			ids[i], subs[i] = next, stream.Next()
		}
		return ids, subs
	}
	for n := 0; n < base; n += batch {
		if _, err := tbl.SubscribeBatch(burst()); err != nil {
			b.Fatal(err)
		}
	}
	probes := make([][]subsume.Subscription, 8)
	for i := range probes {
		_, probes[i] = burst()
	}
	ids := make([]subsume.ID, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			next++
			ids[j] = next
		}
		if _, err := tbl.SubscribeBatch(ids, probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := tbl.UnsubscribeBatch(ids); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// UnsubBurst builds the cancellation-burst workload: 32 overlapping
// "tile" parents (stride 300, width 600 on attribute x1, unbounded
// elsewhere) and 480 children straddling tile boundaries, so each
// child is covered only by the UNION of neighboring tiles — the
// paper's group-coverage regime. Withdrawing the whole tile wall (a
// gateway canceling its aggregate interests) is the worst case for
// per-item removal: every removal orphans children that are then
// re-covered by surviving tiles, only to be orphaned again by the
// next removal, so a child can be re-validated once per tile it
// touches. Returns the admission burst and the cancellation burst
// (the parent IDs).
func UnsubBurst() (ids []subsume.ID, subs []subsume.Subscription, burst []subsume.ID) {
	rng := rand.New(rand.NewPCG(51, 52))
	m := tableBurstSchema().Len()
	const nParents = 32
	full := interval.New(0, 9999)
	for i := 0; i < nParents; i++ {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			bounds[a] = full
		}
		bounds[0] = interval.New(int64(i)*300, int64(i)*300+600)
		subs = append(subs, subscription.Subscription{Bounds: bounds})
	}
	for len(subs) < 512 {
		bounds := make([]interval.Interval, m)
		x := rng.Int64N(9000)
		bounds[0] = interval.New(x, x+450)
		for a := 1; a < m; a++ {
			lo := rng.Int64N(5000)
			bounds[a] = interval.New(lo, lo+2000+rng.Int64N(2500))
		}
		subs = append(subs, subscription.Subscription{Bounds: bounds})
	}
	ids = make([]subsume.ID, len(subs))
	for i := range ids {
		ids[i] = subsume.ID(i + 1)
	}
	burst = append(burst, ids[:nParents]...)
	return ids, subs, burst
}

// TableUnsubscribeBatch is the Table cancellation-burst benchmark
// body: admit the UnsubBurst workload, then withdraw the tile parents
// per-item (each removal runs its own promotion cascade, repeatedly
// re-validating children that keep finding cover in surviving tiles)
// or through UnsubscribeBatch (one shared cascade frontier: every
// orphaned child is re-validated exactly once against the
// post-removal set). Table construction and admission are excluded
// from the timing.
func TableUnsubscribeBatch(b *testing.B, batch bool) {
	ids, subs, burst := UnsubBurst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl, err := subsume.NewTable(subsume.Group,
			subsume.WithTableChecker(subsume.WithSeed(43, 44), subsume.WithMaxTrials(2000)),
		)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.SubscribeBatch(ids, subs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if batch {
			if _, err := tbl.UnsubscribeBatch(burst); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, id := range burst {
				if _, err := tbl.Unsubscribe(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// StoreSubscribe is the store arrival benchmark body: one
// subscribe/unsubscribe round-trip against a store pre-filled with
// 1500 Section 6.4 comparison-workload subscriptions.
func StoreSubscribe(b *testing.B, policy store.Policy) {
	storeSubscribe(b, workload.DefaultComparisonConfig(8), policy, core.WithMaxTrials(2000))
}

// StoreSubscribeDense is StoreSubscribe under the group policy on the
// narrow mix at the production trial cap: the dense regime, where an
// arrival meets about a thousand active rows, the candidate index hands
// the checker the one in eight that intersect it, and the arrival's
// cost is the checker's.
func StoreSubscribeDense(b *testing.B) {
	storeSubscribe(b, workload.NarrowComparisonConfig(6), store.PolicyGroup)
}

func storeSubscribe(b *testing.B, cfg workload.ComparisonConfig, policy store.Policy, copts ...core.Option) {
	rng := rand.New(rand.NewPCG(31, 32))
	stream, err := workload.NewComparisonStream(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var opts []store.Option
	if policy == store.PolicyGroup {
		checker, err := core.NewChecker(append(copts, core.WithSeed(33, 34))...)
		if err != nil {
			b.Fatal(err)
		}
		opts = append(opts, store.WithChecker(checker))
	}
	st, err := store.New(policy, opts...)
	if err != nil {
		b.Fatal(err)
	}
	const k = 1500
	for i := 0; i < k; i++ {
		if _, err := st.Subscribe(store.ID(i), stream.Next()); err != nil {
			b.Fatal(err)
		}
	}
	probes := make([]subscription.Subscription, 256)
	for i := range probes {
		probes[i] = stream.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := store.ID(k + 1 + i)
		if _, err := st.Subscribe(id, probes[i%len(probes)]); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Unsubscribe(id); err != nil {
			b.Fatal(err)
		}
	}
}
