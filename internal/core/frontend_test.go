package core

import (
	"cmp"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"probsum/internal/conflict"
	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// referenceCoveredInto is the pipeline's front end as it ran before the
// one-pass scan: the conflict table is built first and Corollaries 1
// and 3 are read off it (the latter by sorting the row counts), and the
// flat layout is built by a comparison sort on (size, index). It shares
// the residual stage, MCS and RSPC with the checker, so it is the
// oracle the one-pass front end must match on every field and random
// draw.
func referenceCoveredInto(c *Checker, res *Result, s subscription.Subscription, set []subscription.Subscription) error {
	if !s.IsSatisfiable() {
		return ErrUnsatisfiable
	}
	res.resetForReuse()
	if len(set) == 0 {
		res.Decision, res.Reason = NotCovered, ReasonEmptyMCS
		return nil
	}
	table, err := conflict.Build(s, set)
	if err != nil {
		return err
	}
	if c.useFast {
		if row := table.PairwiseCoverRow(); row >= 0 {
			res.Decision, res.Reason, res.CoveringRow = Covered, ReasonPairwiseCover, row
			return nil
		}
		if sortedRowConditionBySort(table, nil) {
			if witness, ok := table.GreedyWitness(nil); ok {
				res.Decision, res.Reason, res.PolyhedronWitness = NotCovered, ReasonPolyhedronWitness, witness
				return nil
			}
		}
	}
	var flat flatSet
	if c.useResidual {
		referenceLayout(&flat, s, set, nil)
		var resid residual
		verdict, tests := resid.subtract(&flat, c.maxTrials)
		res.ResidualTests = tests
		switch {
		case verdict == residualCovered:
			res.Decision, res.Reason = Covered, ReasonResidualCover
			res.ReducedSet = resid.appendUsed(res.ReducedSet, &flat)
			return nil
		case verdict == residualWitness && !flat.contains(resid.curLo):
			res.Decision, res.Reason = NotCovered, ReasonPointWitness
			res.PointWitness = slices.Clone(resid.curLo)
			return nil
		}
	}
	var alive []bool
	if c.useMCS {
		mcs := MCS(table)
		res.ReducedSet = append(res.ReducedSet, mcs.Indices()...)
		if mcs.AliveCount == 0 {
			res.Decision, res.Reason = NotCovered, ReasonEmptyMCS
			return nil
		}
		alive = mcs.Alive
	}
	res.LogRho = EstimateLogRho(table, alive)
	res.Rho = math.Exp(res.LogRho)
	res.Log10D = Log10TrialBound(c.delta, res.LogRho)
	trials := c.maxTrials
	if d := TrialBound(c.delta, res.LogRho); d < float64(trials) {
		trials = int(math.Ceil(d))
	} else {
		res.DCapped = true
	}
	referenceLayout(&flat, s, set, alive)
	out := rspcFlat(s, &flat, trials, c.rng, make([]int64, s.Len()))
	res.ExecutedTrials = out.Trials
	if out.Found() {
		res.Decision, res.Reason, res.PointWitness = NotCovered, ReasonPointWitness, out.Witness
		return nil
	}
	res.Decision, res.Reason = CoveredProbably, ReasonTrialsExhausted
	return nil
}

// sortedRowConditionBySort is Corollary 3's test as the paper states
// it: sort the alive rows' defined-entry counts ascending and require
// the j-th smallest to be at least j.
func sortedRowConditionBySort(t *conflict.Table, alive []bool) bool {
	var counts []int
	for i := 0; i < t.K(); i++ {
		if alive == nil || alive[i] {
			counts = append(counts, t.RowCount(i))
		}
	}
	slices.Sort(counts)
	for j, n := range counts {
		if n < j+1 {
			return false
		}
	}
	return true
}

// referenceLayout lays out the alive rows of set that intersect s,
// ordered by a comparison sort on descending float size, then index.
func referenceLayout(f *flatSet, s subscription.Subscription, set []subscription.Subscription, alive []bool) {
	if _, err := f.scan(s, set, nil, false); err != nil {
		panic(err)
	}
	type row struct {
		size float64
		idx  int
	}
	var rows []row
	for i := range set {
		if alive != nil && !alive[i] {
			continue
		}
		size := 1.0
		for a, b := range set[i].Bounds {
			iv := b.Intersect(s.Bounds[a])
			if iv.IsEmpty() {
				size = 0
				break
			}
			size *= float64(uint64(iv.Hi-iv.Lo)) + 1
		}
		if size > 0 {
			rows = append(rows, row{size, i})
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := cmp.Compare(b.size, a.size); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	f.order = f.order[:0]
	for _, r := range rows {
		f.order = append(f.order, rowKey{size: math.Float64bits(r.size), tie: int64(r.idx), idx: r.idx})
	}
	f.fill(set, nil)
}

// frontEndInstance is one (s, set) pair of the equivalence corpus.
type frontEndInstance struct {
	name string
	s    subscription.Subscription
	set  []subscription.Subscription
}

// frontEndInstances builds the corpus: the paper's mix, the narrow mix
// against a dense active set, small sets with k ≤ 2m where Corollary 3
// can fire, and sets padded with duplicate and disjoint rows.
func frontEndInstances(t *testing.T) []frontEndInstance {
	t.Helper()
	rng := rand.New(rand.NewPCG(401, 402))
	var out []frontEndInstance
	add := func(name string, in workload.Instance) {
		out = append(out, frontEndInstance{name, in.S, in.Set})
	}
	for i := 0; i < 12; i++ {
		add("redundant", workload.RedundantCovering(rng, workload.Config{K: 40, M: 6}))
		add("noncover", workload.NonCover(rng, workload.Config{K: 40, M: 6}, 0.05))
		add("extreme", workload.ExtremeNonCover(rng, workload.Config{K: 20, M: 4}, 0.01))
		add("pairwise", workload.PairwiseCovering(rng, workload.Config{K: 30, M: 5}))
		add("disjoint", workload.NoIntersection(rng, workload.Config{K: 30, M: 5}))
	}

	// The narrow mix: arrivals against the rows earlier arrivals left
	// active, disjoint ones included.
	stream, err := workload.NewComparisonStream(rng, workload.NarrowComparisonConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	admit := mustChecker(t, WithSeed(403, 404))
	var active []subscription.Subscription
	var res Result
	for i := 0; i < 400; i++ {
		s := stream.Next()
		if err := admit.CoveredInto(&res, s, active); err != nil {
			t.Fatal(err)
		}
		if !res.Decision.IsCovered() {
			active = append(active, s)
		}
		if i >= 340 {
			out = append(out, frontEndInstance{"narrow", s, slices.Clone(active)})
		}
	}

	for i := 0; i < 120; i++ {
		m := 1 + rng.IntN(4)
		s, set := genInstance(rng, m, 1+rng.IntN(2*m), 40)
		out = append(out, frontEndInstance{"k<=2m", s, set})

		// Duplicates of some rows and rows just past s on one attribute.
		s, set = genInstance(rng, m, 1+rng.IntN(10), 40)
		for j := rng.IntN(4); j > 0; j-- {
			set = slices.Insert(set, rng.IntN(len(set)+1), set[rng.IntN(len(set))])
		}
		for j := rng.IntN(4); j > 0; j-- {
			row := s.Clone()
			a := rng.IntN(m)
			row.Bounds[a] = interval.New(s.Bounds[a].Hi+1, s.Bounds[a].Hi+1+rng.Int64N(5))
			set = slices.Insert(set, rng.IntN(len(set)+1), row)
		}
		out = append(out, frontEndInstance{"dup+disjoint", s, set})
	}
	paperS, paperSet := paperNonCoverExample()
	out = append(out, frontEndInstance{"paper-noncover", paperS, paperSet})
	paperS, paperSet = paperCoverExample()
	out = append(out, frontEndInstance{"paper-cover", paperS, paperSet})
	return out
}

// frontEndConfigs are the pipeline configurations the front end is
// compared under.
var frontEndConfigs = []struct {
	name string
	opts []Option
}{
	{"default", nil},
	{"fast-off", []Option{WithFastPaths(false)}},
	{"residual-off", []Option{WithResidual(false)}},
	{"fast-off,residual-off", []Option{WithFastPaths(false), WithResidual(false)}},
	{"mcs-off", []Option{WithMCS(false), WithResidual(false)}},
	{"rare-path", []Option{WithMaxTrials(1)}},
}

// TestFrontEndMatchesConflictTable: the one-pass front end decides
// every instance exactly as the conflict-table front end did — same
// Result on every field, and the random stream left at the same draw.
func TestFrontEndMatchesConflictTable(t *testing.T) {
	instances := frontEndInstances(t)
	reasons := map[Reason]int{}
	for _, cfg := range frontEndConfigs {
		opts := append([]Option{WithSeed(405, 406), WithMaxTrials(500)}, cfg.opts...)
		got, want := mustChecker(t, opts...), mustChecker(t, opts...)
		var gotRes, wantRes Result
		for i, in := range instances {
			if err := got.CoveredInto(&gotRes, in.s, in.set); err != nil {
				t.Fatal(err)
			}
			if err := referenceCoveredInto(want, &wantRes, in.s, in.set); err != nil {
				t.Fatal(err)
			}
			if fingerprint(gotRes) != fingerprint(wantRes) {
				t.Fatalf("%s, instance %d (%s):\n got %+v\nwant %+v", cfg.name, i, in.name, gotRes, wantRes)
			}
			reasons[gotRes.Reason]++
		}
		if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
			t.Fatalf("%s: next draw %#x, reference %#x", cfg.name, g, w)
		}
	}
	for r := ReasonPairwiseCover; r <= ReasonResidualCover; r++ {
		if reasons[r] == 0 {
			t.Errorf("no decision by %v: the corpus lost its teeth (%v)", r, reasons)
		}
	}
}

// TestKeyedIsOrderFree: shuffling a set together with its keys does not
// change the keyed result read back in key terms — it is CoveredInto's
// on the set in key order, the rare MCS/RSPC path included.
func TestKeyedIsOrderFree(t *testing.T) {
	instances := frontEndInstances(t)
	rng := rand.New(rand.NewPCG(407, 408))
	for _, cfg := range frontEndConfigs {
		opts := append([]Option{WithSeed(409, 410), WithMaxTrials(500)}, cfg.opts...)
		sorted, keyed := mustChecker(t, opts...), mustChecker(t, opts...)
		var want, got Result
		for i, in := range instances {
			// Distinct keys, negative ones included, ascending along set.
			keys := make([]int64, len(in.set))
			next := rng.Int64N(100) - 50
			for j := range keys {
				keys[j] = next
				next += 1 + rng.Int64N(3)
			}
			perm := rng.Perm(len(in.set))
			shuffled := make([]subscription.Subscription, len(perm))
			shuffledKeys := make([]int64, len(perm))
			for j, p := range perm {
				shuffled[j], shuffledKeys[j] = in.set[p], keys[p]
			}
			if err := sorted.CoveredInto(&want, in.s, in.set); err != nil {
				t.Fatal(err)
			}
			if err := keyed.CoveredIntoKeyed(&got, in.s, shuffled, shuffledKeys); err != nil {
				t.Fatal(err)
			}
			// Read the keyed result back in positions of the sorted set.
			if got.CoveringRow >= 0 {
				got.CoveringRow = perm[got.CoveringRow]
			}
			for j, idx := range got.ReducedSet {
				got.ReducedSet[j] = perm[idx]
			}
			slices.Sort(got.ReducedSet)
			if fingerprint(got) != fingerprint(want) {
				t.Fatalf("%s, instance %d (%s):\n got %+v\nwant %+v", cfg.name, i, in.name, got, want)
			}
		}
		if g, w := keyed.rng.Uint64(), sorted.rng.Uint64(); g != w {
			t.Fatalf("%s: next draw %#x, sorted %#x", cfg.name, g, w)
		}
	}
}

// TestSchemaMismatch: a set row with another attribute count is an
// error wrapping subscription.ErrSchemaMismatch wherever it sits —
// before or after a row containing s, keyed or not — and a tested
// subscription without attributes is an error too.
func TestSchemaMismatch(t *testing.T) {
	s := subscription.New(interval.New(10, 20), interval.New(10, 20))
	cover := subscription.New(interval.New(0, 30), interval.New(0, 30))
	odd := subscription.New(interval.New(0, 30))
	c := mustChecker(t, WithSeed(1, 2))
	var res Result
	for _, set := range [][]subscription.Subscription{{odd, cover}, {cover, odd}, {cover, cover, odd}} {
		if err := c.CoveredInto(&res, s, set); !errors.Is(err, subscription.ErrSchemaMismatch) {
			t.Errorf("CoveredInto on %v: err = %v, want a schema mismatch", set, err)
		}
		keys := make([]int64, len(set))
		if err := c.CoveredIntoKeyed(&res, s, set, keys); !errors.Is(err, subscription.ErrSchemaMismatch) {
			t.Errorf("CoveredIntoKeyed on %v: err = %v, want a schema mismatch", set, err)
		}
		if _, _, err := ExactCover(s, set); !errors.Is(err, subscription.ErrSchemaMismatch) {
			t.Errorf("ExactCover on %v: err = %v, want a schema mismatch", set, err)
		}
	}
	if err := c.CoveredInto(&res, subscription.New(), []subscription.Subscription{cover}); err == nil {
		t.Error("a subscription without attributes was checked")
	}
	var f flatSet
	if _, err := f.scan(subscription.New(), []subscription.Subscription{cover}, nil, false); !errors.Is(err, errNoAttributes) {
		t.Errorf("scan without attributes: err = %v", err)
	}
}

// FuzzFlatOrder requires sortRows to order rows exactly as a comparison
// sort on descending size, then ascending key, then index does.
//
// Each input byte pair is one row: the first byte picks its size (255
// is +Inf, any other spreads over exponents 0 to 1023 with eight
// mantissas, so equal sizes recur), the second a signed key. An odd
// first byte adds forty rows sharing one exponent, a bucket above the
// insertion-sort threshold.
func FuzzFlatOrder(f *testing.F) {
	f.Add([]byte{1, 8, 3, 8, 0xfe, 255, 0, 255, 1, 0x80, 0x10})
	f.Add([]byte{0, 0, 7, 0, 7, 0, 7, 255, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs flatSet
		add := func(size float64, key int64) {
			fs.cand = append(fs.cand, rowKey{size: math.Float64bits(size), tie: key, idx: len(fs.cand)})
		}
		if len(data) > 0 && data[0]&1 == 1 {
			for j := 0; j < 40; j++ {
				add(math.Ldexp(1+float64(j%8)/8, 10), int64(j*7%13)-6)
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			size := math.Inf(1)
			if b := data[0]; b != 255 {
				size = math.Ldexp(1+float64(b&7)/8, int(b>>3)*33)
			}
			add(size, int64(int8(data[1])))
		}
		fs.minExp, fs.maxExp = math.MaxUint64, 0
		for _, r := range fs.cand {
			fs.minExp, fs.maxExp = min(fs.minExp, r.size>>52), max(fs.maxExp, r.size>>52)
		}
		want := slices.Clone(fs.cand)
		slices.SortFunc(want, func(a, b rowKey) int {
			if c := cmp.Compare(math.Float64frombits(b.size), math.Float64frombits(a.size)); c != 0 {
				return c
			}
			if c := cmp.Compare(a.tie, b.tie); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		fs.sortRows()
		if !slices.Equal(fs.order, want) {
			t.Fatalf("bucket sort\n got %v\nwant %v", fs.order, want)
		}
	})
}
