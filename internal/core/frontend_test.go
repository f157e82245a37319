package core

import (
	"cmp"
	"errors"
	"fmt"
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
	f.begin(s)
	for i := range set {
		f.add(set[i].Bounds, int64(i))
	}
	if f.err != nil {
		panic(f.err)
	}
	type row struct {
		size float64
		key  rowKey
	}
	var rows []row
	for _, k := range f.cand {
		i := int(k.idx)
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
			rows = append(rows, row{size, k})
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := cmp.Compare(b.size, a.size); c != 0 {
			return c
		}
		return cmp.Compare(a.key.idx, b.key.idx)
	})
	f.order = f.order[:0]
	for _, r := range rows {
		f.order = append(f.order, r.key)
	}
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

// TestKeyedIsOrderFree: handing a set's rows to Begin, Add and Decide
// in a shuffled order, each with its key, decides as CoveredInto does
// on the set in key order — the rare MCS/RSPC path included — once the
// result is read back in positions of that set. Where rows of the set
// miss s, CoveredInto's conflict table holds them too, so the entry is
// held to every field against CoveredInto on the rows that meet s, and
// to the decision and the rows it names against the whole set.
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
			if err := requireRowsMatchSorted(sorted, keyed, &want, &got, in.s, in.set, keys, perm); err != nil {
				t.Fatalf("%s, instance %d (%s): %v", cfg.name, i, in.name, err)
			}
			if err := requireWholeSetAgrees(mustChecker(t, opts...), mustChecker(t, opts...), in.s, in.set, keys, perm); err != nil {
				t.Fatalf("%s, instance %d (%s), whole set: %v", cfg.name, i, in.name, err)
			}
		}
		if g, w := keyed.rng.Uint64(), sorted.rng.Uint64(); g != w {
			t.Fatalf("%s: next draw %#x, sorted %#x", cfg.name, g, w)
		}
	}
}

// requireRowsMatchSorted hands set[perm[0]], set[perm[1]], … to keyed
// through Begin, Add (with keys[perm[j]]) and Decide, and checks the
// result against sorted's CoveredInto on the rows of set that meet s,
// in ascending key order: every field equal once CoveringRow and
// ReducedSet are mapped from positions among the rows added to
// positions in that set, and Rows counting that set.
func requireRowsMatchSorted(sorted, keyed *Checker, want, got *Result, s subscription.Subscription, set []subscription.Subscription, keys []int64, perm []int) error {
	byKey := make([]int, 0, len(set))
	for i, row := range set {
		if row.Intersects(s) {
			byKey = append(byKey, i)
		}
	}
	slices.SortStableFunc(byKey, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	meeting := make([]subscription.Subscription, len(byKey))
	rank := make(map[int]int, len(byKey)) // set index → position in meeting
	for r, i := range byKey {
		meeting[r], rank[i] = set[i], r
	}
	if err := sorted.CoveredInto(want, s, meeting); err != nil {
		return err
	}
	if err := keyed.Begin(s); err != nil {
		return err
	}
	for _, i := range perm {
		keyed.Add(set[i].Bounds, keys[i])
	}
	if err := keyed.Decide(got); err != nil {
		return err
	}
	if n := keyed.Rows(); n != len(meeting) {
		return fmt.Errorf("Rows = %d, want the %d rows meeting s", n, len(meeting))
	}
	if got.CoveringRow >= 0 {
		got.CoveringRow = rank[perm[got.CoveringRow]]
	}
	for j, idx := range got.ReducedSet {
		got.ReducedSet[j] = rank[perm[idx]]
	}
	slices.Sort(got.ReducedSet)
	if fingerprint(*got) != fingerprint(*want) {
		return fmt.Errorf("\n got %+v\nwant %+v", *got, *want)
	}
	return nil
}

// requireWholeSetAgrees hands set's rows to keyed as
// requireRowsMatchSorted does and checks the result against whole's
// CoveredInto on all of set, which is in key order (keys ascend along
// it), from the same random state: every field equal when every row of
// set meets s; else the same decision and, for a cover, the same
// covering row and reduced set, in positions of set.
func requireWholeSetAgrees(whole, keyed *Checker, s subscription.Subscription, set []subscription.Subscription, keys []int64, perm []int) error {
	var want, got Result
	if err := whole.CoveredInto(&want, s, set); err != nil {
		return err
	}
	if err := keyed.Begin(s); err != nil {
		return err
	}
	for _, i := range perm {
		keyed.Add(set[i].Bounds, keys[i])
	}
	if err := keyed.Decide(&got); err != nil {
		return err
	}
	if got.CoveringRow >= 0 {
		got.CoveringRow = perm[got.CoveringRow]
	}
	for j, idx := range got.ReducedSet {
		got.ReducedSet[j] = perm[idx]
	}
	slices.Sort(got.ReducedSet)
	allMeet := !slices.ContainsFunc(set, func(row subscription.Subscription) bool { return !row.Intersects(s) })
	switch {
	case allMeet && fingerprint(got) != fingerprint(want),
		got.Decision != want.Decision,
		got.Decision.IsCovered() && (got.CoveringRow != want.CoveringRow || !slices.Equal(got.ReducedSet, want.ReducedSet)):
		return fmt.Errorf("\n got %+v\nwant %+v", got, want)
	}
	return nil
}

// FuzzRowsMatchSorted decodes an instance and hands its rows to Begin,
// Add and Decide in a decoded order with decoded distinct keys,
// requiring CoveredInto's result on the rows meeting s in key order
// (see requireRowsMatchSorted) and the same next random draw, under a
// decoded pipeline configuration.
//
// Byte 0 picks the attribute count m (1–4) and byte 1 the
// configuration. Then s takes one (lo, width) byte pair per attribute
// over [0, 40], and each following group of 2m+2 bytes is one row: m
// (lo, width) pairs over [0, 47], so rows past s occur, a key byte
// and a shuffle byte. A row whose first width byte is 0xf0 or more is
// s itself widened by its lo byte's low bits, so rows containing s
// occur too.
func FuzzRowsMatchSorted(f *testing.F) {
	f.Add([]byte{1, 0, 5, 20, 5, 20, 0, 30, 0, 30, 1, 7, 20, 10, 0, 40, 2, 3, 44, 3, 44, 3, 3, 1, 1, 0xf0, 1, 1, 9, 9})
	f.Add([]byte{3, 5, 1, 9, 2, 9, 3, 9, 4, 9, 0, 12, 0, 12, 0, 12, 0, 12, 0, 12, 4, 4, 3, 12, 3, 12, 3, 12, 3, 12, 8, 1})
	f.Add([]byte{0, 1, 10, 10, 0, 5, 9, 9, 16, 3, 0, 9, 40, 7, 2, 0xf1, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 1 + int(data[0]%4)
		cfg := frontEndConfigs[int(data[1])%len(frontEndConfigs)]
		data = data[2:]
		if len(data) < 2*m {
			return
		}
		box := func(b []byte, span int64) subscription.Subscription {
			bounds := make([]interval.Interval, m)
			for a := range bounds {
				lo := int64(b[2*a]) % span
				bounds[a] = interval.New(lo, lo+int64(b[2*a+1]%16))
			}
			return subscription.Subscription{Bounds: bounds}
		}
		s := box(data, 41)
		data = data[2*m:]
		var set []subscription.Subscription
		var keys []int64
		var shuffle []byte
		seen := map[int64]bool{}
		for ; len(data) >= 2*m+2 && len(set) < 24; data = data[2*m+2:] {
			row := box(data, 48)
			if data[1] >= 0xf0 {
				row = s.Clone()
				for a := range row.Bounds {
					row.Bounds[a] = interval.New(row.Bounds[a].Lo-int64(data[0]&3), row.Bounds[a].Hi+int64(data[0]>>2&3))
				}
			}
			key := int64(int8(data[2*m]))
			for seen[key] {
				key++
			}
			seen[key] = true
			set, keys, shuffle = append(set, row), append(keys, key), append(shuffle, data[2*m+1])
		}
		perm := make([]int, len(set))
		for i := range perm {
			perm[i] = i
		}
		slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(shuffle[a], shuffle[b]) })
		opts := append([]Option{WithSeed(411, 412), WithMaxTrials(200)}, cfg.opts...)
		sorted, keyed := mustChecker(t, opts...), mustChecker(t, opts...)
		var want, got Result
		if err := requireRowsMatchSorted(sorted, keyed, &want, &got, s, set, keys, perm); err != nil {
			t.Fatalf("%s: s %v, set %v, keys %v, order %v: %v", cfg.name, s, set, keys, perm, err)
		}
		if g, w := keyed.rng.Uint64(), sorted.rng.Uint64(); g != w {
			t.Fatalf("%s: next draw %#x, sorted %#x", cfg.name, g, w)
		}
	})
}

// TestSchemaMismatch: a set row with another attribute count is an
// error wrapping subscription.ErrSchemaMismatch wherever it sits —
// before or after a row containing s, through CoveredInto or Add —
// and a tested subscription without attributes is unsatisfiable.
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
		if err := c.Begin(s); err != nil {
			t.Fatal(err)
		}
		for _, row := range set {
			c.Add(row.Bounds, 0)
		}
		if err := c.Decide(&res); !errors.Is(err, subscription.ErrSchemaMismatch) {
			t.Errorf("Decide on %v: err = %v, want a schema mismatch", set, err)
		}
		if _, _, err := ExactCover(s, set); !errors.Is(err, subscription.ErrSchemaMismatch) {
			t.Errorf("ExactCover on %v: err = %v, want a schema mismatch", set, err)
		}
	}
	if err := c.CoveredInto(&res, subscription.New(), []subscription.Subscription{cover}); err == nil {
		t.Error("a subscription without attributes was checked")
	}
}

// FuzzFlatOrder requires sortRows to order rows exactly as a comparison
// sort on descending size, then ascending key, then index does.
//
// Each input byte pair is one row: the first byte picks its size (255
// is +Inf, any other spreads over exponents 0 to 1023 with eight
// mantissas, so equal sizes recur), the second a signed key. An odd
// first byte adds forty rows sharing one exponent, eight mantissas
// apart; a first byte with bit 1 set adds forty rows of one size, a
// bucket above the insertion-sort threshold however the sizes are cut.
func FuzzFlatOrder(f *testing.F) {
	f.Add([]byte{1, 8, 3, 8, 0xfe, 255, 0, 255, 1, 0x80, 0x10})
	f.Add([]byte{0, 0, 7, 0, 7, 0, 7, 255, 7, 1})
	// Many rows in one exponent that differ only in their top mantissa
	// bits.
	oneExp := []byte{}
	for j := range 48 {
		oneExp = append(oneExp, 0x40|byte(j%8), byte(j*37))
	}
	f.Add(oneExp)
	// Equal sizes with different keys.
	f.Add([]byte{0x20, 5, 0x21, 3, 0x20, 0xfb, 0x20, 0, 0x21, 0x80, 0x20, 0x7f, 0x21, 3, 0x20, 1})
	// Exponents from 0 to 1023 and +Inf: a span wide enough that the
	// exponents alone would need more buckets than the cap allows.
	wide := []byte{}
	for e := range 32 {
		wide = append(wide, byte(e<<3|e&7), byte(e))
	}
	f.Add(append(wide, 255, 9, 0, 1, 0xf8, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs flatSet
		add := func(size float64, key int64) {
			fs.cand = append(fs.cand, rowKey{size: math.Float64bits(size), tie: key, idx: int32(len(fs.cand)), row: int32(len(fs.cand))})
		}
		if len(data) > 0 && data[0]&1 == 1 {
			for j := 0; j < 40; j++ {
				add(math.Ldexp(1+float64(j%8)/8, 10), int64(j*7%13)-6)
			}
		}
		if len(data) > 0 && data[0]&2 == 2 {
			for j := 0; j < 40; j++ {
				add(math.Ldexp(1.5, 20), int64(j*5%11)-5)
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			size := math.Inf(1)
			if b := data[0]; b != 255 {
				size = math.Ldexp(1+float64(b&7)/8, int(b>>3)*33)
			}
			add(size, int64(int8(data[1])))
		}
		fs.minBits, fs.maxBits = math.MaxUint64, 0
		for _, r := range fs.cand {
			fs.minBits, fs.maxBits = min(fs.minBits, r.size), max(fs.maxBits, r.size)
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
		fs.sortRows(fs.cand)
		if !slices.Equal(fs.order, want) {
			t.Fatalf("bucket sort\n got %v\nwant %v", fs.order, want)
		}
	})
}
