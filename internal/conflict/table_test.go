package conflict

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// Fixtures from the paper, Section 3 and 4.2.

// paperCoverExample returns s, s1, s2 from Table 3: s ⊑ (s1 ∨ s2).
func paperCoverExample() (subscription.Subscription, []subscription.Subscription) {
	s := subscription.New(interval.New(830, 870), interval.New(1003, 1006))
	s1 := subscription.New(interval.New(820, 850), interval.New(1001, 1007))
	s2 := subscription.New(interval.New(840, 880), interval.New(1002, 1009))
	return s, []subscription.Subscription{s1, s2}
}

// paperNonCoverExample returns s, s1, s2 from Table 6: s ⋢ (s1 ∨ s2),
// with polyhedron witness [871,890] x [1003,1006].
func paperNonCoverExample() (subscription.Subscription, []subscription.Subscription) {
	s := subscription.New(interval.New(830, 890), interval.New(1003, 1006))
	s1 := subscription.New(interval.New(820, 850), interval.New(1002, 1009))
	s2 := subscription.New(interval.New(840, 870), interval.New(1001, 1007))
	return s, []subscription.Subscription{s1, s2}
}

// paperConflictFreeExample returns s, s1, s2, s3 from Table 7 (with the
// s3 bounds as intended by Figure 4/Table 8; see DESIGN.md).
func paperConflictFreeExample() (subscription.Subscription, []subscription.Subscription) {
	s := subscription.New(interval.New(830, 870), interval.New(1003, 1006))
	s1 := subscription.New(interval.New(820, 850), interval.New(1001, 1007))
	s2 := subscription.New(interval.New(840, 880), interval.New(1002, 1009))
	s3 := subscription.New(interval.New(810, 890), interval.New(1004, 1005))
	return s, []subscription.Subscription{s1, s2, s3}
}

func TestPaperTable5(t *testing.T) {
	// The conflict table for Table 3 must reproduce Table 5 exactly:
	// row s1 defines only {x1 > 850}, row s2 only {x1 < 840}.
	s, set := paperCoverExample()
	tbl, err := Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		row  int
		attr int
		side Side
	}
	defined := map[cell]bool{
		{0, 0, SideHigh}: true,
		{1, 0, SideLow}:  true,
	}
	for row := 0; row < 2; row++ {
		for attr := 0; attr < 2; attr++ {
			for _, side := range []Side{SideLow, SideHigh} {
				want := defined[cell{row, attr, side}]
				if got := tbl.Defined(row, attr, side); got != want {
					t.Errorf("Defined(s%d, x%d, %v) = %v, want %v", row+1, attr+1, side, got, want)
				}
			}
		}
	}
	if tbl.RowCount(0) != 1 || tbl.RowCount(1) != 1 {
		t.Errorf("row counts = %d, %d, want 1, 1", tbl.RowCount(0), tbl.RowCount(1))
	}
	if got := tbl.Bound(EntryRef{Row: 0, Attr: 0, Side: SideHigh}); got != 850 {
		t.Errorf("bound = %d, want 850", got)
	}
	if got := tbl.Region(EntryRef{Row: 0, Attr: 0, Side: SideHigh}); !got.Equal(interval.New(851, 870)) {
		t.Errorf("region = %v, want [851,870]", got)
	}
	// s is covered, so the sorted-row condition must fail (t = [1,1]
	// cannot dominate [1,2]).
	if tbl.SortedRowCondition(nil) {
		t.Error("sorted-row condition should not hold for a covered subscription")
	}
	if _, ok := tbl.GreedyWitness(nil); ok {
		t.Error("greedy witness must not be constructible when s is covered")
	}
}

func TestPaperTable6Witness(t *testing.T) {
	s, set := paperNonCoverExample()
	tbl, err := Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount(0) != 1 || tbl.RowCount(1) != 2 {
		t.Fatalf("row counts = %d, %d, want 1, 2", tbl.RowCount(0), tbl.RowCount(1))
	}
	if !tbl.SortedRowCondition(nil) {
		t.Fatal("sorted-row condition should hold (t sorted = [1,2])")
	}
	witness, ok := tbl.GreedyWitness(nil)
	if !ok {
		t.Fatal("greedy witness construction failed")
	}
	if !witness.IsSatisfiable() {
		t.Fatal("witness must be non-empty")
	}
	if !s.Covers(witness) {
		t.Errorf("witness %v must be inside s %v", witness, s)
	}
	for i, si := range set {
		if witness.Intersects(si) {
			t.Errorf("witness %v intersects s%d %v", witness, i+1, si)
		}
	}
	// The paper's witness is exactly [871,890] x [1003,1006].
	want := subscription.New(interval.New(871, 890), interval.New(1003, 1006))
	if !witness.Equal(want) {
		t.Errorf("witness = %v, want %v", witness, want)
	}
}

func TestPaperTable8ConflictFree(t *testing.T) {
	s, set := paperConflictFreeExample()
	tbl, err := Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	// Table 8 layout: s1 defines {x1>850}, s2 defines {x1<840},
	// s3 defines {x2<1004} and {x2>1005}.
	if tbl.RowCount(0) != 1 || tbl.RowCount(1) != 1 || tbl.RowCount(2) != 2 {
		t.Fatalf("row counts = %d,%d,%d want 1,1,2",
			tbl.RowCount(0), tbl.RowCount(1), tbl.RowCount(2))
	}
	if !tbl.Defined(2, 1, SideLow) || !tbl.Defined(2, 1, SideHigh) {
		t.Fatal("s3 must define both x2 entries")
	}

	an := NewAnalysis(tbl, nil)
	// s3's entries are conflict-free; s1/s2's x1 entries conflict with
	// each other ({x1>850} vs {x1<840} share no point of s).
	if got := an.RowConflictFreeCount(2); got != 2 {
		t.Errorf("fc(s3) = %d, want 2", got)
	}
	if got := an.RowConflictFreeCount(0); got != 0 {
		t.Errorf("fc(s1) = %d, want 0", got)
	}
	if got := an.RowConflictFreeCount(1); got != 0 {
		t.Errorf("fc(s2) = %d, want 0", got)
	}
	e1 := EntryRef{Row: 0, Attr: 0, Side: SideHigh}
	e2 := EntryRef{Row: 1, Attr: 0, Side: SideLow}
	if !tbl.Conflicting(e1, e2) || !tbl.Conflicting(e2, e1) {
		t.Error("s1/s2 x1 entries must conflict symmetrically")
	}
}

func TestCorollary1PairwiseCover(t *testing.T) {
	s := subscription.New(interval.New(10, 20), interval.New(10, 20))
	big := subscription.New(interval.New(0, 100), interval.New(0, 100))
	partial := subscription.New(interval.New(15, 100), interval.New(0, 100))
	tbl, err := Build(s, []subscription.Subscription{partial, big})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.PairwiseCoverRow(); got != 1 {
		t.Errorf("PairwiseCoverRow = %d, want 1", got)
	}
	tbl2, err := Build(s, []subscription.Subscription{partial})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl2.PairwiseCoverRow(); got != -1 {
		t.Errorf("PairwiseCoverRow = %d, want -1", got)
	}
}

func TestCorollary2RowCoveredByS(t *testing.T) {
	s := subscription.New(interval.New(0, 100), interval.New(0, 100))
	inner := subscription.New(interval.New(10, 20), interval.New(10, 20))
	touching := subscription.New(interval.New(0, 20), interval.New(10, 20))
	tbl, err := Build(s, []subscription.Subscription{inner, touching})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.RowCoveredByS(0) {
		t.Error("strictly interior subscription must have all entries defined")
	}
	if tbl.RowCoveredByS(1) {
		t.Error("touching subscription must have an undefined entry")
	}
}

func TestBuildErrors(t *testing.T) {
	s := subscription.New(interval.New(0, 10))
	bad := subscription.New(interval.New(0, 10), interval.New(0, 10))
	if _, err := Build(s, []subscription.Subscription{bad}); err == nil {
		t.Error("expected arity mismatch error")
	}
	if _, err := Build(subscription.Subscription{}, nil); err == nil {
		t.Error("expected error for zero-attribute subscription")
	}
}

func TestStringRendering(t *testing.T) {
	s, set := paperCoverExample()
	tbl, err := Build(s, set)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"x1>850", "x1<840", "undef"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// genInstance builds a random subsumption instance over small domains.
func genInstance(r *rand.Rand, m, k int, domain int64) (subscription.Subscription, []subscription.Subscription) {
	box := func() subscription.Subscription {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := r.Int64N(domain)
			bounds[a] = interval.New(lo, lo+r.Int64N(domain-lo))
		}
		return subscription.Subscription{Bounds: bounds}
	}
	s := box()
	set := make([]subscription.Subscription, k)
	for i := range set {
		set[i] = box()
	}
	return s, set
}

func TestDefinedMatchesSatisfiabilityDefinition(t *testing.T) {
	// Definition 2: entry defined iff s ∧ ¬predicate is satisfiable,
	// which equals the entry's region being non-empty.
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(4), 1+r.IntN(6), 30)
		tbl, err := Build(s, set)
		if err != nil {
			return false
		}
		for i := range set {
			for a := 0; a < tbl.M(); a++ {
				for _, side := range []Side{SideLow, SideHigh} {
					e := EntryRef{Row: i, Attr: a, Side: side}
					region := tbl.Region(e)
					if tbl.Defined(i, a, side) != !region.IsEmpty() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConflictingMatchesDefinition(t *testing.T) {
	// Definition 5: entries conflict iff s ∧ e1 ∧ e2 is unsatisfiable.
	// Verify against direct box construction.
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(3), 2+r.IntN(4), 25)
		tbl, err := Build(s, set)
		if err != nil {
			return false
		}
		var entries []EntryRef
		for i := range set {
			entries = append(entries, tbl.DefinedEntries(i)...)
		}
		for _, e1 := range entries {
			for _, e2 := range entries {
				if e1.Row == e2.Row {
					continue
				}
				// Build s ∧ e1 ∧ e2 directly.
				box := s.Clone()
				for _, e := range []EntryRef{e1, e2} {
					if e.Side == SideLow {
						box.Bounds[e.Attr] = box.Bounds[e.Attr].Below(tbl.Bound(e))
					} else {
						box.Bounds[e.Attr] = box.Bounds[e.Attr].Above(tbl.Bound(e))
					}
				}
				if tbl.Conflicting(e1, e2) == box.IsSatisfiable() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAnalysisMatchesNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(4), 2+r.IntN(8), 40)
		tbl, err := Build(s, set)
		if err != nil {
			return false
		}
		// Random alive mask, biased towards alive.
		alive := make([]bool, len(set))
		for i := range alive {
			alive[i] = r.IntN(4) != 0
		}
		an := NewAnalysis(tbl, alive)
		for i := range set {
			if !alive[i] {
				continue
			}
			fast := an.RowConflictFreeCount(i)
			slow := tbl.RowConflictFreeCountNaive(i, alive)
			if fast != slow {
				t.Logf("row %d: fast=%d naive=%d", i, fast, slow)
				return false
			}
			if an.RowHasConflictFree(i) != (slow >= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGreedyWitnessSoundness(t *testing.T) {
	// Whenever GreedyWitness returns ok, the box must be a genuine
	// polyhedron witness: inside s, disjoint from every set member.
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(4), 1+r.IntN(8), 30)
		tbl, err := Build(s, set)
		if err != nil {
			return false
		}
		witness, ok := tbl.GreedyWitness(nil)
		if !ok {
			return true
		}
		if !witness.IsSatisfiable() || !s.Covers(witness) {
			return false
		}
		for _, si := range set {
			if witness.Intersects(si) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSortedRowConditionHistogram pins the histogram test of Corollary
// 3 to the paper's statement — sort the counts, require the j-th
// smallest to be at least j — on random count vectors, with k on both
// sides of 2m and alive masks.
func TestSortedRowConditionHistogram(t *testing.T) {
	bySort := func(counts []int) bool {
		sorted := slices.Sorted(slices.Values(counts))
		for j, n := range sorted {
			if n < j+1 {
				return false
			}
		}
		return true
	}
	r := rand.New(rand.NewPCG(81, 82))
	var sc Scratch
	held := 0
	for i := 0; i < 20000; i++ {
		m := 1 + r.IntN(5)
		k := []int{2 * m, 2*m + 1, 1 + r.IntN(3*m)}[i%3]
		tbl := &Table{m: m, ti: make([]int, k)}
		for j := range tbl.ti {
			// Skew toward high counts so the condition holds often.
			tbl.ti[j] = 2*m - r.IntN(1+r.IntN(2*m+1))
		}
		var alive []bool
		live := tbl.ti
		if i%4 == 3 {
			alive = make([]bool, k)
			live = nil
			for j := range alive {
				if alive[j] = r.IntN(3) > 0; alive[j] {
					live = append(live, tbl.ti[j])
				}
			}
		}
		want := bySort(live)
		if got := tbl.SortedRowConditionScratch(alive, &sc); got != want {
			t.Fatalf("m=%d counts %v alive %v: histogram says %v, sort says %v", m, tbl.ti, alive, got, want)
		}
		if want {
			held++
		}
	}
	if held < 1000 {
		t.Fatalf("the condition held only %d times: the vectors lost their teeth", held)
	}
}

func TestSortedRowConditionImpliesWitness(t *testing.T) {
	// Corollary 3: when the sorted-row condition holds, the greedy
	// construction must succeed.
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		s, set := genInstance(r, 1+r.IntN(4), 1+r.IntN(8), 30)
		tbl, err := Build(s, set)
		if err != nil {
			return false
		}
		if !tbl.SortedRowCondition(nil) {
			return true
		}
		_, ok := tbl.GreedyWitness(nil)
		return ok
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
