// Package conflict implements the conflict table of the paper
// (Definition 2) together with the structural results built on it:
// pairwise cover detection (Corollary 1), reverse cover (Corollary 2),
// the sorted-row polyhedron-witness condition (Corollary 3), and
// conflicting / conflict-free entries (Definition 5, Proposition 3).
//
// A conflict table T relates a tested subscription s to the set
// S = {s1 … sk}: the entry for row i, attribute a, side Low is the
// negated predicate {x_a < lo_i^a}; it is defined iff s ∧ {x_a < lo_i^a}
// is satisfiable, i.e. iff part of s sticks out below si on attribute a.
// Defined entries are exactly the directions in which si fails to cover
// s.
package conflict

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// Side distinguishes the two simple predicates each attribute
// contributes to a subscription: the lower bound x >= lo and the upper
// bound x <= hi. A conflict-table entry negates one of them.
type Side int

// The two predicate sides. SideLow denotes the negated lower bound
// {x < lo}; SideHigh the negated upper bound {x > hi}.
const (
	SideLow  Side = 0
	SideHigh Side = 1
)

// String returns "low" or "high".
func (sd Side) String() string {
	if sd == SideLow {
		return "low"
	}
	return "high"
}

// EntryRef identifies one cell of the conflict table.
type EntryRef struct {
	Row  int
	Attr int
	Side Side
}

// Table is the k x 2m conflict table relating subscription S0 to the
// subscription set Subs. It stores which entries are defined; entry
// bound values are read from the subscriptions themselves.
type Table struct {
	s    subscription.Subscription
	subs []subscription.Subscription
	m    int

	defined []bool // row-major, index row*(2m) + 2*attr + side
	ti      []int  // number of defined entries per row
}

// Build constructs the conflict table for subscription s against the
// set subs in O(m*k). All subscriptions must share s's attribute count;
// violating rows yield an error.
func Build(s subscription.Subscription, subs []subscription.Subscription) (*Table, error) {
	t := new(Table)
	if err := t.Reset(s, subs); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset rebuilds the table in place for s against subs, reusing the
// backing storage of any previous build. It is the allocation-free
// core of Build: a caller that owns a Table and calls Reset per query
// performs zero steady-state allocations once the buffers have grown
// to the workload's high-water mark.
func (t *Table) Reset(s subscription.Subscription, subs []subscription.Subscription) error {
	m := s.Len()
	if m == 0 {
		return fmt.Errorf("conflict: tested subscription has no attributes")
	}
	t.s = s
	t.subs = subs
	t.m = m
	n := len(subs) * 2 * m
	if cap(t.defined) < n {
		t.defined = make([]bool, n)
	} else {
		t.defined = t.defined[:n]
	}
	if cap(t.ti) < len(subs) {
		t.ti = make([]int, len(subs))
	} else {
		t.ti = t.ti[:len(subs)]
	}
	sBounds := s.Bounds
	for i, si := range subs {
		if si.Len() != m {
			return fmt.Errorf("conflict: subscription %d has %d attributes, want %d: %w",
				i, si.Len(), m, subscription.ErrSchemaMismatch)
		}
		// Every cell of the row is written, so reused storage needs no
		// clearing; comparisons are stored rather than branched on —
		// whether an entry is defined is data the predictor cannot
		// learn.
		row := t.defined[i*2*m : (i+1)*2*m]
		count := 0
		for a, b := range si.Bounds {
			sb := sBounds[a]
			// {x_a < lo_i} intersects s iff s reaches below lo_i;
			// {x_a > hi_i} intersects s iff s reaches above hi_i.
			low, high := b.Lo > sb.Lo, b.Hi < sb.Hi
			row[2*a], row[2*a+1] = low, high
			if low {
				count++
			}
			if high {
				count++
			}
		}
		t.ti[i] = count
	}
	return nil
}

// K returns the number of rows (subscriptions in the set).
func (t *Table) K() int { return len(t.subs) }

// M returns the number of attributes.
func (t *Table) M() int { return t.m }

// Subscription returns the tested subscription s.
func (t *Table) Subscription() subscription.Subscription { return t.s }

// Set returns the subscription set S the table was built against.
// Callers must not mutate the returned slice.
func (t *Table) Set() []subscription.Subscription { return t.subs }

// Defined reports whether the entry for (row, attr, side) is defined.
func (t *Table) Defined(row, attr int, side Side) bool {
	return t.defined[row*2*t.m+2*attr+int(side)]
}

// DefinedRef reports whether the referenced entry is defined.
func (t *Table) DefinedRef(e EntryRef) bool {
	return t.Defined(e.Row, e.Attr, e.Side)
}

// RowCount returns t_i, the number of defined entries in row i.
func (t *Table) RowCount(i int) int { return t.ti[i] }

// Bound returns the bound value of the referenced entry: lo_i^a for the
// low side, hi_i^a for the high side.
func (t *Table) Bound(e EntryRef) int64 {
	b := t.subs[e.Row].Bounds[e.Attr]
	if e.Side == SideLow {
		return b.Lo
	}
	return b.Hi
}

// Region returns the slice of s, along entry e's attribute, that the
// negated predicate selects: s.Bounds[a] ∩ {x < lo} or ∩ {x > hi}.
// For a defined entry the region is non-empty.
func (t *Table) Region(e EntryRef) interval.Interval {
	sb := t.s.Bounds[e.Attr]
	if e.Side == SideLow {
		return sb.Below(t.Bound(e))
	}
	return sb.Above(t.Bound(e))
}

// GapWidth returns the number of integer points of s selected by entry
// e along its attribute — the one-sided uncovered gap used by the
// paper's Algorithm 2 to approximate the smallest polyhedron witness.
func (t *Table) GapWidth(e EntryRef) int64 {
	return t.Region(e).Count()
}

// PairwiseCoverRow implements Corollary 1: if every entry of row i is
// undefined, s is covered by s_i alone. It returns the first such row,
// or -1 when no single subscription covers s.
func (t *Table) PairwiseCoverRow() int {
	for i, n := range t.ti {
		if n == 0 {
			return i
		}
	}
	return -1
}

// RowCoveredByS implements Corollary 2: if every entry of row i is
// defined, s strictly sticks out beyond s_i in every direction, hence s
// covers s_i.
func (t *Table) RowCoveredByS(i int) bool {
	return t.ti[i] == 2*t.m
}

// Conflicting implements Definition 5: two defined entries of different
// rows conflict iff s ∧ e1 ∧ e2 is unsatisfiable. Entries on different
// attributes never conflict (the box product of non-empty slices is
// non-empty); same-side entries never conflict; opposite sides conflict
// iff the two regions of s do not overlap.
func (t *Table) Conflicting(e1, e2 EntryRef) bool {
	if e1.Row == e2.Row {
		return false
	}
	if e1.Attr != e2.Attr || e1.Side == e2.Side {
		return false
	}
	return !t.Region(e1).Intersects(t.Region(e2))
}

// DefinedEntries returns the defined entries of row i in attribute
// order (low before high).
func (t *Table) DefinedEntries(i int) []EntryRef {
	out := make([]EntryRef, 0, t.ti[i])
	for a := 0; a < t.m; a++ {
		if t.Defined(i, a, SideLow) {
			out = append(out, EntryRef{Row: i, Attr: a, Side: SideLow})
		}
		if t.Defined(i, a, SideHigh) {
			out = append(out, EntryRef{Row: i, Attr: a, Side: SideHigh})
		}
	}
	return out
}

// Scratch holds the reusable buffers of the allocation-free table
// algorithm variants (SortedRowConditionScratch, GreedyWitnessScratch)
// and of the MCS reduction's analysis passes. The zero value is ready
// to use; buffers grow to the workload's high-water mark and are
// reused afterwards. A Scratch must not be shared across goroutines.
type Scratch struct {
	counts     []int
	rows       []int
	eliminated []uint64 // bitset indexed like Table.defined
	box        []interval.Interval

	// An is the reusable extrema analysis for MCS passes.
	An Analysis
}

// SortedRowCondition implements the test of Corollary 3 over the rows
// selected by alive (nil means all rows): sort the defined-entry counts
// ascending; if the j-th smallest count is >= j (1-based) for all j, a
// polyhedron witness exists and s is not covered. The function only
// evaluates the condition; use GreedyWitness to materialize and verify
// the witness.
func (t *Table) SortedRowCondition(alive []bool) bool {
	return t.SortedRowConditionScratch(alive, new(Scratch))
}

// SortedRowConditionScratch is SortedRowCondition writing its working
// set into sc instead of allocating. It runs in O(k+m) without
// sorting: the j-th smallest count falls below j for some j iff some
// value c has more than c counts at or below it, so a histogram of the
// counts over [0, 2m] decides it. With k > 2m rows it is false at
// once, since the k-th smallest count is at most 2m < k.
func (t *Table) SortedRowConditionScratch(alive []bool, sc *Scratch) bool {
	k := len(t.ti)
	if alive != nil {
		k = 0
		for _, ok := range alive[:len(t.ti)] {
			if ok {
				k++
			}
		}
	}
	if k == 0 {
		return true // vacuously: an empty set cannot cover a non-empty s
	}
	if k > 2*t.m {
		return false
	}
	hist := slices.Grow(sc.counts[:0], 2*t.m+1)[:2*t.m+1]
	clear(hist)
	sc.counts = hist
	for i, n := range t.ti {
		if alive == nil || alive[i] {
			hist[n]++
		}
	}
	atOrBelow := 0
	for c, n := range hist {
		if atOrBelow += n; atOrBelow > c {
			return false
		}
	}
	return true
}

// GreedyWitness attempts to construct a polyhedron witness to non-cover
// (Definition 3) by the elimination argument of Corollary 3: process
// rows in ascending order of defined entries, pick any non-eliminated
// entry, and eliminate the (at most one per row) conflicting entry from
// the remaining rows. The returned box is verified non-empty; ok is
// false when construction fails, which can only happen if the sorted
// row condition does not hold.
func (t *Table) GreedyWitness(alive []bool) (subscription.Subscription, bool) {
	return t.GreedyWitnessScratch(alive, new(Scratch))
}

// GreedyWitnessScratch is GreedyWitness with all intermediate state
// (row ordering, the elimination set as a bitset, the working box) in
// sc. Only a successful construction allocates: the verified witness
// box is cloned out of the scratch so it stays valid across reuse.
func (t *Table) GreedyWitnessScratch(alive []bool, sc *Scratch) (subscription.Subscription, bool) {
	rows := sc.rows[:0]
	for i := range t.ti {
		if alive == nil || alive[i] {
			rows = append(rows, i)
		}
	}
	sc.rows = rows
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(t.ti[a], t.ti[b]) })

	// Elimination bitset, one bit per table entry.
	words := (len(t.defined) + 63) / 64
	if cap(sc.eliminated) < words {
		sc.eliminated = make([]uint64, words)
	} else {
		sc.eliminated = sc.eliminated[:words]
		clear(sc.eliminated)
	}
	elim := sc.eliminated
	bit := func(e EntryRef) int { return e.Row*2*t.m + 2*e.Attr + int(e.Side) }

	// Witness box accumulates s ∧ chosen negated predicates.
	if cap(sc.box) < t.m {
		sc.box = make([]interval.Interval, t.m)
	} else {
		sc.box = sc.box[:t.m]
	}
	box := sc.box
	copy(box, t.s.Bounds)

	for _, r := range rows {
		chosen := EntryRef{Row: -1}
	pick:
		for a := 0; a < t.m; a++ {
			for side := SideLow; side <= SideHigh; side++ {
				if !t.Defined(r, a, side) {
					continue
				}
				e := EntryRef{Row: r, Attr: a, Side: side}
				if i := bit(e); elim[i/64]&(1<<(i%64)) != 0 {
					continue
				}
				// The entry must still intersect the current box slice;
				// elimination bookkeeping guarantees this, but verify to
				// keep the path sound regardless of input.
				if !t.Region(e).Intersects(box[a]) {
					continue
				}
				chosen = e
				break pick
			}
		}
		if chosen.Row == -1 {
			return subscription.Subscription{}, false
		}
		// Narrow the box by the chosen negated predicate.
		if chosen.Side == SideLow {
			box[chosen.Attr] = box[chosen.Attr].Below(t.Bound(chosen))
		} else {
			box[chosen.Attr] = box[chosen.Attr].Above(t.Bound(chosen))
		}
		// Eliminate conflicting entries from all other rows: only the
		// opposite side of the same attribute can conflict.
		opp := SideHigh
		if chosen.Side == SideHigh {
			opp = SideLow
		}
		for _, r2 := range rows {
			if r2 == r {
				continue
			}
			e2 := EntryRef{Row: r2, Attr: chosen.Attr, Side: opp}
			if t.DefinedRef(e2) && t.Conflicting(chosen, e2) {
				i := bit(e2)
				elim[i/64] |= 1 << (i % 64)
			}
		}
	}
	for _, b := range box {
		if b.IsEmpty() {
			return subscription.Subscription{}, false
		}
	}
	return subscription.New(box...), true
}

// String renders the table in the layout of the paper's Table 5: one
// row per subscription, one column pair per attribute, "undef" for
// undefined entries and the negated predicate otherwise.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "s = %s\n", t.s)
	for i := range t.subs {
		fmt.Fprintf(&sb, "s%-3d", i+1)
		for a := 0; a < t.m; a++ {
			if t.Defined(i, a, SideLow) {
				fmt.Fprintf(&sb, " | x%d<%d", a+1, t.subs[i].Bounds[a].Lo)
			} else {
				fmt.Fprintf(&sb, " | undef")
			}
			if t.Defined(i, a, SideHigh) {
				fmt.Fprintf(&sb, " | x%d>%d", a+1, t.subs[i].Bounds[a].Hi)
			} else {
				fmt.Fprintf(&sb, " | undef")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
