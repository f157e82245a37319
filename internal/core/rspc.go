package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// RSPCOutcome is the raw result of a Random-Simple-Predicates-Cover
// run (Algorithm 1).
type RSPCOutcome struct {
	// Witness is the point witness to non-cover, nil when none was
	// found within the trial budget.
	Witness []int64
	// Trials is the number of guesses performed: the index of the
	// successful guess, or the full budget when no witness was found.
	Trials int
}

// Found reports whether a point witness was discovered.
func (o RSPCOutcome) Found() bool { return o.Witness != nil }

// RSPC runs Algorithm 1: it guesses up to trials uniform random points
// inside s and returns the first that lies outside every alive
// subscription (a point witness to non-cover, Definition 4). A found
// witness makes the non-cover answer exact; exhausting the budget
// supports a probabilistic YES with error at most (1-ρw)^trials.
//
// Guessing a point costs O(m) and testing it O(m·k'), so a full run is
// O(d·m·k') with k' the alive count — the paper's headline complexity.
func RSPC(s subscription.Subscription, set []subscription.Subscription, alive []bool, trials int, rng *rand.Rand) RSPCOutcome {
	m := s.Len()
	point := make([]int64, m)
	for trial := 1; trial <= trials; trial++ {
		for a, b := range s.Bounds {
			point[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
		}
		if !pointInAnyAlive(point, set, alive) {
			witness := make([]int64, m)
			copy(witness, point)
			return RSPCOutcome{Witness: witness, Trials: trial}
		}
	}
	return RSPCOutcome{Trials: trials}
}

// pointInAnyAlive reports whether the point lies inside at least one
// alive subscription (nil alive means all).
func pointInAnyAlive(p []int64, set []subscription.Subscription, alive []bool) bool {
	for i := range set {
		if alive != nil && !alive[i] {
			continue
		}
		if set[i].ContainsPoint(p) {
			return true
		}
	}
	return false
}

// flatSet lays the candidate rows out for the residual stage and RSPC.
// Rows arrive one at a time (add). A row disjoint from s is dropped on
// arrival: it can never contain a point of s, so no membership answer
// changes. A kept row's bounds are written once, in arrival order,
// into one flat array of intervals, and every later stage reads them
// there: the layout, the conflict table's views (keyViews) and the
// RSPC inner loop, which walks linear memory instead of chasing one
// bounds slice per subscription. The layout orders the kept rows by
// descending |row ∩ s|, so the rows most likely to contain a uniform
// random point of s are tested first and the expected early exit comes
// sooner — and so the residual stage, which subtracts the rows from s
// in this order, lets the rows that swallow the most cut first. Equal
// sizes go in ascending key, then in arrival order.
//
// Neither transform changes whether a point is a witness; only the
// constant factor of the search drops.
//
// The layout is built in steps, so a decision that needs less pays
// less: add makes the one pass over each row (and answers Corollary 1
// on the way), sortRows orders the kept rows, and keepAlive drops the
// rows MCS removed.
type flatSet struct {
	m int
	s subscription.Subscription // the tested subscription

	// sLo and sWidth cache s's per-attribute lower bounds and point
	// counts, so drawing a uniform point is a multiply-shift per
	// attribute with no interval arithmetic.
	sLo    []int64
	sWidth []uint64

	// bounds holds the kept rows' boxes, m intervals a row, in arrival
	// order.
	bounds []interval.Interval
	// cand lists the kept rows in arrival order (cand[r].row is r);
	// order lists them in layout order once sortRows has run; byKey in
	// key order, the conflict table's rows, once keyViews has run, and
	// views are those rows' boxes.
	cand, order, byKey []rowKey
	views              []subscription.Subscription

	n        int   // rows added, kept or not
	cover    int   // position of the lowest-key row containing s, or -1
	coverKey int64 // its key
	err      error // the first row's error, reported by Decide

	// minBits and maxBits bound cand's sizes; buckets is sortRows's
	// histogram between them.
	minBits, maxBits uint64
	buckets          []int32
}

// rowKey is a kept row's ordering key and where it lives.
type rowKey struct {
	// size is math.Float64bits of the float64 product of the row's
	// intersection widths with s. The product is at least 1 or +Inf
	// (overflow for huge boxes merely collapses ties), so the bit
	// patterns order exactly like the sizes.
	size uint64
	tie  int64 // the caller's key
	idx  int32 // position among the rows added
	row  int32 // place in bounds
}

// compareRows orders rows by descending size, then ascending key, then
// ascending position: a total order, so every sort agrees.
func compareRows(a, b rowKey) int {
	if a.size != b.size {
		if a.size > b.size {
			return -1
		}
		return 1
	}
	return compareKeys(a, b)
}

// compareKeys orders rows by ascending key, then position: the order
// the conflict table sees them in.
func compareKeys(a, b rowKey) int {
	if c := cmp.Compare(a.tie, b.tie); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// begin empties the layout for a check of s.
func (f *flatSet) begin(s subscription.Subscription) {
	m := s.Len()
	f.m, f.s = m, s
	f.sLo = slices.Grow(f.sLo[:0], m)[:m]
	f.sWidth = slices.Grow(f.sWidth[:0], m)[:m]
	for a, b := range s.Bounds {
		f.sLo[a] = b.Lo
		f.sWidth[a] = uint64(b.Hi-b.Lo) + 1
	}
	f.bounds, f.cand, f.order, f.byKey = f.bounds[:0], f.cand[:0], f.order[:0], f.byKey[:0]
	f.n, f.cover, f.coverKey, f.err = 0, -1, 0, nil
	f.minBits, f.maxBits = math.MaxUint64, 0
}

// add takes the next row: it checks the attribute count, drops the row
// when it is disjoint from s, tests whether it contains s (Corollary 1)
// and sizes it, then writes its bounds.
func (f *flatSet) add(bounds []interval.Interval, key int64) {
	pos := f.n
	f.n++
	m := f.m
	if len(bounds) != m {
		if f.err == nil {
			f.err = arityError(pos, len(bounds), m)
		}
		return
	}
	sb := f.s.Bounds[:m]
	// The bounds go into the room past the kept rows as they are read;
	// only a kept row extends bounds over them. off stays 0 while the
	// row contains s: it ORs, with no branch, where the intersection's
	// ends differ from s's.
	n := len(f.bounds)
	f.bounds = slices.Grow(f.bounds, m)
	dst := f.bounds[n : n+m]
	size, off := 1.0, int64(0)
	for a, b := range bounds {
		lo, hi := max(b.Lo, sb[a].Lo), min(b.Hi, sb[a].Hi)
		if lo > hi {
			return // disjoint
		}
		dst[a] = b
		off |= (lo ^ sb[a].Lo) | (hi ^ sb[a].Hi)
		size *= float64(uint64(hi-lo)) + 1
	}
	if off == 0 && (f.cover < 0 || key < f.coverKey) {
		f.cover, f.coverKey = pos, key
	}
	bits := math.Float64bits(size)
	f.minBits, f.maxBits = min(f.minBits, bits), max(f.maxBits, bits)
	f.cand = append(f.cand, rowKey{size: bits, tie: key, idx: int32(pos), row: int32(len(f.cand))})
	f.bounds = f.bounds[:n+m]
}

// arityError reports set row i with n attributes against s's m.
func arityError(i, n, m int) error {
	return fmt.Errorf("core: subscription %d has %d attributes, want %d: %w",
		i, n, m, subscription.ErrSchemaMismatch)
}

// box returns the bounds of layout row r.
func (f *flatSet) box(r int) []interval.Interval {
	i := int(f.order[r].row) * f.m
	return f.bounds[i : i+f.m : i+f.m]
}

// keyViews returns the kept rows in key order as subscriptions whose
// bounds are views of the flat copy, for the conflict table; byKey
// lists the same rows.
func (f *flatSet) keyViews() []subscription.Subscription {
	f.byKey = append(f.byKey[:0], f.cand...)
	slices.SortFunc(f.byKey, compareKeys)
	views := f.views[:0]
	for _, k := range f.byKey {
		i := int(k.row) * f.m
		views = append(views, subscription.Subscription{Bounds: f.bounds[i : i+f.m : i+f.m]})
	}
	f.views = views
	return views
}

// position returns the position among the rows added of the conflict
// table's row t: t itself when the table holds every row added
// (keyed false), else the place of t's row in byKey.
func (f *flatSet) position(t int, keyed bool) int {
	if keyed {
		return int(f.byKey[t].idx)
	}
	return t
}

// keepAlive drops from the layout the rows whose conflict-table rows
// MCS removed (see position for keyed), keeping the layout order.
func (f *flatSet) keepAlive(alive []bool, keyed bool) {
	if !keyed {
		f.order = slices.DeleteFunc(f.order, func(k rowKey) bool { return !alive[k.idx] })
		return
	}
	// The survivors in key order, then sorted again: compareRows is a
	// total order, so this is the layout filtered.
	kept := f.byKey[:0]
	for t, k := range f.byKey {
		if alive[t] {
			kept = append(kept, k)
		}
	}
	f.sortRows(kept)
}

// bucketSortMax is the largest bucket sortRows insertion-sorts; a
// larger one (identical subscriptions put many rows in one bucket)
// goes to slices.SortFunc so the sort is never quadratic.
const bucketSortMax = 32

// sortRows orders rows into order by compareRows without a comparison
// sort on the common path. One counting pass buckets the rows by the
// top bits of their size, largest first: the float exponent and as
// many leading mantissa bits as keep the buckets between minBits and
// maxBits at most k+9 for k rows, or, when the exponents alone span
// more, the exponent with its low bits dropped. The pass is
// stable, and each bucket, a row or two on a dense set, is then
// insertion-sorted. rows may alias byKey but not order.
func (f *flatSet) sortRows(rows []rowKey) {
	order := slices.Grow(f.order[:0], len(rows))[:len(rows)]
	f.order = order
	if len(rows) == 0 {
		return
	}
	// Every size lies in [minBits, maxBits], so with shift chosen so
	// that (maxBits-minBits)>>shift < k+8 the buckets number at most
	// k+9.
	shift := uint(bits.Len64((f.maxBits - f.minBits) / uint64(len(rows)+8)))
	top := f.maxBits >> shift
	n := int(top-f.minBits>>shift) + 1
	// buckets[b+1] counts bucket b, then the prefix sum turns buckets[b]
	// into bucket b's start, and the scatter advances it to its end.
	buckets := slices.Grow(f.buckets[:0], n+1)[:n+1]
	clear(buckets)
	f.buckets = buckets
	for _, r := range rows {
		buckets[top-r.size>>shift+1]++
	}
	for b := 1; b <= n; b++ {
		buckets[b] += buckets[b-1]
	}
	for _, r := range rows {
		b := top - r.size>>shift
		order[buckets[b]] = r
		buckets[b]++
	}
	start := 0
	for _, end := range buckets[:n] {
		if int(end)-start > 1 {
			sortBucket(order[start:end])
		}
		start = int(end)
	}
}

// sortBucket sorts one bucket by compareRows.
func sortBucket(rows []rowKey) {
	if len(rows) > bucketSortMax {
		slices.SortFunc(rows, compareRows)
		return
	}
	for i := 1; i < len(rows); i++ {
		r, j := rows[i], i
		for ; j > 0 && compareRows(r, rows[j-1]) < 0; j-- {
			rows[j] = rows[j-1]
		}
		rows[j] = r
	}
}

// contains reports whether p lies inside at least one layout row.
func (f *flatSet) contains(p []int64) bool {
	m := f.m
	if len(p) < m {
		return false
	}
	p = p[:m]
	for r := range f.order {
		inside := true
		for a, b := range f.box(r) {
			if v := p[a]; v < b.Lo || v > b.Hi {
				inside = false
				break
			}
		}
		if inside {
			return true
		}
	}
	return false
}

// rspcFlat is RSPC against a prebuilt flat layout, writing guesses
// into the caller-owned point buffer. Points are drawn from a
// splitmix64 stream seeded with a single draw from the checker's PCG
// — decisions stay reproducible for a seeded checker, but the draw
// sequence is deliberately not RSPC's: splitmix64 advances in a
// handful of ALU ops, and the [0,width) mapping is a multiply-shift
// (Lemire) with no rejection loop, which together remove the RNG from
// the top of the hot-path profile. The mapping's modulo bias is below
// width/2^64 per attribute — orders of magnitude under any δ a caller
// can configure — and a found witness is still verified exactly by
// the membership test, so NO answers remain exact. The witness copy
// is the lone allocation, on the definite-NO path only.
func rspcFlat(s subscription.Subscription, f *flatSet, trials int, rng *rand.Rand, point []int64) RSPCOutcome {
	state := rng.Uint64()
	m := len(point)
	sLo := f.sLo[:m]
	sWidth := f.sWidth[:m]
	for trial := 1; trial <= trials; trial++ {
		for a, w := range sWidth {
			state += 0x9e3779b97f4a7c15
			z := state
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			z *= 0x94d049bb133111eb
			z ^= z >> 31
			if w == 0 {
				// Width 2^64 wrapped: the attribute spans the whole
				// int64 range, so any 64-bit value is a uniform draw.
				point[a] = int64(z)
				continue
			}
			hi, _ := bits.Mul64(z, w)
			point[a] = sLo[a] + int64(hi)
		}
		if !f.contains(point) {
			witness := make([]int64, len(point))
			copy(witness, point)
			return RSPCOutcome{Witness: witness, Trials: trial}
		}
	}
	return RSPCOutcome{Trials: trials}
}
