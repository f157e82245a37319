package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

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

// flatSet lays the alive subscriptions' bounds out as a flat
// struct-of-arrays — lo and hi as contiguous []int64, row-major — so
// the RSPC inner loop walks linear memory instead of chasing one
// bounds slice per subscription. Rows are additionally
//
//   - restricted to subscriptions that intersect s (a row disjoint
//     from s can never contain a point of s, so dropping it cannot
//     change any membership answer), and
//   - ordered by descending |row ∩ s|, so the rows most likely to
//     contain a uniform random point of s are tested first and the
//     expected early-exit comes sooner — and so the residual stage,
//     which subtracts the rows from s in this order, lets the rows
//     that swallow the most cut first. Equal sizes go in ascending
//     tie-break key: the caller's key for the row, or its index.
//
// Neither transform changes whether a point is a witness; only the
// constant factor of the search drops.
//
// The layout is built in three steps, so a decision that needs less
// pays less: scan makes the one pass over the set (and answers
// Corollary 1 on the way), sortRows orders the rows it kept, and fill
// writes the bounds of the rows still alive.
type flatSet struct {
	m    int
	rows int
	lo   []int64
	hi   []int64

	// sLo and sWidth cache the tested subscription's per-attribute
	// lower bounds and point counts, so drawing a uniform point is a
	// multiply-shift per attribute with no interval arithmetic.
	sLo    []int64
	sWidth []uint64

	// cand lists the rows scan kept, in set order. order lists the
	// layout's rows in layout order: order[r].idx is the index in the
	// original set of the subscription in row r.
	cand  []rowKey
	order []rowKey

	// minExp and maxExp bound the float exponents of cand's sizes;
	// buckets is sortRows's histogram over them.
	minExp, maxExp uint64
	buckets        []int32
}

// rowKey is a selected row's ordering key and original index.
type rowKey struct {
	// size is math.Float64bits of the float64 product of the row's
	// intersection widths with s. The product is at least 1 or +Inf
	// (overflow for huge boxes merely collapses ties), so the bit
	// patterns order exactly like the sizes.
	size uint64
	tie  int64
	idx  int
}

// compareRows orders rows by descending size, then ascending tie-break
// key, then ascending index: a total order, so every sort agrees.
func compareRows(a, b rowKey) int {
	if a.size != b.size {
		if a.size > b.size {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.tie, b.tie); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// errNoAttributes rejects a tested subscription with no attributes.
var errNoAttributes = errors.New("core: tested subscription has no attributes")

// scan makes the one pass over set an admission needs. Per row it
// checks the attribute count, tests whether the row contains s
// (Corollary 1), drops the row when it is disjoint from s, and records
// its intersection size and tie-break key — keys[i], or i when keys is
// nil — in cand. It returns the containing row with the lowest key
// (without keys, the lowest index), or -1.
//
// With stop set and no keys, scan returns at the first containing row
// and only checks the attribute counts of the rest; cand is then
// incomplete, and the caller must not lay it out.
func (f *flatSet) scan(s subscription.Subscription, set []subscription.Subscription, keys []int64, stop bool) (int, error) {
	m := s.Len()
	if m == 0 {
		return -1, errNoAttributes
	}
	f.m = m
	f.sLo = slices.Grow(f.sLo[:0], m)[:m]
	f.sWidth = slices.Grow(f.sWidth[:0], m)[:m]
	sb := s.Bounds
	for a, b := range sb {
		f.sLo[a] = b.Lo
		f.sWidth[a] = uint64(b.Hi-b.Lo) + 1
	}
	cand := f.cand[:0]
	minExp, maxExp := uint64(math.MaxUint64), uint64(0)
	cover, coverKey := -1, int64(0)
	for i := range set {
		rb := set[i].Bounds
		if len(rb) != m {
			return -1, arityError(i, len(rb), m)
		}
		size, inside := 1.0, true
		for a, b := range rb {
			lo, hi := max(b.Lo, sb[a].Lo), min(b.Hi, sb[a].Hi)
			if lo > hi {
				size = 0 // disjoint: every real size is at least 1
				break
			}
			inside = inside && lo == sb[a].Lo && hi == sb[a].Hi
			size *= float64(uint64(hi-lo)) + 1
		}
		if size == 0 {
			continue
		}
		key := int64(i)
		if keys != nil {
			key = keys[i]
		}
		if inside && (cover < 0 || key < coverKey) {
			cover, coverKey = i, key
			if stop && keys == nil {
				for j := i + 1; j < len(set); j++ {
					if n := set[j].Len(); n != m {
						return -1, arityError(j, n, m)
					}
				}
				f.cand = cand
				return cover, nil
			}
		}
		bits := math.Float64bits(size)
		minExp, maxExp = min(minExp, bits>>52), max(maxExp, bits>>52)
		cand = append(cand, rowKey{size: bits, tie: key, idx: i})
	}
	f.cand, f.minExp, f.maxExp = cand, minExp, maxExp
	return cover, nil
}

// arityError reports set row i with n attributes against s's m.
func arityError(i, n, m int) error {
	return fmt.Errorf("core: subscription %d has %d attributes, want %d: %w",
		i, n, m, subscription.ErrSchemaMismatch)
}

// bucketSortMax is the largest exponent bucket sortRows insertion-sorts;
// a larger one (identical subscriptions, or the paper's extreme
// scenario, put many rows in one bucket) goes to slices.SortFunc so the
// sort is never quadratic.
const bucketSortMax = 32

// sortRows orders cand into order by compareRows without a comparison
// sort on the common path. One counting pass buckets the rows by the
// float exponent of their size, largest first; it is stable, so each
// bucket holds its rows in set order. Each bucket, a handful of rows
// on a dense set, is then insertion-sorted.
func (f *flatSet) sortRows() {
	cand := f.cand
	f.order = slices.Grow(f.order[:0], len(cand))[:len(cand)]
	if len(cand) == 0 {
		return
	}
	order, top := f.order, f.maxExp
	n := int(top-f.minExp) + 1
	// buckets[b+1] counts bucket b, then the prefix sum turns buckets[b]
	// into bucket b's start, and the scatter advances it to its end.
	buckets := slices.Grow(f.buckets[:0], n+1)[:n+1]
	clear(buckets)
	f.buckets = buckets
	for _, r := range cand {
		buckets[top-r.size>>52+1]++
	}
	for b := 1; b <= n; b++ {
		buckets[b] += buckets[b-1]
	}
	for _, r := range cand {
		b := top - r.size>>52
		order[buckets[b]] = r
		buckets[b]++
	}
	start := 0
	for _, end := range buckets[:n] {
		sortBucket(order[start:end])
		start = int(end)
	}
}

// sortBucket sorts one exponent bucket by compareRows.
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

// fill lays out the sorted rows of set that alive marks, indexed by
// position in set (nil keeps every row), dropping the rest from order
// for good. It reuses all backing storage.
func (f *flatSet) fill(set []subscription.Subscription, alive []bool) {
	order := f.order
	if alive != nil {
		order = slices.DeleteFunc(order, func(r rowKey) bool { return !alive[r.idx] })
		f.order = order
	}
	m := f.m
	f.rows = len(order)
	n := f.rows * m
	f.lo = slices.Grow(f.lo[:0], n)[:n]
	f.hi = slices.Grow(f.hi[:0], n)[:n]
	for r, k := range order {
		base := r * m
		for a, b := range set[k.idx].Bounds {
			f.lo[base+a] = b.Lo
			f.hi[base+a] = b.Hi
		}
	}
}

// contains reports whether p lies inside at least one row.
func (f *flatSet) contains(p []int64) bool {
	m := f.m
	if len(p) < m {
		return false
	}
	p = p[:m]
	for base := 0; base+m <= len(f.lo); base += m {
		loRow := f.lo[base : base+m]
		hiRow := f.hi[base : base+m]
		inside := true
		for a, lo := range loRow {
			if v := p[a]; v < lo || v > hiRow[a] {
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
