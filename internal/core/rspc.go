package core

import (
	"cmp"
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
//     that swallow the most cut first.
//
// Neither transform changes whether a point is a witness; only the
// constant factor of the search drops.
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

	// order lists the selected rows in layout order: order[r].idx is
	// the index in the original set of the subscription in row r.
	order []rowKey
}

// rowKey is a selected row's ordering key and original index.
type rowKey struct {
	size float64
	idx  int
}

// build populates the flat layout from the alive rows of set (nil
// alive means all rows). It reuses all backing storage.
func (f *flatSet) build(s subscription.Subscription, set []subscription.Subscription, alive []bool) {
	m := s.Len()
	f.m = m
	if cap(f.sLo) < m {
		f.sLo = make([]int64, m)
		f.sWidth = make([]uint64, m)
	} else {
		f.sLo = f.sLo[:m]
		f.sWidth = f.sWidth[:m]
	}
	for a, b := range s.Bounds {
		f.sLo[a] = b.Lo
		f.sWidth[a] = uint64(b.Hi-b.Lo) + 1
	}
	order := f.order[:0]
	for i := range set {
		if alive != nil && !alive[i] {
			continue
		}
		// Ordering key: the float64 product of the intersection's
		// per-attribute widths. Relative order is all that matters, so
		// overflow to +Inf for huge boxes merely collapses ties.
		size := 1.0
		empty := false
		for a, b := range set[i].Bounds {
			iv := b.Intersect(s.Bounds[a])
			if iv.IsEmpty() {
				empty = true
				break
			}
			size *= float64(uint64(iv.Hi-iv.Lo)) + 1
		}
		if empty {
			continue
		}
		order = append(order, rowKey{size: size, idx: i})
	}
	f.order = order
	// Descending size, ties in set order: a total order, so the
	// unstable sort is deterministic.
	slices.SortFunc(order, func(a, b rowKey) int {
		if c := cmp.Compare(b.size, a.size); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	f.rows = len(order)
	n := f.rows * m
	if cap(f.lo) < n {
		f.lo = make([]int64, n)
		f.hi = make([]int64, n)
	} else {
		f.lo = f.lo[:n]
		f.hi = f.hi[:n]
	}
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
