package core

import (
	"math"
	"slices"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// The exact residual stage of the pipeline: subtract the candidate
// rows from s and see whether anything is left.
//
// s minus a box is at most 2m boxes (peel one slab per attribute side
// off the part of s outside the box), so s minus a union of rows can
// be explored depth-first as a stack of fragments. A fragment is
// walked along the rows, in the flat layout's largest-intersection-
// first order; the first row that meets it swallows the part inside
// and pushes the off-cuts outside, each of which resumes at the next
// row — rows before it are disjoint from the fragment already. A
// fragment that outlives the last row lies outside every row: any of
// its points is an exact witness to non-cover. An empty stack means
// every point of s ended up inside some row that cut a fragment: an
// exact YES, with those rows as the cover.
//
// The problem is co-NP complete, so the walk can blow up (a tiling of
// s by many small rows does it); the caller bounds it in fragment-vs-
// row tests and treats an exhausted bound as "undecided".

// residualVerdict is the stage's three-valued outcome.
type residualVerdict int

const (
	// residualUndecided: the work bound ran out first.
	residualUndecided residualVerdict = iota
	// residualCovered: nothing of s is left; used marks a cover.
	residualCovered
	// residualWitness: a fragment outside every row was found.
	residualWitness
)

// residual is the stage's reusable scratch.
type residual struct {
	// lo, hi and next are the fragment stack: m bounds per fragment,
	// and the first row the fragment has not been tested against.
	lo, hi []int64
	next   []int
	// curLo, curHi hold the fragment being walked (popped off the
	// stack, so pushing its off-cuts cannot overwrite it). After a
	// residualWitness verdict it is the surviving fragment.
	curLo, curHi []int64
	// used[r] reports that flat row r cut or swallowed a fragment.
	used []bool
}

// subtract runs the stage for the tested subscription and rows f was
// built from, performing at most budget fragment-vs-row tests. It
// returns the verdict and the tests performed. On residualWitness
// r.curLo is the low corner of the surviving fragment; on
// residualCovered r.used marks rows whose union covers s.
func (r *residual) subtract(f *flatSet, budget int) (residualVerdict, int) {
	m, rows := f.m, len(f.order)
	if cap(r.curLo) < m {
		r.curLo = make([]int64, m)
		r.curHi = make([]int64, m)
	}
	r.curLo, r.curHi = r.curLo[:m], r.curHi[:m]
	curLo, curHi := r.curLo, r.curHi
	if cap(r.used) < rows {
		r.used = make([]bool, rows)
	} else {
		r.used = r.used[:rows]
		clear(r.used)
	}

	// The stack starts as s itself. sWidth-1 cannot overflow: a width
	// of 2^64 wraps to 0 and 0-1 to the all-ones offset it stands for.
	lo, hi, next := r.lo[:0], r.hi[:0], r.next[:0]
	for a, l := range f.sLo[:m] {
		lo = append(lo, l)
		hi = append(hi, l+int64(f.sWidth[a]-1))
	}
	next = append(next, 0)

	verdict, tests := residualCovered, 0
walk:
	for len(next) > 0 {
		top := len(next) - 1
		row := next[top]
		copy(curLo, lo[top*m:])
		copy(curHi, hi[top*m:])
		lo, hi, next = lo[:top*m], hi[:top*m], next[:top]

		var box []interval.Interval
		for ; row < rows; row++ {
			if tests == budget {
				verdict = residualUndecided
				break walk
			}
			tests++
			box = f.box(row)
			meets := true
			for a, l := range curLo {
				if l > box[a].Hi || curHi[a] < box[a].Lo {
					meets = false
					break
				}
			}
			if meets {
				break
			}
		}
		if row == rows {
			verdict = residualWitness
			break
		}
		r.used[row] = true
		// Peel the slabs of the fragment outside the row, narrowing it
		// as we go so the off-cuts are pairwise disjoint; what remains
		// lies inside the row and is dropped. b.Lo-1 and b.Hi+1 cannot
		// overflow: each is guarded by a strict inequality against a
		// bound on the far side.
		for a, b := range box {
			if curLo[a] < b.Lo {
				lo = append(lo, curLo...)
				hi = append(hi, curHi...)
				hi[len(hi)-m+a] = b.Lo - 1
				next = append(next, row+1)
				curLo[a] = b.Lo
			}
			if curHi[a] > b.Hi {
				lo = append(lo, curLo...)
				hi = append(hi, curHi...)
				lo[len(lo)-m+a] = b.Hi + 1
				next = append(next, row+1)
				curHi[a] = b.Hi
			}
		}
	}
	r.lo, r.hi, r.next = lo, hi, next // keep the grown backing arrays
	return verdict, tests
}

// appendUsed appends the positions, among the rows added, of the used
// rows to dst in ascending order.
func (r *residual) appendUsed(dst []int, f *flatSet) []int {
	base := len(dst)
	for row, used := range r.used {
		if used {
			dst = append(dst, int(f.order[row].idx))
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// ExactCover answers the subsumption question exactly by running the
// residual stage without a work bound: it reports whether s is covered
// by the union of set and, when it is not, a point of s outside every
// member. Unlike ExhaustiveCover its cost depends on how the boxes
// overlap rather than on the number of points in s, so it audits
// decisions over realistic domains; the worst case is still
// exponential in the number of attributes (the problem is co-NP
// complete), while memory stays within 2m·k fragments. An
// unsatisfiable s is vacuously covered.
func ExactCover(s subscription.Subscription, set []subscription.Subscription) (bool, []int64, error) {
	if !s.IsSatisfiable() {
		return true, nil, nil
	}
	var f flatSet
	f.begin(s)
	for i := range set {
		f.add(set[i].Bounds, int64(i))
	}
	if f.err != nil {
		return false, nil, f.err
	}
	f.sortRows(f.cand)
	var r residual
	if verdict, _ := r.subtract(&f, math.MaxInt); verdict == residualWitness {
		return false, r.curLo, nil
	}
	return true, nil, nil
}
