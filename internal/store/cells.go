package store

// This file implements the candidate index behind Store.candidates. Only
// active subscriptions whose box INTERSECTS the tested subscription s
// can take part in covering s: a disjoint row contributes no point of s
// to the union, so dropping it changes neither the pairwise nor the
// group-coverage answer. The index hands the checker exactly those rows;
// the pairwise decision, which needs a single row containing s, asks for
// exactly the rows that contain s instead.
//
// It is the filter match.ITreeIndex's base uses, kept mutable. Each
// indexed row owns a stable slot; freed slots are reused. Per
// attribute, a grid hull is cut into gridCells equal cells, and each
// cell holds a bitset over slots marking the rows that overlap it; a
// row containing the whole grid hull goes into the attribute's wild
// bitset instead. An intersection query ANDs, over the attributes s
// constrains within the hull, the OR of the cells s spans with the wild
// bitset; a containment query ANDs, over every attribute, the AND of
// s's two end cells with the wild bitset. Each surviving slot's box is
// then checked exactly.
//
// The grid needs no schema. A value outside the grid hull is clamped to
// the edge cell, so cell() is monotone: a row intersecting s shares a
// cell with it on every attribute, and a row containing s spans both of
// its end cells. The filter only sheds rows that cannot qualify, and
// the exact check removes the rest. The grid
// is re-cut over the hull of every row indexed since the index was last
// empty when that hull has outgrown it to twice its width on some
// attribute: the grid never shrinks and each re-cut at least doubles a
// width, so a growing range costs O(log range) rebuilds. The bitsets
// double in length when the slots outgrow them, which rebuilds too.

import (
	"math/bits"
	"slices"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// gridCells is the number of equal cells each attribute's grid hull is
// cut into.
const gridCells = 64

// cellIndex is the cell-bitset index over the active set. The zero value
// is ready; the first add fixes the attribute count. Nodes with another
// attribute count are not indexed (the store turns pruning off while
// one is active, so the index is never asked about them).
type cellIndex struct {
	m     int                 // attribute count; 0 while empty
	grid  []interval.Interval // per attribute, the hull the cells cut
	width []uint64            // per attribute, the cell width
	hull  []interval.Interval // per attribute, the hull of every row indexed since empty
	words int                 // bitset length in words
	// rows holds, per attribute, gridCells cell bitsets then the wild
	// bitset, and after them the live bitset; each is words long.
	rows  []uint64
	slots []cellSlot // per slot, its row; zero when free
	// bounds holds each slot's m bounds back to back, so the exact check
	// reads contiguous memory instead of chasing a pointer per row.
	bounds []interval.Interval
	free   []int32 // freed slots, reused last in, first out

	// Reusable query buffers.
	attrs []int
	acc   []uint64
}

// cellSlot is an indexed row: what a query returns for it.
type cellSlot struct {
	id  ID
	sub subscription.Subscription
}

// liveRow is the index of the live bitset among the rows.
func (ix *cellIndex) liveRow() int { return ix.m * (gridCells + 1) }

// row returns bitset r (see rows).
func (ix *cellIndex) row(r int) []uint64 {
	return ix.rows[r*ix.words : (r+1)*ix.words]
}

// cell returns the cell of attribute a holding v, clamped to the edge
// cells when v lies outside the grid hull.
func (ix *cellIndex) cell(a int, v int64) int {
	g := ix.grid[a]
	v = min(max(v, g.Lo), g.Hi)
	// Unsigned, so a hull of [MinInt64, MaxInt64] cannot overflow.
	return int((uint64(v) - uint64(g.Lo)) / ix.width[a])
}

// span returns the width of a non-empty interval, unsigned.
func span(iv interval.Interval) uint64 { return uint64(iv.Hi) - uint64(iv.Lo) }

// add indexes an active node.
func (ix *cellIndex) add(n *node) {
	fresh := ix.m == 0
	if fresh {
		ix.m = n.sub.Len()
		ix.grid = slices.Clone(n.sub.Bounds)
		ix.hull = slices.Clone(n.sub.Bounds)
		ix.width = make([]uint64, ix.m)
		ix.words = 1
	}
	if n.sub.Len() != ix.m {
		return
	}
	if k := len(ix.free); k > 0 {
		n.slot = ix.free[k-1]
		ix.free = ix.free[:k-1]
		ix.slots[n.slot] = cellSlot{id: n.id, sub: n.sub}
		copy(ix.bounds[int(n.slot)*ix.m:], n.sub.Bounds)
	} else {
		n.slot = int32(len(ix.slots))
		ix.slots = append(ix.slots, cellSlot{id: n.id, sub: n.sub})
		ix.bounds = append(ix.bounds, n.sub.Bounds...)
	}
	rebuild := fresh || int(n.slot) >= 64*ix.words
	for a, b := range n.sub.Bounds {
		ix.hull[a] = ix.hull[a].Hull(b)
		hw, gw := span(ix.hull[a]), span(ix.grid[a])
		if hw-gw > gw { // hw > 2·gw without overflow: the hull contains the grid
			rebuild = true
		}
	}
	if rebuild {
		ix.rebuild()
		return
	}
	ix.mark(n.slot, true)
}

// remove un-indexes a previously added node.
func (ix *cellIndex) remove(n *node) {
	if n.sub.Len() != ix.m {
		return
	}
	ix.mark(n.slot, false)
	ix.slots[n.slot] = cellSlot{}
	ix.free = append(ix.free, n.slot)
}

// mark sets (or clears) a slot's bits: the cells its bounds span on
// each attribute, or the wild bit where they contain the grid hull, and
// its live bit. Clearing recomputes them from the bounds against the
// same grid, so it clears exactly what setting set.
func (ix *cellIndex) mark(slot int32, set bool) {
	word, bit := int(slot)/64, uint64(1)<<(slot%64)
	flip := func(r int) {
		if set {
			ix.rows[r*ix.words+word] |= bit
		} else {
			ix.rows[r*ix.words+word] &^= bit
		}
	}
	for a, b := range ix.bounds[int(slot)*ix.m : int(slot+1)*ix.m] {
		base := a * (gridCells + 1)
		if b.ContainsInterval(ix.grid[a]) {
			flip(base + gridCells)
			continue
		}
		for c, hi := ix.cell(a, b.Lo), ix.cell(a, b.Hi); c <= hi; c++ {
			flip(base + c)
		}
	}
	flip(ix.liveRow())
}

// rebuild cuts the grid over the hull, doubles the bitsets until every
// slot fits, and re-marks every live slot: O(k·m).
func (ix *cellIndex) rebuild() {
	for 64*ix.words < len(ix.slots) {
		ix.words *= 2
	}
	copy(ix.grid, ix.hull)
	for a, g := range ix.grid {
		ix.width[a] = span(g)/gridCells + 1
	}
	size := (ix.liveRow() + 1) * ix.words
	ix.rows = slices.Grow(ix.rows[:0], size)[:size]
	clear(ix.rows)
	for slot, s := range ix.slots {
		if s.sub.Bounds != nil {
			ix.mark(int32(slot), true)
		}
	}
}

// query appends to ids and subs the indexed rows whose boxes intersect
// s — or contain it, with cover set — in slot order, and returns the
// extended slices. s must have the index's attribute count. The hits
// are not sorted: the checker orders its rows itself, with the IDs as
// tie-break keys, and the store sorts the few IDs it reports.
func (ix *cellIndex) query(s subscription.Subscription, cover bool, ids []ID, subs []subscription.Subscription) ([]ID, []subscription.Subscription) {
	// Where s contains the hull it meets every indexed row, so an
	// intersection query filters and checks only the other attributes.
	attrs := ix.attrs[:0]
	for a, b := range s.Bounds {
		if cover || !b.ContainsInterval(ix.hull[a]) {
			attrs = append(attrs, a)
		}
	}
	ix.attrs = attrs
	w := ix.words
	acc := slices.Grow(ix.acc[:0], w)[:w]
	ix.acc = acc
	copy(acc, ix.row(ix.liveRow()))
	for _, a := range attrs {
		b := s.Bounds[a]
		base := a * (gridCells + 1)
		lo, hi := ix.cell(a, b.Lo), ix.cell(a, b.Hi)
		cells := ix.rows[(base+lo)*w : (base+hi+1)*w]
		wild := ix.row(base + gridCells)
		for i := range acc {
			if acc[i] == 0 {
				continue
			}
			x := wild[i]
			if cover {
				x |= cells[i] & cells[len(cells)-w+i]
			} else {
				for c := i; c < len(cells); c += w {
					x |= cells[c]
				}
			}
			acc[i] &= x
		}
	}
	m, sb := ix.m, s.Bounds
	for i, word := range acc {
		for ; word != 0; word &= word - 1 {
			slot := i*64 + bits.TrailingZeros64(word)
			row := ix.bounds[slot*m : slot*m+m]
			if cover && !contains(row, sb) || !cover && !intersects(row, sb, attrs) {
				continue
			}
			ids = append(ids, ix.slots[slot].id)
			subs = append(subs, ix.slots[slot].sub)
		}
	}
	return ids, subs
}

// intersects reports whether two boxes of one attribute count meet on
// each of attrs: a handful of compares with an early exit.
func intersects(x, y []interval.Interval, attrs []int) bool {
	for _, a := range attrs {
		if x[a].Lo > y[a].Hi || x[a].Hi < y[a].Lo {
			return false
		}
	}
	return true
}

// contains reports whether box x contains box y of the same attribute
// count.
func contains(x, y []interval.Interval) bool {
	for a := range y {
		if x[a].Lo > y[a].Lo || x[a].Hi < y[a].Hi {
			return false
		}
	}
	return true
}
