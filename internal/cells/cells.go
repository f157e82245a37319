// Package cells implements the cell-bitset index that answers both of
// the system's box queries: which active rows intersect (or contain) an
// arriving subscription, for the coverage decision in package store, and
// which subscriptions contain a publication, for the broker's matcher
// and package match.
//
// A slot holds one word, a pointer to the caller's own row (a broker's
// route, a store's node), whose box is a field of the row. Each row
// owns a stable slot; freed slots are reused and hold nil, so the index
// keeps nothing of a removed row alive. Per attribute, a grid hull is
// cut into gridCells equal cells, and each cell holds a bitset over
// slots marking the rows that overlap it; a row containing the whole
// grid hull goes into the attribute's wild bitset instead. A free slot has no bit anywhere. A query ANDs, over
// at least one attribute, the wild bitset ORed with the cells that can
// hold a qualifying row: for an intersection, every cell s spans; for a
// containment, the AND of s's two end cells; for a point, its cell.
// Each surviving slot's box is then checked exactly, except by
// Candidates, the intersection query, which leaves that check to its
// caller.
//
// The grid needs no schema. A value outside the grid hull is clamped to
// the edge cell, so cell() is monotone and the filter only sheds rows
// that cannot qualify. The grid is re-cut over the hull of every row
// indexed when that hull has outgrown it to twice its width on some
// attribute: the grid never shrinks and each re-cut at least doubles a
// width, so a growing range costs O(log range) re-cuts.
package cells

import (
	"math/bits"
	"slices"
	"unsafe"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// gridCells is the number of equal cells each attribute's grid hull is
// cut into.
const gridCells = 64

// Index is a cell-bitset index over rows of type T with satisfiable
// boxes of one attribute count. Queries only read it, so any number may
// run in parallel, each with its own Scratch; Add and Remove need
// exclusive access.
type Index[T any] struct {
	m     int                 // attribute count
	off   uintptr             // offset of a row's box within T
	grid  []interval.Interval // per attribute, the hull the cells cut
	width []uint64            // per attribute, the cell width
	hull  []interval.Interval // per attribute, the hull of every row indexed
	words int                 // bitset length in words
	// rows holds, per attribute, gridCells cell bitsets then the wild
	// bitset; each is words long.
	rows  []uint64
	slots []*T    // per slot, its row; nil when free
	free  []int32 // freed slots, reused last in, first out
}

// Scratch is one query's working memory: the word accumulator, the
// filtered attributes (Hit's bitset offsets), the hit buffer and the
// gathered boxes. The zero value is ready. A query's result aliases its
// Scratch until the next query with it, so concurrent queries need
// separate Scratches.
type Scratch struct {
	acc   []uint64
	attrs []int
	hits  []int32
	boxes []subscription.Subscription // Stab's gathered boxes; cleared after each check
}

// New returns an empty index over rows of m attributes. box returns a
// pointer to a row's box, a field of the row that must not change while
// the row is indexed; New calls it once, and panics unless the box lies
// inside the row, to learn the field's offset, so the exact checks
// reach a box without a call.
func New[T any](m int, box func(*T) *subscription.Subscription) *Index[T] {
	r := new(T)
	off := uintptr(unsafe.Pointer(box(r))) - uintptr(unsafe.Pointer(r))
	if off > unsafe.Sizeof(*r) || unsafe.Sizeof(*r)-off < unsafe.Sizeof(subscription.Subscription{}) {
		panic("cells: a row's box is not a field of the row")
	}
	return &Index[T]{m: m, off: off}
}

// box returns row r's box.
func (ix *Index[T]) box(r *T) *subscription.Subscription {
	return (*subscription.Subscription)(unsafe.Add(unsafe.Pointer(r), ix.off))
}

// Attrs returns the attribute count of the index's boxes.
func (ix *Index[T]) Attrs() int { return ix.m }

// Len returns the number of indexed rows.
func (ix *Index[T]) Len() int { return len(ix.slots) - len(ix.free) }

// Slots returns the number of slots handed out, live or free.
func (ix *Index[T]) Slots() int { return len(ix.slots) }

// Row returns the row in slot: nil when the slot is free or was never
// handed out.
func (ix *Index[T]) Row(slot int32) *T {
	if int(slot) < len(ix.slots) {
		return ix.slots[slot]
	}
	return nil
}

// nrows returns the number of bitsets.
func (ix *Index[T]) nrows() int { return ix.m * (gridCells + 1) }

// row returns bitset r (see rows).
func (ix *Index[T]) row(r int) []uint64 {
	return ix.rows[r*ix.words : (r+1)*ix.words]
}

// used returns how many bitset words hold a slot that was ever indexed:
// the words a query must read.
func (ix *Index[T]) used() int { return (len(ix.slots) + 63) / 64 }

// cell returns the cell of attribute a holding v, clamped to the edge
// cells when v lies outside the grid hull.
func (ix *Index[T]) cell(a int, v int64) int {
	g := ix.grid[a]
	v = min(max(v, g.Lo), g.Hi)
	// Unsigned, so a hull of [MinInt64, MaxInt64] cannot overflow.
	return int((uint64(v) - uint64(g.Lo)) / ix.width[a])
}

// span returns the width of a non-empty interval, unsigned.
func span(iv interval.Interval) uint64 { return uint64(iv.Hi) - uint64(iv.Lo) }

// Add indexes the non-nil row r, whose box has the index's attribute
// count, and returns the slot it holds until Remove.
func (ix *Index[T]) Add(r *T) int32 {
	var slot int32
	if k := len(ix.free); k > 0 {
		slot = ix.free[k-1]
		ix.free = ix.free[:k-1]
		ix.slots[slot] = r
	} else {
		slot = int32(len(ix.slots))
		ix.slots = append(ix.slots, r)
	}
	s := *ix.box(r)
	recut := ix.grid == nil
	if recut {
		ix.grid, ix.hull = slices.Clone(s.Bounds), slices.Clone(s.Bounds)
		ix.width = make([]uint64, ix.m)
	}
	for a, b := range s.Bounds {
		ix.hull[a] = ix.hull[a].Hull(b)
		hw, gw := span(ix.hull[a]), span(ix.grid[a])
		if hw-gw > gw { // hw > 2·gw without overflow: the hull contains the grid
			recut = true
		}
	}
	if recut {
		ix.recut()
		return slot
	}
	if int(slot) >= 64*ix.words {
		ix.grow()
	}
	ix.toggle(slot)
	return slot
}

// Remove un-indexes the row in slot and frees the slot.
func (ix *Index[T]) Remove(slot int32) {
	ix.toggle(slot)
	ix.slots[slot] = nil
	ix.free = append(ix.free, slot)
}

// toggle flips a slot's bits: the cells its bounds span on each
// attribute, or the wild bit where they contain the grid hull. A free
// slot has no bit set, so toggling it in Add sets exactly these bits,
// and toggling it in Remove, against the same grid, clears them.
func (ix *Index[T]) toggle(slot int32) {
	word, bit := int(slot)/64, uint64(1)<<(slot%64)
	flip := func(r int) { ix.rows[r*ix.words+word] ^= bit }
	for a, b := range ix.box(ix.slots[slot]).Bounds {
		base := a * (gridCells + 1)
		if b.ContainsInterval(ix.grid[a]) {
			flip(base + gridCells)
			continue
		}
		for c, hi := ix.cell(a, b.Lo), ix.cell(a, b.Hi); c <= hi; c++ {
			flip(base + c)
		}
	}
}

// recut cuts the grid over the hull, sizes the bitsets to the slots,
// and re-marks every live slot: O(k·m).
func (ix *Index[T]) recut() {
	copy(ix.grid, ix.hull)
	for a, g := range ix.grid {
		ix.width[a] = span(g)/gridCells + 1
	}
	for ix.words = max(ix.words, 1); 64*ix.words < len(ix.slots); {
		ix.words *= 2
	}
	size := ix.nrows() * ix.words
	ix.rows = slices.Grow(ix.rows[:0], size)[:size]
	clear(ix.rows)
	for slot, r := range ix.slots {
		if r != nil {
			ix.toggle(int32(slot))
		}
	}
}

// grow doubles the bitsets' length, copying each into the wider layout.
// The grid is unchanged, so no slot is re-marked.
func (ix *Index[T]) grow() {
	w := ix.words
	rows := make([]uint64, ix.nrows()*2*w)
	for r := range ix.nrows() {
		copy(rows[2*r*w:], ix.rows[r*w:(r+1)*w])
	}
	ix.rows, ix.words = rows, 2*w
}

// Containing returns the slots of the rows whose boxes contain s, in
// slot order. s must have the index's attribute count. The result
// aliases sc.
func (ix *Index[T]) Containing(sc *Scratch, s subscription.Subscription) []int32 {
	hits := ix.filter(sc, s, true)
	n := 0
	for _, slot := range hits {
		if ix.box(ix.slots[slot]).Covers(s) {
			hits[n] = slot
			n++
		}
	}
	sc.hits = hits[:n]
	return sc.hits
}

// Candidates returns, in slot order, the slots the cell filter of an
// intersection query passes: every row whose box intersects s, and the
// few the cells cannot tell from them, with no exact check. A caller
// that reads each row's box anyway checks it there, so the box is read
// once. s must have the index's attribute count. The result aliases sc.
func (ix *Index[T]) Candidates(sc *Scratch, s subscription.Subscription) []int32 {
	return ix.filter(sc, s, false)
}

// filter is the bitset pass of a box query: it leaves in sc.hits the
// slots whose cells can hold a row intersecting s — or containing it,
// with cover set.
func (ix *Index[T]) filter(sc *Scratch, s subscription.Subscription, cover bool) []int32 {
	// Where s contains the hull it meets every indexed row, so an
	// intersection query filters only the other attributes — or
	// attribute 0 alone, whose filter then passes every live row.
	attrs := sc.attrs[:0]
	for a, b := range s.Bounds {
		if cover || !b.ContainsInterval(ix.hull[a]) {
			attrs = append(attrs, a)
		}
	}
	if len(attrs) == 0 {
		attrs = append(attrs, 0)
	}
	sc.attrs = attrs
	w := ix.words
	acc := sc.words(ix.used())
	for i := range acc {
		acc[i] = ^uint64(0)
	}
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
	hits := sc.hits[:0]
	for i, word := range acc {
		for ; word != 0; word &= word - 1 {
			hits = append(hits, int32(i*64+bits.TrailingZeros64(word)))
		}
	}
	sc.hits = hits
	return hits
}

// Stab returns the slots of the rows whose boxes contain the point p,
// in slot order, and how many slots the filter passed to the exact
// check. p must have the index's attribute count. The result aliases
// sc.
func (ix *Index[T]) Stab(sc *Scratch, p subscription.Publication) (hits []int32, candidates int) {
	hits = sc.hits[:0]
	// The hull gate: every indexed row lies inside the hull.
	for a, h := range ix.hull {
		if !h.Contains(p.Values[a]) {
			return hits, 0
		}
	}
	acc := sc.words(ix.used())
	for a, v := range p.Values {
		base := a * (gridCells + 1)
		cell, wild := ix.row(base+ix.cell(a, v)), ix.row(base+gridCells)
		cell, wild = cell[:len(acc)], wild[:len(acc)] // drops the loops' bounds checks
		if a == 0 {
			for i := range acc {
				acc[i] = cell[i] | wild[i]
			}
		} else {
			for i := range acc {
				acc[i] &= cell[i] | wild[i]
			}
		}
	}
	for i, word := range acc {
		for ; word != 0; word &= word - 1 {
			hits = append(hits, int32(i*64+bits.TrailingZeros64(word)))
		}
	}
	// The candidates' boxes are gathered in a pass of their own, with no
	// branch between one row and the next, so that many rows' loads are
	// in flight at once; the checks then read them, and sc drops them.
	boxes := sc.boxes[:0]
	for _, slot := range hits {
		boxes = append(boxes, *ix.box(ix.slots[slot]))
	}
	n := 0
	for k, row := range boxes {
		if row.Matches(p) {
			hits[n] = hits[k]
			n++
		}
	}
	clear(boxes)
	sc.hits, sc.boxes = hits[:n], boxes
	return sc.hits, len(boxes)
}

// Hit returns the first slot, in slot order, whose row contains the
// point p, or -1 when none does: Stab's first hit, found one bitset
// word at a time so it stops there. p must have the index's attribute
// count.
func (ix *Index[T]) Hit(sc *Scratch, p []int64) int32 {
	for a, h := range ix.hull {
		if !h.Contains(p[a]) {
			return -1
		}
	}
	// Per attribute, the offsets of p's cell bitset and the wild bitset.
	offs := sc.attrs[:0]
	for a, v := range p {
		base := a * (gridCells + 1)
		offs = append(offs, (base+ix.cell(a, v))*ix.words, (base+gridCells)*ix.words)
	}
	sc.attrs = offs
	for i := range ix.used() {
		word := ^uint64(0)
		for j := 0; j < len(offs) && word != 0; j += 2 {
			word &= ix.rows[offs[j]+i] | ix.rows[offs[j+1]+i]
		}
		for ; word != 0; word &= word - 1 {
			slot := i*64 + bits.TrailingZeros64(word)
			if ix.box(ix.slots[slot]).ContainsPoint(p) {
				return int32(slot)
			}
		}
	}
	return -1
}

// words returns the accumulator, n words long.
func (sc *Scratch) words(n int) []uint64 {
	sc.acc = slices.Grow(sc.acc[:0], n)[:n]
	return sc.acc
}
