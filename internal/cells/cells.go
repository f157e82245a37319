// Package cells implements the cell-bitset index that answers both of
// the system's box queries: which active rows intersect (or contain) an
// arriving subscription, for the coverage decision in package store, and
// which subscriptions contain a publication, for the broker's matcher
// in package match.
//
// Each indexed row owns a stable slot; freed slots are reused. Per
// attribute, a grid hull is cut into gridCells equal cells, and each
// cell holds a bitset over slots marking the rows that overlap it; a
// row containing the whole grid hull goes into the attribute's wild
// bitset instead. A free slot has no bit anywhere. A query ANDs, over
// at least one attribute, the wild bitset ORed with the cells that can
// hold a qualifying row: for an intersection, every cell s spans; for a
// containment, the AND of s's two end cells; for a point, its cell.
// Each surviving slot's box is then checked exactly.
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

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// gridCells is the number of equal cells each attribute's grid hull is
// cut into.
const gridCells = 64

// Index is a cell-bitset index over satisfiable boxes of one attribute
// count. Queries only read it, so any number may run in parallel, each
// with its own Scratch; Add and Remove need exclusive access.
type Index struct {
	m     int                 // attribute count
	grid  []interval.Interval // per attribute, the hull the cells cut
	width []uint64            // per attribute, the cell width
	hull  []interval.Interval // per attribute, the hull of every row indexed
	words int                 // bitset length in words
	// rows holds, per attribute, gridCells cell bitsets then the wild
	// bitset; each is words long.
	rows  []uint64
	slots []entry // per slot, its row; zero when free
	free  []int32 // freed slots, reused last in, first out
}

// entry is an indexed row: what Row returns for its slot.
type entry struct {
	id  int64
	sub subscription.Subscription
}

// Scratch is one query's working memory: the word accumulator, the
// filtered attributes (Hit's bitset offsets) and the hit buffer. The zero value is ready. A
// query's result aliases its Scratch until the next query with it, so
// concurrent queries need separate Scratches.
type Scratch struct {
	acc   []uint64
	attrs []int
	hits  []int32
}

// New returns an empty index over boxes of m attributes.
func New(m int) *Index { return &Index{m: m} }

// Len returns the number of indexed rows.
func (ix *Index) Len() int { return len(ix.slots) - len(ix.free) }

// Row returns the ID and box indexed in a live slot.
func (ix *Index) Row(slot int32) (int64, subscription.Subscription) {
	e := ix.slots[slot]
	return e.id, e.sub
}

// nrows returns the number of bitsets.
func (ix *Index) nrows() int { return ix.m * (gridCells + 1) }

// row returns bitset r (see rows).
func (ix *Index) row(r int) []uint64 {
	return ix.rows[r*ix.words : (r+1)*ix.words]
}

// used returns how many bitset words hold a slot that was ever indexed:
// the words a query must read.
func (ix *Index) used() int { return (len(ix.slots) + 63) / 64 }

// cell returns the cell of attribute a holding v, clamped to the edge
// cells when v lies outside the grid hull.
func (ix *Index) cell(a int, v int64) int {
	g := ix.grid[a]
	v = min(max(v, g.Lo), g.Hi)
	// Unsigned, so a hull of [MinInt64, MaxInt64] cannot overflow.
	return int((uint64(v) - uint64(g.Lo)) / ix.width[a])
}

// span returns the width of a non-empty interval, unsigned.
func span(iv interval.Interval) uint64 { return uint64(iv.Hi) - uint64(iv.Lo) }

// Add indexes the satisfiable box s, which has the index's attribute
// count, under id, and returns the slot it holds until Remove.
func (ix *Index) Add(id int64, s subscription.Subscription) int32 {
	var slot int32
	if k := len(ix.free); k > 0 {
		slot = ix.free[k-1]
		ix.free = ix.free[:k-1]
		ix.slots[slot] = entry{id, s}
	} else {
		slot = int32(len(ix.slots))
		ix.slots = append(ix.slots, entry{id, s})
	}
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
func (ix *Index) Remove(slot int32) {
	ix.toggle(slot)
	ix.slots[slot] = entry{}
	ix.free = append(ix.free, slot)
}

// toggle flips a slot's bits: the cells its bounds span on each
// attribute, or the wild bit where they contain the grid hull. A free
// slot has no bit set, so toggling it in Add sets exactly these bits,
// and toggling it in Remove, against the same grid, clears them.
func (ix *Index) toggle(slot int32) {
	word, bit := int(slot)/64, uint64(1)<<(slot%64)
	flip := func(r int) { ix.rows[r*ix.words+word] ^= bit }
	for a, b := range ix.slots[slot].sub.Bounds {
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
func (ix *Index) recut() {
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
	for slot, e := range ix.slots {
		if e.sub.Bounds != nil {
			ix.toggle(int32(slot))
		}
	}
}

// grow doubles the bitsets' length, copying each into the wider layout.
// The grid is unchanged, so no slot is re-marked.
func (ix *Index) grow() {
	w := ix.words
	rows := make([]uint64, ix.nrows()*2*w)
	for r := range ix.nrows() {
		copy(rows[2*r*w:], ix.rows[r*w:(r+1)*w])
	}
	ix.rows, ix.words = rows, 2*w
}

// Query returns the slots of the rows whose boxes intersect s — or
// contain it, with cover set — in slot order. s must have the index's
// attribute count. The result aliases sc.
func (ix *Index) Query(sc *Scratch, s subscription.Subscription, cover bool) []int32 {
	// Where s contains the hull it meets every indexed row, so an
	// intersection query filters and checks only the other attributes
	// — or attribute 0 alone, whose filter then passes every live row.
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
			slot := i*64 + bits.TrailingZeros64(word)
			row := ix.slots[slot].sub
			if cover && !row.Covers(s) || !cover && !intersects(row.Bounds, s.Bounds, attrs) {
				continue
			}
			hits = append(hits, int32(slot))
		}
	}
	sc.hits = hits
	return hits
}

// Stab returns the slots of the rows whose boxes contain the point p,
// in slot order, and how many slots the filter passed to the exact
// check. p must have the index's attribute count. The result aliases
// sc.
func (ix *Index) Stab(sc *Scratch, p subscription.Publication) (hits []int32, candidates int) {
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
			slot := i*64 + bits.TrailingZeros64(word)
			candidates++
			if ix.slots[slot].sub.Matches(p) {
				hits = append(hits, int32(slot))
			}
		}
	}
	sc.hits = hits
	return hits, candidates
}

// Hit returns the first slot, in slot order, whose row contains the
// point p, or -1 when none does: Stab's first hit, found one bitset
// word at a time so it stops there. p must have the index's attribute
// count.
func (ix *Index) Hit(sc *Scratch, p []int64) int32 {
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
			if ix.slots[slot].sub.ContainsPoint(p) {
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
