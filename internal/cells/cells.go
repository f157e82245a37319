// Package cells implements the cell-bitset index that answers both of
// the system's box queries: which active rows intersect (or contain) an
// arriving subscription, for the coverage decision in package store, and
// which subscriptions contain a publication, for the broker's matcher
// and package match.
//
// A slot holds one word, a pointer to the caller's own row (a broker's
// route, a store's node), whose box is a field of the row: a pointer to
// its first bound, the index's own attribute count long (see Box). Each row
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
// The slots come in blocks, each holding its slots' row pointers and
// every bitset over them. The first block doubles, copying its bitsets
// into the wider layout, until it spans blockWords words (16,384
// slots); beyond that, each growth appends one more block of
// blockWords words, so nothing is copied or re-marked and at most one
// block lies unused. A query computes each attribute's cells once and
// ANDs each block's words into one accumulator over all of them. A
// block is a 2 KiB run per bitset: with 64-word blocks, 512 B runs,
// the matcher's stabs ran ~4 % slower. A query reads the words up to
// the highest live slot only, so once a burst of rows is retired the
// queries cost what the rows left make them cost, not what the burst
// did; each block counts its live slots, so a removal of the highest
// skips the emptied blocks and scans at most one for the next.
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

const (
	// blockShift is log2 of the slots a full block holds.
	blockShift = 14
	// blockSlots is the slots a full block holds, blockWords bitset
	// words.
	blockSlots = 1 << blockShift
	blockWords = blockSlots / 64
)

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
	// words is every block's bitset length in words: the first block's,
	// which doubles up to blockWords before a second block is added.
	words int
	// rows holds per block its bitsets: per attribute, gridCells cell
	// bitsets then the wild bitset, each words long.
	rows [][]uint64
	// slots holds per block the rows of the slots handed out, nil when
	// free; slot s is slots[s>>blockShift][s%blockSlots].
	slots [][]*T
	free  []int32 // freed slots, reused last in, first out
	live  []int32 // per block, its live slots
	top   int32   // one past the highest live slot
}

// Scratch is one query's working memory: the word accumulator, the
// offsets of the bitsets the query reads, the hit buffer and the
// gathered boxes. The zero value is ready. A query's result aliases its
// Scratch until the next query with it, so concurrent queries need
// separate Scratches.
type Scratch struct {
	acc   []uint64
	offs  []int
	hits  []int32
	boxes []*interval.Interval // Stab's gathered boxes; cleared after each check
}

// New returns an empty index over rows of m attributes. box returns the
// place of a row's box, a field of the row holding a pointer to the
// first of its m bounds (First), which must not change while the row is
// indexed; New calls it once, and panics unless the field lies inside
// the row, to learn its offset, so the exact checks reach a box without
// a call.
func New[T any](m int, box func(*T) **interval.Interval) *Index[T] {
	r := new(T)
	off := uintptr(unsafe.Pointer(box(r))) - uintptr(unsafe.Pointer(r))
	if off > unsafe.Sizeof(*r) || unsafe.Sizeof(*r)-off < unsafe.Sizeof((*interval.Interval)(nil)) {
		panic("cells: a row's box is not a field of the row")
	}
	return &Index[T]{m: m, off: off}
}

// First returns what a row keeps of its box s: a pointer to s's first
// bound, which keeps every bound alive, or nil when s has none. Box
// turns it back into s, given s's attribute count.
func First(s subscription.Subscription) *interval.Interval {
	if len(s.Bounds) == 0 {
		return nil
	}
	return &s.Bounds[0]
}

// Box returns the box of m bounds whose first one First returned.
func Box(first *interval.Interval, m uint32) subscription.Subscription {
	return subscription.Subscription{Bounds: unsafe.Slice(first, m)}
}

// first returns the first bound of row r's box.
func (ix *Index[T]) first(r *T) *interval.Interval {
	return *(**interval.Interval)(unsafe.Add(unsafe.Pointer(r), ix.off))
}

// box returns row r's box.
func (ix *Index[T]) box(r *T) subscription.Subscription {
	return Box(ix.first(r), uint32(ix.m))
}

// Attrs returns the attribute count of the index's boxes.
func (ix *Index[T]) Attrs() int { return ix.m }

// Len returns the number of indexed rows.
func (ix *Index[T]) Len() int { return ix.Slots() - len(ix.free) }

// Slots returns the number of slots handed out, live or free.
func (ix *Index[T]) Slots() int {
	k := len(ix.slots)
	if k == 0 {
		return 0
	}
	return (k-1)*blockSlots + len(ix.slots[k-1])
}

// Row returns the row in slot: nil when the slot is free or was never
// handed out.
func (ix *Index[T]) Row(slot int32) *T {
	if b := int(slot >> blockShift); b < len(ix.slots) {
		if i := int(slot & (blockSlots - 1)); i < len(ix.slots[b]) {
			return ix.slots[b][i]
		}
	}
	return nil
}

// at returns the place of a slot handed out.
func (ix *Index[T]) at(slot int32) **T {
	return &ix.slots[slot>>blockShift][slot&(blockSlots-1)]
}

// nrows returns the number of bitsets.
func (ix *Index[T]) nrows() int { return ix.m * (gridCells + 1) }

// used returns how many bitset words, over all blocks, reach the
// highest live slot: the words a query must read.
func (ix *Index[T]) used() int { return (int(ix.top) + 63) / 64 }

// blocks returns how many blocks a query must read: those up to the
// one holding the highest live slot.
func (ix *Index[T]) blocks() int { return (int(ix.top) + blockSlots - 1) >> blockShift }

// inBlock returns block b's part of acc, an accumulator of used()
// words over every block.
func (ix *Index[T]) inBlock(acc []uint64, b int) []uint64 {
	return acc[b*ix.words : min((b+1)*ix.words, len(acc))]
}

// cell returns the cell of attribute a holding v, clamped to the edge
// cells when v lies outside the grid hull.
func (ix *Index[T]) cell(a int, v int64) int {
	g := ix.grid[a]
	v = min(max(v, g.Lo), g.Hi)
	// Unsigned, so a hull of [MinInt64, MaxInt64] cannot overflow.
	return int((uint64(v) - uint64(g.Lo)) / ix.width[a])
}

// offset returns the offset, within a block's bitsets, of the bitset of
// cell c of attribute a, or of its wild bitset for c = gridCells.
func (ix *Index[T]) offset(a, c int) int { return (a*(gridCells+1) + c) * ix.words }

// span returns the width of a non-empty interval, unsigned.
func span(iv interval.Interval) uint64 { return uint64(iv.Hi) - uint64(iv.Lo) }

// Add indexes the non-nil row r, whose box has the index's attribute
// count, and returns the slot it holds until Remove.
func (ix *Index[T]) Add(r *T) int32 {
	var slot int32
	if k := len(ix.free); k > 0 {
		slot = ix.free[k-1]
		ix.free = ix.free[:k-1]
		*ix.at(slot) = r
	} else {
		slot = int32(ix.Slots())
		if int(slot) == 64*ix.words*len(ix.rows) {
			ix.grow()
		}
		last := len(ix.slots) - 1
		ix.slots[last] = append(ix.slots[last], r)
	}
	ix.live[slot>>blockShift]++
	ix.top = max(ix.top, slot+1)
	s := ix.box(r)
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
	} else {
		ix.toggle(slot)
	}
	return slot
}

// Remove un-indexes the row in slot and frees the slot.
func (ix *Index[T]) Remove(slot int32) {
	ix.toggle(slot)
	*ix.at(slot) = nil
	ix.free = append(ix.free, slot)
	ix.live[slot>>blockShift]--
	if slot+1 == ix.top {
		ix.lower()
	}
}

// lower moves top down to one past the highest live slot once the slot
// below it was freed: it skips the blocks with no live slot and scans
// the highest block with one from the top down.
func (ix *Index[T]) lower() {
	b := int(ix.top-1) >> blockShift
	for b >= 0 && ix.live[b] == 0 {
		b--
	}
	if b < 0 {
		ix.top = 0
		return
	}
	rs := ix.slots[b]
	i := min(len(rs), int(ix.top)-b<<blockShift) - 1
	for rs[i] == nil {
		i--
	}
	ix.top = int32(b<<blockShift + i + 1)
}

// toggle flips a slot's bits: the cells its bounds span on each
// attribute, or the wild bit where they contain the grid hull. A free
// slot has no bit set, so toggling it in Add sets exactly these bits,
// and toggling it in Remove, against the same grid, clears them.
func (ix *Index[T]) toggle(slot int32) {
	rows, i := ix.rows[slot>>blockShift], int(slot&(blockSlots-1))
	word, bit := i/64, uint64(1)<<(i%64)
	for a, b := range ix.box(*ix.at(slot)).Bounds {
		if b.ContainsInterval(ix.grid[a]) {
			rows[ix.offset(a, gridCells)+word] ^= bit
			continue
		}
		for c, hi := ix.cell(a, b.Lo), ix.cell(a, b.Hi); c <= hi; c++ {
			rows[ix.offset(a, c)+word] ^= bit
		}
	}
}

// recut cuts the grid over the hull and re-marks every live slot:
// O(k·m).
func (ix *Index[T]) recut() {
	copy(ix.grid, ix.hull)
	for a, g := range ix.grid {
		ix.width[a] = span(g)/gridCells + 1
	}
	for _, rows := range ix.rows {
		clear(rows)
	}
	for b, rs := range ix.slots {
		for i, r := range rs {
			if r != nil {
				ix.toggle(int32(b<<blockShift | i))
			}
		}
	}
}

// grow makes room for the next slot. Below blockWords, the one block
// doubles, each bitset copied into the wider layout; at blockWords, a
// block is appended. The grid is unchanged, so no slot is re-marked.
func (ix *Index[T]) grow() {
	if len(ix.rows) == 1 && ix.words < blockWords {
		w := ix.words
		rows := make([]uint64, ix.nrows()*2*w)
		for r := range ix.nrows() {
			copy(rows[2*r*w:], ix.rows[0][r*w:(r+1)*w])
		}
		ix.rows[0], ix.words = rows, 2*w
		ix.slots[0] = append(make([]*T, 0, 64*ix.words), ix.slots[0]...)
		return
	}
	ix.words = max(ix.words, 1)
	ix.rows = append(ix.rows, make([]uint64, ix.nrows()*ix.words))
	ix.slots = append(ix.slots, make([]*T, 0, 64*ix.words))
	ix.live = append(ix.live, 0)
}

// Containing returns the slots of the rows whose boxes contain s, in
// slot order. s must have the index's attribute count. The result
// aliases sc.
func (ix *Index[T]) Containing(sc *Scratch, s subscription.Subscription) []int32 {
	hits := ix.filter(sc, s, true)
	n := 0
	for _, slot := range hits {
		if ix.box(*ix.at(slot)).Covers(s) {
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
	// Per filtered attribute, the offsets of its wild bitset and of the
	// cells of s's two ends. Where s contains the hull it meets every
	// indexed row, so an intersection query filters only the other
	// attributes — or attribute 0 alone, whose filter then passes every
	// live row.
	offs := sc.offs[:0]
	add := func(a int) {
		b := s.Bounds[a]
		offs = append(offs, ix.offset(a, gridCells), ix.offset(a, ix.cell(a, b.Lo)), ix.offset(a, ix.cell(a, b.Hi)))
	}
	for a, b := range s.Bounds {
		if cover || !b.ContainsInterval(ix.hull[a]) {
			add(a)
		}
	}
	if len(offs) == 0 {
		add(0)
	}
	sc.offs = offs
	w := ix.words
	all := sc.words(ix.used())
	for b, rows := range ix.rows[:ix.blocks()] {
		acc := ix.inBlock(all, b)
		for i := range acc {
			acc[i] = ^uint64(0)
		}
		for k := 0; k < len(offs); k += 3 {
			wild, cells := rows[offs[k]:], rows[offs[k+1]:offs[k+2]+w]
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
	}
	sc.hits = appendSlots(sc.hits[:0], all)
	return sc.hits
}

// appendSlots appends the slots whose bits are set in acc, an
// accumulator over every block's words.
func appendSlots(hits []int32, acc []uint64) []int32 {
	for i, word := range acc {
		for ; word != 0; word &= word - 1 {
			hits = append(hits, int32(i*64+bits.TrailingZeros64(word)))
		}
	}
	return hits
}

// stabOffs leaves in sc.offs, per attribute, the offsets of p's cell
// bitset and of the wild bitset, and reports whether p lies inside the
// hull: every indexed row does.
func (ix *Index[T]) stabOffs(sc *Scratch, p []int64) bool {
	for a, h := range ix.hull {
		if !h.Contains(p[a]) {
			return false
		}
	}
	offs := sc.offs[:0]
	for a, v := range p {
		offs = append(offs, ix.offset(a, ix.cell(a, v)), ix.offset(a, gridCells))
	}
	sc.offs = offs
	return true
}

// Stab returns the slots of the rows whose boxes contain the point p,
// in slot order, and how many slots the filter passed to the exact
// check. p must have the index's attribute count. The result aliases
// sc.
func (ix *Index[T]) Stab(sc *Scratch, p subscription.Publication) (hits []int32, candidates int) {
	if !ix.stabOffs(sc, p.Values) {
		return sc.hits[:0], 0
	}
	offs := sc.offs
	all := sc.words(ix.used())
	for b, rows := range ix.rows[:ix.blocks()] {
		acc := ix.inBlock(all, b)
		for k := 0; k < len(offs); k += 2 {
			cell, wild := rows[offs[k]:], rows[offs[k+1]:]
			cell, wild = cell[:len(acc)], wild[:len(acc)] // drops the loops' bounds checks
			if k == 0 {
				for i := range acc {
					acc[i] = cell[i] | wild[i]
				}
			} else {
				for i := range acc {
					acc[i] &= cell[i] | wild[i]
				}
			}
		}
	}
	hits = appendSlots(sc.hits[:0], all)
	// The candidates' boxes are gathered in a pass of their own, with no
	// branch between one row and the next, so that many rows' loads are
	// in flight at once; the checks then read them, and sc drops them.
	boxes, slots := sc.boxes[:0], ix.slots
	for _, slot := range hits {
		boxes = append(boxes, ix.first(slots[slot>>blockShift][slot&(blockSlots-1)]))
	}
	n, m := 0, uint32(ix.m)
	for k, first := range boxes {
		if Box(first, m).Matches(p) {
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
	if !ix.stabOffs(sc, p) {
		return -1
	}
	offs := sc.offs
	for b, rows := range ix.rows[:ix.blocks()] {
		rs := ix.slots[b]
		for i := range (min(len(rs), int(ix.top)-b<<blockShift) + 63) / 64 {
			word := ^uint64(0)
			for k := 0; k < len(offs) && word != 0; k += 2 {
				word &= rows[offs[k]+i] | rows[offs[k+1]+i]
			}
			for ; word != 0; word &= word - 1 {
				slot := i*64 + bits.TrailingZeros64(word)
				if ix.box(rs[slot]).ContainsPoint(p) {
					return int32(b<<blockShift | slot)
				}
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
