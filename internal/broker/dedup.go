package broker

import (
	"fmt"
	"hash/maphash"
	"sync"
)

// pubDedup is a bounded duplicate-suppression set of publication IDs:
// two generations of at most limit IDs each. Inserts go to the current
// generation; when it reaches limit, the previous generation is emptied
// and becomes the current one. An ID is a duplicate when either
// generation holds it, so the horizon — the number of newer distinct
// IDs after which a repeat can slip through — is at least limit and the
// memory bound is ~2·limit IDs.
//
// The window holds 65,536 to 131,072 IDs by default, so its layout is
// chosen for the garbage collector: a generation is three pointer-free
// slices (hash slots, one byte arena, the arena's end offsets) that the
// collector never scans, where a map of strings costs several
// pointer-bearing heap objects per ID, every one of them marked on
// every cycle. Rotation clears and reuses the retired generation's
// slices, so at steady state seen allocates nothing.
type pubDedup struct {
	limit int
	seed  maphash.Seed
	// mu is held for the whole of seen: the publish path calls it under
	// the broker's shared lock, so publishers meet here.
	mu sync.Mutex
	// +guarded_by:mu
	cur dedupGen
	// +guarded_by:mu
	prev dedupGen
}

// dedupGen is one generation: an open-addressing hash table with linear
// probing. The IDs lie back to back in arena, the i-th ending at
// ends[i]; a slot holds 0 (empty) or, for the i-th ID, 1+i in its low
// dedupIndexBits and the top bits of the ID's hash above them (its
// tag). The slot count is a power of two at least twice the ID count,
// so the load factor stays ≤ ½. A probe reads an ID's bytes only when
// the tags agree, and then compares them in full, so no decision rests
// on a hash.
type dedupGen struct {
	slots []uint32
	arena []byte
	ends  []int
}

// dedupIndexBits is the width of a slot's 1+index field; the other 12
// bits hold the tag. A generation therefore holds fewer than 2^20 IDs.
const (
	dedupIndexBits = 20
	dedupIndexMask = 1<<dedupIndexBits - 1
)

// dedupTag returns the tag of hash h, placed where a slot holds it.
func dedupTag(h uint64) uint32 {
	return uint32(h>>(64-(32-dedupIndexBits))) << dedupIndexBits
}

// minDedupSlots is a generation's first table size; it doubles as IDs
// arrive, up to the first power of two ≥ 2·limit, so a broker that
// sees few publications keeps a small window.
const minDedupSlots = 16

// init sets the window's limit, which a slot's index field bounds.
func (d *pubDedup) init(limit int) error {
	if limit > dedupIndexMask {
		return fmt.Errorf("dedup limit %d exceeds %d", limit, dedupIndexMask)
	}
	d.limit = limit
	d.seed = maphash.MakeSeed()
	return nil
}

// seen records id and reports whether it was already known.
func (d *pubDedup) seen(id string) bool {
	h := maphash.String(d.seed, id)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.prev.has(h, id) {
		// Refresh a previous-generation hit into the current generation.
		// Without this, an ID re-sighted just before its generation
		// rotates away is dropped with it — the documented at-least-limit
		// horizon from the LAST sighting would shrink to as little as one
		// newer distinct ID when the current generation sits at the
		// rotation boundary.
		d.put(h, id)
		return true
	}
	return d.put(h, id)
}

// put records id in the current generation, rotating when that fills
// it, and reports whether the generation already held id.
//
// +mustlock:mu
func (d *pubDedup) put(h uint64, id string) bool {
	if d.cur.put(d.seed, h, id) {
		return true
	}
	if len(d.cur.ends) >= d.limit {
		d.prev.reset()
		d.cur, d.prev = d.prev, d.cur
	}
	return false
}

// size counts the tracked IDs across both generations, an ID refreshed
// into the current generation twice (test hook for the memory bound).
func (d *pubDedup) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cur.ends) + len(d.prev.ends)
}

// ids enumerates the tracked publication IDs across both generations,
// each once, in no particular order.
func (d *pubDedup) ids() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.cur.ends)+len(d.prev.ends))
	for i := range d.cur.ends {
		out = append(out, string(d.cur.id(i)))
	}
	for i := range d.prev.ends {
		id := string(d.prev.id(i))
		if !d.cur.has(maphash.String(d.seed, id), id) {
			out = append(out, id)
		}
	}
	return out
}

// id returns the bytes of the generation's i-th ID.
func (g *dedupGen) id(i int) []byte {
	start := 0
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.arena[start:g.ends[i]]
}

// find returns the slot holding id (h is its hash), or else the empty
// slot that ends its probe sequence. The table must not be empty.
func (g *dedupGen) find(h uint64, id string) (int, bool) {
	mask := uint64(len(g.slots) - 1)
	tag := dedupTag(h)
	for i := h & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			return int(i), false
		}
		if s&^dedupIndexMask == tag && string(g.id(int(s&dedupIndexMask)-1)) == id {
			return int(i), true
		}
	}
}

func (g *dedupGen) has(h uint64, id string) bool {
	if len(g.slots) == 0 {
		return false
	}
	_, ok := g.find(h, id)
	return ok
}

// put adds id unless the generation holds it, and reports whether it
// did.
func (g *dedupGen) put(seed maphash.Seed, h uint64, id string) bool {
	if 2*(len(g.ends)+1) > len(g.slots) {
		g.grow(seed)
	}
	i, ok := g.find(h, id)
	if ok {
		return true
	}
	g.arena = append(g.arena, id...)
	g.ends = append(g.ends, len(g.arena))
	g.slots[i] = dedupTag(h) | uint32(len(g.ends))
	return false
}

// grow doubles the slot table and places every ID again.
func (g *dedupGen) grow(seed maphash.Seed) {
	g.slots = make([]uint32, max(2*len(g.slots), minDedupSlots))
	mask := uint64(len(g.slots) - 1)
	for k := range g.ends {
		h := maphash.Bytes(seed, g.id(k))
		i := h & mask
		for g.slots[i] != 0 {
			i = (i + 1) & mask
		}
		g.slots[i] = dedupTag(h) | uint32(k+1)
	}
}

// reset empties the generation and keeps its storage.
func (g *dedupGen) reset() {
	clear(g.slots)
	g.arena = g.arena[:0]
	g.ends = g.ends[:0]
}
