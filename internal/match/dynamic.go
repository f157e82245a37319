package match

import (
	"slices"
	"sync"
	"sync/atomic"

	"probsum/internal/cells"
	"probsum/internal/subscription"
)

// ITreeIndex is a dynamic matcher keyed by ID (see the package doc for
// who uses it). The name is historical: it once held per-attribute interval trees, and now
// holds one cells.Index per attribute count, which Add and Remove update
// in place. A publication consults only the index of its own attribute
// count, mirroring Subscription.Matches (which rejects on length
// mismatch); an unsatisfiable subscription is not indexed.
//
// All methods are safe for concurrent use. Match holds the read lock
// for the whole call and draws its query scratch from a pool, so
// matches run in parallel; Add and Remove take the write lock.
type ITreeIndex struct {
	mu sync.RWMutex
	// subs maps every live subscription to where it is indexed.
	// +guarded_by:mu
	subs map[ID]itreeSlot
	// byArity holds the non-empty indexes, keyed by attribute count.
	// +guarded_by:mu
	byArity map[int]*cells.Index
	// candidates counts the slots the filter passed to the exact check,
	// hits those of them that matched.
	candidates, hits atomic.Uint64
}

// itreeSlot is where a live subscription is indexed: a slot of the
// index for its arity m, or none (slot < 0).
type itreeSlot struct{ m, slot int32 }

var scratchPool = sync.Pool{New: func() any { return new(cells.Scratch) }}

// NewITreeIndex returns an empty dynamic matcher.
func NewITreeIndex() *ITreeIndex {
	return &ITreeIndex{subs: make(map[ID]itreeSlot), byArity: make(map[int]*cells.Index)}
}

// Add indexes a subscription under id, replacing any previous entry.
func (x *ITreeIndex) Add(id ID, s subscription.Subscription) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.subs[id]; ok {
		x.detach(old)
	}
	at := itreeSlot{m: int32(s.Len()), slot: -1}
	if s.IsSatisfiable() {
		ix := x.byArity[s.Len()]
		if ix == nil {
			ix = cells.New(s.Len())
			x.byArity[s.Len()] = ix
		}
		at.slot = ix.Add(int64(id), s)
	}
	x.subs[id] = at
}

// Remove drops the subscription with the given id, if present.
func (x *ITreeIndex) Remove(id ID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if old, ok := x.subs[id]; ok {
		x.detach(old)
		delete(x.subs, id)
	}
}

// detach un-indexes a live subscription, dropping its arity's index
// once empty so that a later population starts from a fresh grid.
//
// +mustlock:mu
func (x *ITreeIndex) detach(at itreeSlot) {
	if at.slot < 0 {
		return
	}
	ix := x.byArity[int(at.m)]
	ix.Remove(at.slot)
	if ix.Len() == 0 {
		delete(x.byArity, int(at.m))
	}
}

// Len returns the number of indexed subscriptions.
func (x *ITreeIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.subs)
}

// FilterCounts returns how many slots the cell filter has passed to the
// exact check, and how many of those matched, over the index's life.
// Candidates far above hits mean the filter sheds little — a
// degenerate hull.
func (x *ITreeIndex) FilterCounts() (candidates, hits uint64) {
	return x.candidates.Load(), x.hits.Load()
}

// Match returns the IDs of the subscriptions containing p, ascending,
// in O(m·k/64 + candidates) with one allocation: the result. It
// queries only the index of p's arity, and counts the candidates and
// hits. Safe for concurrent callers.
func (x *ITreeIndex) Match(p subscription.Publication) []ID {
	return x.AppendMatch(nil, p)
}

// AppendMatch is Match appending to dst, so a caller matching many
// publications reuses one buffer; it allocates only when dst lacks
// room for the hits.
func (x *ITreeIndex) AppendMatch(dst []ID, p subscription.Publication) []ID {
	sc := scratchPool.Get().(*cells.Scratch)
	defer scratchPool.Put(sc)
	x.mu.RLock()
	defer x.mu.RUnlock()
	ix := x.byArity[len(p.Values)]
	if ix == nil {
		return dst
	}
	hits, candidates := ix.Stab(sc, p)
	x.candidates.Add(uint64(candidates))
	x.hits.Add(uint64(len(hits)))
	if len(hits) == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, len(hits))
	for _, slot := range hits {
		id, _ := ix.Row(slot)
		dst = append(dst, ID(id))
	}
	// Hits come in slot order, which slot reuse scrambles.
	slices.Sort(dst[n:])
	return dst
}
