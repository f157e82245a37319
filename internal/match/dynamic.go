package match

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// ITreeIndex is the dynamic matcher the broker publish path uses. The
// name is historical: its base generation once held per-attribute
// interval trees, and now holds per-attribute cell bitsets that filter
// candidates for an exact check.
//
// The index keeps an immutable base generation — built from every live
// subscription at the last merge — plus a small mutable delta. Add of a
// new ID appends to the delta; Remove or replacement of a base ID
// tombstones its base position; Remove of a delta ID just drops it. A
// Match filters the base, skips tombstoned positions and scans the
// delta linearly. Once the delta and the tombstones together pass
// max(deltaFloor, base/8), the next Match or MatchAny merges: it
// rebuilds the base from the live set and empties both. One
// subscription change thus costs O(1), every publication scans a delta
// bounded by a fraction of the base, and a burst of any size still pays
// one O(k·m) rebuild — the broker regime, where publications far
// outnumber subscription churn.
//
// The base needs no schema: per attribute it infers a pseudo-domain,
// the HULL of the indexed predicates, and cuts it into gridCells equal
// cells. Each (attribute, cell) pair holds a bitset over base positions
// marking the predicates that overlap the cell; a predicate spanning
// the whole hull goes into the attribute's wild bitset instead, since
// it is satisfied by every value the hull admits. A query whose value
// lies outside an attribute's hull misses the whole bucket (every
// predicate on that attribute lies within the hull). Otherwise it ANDs,
// over the attributes, the row of the cell holding the value with the
// wild row, and checks each surviving position exactly against its
// bounds: the filter only ever sheds, so a result is never wrong, and
// a filter that sheds nothing degrades to a word scan plus exact
// checks. The hulls are the base's: they gate the base only, never the
// delta scan.
//
// Subscriptions are bucketed by attribute count, so sets fed from
// mixed schemas stay matchable: a publication consults only the
// bucket with its own attribute count, mirroring Subscription.Matches
// (which rejects on length mismatch).
//
// All methods are safe for concurrent use. Match and MatchAny hold the
// read lock for the whole call, so they run in parallel with each
// other against one consistent base, tombstone set and delta; each
// draws its word accumulator and hit buffer from a pool, so concurrent
// queries never share state. Add and Remove take the write lock. The
// merge happens inside whichever reader first finds the delta over its
// bound: it trades its read lock for the write lock, rebuilds, and
// reads the fresh generation. Merging on the read side, not in Add or
// Remove and not in a goroutine, keeps a burst of writes to a single
// rebuild and the index free of any lifecycle.
type ITreeIndex struct {
	mu sync.RWMutex
	// subs holds every live subscription and where it is indexed.
	subs map[ID]itreeSlot
	// buckets is the base generation, keyed by attribute count.
	buckets map[int]*itreeBucket
	// baseLen is the live-set size when the base was built; stale
	// counts the base entries removed or replaced since.
	baseLen, stale int
	// delta holds the satisfiable subscriptions added since the build.
	delta    []itreeDelta
	rebuilds uint64
	// candidates counts the base positions the filter passed to the
	// exact check, hits those of them that matched.
	candidates, hits atomic.Uint64
}

// itreeSlot is a live subscription and its place in the index: a
// position in the base bucket of its arity (base), an index into the
// delta, or neither (pos < 0) for an unsatisfiable subscription, which
// matches nothing.
type itreeSlot struct {
	sub  subscription.Subscription
	pos  int32
	base bool
}

// itreeDelta is a subscription added since the base was built.
type itreeDelta struct {
	id  ID
	sub subscription.Subscription
}

// deltaFloor is the delta-plus-tombstone count a small index tolerates
// before merging; past 8·deltaFloor base entries the bound is base/8.
const deltaFloor = 64

// gridCells is the number of equal cells each attribute's hull is cut
// into.
const gridCells = 64

// itreeBucket matches subscriptions of one attribute count. Every
// field except the tombstones is immutable once the rebuild that
// created the bucket returns.
type itreeBucket struct {
	ids   []ID                        // per position, ascending
	subs  []subscription.Subscription // per position, for the exact check
	hulls []interval.Interval         // per-attribute hull of all predicates
	width []uint64                    // per-attribute cell width
	words int                         // bitset length in words
	// rows holds, per attribute, gridCells cell bitsets then the wild
	// bitset, each words long.
	rows []uint64
	// dead marks positions removed or replaced since the build; nil
	// until the first tombstone. Written under the index's write lock.
	dead []bool
}

// matchScratch is the per-call state of a query.
type matchScratch struct {
	acc  []uint64 // the AND of the selected rows
	hits []ID
}

var scratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

var _ Matcher = (*ITreeIndex)(nil)

// NewITreeIndex returns an empty dynamic matcher.
func NewITreeIndex() *ITreeIndex {
	return &ITreeIndex{subs: make(map[ID]itreeSlot)}
}

// Add indexes a subscription under id, replacing any previous entry.
func (x *ITreeIndex) Add(id ID, s subscription.Subscription) {
	x.mu.Lock()
	if old, ok := x.subs[id]; ok {
		x.detach(old)
	}
	slot := itreeSlot{sub: s, pos: -1}
	if s.IsSatisfiable() {
		slot.pos = int32(len(x.delta))
		x.delta = append(x.delta, itreeDelta{id: id, sub: s})
	}
	x.subs[id] = slot
	x.mu.Unlock()
}

// Remove drops the subscription with the given id, if present.
func (x *ITreeIndex) Remove(id ID) {
	x.mu.Lock()
	if old, ok := x.subs[id]; ok {
		x.detach(old)
		delete(x.subs, id)
	}
	x.mu.Unlock()
}

// detach unindexes a live slot: a base entry is tombstoned, a delta
// entry is overwritten by the delta's last. Caller holds the write
// lock.
func (x *ITreeIndex) detach(s itreeSlot) {
	switch {
	case s.base:
		bkt := x.buckets[s.sub.Len()]
		if bkt.dead == nil {
			bkt.dead = make([]bool, len(bkt.ids))
		}
		bkt.dead[s.pos] = true
		x.stale++
	case s.pos >= 0:
		last := int32(len(x.delta) - 1)
		if s.pos != last {
			moved := x.delta[last]
			x.delta[s.pos] = moved
			ms := x.subs[moved.id]
			ms.pos = s.pos
			x.subs[moved.id] = ms
		}
		x.delta[last] = itreeDelta{}
		x.delta = x.delta[:last]
	}
}

// Len implements Matcher.
func (x *ITreeIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.subs)
}

// Rebuilds returns how many base generations the index has built: the
// merges its churn forced, the first build included.
func (x *ITreeIndex) Rebuilds() uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.rebuilds
}

// FilterCounts returns how many base positions the cell filter has
// passed to the exact check, and how many of those matched, over the
// index's life. Candidates far above hits mean the filter sheds little
// — a degenerate hull. The delta scan is not counted.
func (x *ITreeIndex) FilterCounts() (candidates, hits uint64) {
	return x.candidates.Load(), x.hits.Load()
}

// rebuild reconstructs the base generation from the current set and
// empties the delta and the tombstones. Caller holds the write lock.
func (x *ITreeIndex) rebuild() {
	x.buckets = make(map[int]*itreeBucket)
	// Positions in ascending ID order, so base hits come out sorted. An
	// unsatisfiable subscription matches nothing and gets no position.
	ids := make([]ID, 0, len(x.subs))
	size := make(map[int]int) // positions per arity
	for id, slot := range x.subs {
		if slot.sub.IsSatisfiable() {
			ids = append(ids, id)
			size[slot.sub.Len()]++
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		slot := x.subs[id]
		m := slot.sub.Len()
		bkt := x.buckets[m]
		if bkt == nil {
			bkt = &itreeBucket{
				ids:   make([]ID, 0, size[m]),
				subs:  make([]subscription.Subscription, 0, size[m]),
				hulls: slices.Clone(slot.sub.Bounds),
			}
			x.buckets[m] = bkt
		}
		for a, b := range slot.sub.Bounds {
			bkt.hulls[a] = bkt.hulls[a].Hull(b)
		}
		slot.pos, slot.base = int32(len(bkt.ids)), true
		x.subs[id] = slot
		bkt.ids = append(bkt.ids, id)
		bkt.subs = append(bkt.subs, slot.sub)
	}
	for m, bkt := range x.buckets {
		bkt.width = make([]uint64, m)
		for a, h := range bkt.hulls {
			// Unsigned, so a hull of [MinInt64, MaxInt64] cannot overflow.
			bkt.width[a] = (uint64(h.Hi)-uint64(h.Lo))/gridCells + 1
		}
		bkt.words = (len(bkt.ids) + 63) / 64
		bkt.rows = make([]uint64, m*(gridCells+1)*bkt.words)
		for pos, s := range bkt.subs {
			word, bit := pos/64, uint64(1)<<(pos%64)
			for a, b := range s.Bounds {
				lo, hi := gridCells, gridCells // the wild row
				if !b.ContainsInterval(bkt.hulls[a]) {
					lo, hi = bkt.cell(a, b.Lo), bkt.cell(a, b.Hi)
				}
				for c := lo; c <= hi; c++ {
					bkt.row(a, c)[word] |= bit
				}
			}
		}
	}
	x.baseLen, x.stale, x.delta = len(x.subs), 0, nil
	x.rebuilds++
}

// cell returns the cell of attribute a's hull that holds v, which lies
// inside the hull.
func (bkt *itreeBucket) cell(a int, v int64) int {
	return int((uint64(v) - uint64(bkt.hulls[a].Lo)) / bkt.width[a])
}

// row returns attribute a's bitset for cell c; c == gridCells is the
// wild row.
func (bkt *itreeBucket) row(a, c int) []uint64 {
	i := (a*(gridCells+1) + c) * bkt.words
	return bkt.rows[i : i+bkt.words]
}

// overBound reports whether the delta and the tombstones have outgrown
// their bound. Caller holds the lock.
func (x *ITreeIndex) overBound() bool {
	return len(x.delta)+x.stale > max(deltaFloor, x.baseLen/8)
}

// rlock takes the read lock for one query, first merging the delta into
// a fresh base generation if it has outgrown its bound.
func (x *ITreeIndex) rlock() {
	x.mu.RLock()
	if !x.overBound() {
		return
	}
	x.mu.RUnlock()
	x.mu.Lock()
	if x.overBound() {
		x.rebuild()
	}
	x.mu.Unlock()
	x.mu.RLock()
}

// matchBase appends to hits the base IDs matching p in ascending
// order — only the first when first is set — and counts the candidates
// checked and the hits. Caller holds the read lock.
func (x *ITreeIndex) matchBase(p subscription.Publication, sc *matchScratch, hits []ID, first bool) []ID {
	bkt := x.buckets[len(p.Values)]
	if bkt == nil {
		return hits
	}
	// The hull gate: outside an attribute's hull means outside every
	// base predicate on that attribute, and every subscription carries
	// one.
	for a, hull := range bkt.hulls {
		if !hull.Contains(p.Values[a]) {
			return hits
		}
	}
	if cap(sc.acc) < bkt.words {
		sc.acc = make([]uint64, bkt.words)
	}
	acc := sc.acc[:bkt.words]
	for a, v := range p.Values {
		row, wild := bkt.row(a, bkt.cell(a, v)), bkt.row(a, gridCells)
		row, wild = row[:len(acc)], wild[:len(acc)] // drops the loops' bounds checks
		if a == 0 {
			for i := range acc {
				acc[i] = row[i] | wild[i]
			}
		} else {
			for i := range acc {
				acc[i] &= row[i] | wild[i]
			}
		}
	}
	n, checked := len(hits), 0
scan:
	for w, word := range acc {
		for ; word != 0; word &= word - 1 {
			pos := w*64 + bits.TrailingZeros64(word)
			if bkt.dead != nil && bkt.dead[pos] {
				continue
			}
			checked++
			if bkt.subs[pos].Matches(p) {
				hits = append(hits, bkt.ids[pos])
				if first {
					break scan
				}
			}
		}
	}
	x.candidates.Add(uint64(checked))
	x.hits.Add(uint64(len(hits) - n))
	return hits
}

// Match implements Matcher in O(m·k/64 + candidates + delta) per
// publication after an amortized merge, with one allocation: the
// result. Safe for concurrent callers.
func (x *ITreeIndex) Match(p subscription.Publication) []ID {
	sc := scratchPool.Get().(*matchScratch)
	x.rlock()
	hits := x.matchBase(p, sc, sc.hits[:0], false)
	for i := range x.delta {
		if d := &x.delta[i]; d.sub.Matches(p) {
			hits = append(hits, d.id)
		}
	}
	x.mu.RUnlock()
	var out []ID
	if len(hits) > 0 {
		sortIDs(hits) // the base's hits are ascending, the delta's not
		out = make([]ID, len(hits))
		copy(out, hits)
	}
	sc.hits = hits
	scratchPool.Put(sc)
	return out
}

// MatchAny reports whether any indexed subscription matches p,
// returning at the first verified match — the existence form the
// broker uses for reverse-path forwarding, where the member list is
// unused. The delta is checked first: it is small, and a fresh
// subscription is the likeliest to lie outside the base's hulls. Safe
// for concurrent callers.
func (x *ITreeIndex) MatchAny(p subscription.Publication) bool {
	x.rlock()
	defer x.mu.RUnlock()
	for i := range x.delta {
		if x.delta[i].sub.Matches(p) {
			return true
		}
	}
	sc := scratchPool.Get().(*matchScratch)
	sc.hits = x.matchBase(p, sc, sc.hits[:0], true)
	found := len(sc.hits) > 0
	scratchPool.Put(sc)
	return found
}
