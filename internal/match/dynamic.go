package match

import (
	"slices"
	"sync"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// ITreeIndex is a dynamic matcher over the per-attribute centered
// interval trees. It keeps an immutable base generation — the trees
// built from every live subscription at the last merge — plus a small
// mutable delta. Add of a new ID appends to the delta; Remove or
// replacement of a base ID tombstones its base position; Remove of a
// delta ID just drops it. A Match stabs the base, skips tombstoned
// positions and scans the delta linearly. Once the delta and the
// tombstones together pass max(deltaFloor, base/8), the next Match or
// MatchAny merges: it rebuilds the base from the live set and empties
// both. One subscription change thus costs O(1), every publication
// scans a delta bounded by a fraction of the base, and a burst of any
// size still pays one O(k log k) rebuild — the broker regime, where
// publications far outnumber subscription churn.
//
// Unlike CountingIndex it needs no schema, yet it keeps the counting
// algorithm's trivial-predicate optimization by inferring a
// pseudo-domain: per attribute, the HULL of the indexed predicates. A
// predicate spanning the whole hull is satisfied by every point any
// predicate on that attribute can accept, so it is exact to leave it
// un-indexed and count it as pre-satisfied — provided the query value
// lies inside the hull; a value outside the hull is outside every
// predicate on that attribute (all are within the hull), so the whole
// bucket misses. On realistic workloads most predicates are the
// unconstrained full domain, which the hull test recovers without
// being told the domain. The hulls are the base's: they gate the base
// stab only, never the delta scan.
//
// Subscriptions are bucketed by attribute count, so sets fed from
// mixed schemas stay matchable: a publication consults only the
// bucket with its own attribute count, mirroring Subscription.Matches
// (which rejects on length mismatch).
//
// All methods are safe for concurrent use. Match and MatchAny hold the
// read lock for the whole call, so they run in parallel with each
// other against one consistent base, tombstone set and delta; the
// counting-stab scratch is drawn from a per-bucket pool, so concurrent
// stabs never share state. Add and Remove take the write lock. The
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

// itreeBucket matches subscriptions of one attribute count. Every
// field except the scratch pool and the tombstones is immutable once
// the rebuild that created the bucket returns.
type itreeBucket struct {
	ids      []ID
	hulls    []interval.Interval // per-attribute hull of all predicates
	trees    []*itreeNode        // non-hull-spanning predicates only
	required []int               // indexed-predicate count per position
	matchAll []int               // positions with zero indexed predicates
	scratch  sync.Pool           // *stabScratch sized for this bucket
	// dead marks positions removed or replaced since the build; nil
	// until the first tombstone. Written under the index's write lock.
	dead []bool
}

// stabScratch is the per-call state of the counting stab loop.
type stabScratch struct {
	counts []int
	stamp  []uint32
	epoch  uint32
	hits   []int
}

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

// rebuild reconstructs the base generation from the current set and
// empties the delta and the tombstones. Caller holds the write lock.
func (x *ITreeIndex) rebuild() {
	x.buckets = make(map[int]*itreeBucket)
	// Deterministic tree shape: insert in ascending ID order.
	ids := make([]ID, 0, len(x.subs))
	for id := range x.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		slot := x.subs[id]
		if !slot.sub.IsSatisfiable() {
			continue // an empty bound matches nothing: keep it out of
			// the trees (buildITree requires non-empty intervals)
		}
		m := slot.sub.Len()
		bkt := x.buckets[m]
		if bkt == nil {
			bkt = &itreeBucket{trees: make([]*itreeNode, m)}
			x.buckets[m] = bkt
		}
		slot.pos, slot.base = int32(len(bkt.ids)), true
		x.subs[id] = slot
		bkt.ids = append(bkt.ids, id)
	}
	for m, bkt := range x.buckets {
		bkt.hulls = make([]interval.Interval, m)
		for i, id := range bkt.ids {
			for a, b := range x.subs[id].sub.Bounds {
				if i == 0 {
					bkt.hulls[a] = b
				} else {
					bkt.hulls[a] = bkt.hulls[a].Hull(b)
				}
			}
		}
		perAttr := make([][]entry, m)
		bkt.required = make([]int, len(bkt.ids))
		for pos, id := range bkt.ids {
			for a, b := range x.subs[id].sub.Bounds {
				if b.ContainsInterval(bkt.hulls[a]) {
					continue // hull-spanning: pre-satisfied inside the hull
				}
				perAttr[a] = append(perAttr[a], entry{iv: b, sub: pos})
				bkt.required[pos]++
			}
			if bkt.required[pos] == 0 {
				bkt.matchAll = append(bkt.matchAll, pos)
			}
		}
		for a := range perAttr {
			bkt.trees[a] = buildITree(perAttr[a])
		}
		n := len(bkt.ids)
		bkt.scratch.New = func() any {
			return &stabScratch{counts: make([]int, n), stamp: make([]uint32, n)}
		}
	}
	x.baseLen, x.stale, x.delta = len(x.subs), 0, nil
	x.rebuilds++
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

// baseBucket returns the base bucket for p's arity — nil when no bucket
// exists or p falls outside a per-attribute hull (outside the hull
// means outside every base predicate on that attribute, and every
// subscription carries one). Caller holds the read lock.
func (x *ITreeIndex) baseBucket(p subscription.Publication) *itreeBucket {
	bkt := x.buckets[len(p.Values)]
	if bkt == nil {
		return nil
	}
	for a, hull := range bkt.hulls {
		if !hull.Contains(p.Values[a]) {
			return nil
		}
	}
	return bkt
}

// completions runs the counting stab loop with the given scratch,
// invoking emit for every live position whose indexed predicates all
// contain p (matchAll positions are complete by definition and come
// first). emit returning false stops the scan.
func (bkt *itreeBucket) completions(p subscription.Publication, sc *stabScratch, emit func(pos int) bool) {
	for _, pos := range bkt.matchAll {
		if bkt.dead != nil && bkt.dead[pos] {
			continue
		}
		if !emit(pos) {
			return
		}
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: reset stamps
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	for a, tree := range bkt.trees {
		sc.hits = tree.stab(p.Values[a], sc.hits[:0])
		for _, pos := range sc.hits {
			if sc.stamp[pos] != sc.epoch {
				sc.stamp[pos] = sc.epoch
				sc.counts[pos] = 0
			}
			sc.counts[pos]++
			if sc.counts[pos] == bkt.required[pos] {
				if bkt.dead != nil && bkt.dead[pos] {
					continue
				}
				if !emit(pos) {
					return
				}
			}
		}
	}
}

// Match implements Matcher in O(m·log k + hits + delta) per
// publication after an amortized merge. Safe for concurrent callers.
func (x *ITreeIndex) Match(p subscription.Publication) []ID {
	x.rlock()
	var out []ID
	if bkt := x.baseBucket(p); bkt != nil {
		sc := bkt.scratch.Get().(*stabScratch)
		bkt.completions(p, sc, func(pos int) bool {
			out = append(out, bkt.ids[pos])
			return true
		})
		bkt.scratch.Put(sc)
	}
	for i := range x.delta {
		if d := &x.delta[i]; d.sub.Matches(p) {
			out = append(out, d.id)
		}
	}
	x.mu.RUnlock()
	sortIDs(out)
	return out
}

// MatchAny reports whether any indexed subscription matches p,
// returning as soon as one completes — the existence form the broker
// uses for reverse-path forwarding, where the member list is unused.
// The delta is checked first: it is small, and a fresh subscription is
// the likeliest to lie outside the base's hulls. Safe for concurrent
// callers.
func (x *ITreeIndex) MatchAny(p subscription.Publication) bool {
	x.rlock()
	defer x.mu.RUnlock()
	for i := range x.delta {
		if x.delta[i].sub.Matches(p) {
			return true
		}
	}
	bkt := x.baseBucket(p)
	if bkt == nil {
		return false
	}
	sc := bkt.scratch.Get().(*stabScratch)
	found := false
	bkt.completions(p, sc, func(int) bool {
		found = true
		return false
	})
	bkt.scratch.Put(sc)
	return found
}
