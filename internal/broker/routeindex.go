package broker

import (
	"hash/maphash"
	"iter"
)

// routeIndex is a set of routes keyed by their SubIDs: the broker's
// route table and each link's received set. It is an open-addressing
// hash table with linear probing: slots holds the routes, tags beside
// it one byte of each route's hash, 0 for an empty slot. A probe
// compares a route's SubID only when the tags agree, so a miss reads
// the tag bytes alone. A slot costs 9 B, where a Go map entry of
// string key and pointer costs ~43 B at the broker's sizes.
//
// Deletion shifts the rest of the probe run back instead of leaving a
// tombstone, so a lookup never probes past a run's end; it also moves
// entries a running scan of all has not reached yet, so a loop over
// all must not delete. The load stays at most 3/4; the table doubles
// and never shrinks. SubIDs arrive from the wire, so the hash takes a
// seed drawn when the broker starts.
type routeIndex struct {
	seed  maphash.Seed
	tags  []uint8
	slots []*route
	n     int
}

// minRouteSlots is an index's first table size: a link's received set
// allocates nothing until its first route.
const minRouteSlots = 8

// routeTag returns the tag of hash h: its top byte, 1 in place of 0.
func routeTag(h uint64) uint8 { return max(uint8(h>>56), 1) }

// len returns the number of routes held.
func (x *routeIndex) len() int { return x.n }

// find returns the slot holding the route with subID (h is its hash),
// or else the empty slot that ends its probe run. The table must not be
// empty.
func (x *routeIndex) find(h uint64, subID string) (int, bool) {
	mask := uint64(len(x.slots) - 1)
	tag := routeTag(h)
	for i := h & mask; ; i = (i + 1) & mask {
		switch x.tags[i] {
		case 0:
			return int(i), false
		case tag:
			if x.slots[i].subID == subID {
				return int(i), true
			}
		}
	}
}

// get returns the route with subID, or nil.
func (x *routeIndex) get(subID string) *route {
	if x.n == 0 {
		return nil
	}
	if i, ok := x.find(maphash.String(x.seed, subID), subID); ok {
		return x.slots[i]
	}
	return nil
}

// insert returns the route with subID, or else adds a route holding
// only that SubID, for the caller to fill in, and reports it fresh.
// Either way it hashes and probes once: a fresh route takes the empty
// slot where the probe ended, the table having grown first.
func (x *routeIndex) insert(subID string) (r *route, fresh bool) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	h := maphash.String(x.seed, subID)
	i, ok := x.find(h, subID)
	if ok {
		return x.slots[i], false
	}
	r = &route{subID: subID}
	x.tags[i], x.slots[i] = routeTag(h), r
	x.n++
	return r, true
}

// put adds r, or replaces the route with r's SubID.
func (x *routeIndex) put(r *route) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	h := maphash.String(x.seed, r.subID)
	i, ok := x.find(h, r.subID)
	if !ok {
		x.tags[i] = routeTag(h)
		x.n++
	}
	x.slots[i] = r
}

// del removes the route with subID, if held, and shifts back each later
// route of the probe run that may fill the hole: one whose home slot
// does not lie cyclically after the hole, up to its own slot.
func (x *routeIndex) del(subID string) {
	if x.n == 0 {
		return
	}
	i, ok := x.find(maphash.String(x.seed, subID), subID)
	if !ok {
		return
	}
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.tags[j] != 0; j = (j + 1) & mask {
		home := int(maphash.String(x.seed, x.slots[j].subID)) & mask
		if (j-home)&mask >= (j-i)&mask {
			x.tags[i], x.slots[i] = x.tags[j], x.slots[j]
			i = j
		}
	}
	x.tags[i], x.slots[i] = 0, nil
	x.n--
}

// all yields every route held, in slot order. The loop must not change
// the index.
func (x *routeIndex) all() iter.Seq[*route] {
	return func(yield func(*route) bool) {
		for i, t := range x.tags {
			if t != 0 && !yield(x.slots[i]) {
				return
			}
		}
	}
}

// grow doubles the table and places every route again.
func (x *routeIndex) grow() {
	tags, slots := x.tags, x.slots
	size := max(2*len(slots), minRouteSlots)
	x.tags, x.slots = make([]uint8, size), make([]*route, size)
	mask := uint64(size - 1)
	for k, t := range tags {
		if t == 0 {
			continue
		}
		i := maphash.String(x.seed, slots[k].subID) & mask
		for x.tags[i] != 0 {
			i = (i + 1) & mask
		}
		x.tags[i], x.slots[i] = t, slots[k]
	}
}
