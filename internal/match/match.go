// Package match implements publication-to-subscription matching, the
// hot path of a content-based broker. Two matchers are provided:
//
//   - BruteForce: O(k·m) linear scan, the correctness oracle.
//   - ITreeIndex: the broker's dynamic matcher. The cell bitsets of
//     package cells filter the candidates, and each candidate is checked
//     exactly, so its answers are BruteForce's. Add and Remove update
//     the bitsets in place.
//
// Algorithm 5 of the paper (two-phase matching against uncovered, then
// covered subscriptions) is implemented in package store.
package match

import (
	"slices"

	"probsum/internal/subscription"
)

// ID identifies a subscription within a matcher.
type ID int64

// BruteForce is a dynamic matcher that scans every subscription. The
// zero value is ready to use.
type BruteForce struct {
	ids  []ID
	subs []subscription.Subscription
	pos  map[ID]int
}

// Add indexes a subscription under id, replacing any previous entry.
func (b *BruteForce) Add(id ID, s subscription.Subscription) {
	if b.pos == nil {
		b.pos = make(map[ID]int)
	}
	if i, ok := b.pos[id]; ok {
		b.subs[i] = s
		return
	}
	b.pos[id] = len(b.ids)
	b.ids = append(b.ids, id)
	b.subs = append(b.subs, s)
}

// Remove drops the subscription with the given id, if present.
func (b *BruteForce) Remove(id ID) {
	i, ok := b.pos[id]
	if !ok {
		return
	}
	last := len(b.ids) - 1
	b.ids[i] = b.ids[last]
	b.subs[i] = b.subs[last]
	b.pos[b.ids[i]] = i
	b.ids = b.ids[:last]
	b.subs = b.subs[:last]
	delete(b.pos, id)
}

// Match returns the IDs of the subscriptions containing p, ascending.
func (b *BruteForce) Match(p subscription.Publication) []ID {
	var out []ID
	for i, s := range b.subs {
		if s.Matches(p) {
			out = append(out, b.ids[i])
		}
	}
	slices.Sort(out)
	return out
}

// Len returns the number of indexed subscriptions.
func (b *BruteForce) Len() int { return len(b.ids) }
