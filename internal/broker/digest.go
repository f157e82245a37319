// Link-digest reconciliation: the per-link anti-entropy protocol that
// detects and repairs routing-state divergence after crashes.
//
// Each side of an overlay link summarizes the subscriptions the link
// carries as a two-level hash tree: every subscription ID hashes into
// one of DigestBuckets buckets, a bucket's value is the XOR of its
// members' hashes, and the root folds the bucket values together with
// the set size. The SENDER digests the active set of its outgoing
// coverage table for the link (exactly the subscriptions it believes
// it announced); the RECEIVER digests its received set — the reverse
// paths over the link, exactly the live subscriptions that actually
// arrived over it, duplicate copies included.
//
// The exchange rides the membership layer: gossip toward a link
// piggybacks the sender's LinkDigest. On mismatch the
// receiver answers with ONE MsgSyncRequest carrying its per-bucket
// hashes; the sender replies with ONE MsgSyncRoots carrying only the
// differing buckets' roots; the receiver admits missing roots as ONE
// batch and garbage-collects received entries the sender no longer
// vouches for — including the stale reverse-path entries a crashed or
// dead-linked peer left behind, which is how an Unsubscribe whose
// forward link died finally reaches the neighbor (see
// handleSyncRoots). The exchange is bounded: one round per gossip
// interval per link, one request and one reply per round, payload
// proportional to the diverged buckets only.
package broker

import (
	"encoding/binary"
	"maps"
	"slices"
)

// DigestBuckets is the fan-out of the link digest's bucket level.
const DigestBuckets = 64

// LinkDigest summarizes one side's view of the subscription set a
// link carries. Two views agree iff Count and Root both match.
type LinkDigest struct {
	// Count is the number of subscriptions in the set.
	Count uint32
	// Root folds the DigestBuckets bucket hashes and the count.
	Root uint64
}

// subDigestHash maps a subscription ID into the digest space. The raw
// FNV-1a hash is finalized with a splitmix64-style avalanche so the
// top bits (the bucket index) and the XOR-combined low bits stay
// decorrelated even for near-identical IDs.
func subDigestHash(subID string) uint64 {
	h := fnv1a(subID)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// digestBucket returns the bucket index of a subscription ID.
func digestBucket(subID string) int {
	return int(subDigestHash(subID) >> 58) // top 6 bits, DigestBuckets=64
}

// foldDigest folds per-bucket hashes and a set size into a LinkDigest.
func foldDigest(count int, buckets *[DigestBuckets]uint64) LinkDigest {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var b [8]byte
	h := uint64(offset)
	for _, v := range buckets {
		binary.LittleEndian.PutUint64(b[:], v)
		for _, by := range b {
			h ^= uint64(by)
			h *= prime
		}
	}
	h ^= uint64(count)
	h *= prime
	return LinkDigest{Count: uint32(count), Root: h}
}

// sentActiveLocked visits every subscription this broker actively
// announced toward peer — the active set of peer's coverage table, the
// sender-side ground truth the link digest and the sync listing are
// built from. It reports false when peer is not a neighbor.
//
// +mustlock:mu (shared)
func (b *Broker) sentActiveLocked(peer string, visit func(r *route)) bool {
	tbl, ok := b.out[peer]
	if !ok {
		return false
	}
	for _, sid := range tbl.ActiveIDs() {
		if r := b.routeByID(sid); r != nil {
			visit(r)
		}
	}
	return true
}

// outDigestLocked digests the active set announced to peer (see
// sentActiveLocked). Shared lock must be held.
//
// +mustlock:mu (shared)
func (b *Broker) outDigestLocked(peer string) (LinkDigest, [DigestBuckets]uint64, bool) {
	var buckets [DigestBuckets]uint64
	count := 0
	ok := b.sentActiveLocked(peer, func(r *route) {
		h := subDigestHash(r.subID)
		buckets[h>>58] ^= h
		count++
	})
	if !ok {
		return LinkDigest{}, buckets, false
	}
	return foldDigest(count, &buckets), buckets, true
}

// recvDigestLocked digests the received set for peer (the
// receiver-side view). Shared lock must be held.
//
// +mustlock:mu (shared)
func (b *Broker) recvDigestLocked(peer string) (LinkDigest, [DigestBuckets]uint64) {
	var buckets [DigestBuckets]uint64
	count := 0
	for subID := range b.paths[peer] {
		h := subDigestHash(subID)
		buckets[h>>58] ^= h
		count++
	}
	return foldDigest(count, &buckets), buckets
}

// LinkDigest returns this broker's sender-side digest for the link to
// peer: a summary of the subscriptions it believes it announced. The
// membership layer piggybacks it on gossip toward the peer.
func (b *Broker) LinkDigest(peer string) (LinkDigest, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, _, ok := b.outDigestLocked(peer)
	return d, ok
}

// ReceivedDigest returns this broker's receiver-side digest for the
// link from peer. Convergence tests compare it against the peer's
// LinkDigest.
func (b *Broker) ReceivedDigest(peer string) LinkDigest {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, _ := b.recvDigestLocked(peer)
	return d
}

// ReceivedFrom returns the sorted live subscription IDs received over
// neighbor port peer (test hook for stale-entry assertions).
func (b *Broker) ReceivedFrom(peer string) []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return slices.Sorted(maps.Keys(b.paths[peer]))
}

// KnowsSubscription reports whether subID is in the broker's routing
// state, and from which port it arrived first.
func (b *Broker) KnowsSubscription(subID string) (source string, ok bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if r := b.routes[subID]; r != nil {
		return r.src, true
	}
	return "", false
}

// checkLinkDigest compares a digest gossiped by neighbor from against
// what this broker actually received over that link, and starts a
// sync exchange on mismatch. Called from Handle without locks held.
func (b *Broker) checkLinkDigest(from string, d LinkDigest) []Outbound {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if !b.neighbors.has(from) {
		return nil
	}
	mine, buckets := b.recvDigestLocked(from)
	if mine == d {
		return nil
	}
	b.metrics.syncRequests.Add(1)
	return []Outbound{{To: from, Msg: Message{
		Kind:    MsgSyncRequest,
		Buckets: append([]uint64(nil), buckets[:]...),
	}}}
}

// handleSyncRequest answers a neighbor's digest-mismatch request: for
// every bucket where the neighbor's received-set hash differs from
// this broker's sent-set hash, reply with the bucket's full root set.
// Runs under the shared lock (read-only).
//
// +mustlock:mu (shared)
func (b *Broker) handleSyncRequest(from string, msg Message) ([]Outbound, error) {
	if !b.neighbors.has(from) {
		return nil, nil
	}
	_, mine, ok := b.outDigestLocked(from)
	if !ok {
		return nil, nil
	}
	var theirs [DigestBuckets]uint64
	copy(theirs[:], msg.Buckets)
	var mask uint64
	for i := range mine {
		if mine[i] != theirs[i] {
			mask |= 1 << uint(i)
		}
	}
	if mask == 0 {
		// Bucket hashes agree but the root (or count) did not — an XOR
		// collision or a raced snapshot. Re-list every bucket so the
		// receiver can settle the difference conclusively.
		mask = ^uint64(0)
	}
	var subs []BatchSub
	b.sentActiveLocked(from, func(r *route) {
		if mask&(1<<uint(digestBucket(r.subID))) != 0 {
			subs = append(subs, BatchSub{SubID: r.subID, Sub: r.sub})
		}
	})
	b.metrics.syncRootsResent.Add(int64(len(subs)))
	return []Outbound{{To: from, Msg: Message{
		Kind: MsgSyncRoots,
		Mask: mask,
		Subs: subs,
	}}}, nil
}

// handleSyncRoots applies a neighbor's authoritative root listing for
// the masked buckets. Two repairs happen:
//
//  1. Roots listed but never received are admitted through the normal
//     batch-subscribe path — missing state flows in as ONE SUBBATCH
//     and propagates onward to this broker's other neighbors.
//  2. Received entries in a masked bucket that the listing omits are
//     stale: the sender no longer stands behind them. Entries whose
//     reverse path points at the sender run the FULL unsubscribe
//     machinery (removal, downstream UNSUBBATCH, Section 5
//     promotions) — this is exactly the repair for an Unsubscribe
//     that was processed while the link to this broker was dead and
//     left the table here permanently inflated. Copies received from
//     the sender but owned by another port just stop counting toward
//     this link's digest.
//
// Runs under the exclusive lock (called from Handle).
//
// +mustlock:mu
func (b *Broker) handleSyncRoots(from string, msg Message) ([]Outbound, error) {
	if !b.neighbors.has(from) {
		return nil, nil
	}
	listed := make(map[string]bool, len(msg.Subs))
	for _, it := range msg.Subs {
		listed[it.SubID] = true
	}
	var out []Outbound
	// Admit roots we have not received over this link. Known
	// subscriptions take the duplicate path (a reverse path over this
	// link only); unknown ones are fresh arrivals from this port.
	missing := make([]BatchSub, 0, len(msg.Subs))
	for _, it := range msg.Subs {
		if b.paths[from][it.SubID] == nil {
			missing = append(missing, it)
		}
	}
	if len(missing) > 0 {
		o, err := b.handleSubscribeBatch(from, MsgSubscribeBatch, missing)
		if err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	// Collect stale entries: received over this link, in a masked
	// bucket, absent from the authoritative listing.
	var staleOwned []string // reverse path points at the sender
	staleOther := 0
	for subID, r := range b.paths[from] {
		if listed[subID] || msg.Mask&(1<<uint(digestBucket(subID))) == 0 {
			continue
		}
		if r.src == from {
			staleOwned = append(staleOwned, subID)
		} else {
			delete(b.paths[from], subID)
			staleOther++
		}
	}
	if len(staleOwned) > 0 {
		// Sorted so the downstream cancellation is deterministic
		// regardless of map iteration order.
		slices.Sort(staleOwned)
		o, err := b.handleUnsubscribeBatch(from, MsgUnsubscribeBatch, staleOwned)
		if err != nil {
			return out, err
		}
		out = append(out, o...)
	}
	b.metrics.syncStalePruned.Add(int64(len(staleOwned) + staleOther))
	return out, nil
}
