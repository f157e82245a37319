// Durability hooks: the broker stays a pure state machine, but every
// state-changing arrival can be recorded through a Journal so a
// restarted process replays itself back to the pre-crash routing
// state. The broker knows nothing about encodings or files — the
// pubsub layer implements Journal over internal/persist and reuses
// the wire codec for record payloads, which keeps this package free
// of I/O and import cycles.
package broker

import (
	"maps"
	"slices"
	"sort"
)

// Journal receives the broker's durability events. RecordMessage and
// RecordAttach are called with the broker's exclusive lock held (so
// record order is exactly application order) and must not call back
// into the broker; RecordPubSeen is called under the shared lock from
// concurrent publish handlers and must be safe for concurrent use.
// Implementations swallow their own I/O errors (a broker does not
// fail routing because a disk write failed).
type Journal interface {
	// RecordAttach records a port registration: a neighbor link
	// (client=false) or a local client (client=true).
	RecordAttach(port string, client bool)
	// RecordMessage records one state-changing arrival (subscribe /
	// unsubscribe / their batches / sync-roots) after it was applied.
	RecordMessage(from string, msg *Message)
	// RecordPubSeen records the first sighting of a publication ID.
	RecordPubSeen(pubID string)
}

// SetJournal attaches (or, with nil, detaches) the durability
// journal. Attach AFTER recovery replay so replayed operations are
// not re-recorded.
func (b *Broker) SetJournal(j Journal) {
	if j == nil {
		b.journal.Store(nil)
		return
	}
	b.journal.Store(&j)
}

// SnapshotOp is one operation of a compacted state snapshot. Exactly
// one of the three shapes is populated:
//
//   - Attach: a port registration (Port, Client)
//   - Message: a synthesized arrival (From, Msg)
//   - PubIDs: a chunk of publication IDs in the dedup window
//
// Replaying the ops against a fresh broker — attaches first, then
// messages through Handle with outputs discarded, then MarkPubsSeen —
// rebuilds an equivalent routing state: same reverse paths, same
// received sets, same dedup window. Coverage tables are rebuilt by
// re-admission, so active/covered classifications may legitimately
// differ from the live table that was snapshotted; the digest
// reconciliation protocol squares any resulting divergence with the
// peers, which is what lets recovery skip the full re-announce.
type SnapshotOp struct {
	Attach bool
	Client bool
	Port   string

	From string
	Msg  *Message

	PubIDs []string
}

// pubIDChunk bounds one PubIDs op so a single persisted record stays
// well under the record cap.
const pubIDChunk = 4096

// SnapshotTo freezes the broker (exclusive lock) and hands fn the
// compacted operation list. The freeze is what makes journal
// compaction atomic: while fn runs, no new operation can be applied
// or recorded, so a journal implementation can persist the snapshot
// and discard its pending records without losing a racing write.
func (b *Broker) SnapshotTo(fn func(ops []SnapshotOp) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fn(b.snapshotOpsLocked())
}

// SnapshotOps returns the compacted operation list under the shared
// lock — a consistent read-only snapshot, for callers that do not
// need the compaction atomicity of SnapshotTo (tests, inspection).
func (b *Broker) SnapshotOps() []SnapshotOp {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.snapshotOpsLocked()
}

// snapshotOpsLocked builds the compacted operation list; any mode of
// the state lock suffices (it only reads).
//
// +mustlock:mu (shared)
func (b *Broker) snapshotOpsLocked() []SnapshotOp {
	var ops []SnapshotOp
	for _, c := range b.clients {
		ops = append(ops, SnapshotOp{Attach: true, Client: true, Port: c})
	}
	for _, n := range b.neighbors {
		ops = append(ops, SnapshotOp{Attach: true, Port: n})
	}
	// Subscriptions in ascending numeric-ID order — admission order —
	// each synthesized as a subscribe from its first-arrival port.
	for _, r := range b.sortedRoutes() {
		ops = append(ops, SnapshotOp{From: r.src, Msg: &Message{Kind: MsgSubscribe, SubID: r.subID, Sub: r.sub}})
	}
	// Duplicate receptions: copies that arrived over non-source links
	// still count toward those links' digests. Synthesized as one
	// subscribe batch per neighbor that replays down the duplicate path.
	for _, port := range b.neighbors {
		recv := b.received(port)
		var dups []BatchSub
		for _, subID := range slices.Sorted(maps.Keys(recv)) {
			if r := recv[subID]; r.src != port {
				dups = append(dups, BatchSub{SubID: subID, Sub: r.sub})
			}
		}
		if len(dups) > 0 {
			ops = append(ops, SnapshotOp{From: port, Msg: &Message{Kind: MsgSubscribeBatch, Subs: dups}})
		}
	}
	// The publication-dedup window, chunked.
	pubIDs := b.seenPubs.ids()
	sort.Strings(pubIDs)
	for len(pubIDs) > 0 {
		n := len(pubIDs)
		if n > pubIDChunk {
			n = pubIDChunk
		}
		ops = append(ops, SnapshotOp{PubIDs: pubIDs[:n]})
		pubIDs = pubIDs[n:]
	}
	return ops
}

// SubscriptionCount returns the number of live subscriptions in the
// routing state (recovery-stats and test hook).
func (b *Broker) SubscriptionCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.routes)
}

// PortCounts returns the number of registered client and neighbor
// ports (recovery-stats hook).
func (b *Broker) PortCounts() (clients, neighbors int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.clients), len(b.neighbors)
}

// MarkPubsSeen seeds the publication-dedup window (recovery replay of
// PubIDs ops). Already-known IDs are no-ops; nothing is counted in
// the metrics.
func (b *Broker) MarkPubsSeen(pubIDs []string) {
	for _, id := range pubIDs {
		b.seenPubs.seen(id)
	}
}

// ids enumerates the tracked publication IDs across both generations
// (deduplicated).
func (d *pubDedup) ids() []string {
	g := d.gens.Load()
	seen := make(map[string]bool)
	for _, gen := range []*dedupGen{g.cur, g.prev} {
		gen.m.Range(func(k, _ any) bool {
			seen[k.(string)] = true
			return true
		})
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out
}
