package pubsub

// Durability bridge: implements the broker's Journal hook over
// internal/persist and replays stored state back into a fresh broker.
//
// Record grammar (one persist record = one durability event; the
// payload reuses the binary wire codec for message bodies, so the
// fuzz-hardened decoder is the only parser):
//
//	attach : kind=1 | flags byte (bit0 = client) | port string
//	message: kind=2 | from string | binary message payload
//	pubids : kind=3 | uvarint n | n strings
//	members: kind=4 | uvarint n | n × (id, addr, uvarint incarnation, state byte)
//
// A snapshot is the same records concatenated, each prefixed with a
// uvarint length — the compacted operation list of
// Broker.SnapshotTo, written atomically by the store. Recovery
// replays the snapshot, then the journal tail, through the exact
// code paths live traffic uses (ConnectNeighbor / AttachClient /
// Handle), with outputs discarded: a restarted broker rebuilds its
// reverse paths, coverage tables, received sets, and dedup window
// without announcing anything, and the link-digest reconciliation
// protocol squares whatever diverged from its peers while it was
// down.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"probsum/internal/broker"
	"probsum/internal/persist"
)

// Record kind bytes of the durability log.
const (
	recAttach  = 1
	recMessage = 2
	recPubIDs  = 3
	recMembers = 4
)

// encodeAttachRecord builds an attach record.
func encodeAttachRecord(port string, client bool) []byte {
	var flags byte
	if client {
		flags = 1
	}
	buf := []byte{recAttach, flags}
	return appendString(buf, port)
}

// encodeMessageRecord builds a message record; nil on unencodable
// kinds (only state-changing kinds are journaled, all encodable).
func encodeMessageRecord(from string, msg *broker.Message) []byte {
	buf := []byte{recMessage}
	buf = appendString(buf, from)
	buf, err := appendBinaryMessage(buf, msg)
	if err != nil {
		return nil
	}
	return buf
}

// encodePubIDsRecord builds a publication-ID record.
func encodePubIDsRecord(pubIDs []string) []byte {
	buf := []byte{recPubIDs}
	buf = binary.AppendUvarint(buf, uint64(len(pubIDs)))
	for _, id := range pubIDs {
		buf = appendString(buf, id)
	}
	return buf
}

// encodeMembersRecord builds a membership record (the member-list
// payload reuses the wire codec's encoding, so the fuzz-hardened
// decoder is the only parser). Nil for an empty list.
func encodeMembersRecord(ms []broker.MemberInfo) []byte {
	if len(ms) == 0 {
		return nil
	}
	return appendMembers([]byte{recMembers}, ms)
}

// decodeMembersRecord parses a membership record payload (including
// its kind byte).
func decodeMembersRecord(payload []byte) ([]broker.MemberInfo, error) {
	d := binDecoder{buf: payload[1:]}
	ms := d.members()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("pubsub: %d trailing bytes after members record", len(d.buf))
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("pubsub: empty members record")
	}
	return ms, nil
}

// encodeSnapshotOp renders one compacted snapshot operation as a
// record payload.
func encodeSnapshotOp(op *broker.SnapshotOp) []byte {
	switch {
	case op.Attach:
		return encodeAttachRecord(op.Port, op.Client)
	case op.Msg != nil:
		return encodeMessageRecord(op.From, op.Msg)
	default:
		return encodePubIDsRecord(op.PubIDs)
	}
}

// encodeSnapshot renders the full operation list as one blob of
// length-prefixed records.
func encodeSnapshot(ops []broker.SnapshotOp) []byte {
	var blob []byte
	for i := range ops {
		rec := encodeSnapshotOp(&ops[i])
		if rec == nil {
			continue
		}
		blob = binary.AppendUvarint(blob, uint64(len(rec)))
		blob = append(blob, rec...)
	}
	return blob
}

// applyRecord replays one record payload into a broker. Outputs are
// discarded: recovery rebuilds state, it does not re-announce.
func applyRecord(b *broker.Broker, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("pubsub: empty durability record")
	}
	switch payload[0] {
	case recAttach:
		d := binDecoder{buf: payload[1:]}
		flags := d.byte()
		port := d.string()
		if d.err != nil {
			return d.err
		}
		if len(d.buf) != 0 {
			return fmt.Errorf("pubsub: %d trailing bytes after attach record", len(d.buf))
		}
		if port == "" {
			return fmt.Errorf("pubsub: attach record with empty port")
		}
		if flags&1 != 0 {
			b.AttachClient(port)
			return nil
		}
		return b.ConnectNeighbor(port)
	case recMessage:
		d := binDecoder{buf: payload[1:]}
		from := d.string()
		if d.err != nil {
			return d.err
		}
		msg, err := decodeBinaryMessage(d.buf, new(msgBuf))
		if err != nil {
			return err
		}
		_, err = b.Handle(from, *msg)
		return err
	case recPubIDs:
		d := binDecoder{buf: payload[1:]}
		n := d.count(1)
		if d.err != nil {
			return d.err
		}
		ids := make([]string, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, d.string())
		}
		if d.err != nil {
			return d.err
		}
		b.MarkPubsSeen(ids)
		return nil
	case recMembers:
		// Membership belongs to the cluster layer, not the broker;
		// recovery collects the decoded list into RecoveryStats (see
		// RecoverBroker) and the record is otherwise a validated no-op
		// here, so FuzzLogReplay and foreign callers treat it as any
		// other record.
		_, err := decodeMembersRecord(payload)
		return err
	default:
		return fmt.Errorf("pubsub: unknown durability record kind %d", payload[0])
	}
}

// BrokerJournal implements broker.Journal over a persist.Store:
// every state-changing arrival is appended as one record, fsynced in
// batches, and compacted away by periodic snapshots. Per the Journal
// contract I/O errors are swallowed (routing never fails because a
// disk write did); the first one is retained for Err.
type BrokerJournal struct {
	b     *broker.Broker
	store persist.Store

	mu sync.Mutex
	// +guarded_by:mu
	unsynced int
	// +guarded_by:mu
	err error
	// memberSource, when set, supplies the current cluster member list
	// for snapshots, so compaction preserves the latest membership
	// record alongside the broker's routing state.
	// +guarded_by:mu
	memberSource func() []broker.MemberInfo

	// syncEvery is the fsync batch size: the journal syncs once n
	// events were appended since the last sync (1 = sync every record;
	// the constructor default is 64). A record is one event, except a
	// pubids record, which counts each ID it holds. A crash loses at
	// most the unsynced tail — exactly what the digest reconciliation
	// protocol repairs.
	syncEvery int
}

// NewBrokerJournal wraps a store as the durability journal for b.
// Call AFTER RecoverBroker (so replayed operations are not
// re-recorded) and attach with b.SetJournal. syncEvery <= 0 selects
// the default batch of 64.
func NewBrokerJournal(b *broker.Broker, st persist.Store, syncEvery int) *BrokerJournal {
	if syncEvery <= 0 {
		syncEvery = 64
	}
	return &BrokerJournal{b: b, store: st, syncEvery: syncEvery}
}

// append writes one record carrying n events and applies the fsync
// batching policy. Safe for concurrent use; called under the broker's
// locks, so it must never call back into the broker.
func (j *BrokerJournal) append(rec []byte, n int) {
	if rec == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.store.Append(rec); err != nil {
		if j.err == nil {
			j.err = err
		}
		return
	}
	j.unsynced += n
	if j.unsynced >= j.syncEvery {
		if err := j.store.Sync(); err != nil && j.err == nil {
			j.err = err
		}
		j.unsynced = 0
	}
}

// RecordAttach implements broker.Journal.
func (j *BrokerJournal) RecordAttach(port string, client bool) {
	j.append(encodeAttachRecord(port, client), 1)
}

// RecordMessage implements broker.Journal.
func (j *BrokerJournal) RecordMessage(from string, msg *broker.Message) {
	j.append(encodeMessageRecord(from, msg), 1)
}

// RecordPubsSeen implements broker.Journal: one pubids record for the
// run, counted as one event per ID against SyncEvery.
func (j *BrokerJournal) RecordPubsSeen(pubIDs []string) {
	j.append(encodePubIDsRecord(pubIDs), len(pubIDs))
}

// RecordMembers appends the cluster member list as one membership
// record; later records supersede earlier ones on recovery. Called by
// the cluster layer on membership changes (debounced by its ticker).
func (j *BrokerJournal) RecordMembers(ms []broker.MemberInfo) {
	j.append(encodeMembersRecord(ms), 1)
}

// SetMemberSource registers the function snapshots call to capture
// the current member list (cluster.Attach passes Node.WireMembers).
// The source is invoked under the journal lock and the broker's
// snapshot freeze, so it must not call back into the journal or the
// broker.
func (j *BrokerJournal) SetMemberSource(src func() []broker.MemberInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.memberSource = src
}

// Sync forces the journal tail to stable storage now, regardless of
// the batching policy.
func (j *BrokerJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.unsynced = 0
	if err := j.store.Sync(); err != nil {
		if j.err == nil {
			j.err = err
		}
		return err
	}
	return nil
}

// Snapshot freezes the broker, writes its compacted state as the new
// snapshot, and resets the journal — the log-compaction step. The
// broker's exclusive lock is held across the store write, so no
// record can race into the discarded journal generation.
func (j *BrokerJournal) Snapshot() error {
	return j.b.SnapshotTo(func(ops []broker.SnapshotOp) error {
		j.mu.Lock()
		defer j.mu.Unlock()
		blob := encodeSnapshot(ops)
		if j.memberSource != nil {
			if rec := encodeMembersRecord(j.memberSource()); rec != nil {
				blob = binary.AppendUvarint(blob, uint64(len(rec)))
				blob = append(blob, rec...)
			}
		}
		if err := j.store.WriteSnapshot(blob); err != nil {
			if j.err == nil {
				j.err = err
			}
			return err
		}
		j.unsynced = 0
		return nil
	})
}

// Err returns the first I/O error the journal swallowed (nil when
// none): the observable signal that durability is degraded.
func (j *BrokerJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// RecoveryStats summarizes a RecoverBroker run.
type RecoveryStats struct {
	// SnapshotOps is the number of operations replayed from the
	// snapshot (0 when none existed).
	SnapshotOps int
	// JournalRecords is the number of journal records replayed.
	JournalRecords int
	// Skipped counts records that failed to decode or apply and were
	// skipped (state divergence left for digest reconciliation).
	Skipped int
	// Truncated reports whether a torn journal tail was discarded.
	Truncated bool
	// DroppedBytes is the size of the discarded tail.
	DroppedBytes int64
	// Subscriptions, Clients, Neighbors describe the recovered
	// routing state.
	Subscriptions int
	Clients       int
	Neighbors     int
	// Members is the last membership record found in the log (nil when
	// none): the cluster view persisted before the crash. cluster.Attach
	// adopts it so a cold restart rejoins the overlay without a seed
	// node.
	Members []broker.MemberInfo
}

// RecoverBroker replays a store's snapshot and journal into a fresh
// broker, rebuilding its pre-crash routing state without announcing
// anything. Individual records that fail to apply are skipped and
// counted, not fatal: the digest reconciliation protocol repairs the
// resulting divergence, and a recovered-but-imperfect broker beats a
// dead one. Only a corrupt snapshot blob aborts (it passed its CRC,
// so failure means a foreign or incompatible file). Attach the
// journal (SetJournal) only after this returns.
func RecoverBroker(b *broker.Broker, st persist.Store) (RecoveryStats, error) {
	var stats RecoveryStats
	// apply replays one record, snapshot or journal alike, and reports
	// whether it applied; a membership record is collected, last wins.
	apply := func(rec []byte) bool {
		if err := applyRecord(b, rec); err != nil {
			stats.Skipped++
			return false
		}
		if rec[0] == recMembers {
			stats.Members, _ = decodeMembersRecord(rec) // applyRecord validated it
		}
		return true
	}
	blob, ok, err := st.LoadSnapshot()
	if err != nil {
		return stats, err
	}
	for ok && len(blob) > 0 {
		n, w := binary.Uvarint(blob)
		if w <= 0 || n > uint64(len(blob)-w) {
			return stats, fmt.Errorf("pubsub: corrupt snapshot framing at op %d", stats.SnapshotOps)
		}
		rec := blob[w : w+int(n)]
		blob = blob[w+int(n):]
		if apply(rec) {
			stats.SnapshotOps++
		}
	}
	rstats, err := st.Replay(func(rec []byte) error {
		if apply(rec) {
			stats.JournalRecords++
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.Truncated = rstats.Truncated
	stats.DroppedBytes = rstats.DroppedBytes
	stats.Subscriptions = b.SubscriptionCount()
	stats.Clients, stats.Neighbors = b.PortCounts()
	return stats, nil
}
