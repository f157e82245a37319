package pubsub

// Durability bridge tests: journal → crash → recover round trips over
// the in-memory store, fsync-batching loss semantics, snapshot
// compaction, and — over real TCP — publication dedup surviving a
// broker restart (the at-most-once guarantee holds ACROSS crashes for
// every publication the journal captured).

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/persist"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

func newJournaledBroker(t *testing.T, st persist.Store, syncEvery int) (*broker.Broker, *BrokerJournal) {
	t.Helper()
	b, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	j := NewBrokerJournal(b, st, syncEvery)
	b.SetJournal(j)
	return b, j
}

// populate drives a small but representative state through the
// broker: a client, a neighbor, two subscriptions, one publication.
func populate(t *testing.T, b *broker.Broker) {
	t.Helper()
	b.AttachClient("alice")
	if err := b.ConnectNeighbor("N1"); err != nil {
		t.Fatal(err)
	}
	for _, m := range []broker.Message{
		{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)},
		{Kind: broker.MsgSubscribe, SubID: "s2", Sub: box(60, 90, 60, 90)},
	} {
		if _, err := b.Handle("alice", m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Handle("N1", broker.Message{Kind: broker.MsgPublish, PubID: "p1", Pub: subscription.NewPublication(10, 10)}); err != nil {
		t.Fatal(err)
	}
}

// notifySet extracts the delivered (To, SubID) pairs of a Handle
// output.
func notifySet(outs []broker.Outbound) map[string]bool {
	set := make(map[string]bool)
	for _, o := range outs {
		if o.Msg.Kind == broker.MsgNotifyBatch {
			for _, subID := range o.Msg.SubIDs {
				set[o.To+"/"+subID] = true
			}
		}
	}
	return set
}

func TestJournalRecoverRoundTrip(t *testing.T) {
	st := persist.NewMemStore()
	b, _ := newJournaledBroker(t, st, 1) // fsync every record: crash loses nothing
	populate(t, b)
	st.Crash()

	b2, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RecoverBroker(b2, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subscriptions != 2 || stats.Clients != 1 || stats.Neighbors != 1 {
		t.Fatalf("recovered stats = %+v, want 2 subs, 1 client, 1 neighbor", stats)
	}
	if stats.Skipped != 0 || stats.Truncated {
		t.Fatalf("clean journal recovered with loss: %+v", stats)
	}

	// The recovered broker routes exactly like the original...
	probe := broker.Message{Kind: broker.MsgPublish, PubID: "p2", Pub: subscription.NewPublication(70, 70)}
	outs1, err := b.Handle("N1", probe)
	if err != nil {
		t.Fatal(err)
	}
	outs2, err := b2.Handle("N1", probe)
	if err != nil {
		t.Fatal(err)
	}
	want, got := notifySet(outs1), notifySet(outs2)
	if len(want) == 0 || !setsEqualStr(want, got) {
		t.Fatalf("recovered routing diverges: %v vs %v", got, want)
	}
	// ...including the dedup window: the journaled p1 stays dropped.
	outs, err := b2.Handle("N1", broker.Message{Kind: broker.MsgPublish, PubID: "p1", Pub: subscription.NewPublication(10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(notifySet(outs)) != 0 {
		t.Fatalf("replayed publication re-delivered after recovery: %+v", outs)
	}
}

func setsEqualStr(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestJournalCrashLosesOnlyUnsyncedTail pins the fsync-batching
// contract: a crash drops at most the records appended since the last
// sync — everything before the explicit Sync survives.
func TestJournalCrashLosesOnlyUnsyncedTail(t *testing.T) {
	st := persist.NewMemStore()
	b, j := newJournaledBroker(t, st, 1000) // batch far larger than the test
	b.AttachClient("alice")
	if _, err := b.Handle("alice", broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// s2 lands after the sync and dies with the crash.
	if _, err := b.Handle("alice", broker.Message{Kind: broker.MsgSubscribe, SubID: "s2", Sub: box(60, 90, 60, 90)}); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	b2, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RecoverBroker(b2, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subscriptions != 1 || stats.Clients != 1 {
		t.Fatalf("recovered stats = %+v, want exactly the synced prefix (1 sub, 1 client)", stats)
	}
}

// TestSnapshotCompactsJournal pins log compaction: after a snapshot,
// recovery replays the snapshot plus only the records appended since.
func TestSnapshotCompactsJournal(t *testing.T) {
	st := persist.NewMemStore()
	b, j := newJournaledBroker(t, st, 1)
	populate(t, b)
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Handle("alice", broker.Message{Kind: broker.MsgSubscribe, SubID: "s3", Sub: box(200, 300, 200, 300)}); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	b2, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RecoverBroker(b2, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotOps == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", stats)
	}
	if stats.JournalRecords != 1 {
		t.Fatalf("journal not compacted by the snapshot: %+v", stats)
	}
	if stats.Subscriptions != 3 {
		t.Fatalf("recovered %d subscriptions, want 3", stats.Subscriptions)
	}
}

// testMembers builds a small member list in wire form.
func testMembers(incs ...uint64) []broker.MemberInfo {
	ms := make([]broker.MemberInfo, len(incs))
	for i, inc := range incs {
		ms[i] = broker.MemberInfo{
			ID:          fmt.Sprintf("B%d", i+1),
			Addr:        fmt.Sprintf("127.0.0.1:%d", 7001+i),
			Incarnation: inc,
			State:       0,
		}
	}
	return ms
}

func membersEqual(a, b []broker.MemberInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMembersRecordRoundTrip pins durable membership through the
// journal: the LAST membership record wins on recovery, broker
// routing records interleave untouched, and the member list is not
// replayed into the broker (membership belongs to the cluster layer).
func TestMembersRecordRoundTrip(t *testing.T) {
	st := persist.NewMemStore()
	b, j := newJournaledBroker(t, st, 1)
	populate(t, b)
	j.RecordMembers(testMembers(1, 1))
	j.RecordMembers(testMembers(2, 1, 5)) // supersedes the first
	st.Crash()

	b2, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RecoverBroker(b2, st)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(stats.Members, testMembers(2, 1, 5)) {
		t.Fatalf("recovered members = %+v, want the last record", stats.Members)
	}
	if stats.Skipped != 0 {
		t.Fatalf("membership records counted as skipped: %+v", stats)
	}
	if stats.Subscriptions != 2 || stats.Clients != 1 || stats.Neighbors != 1 {
		t.Fatalf("routing state lost around membership records: %+v", stats)
	}
}

// TestSnapshotCarriesMembers pins the compaction path: a snapshot
// taken with a member source preserves the membership record even
// though every journaled RecordMembers call was compacted away.
func TestSnapshotCarriesMembers(t *testing.T) {
	st := persist.NewMemStore()
	b, j := newJournaledBroker(t, st, 1)
	populate(t, b)
	j.RecordMembers(testMembers(1)) // will be compacted away
	want := testMembers(3, 2)
	j.SetMemberSource(func() []broker.MemberInfo { return want })
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	b2, err := broker.New("B1", store.PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RecoverBroker(b2, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JournalRecords != 0 {
		t.Fatalf("journal not compacted: %+v", stats)
	}
	if !membersEqual(stats.Members, want) {
		t.Fatalf("snapshot members = %+v, want %+v", stats.Members, want)
	}
}

// TestRestartDedupSurvivesRestart is the satellite (d) semantics pin
// over real TCP: a publication ID consumed before a restart is still
// recognized as a duplicate after recovery from the data directory —
// and the caveat this buys is at-MOST-once, never at-least-once.
func TestRestartDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b := listenTestBroker(t, "B1", Pairwise, WithDataDir(dir), WithJournalSync(1))
	addr := b.Addr()
	ctx := testCtx(t)
	sub := dialTest(t, addr, "alice")
	pub := dialTest(t, addr, "bob")
	if err := sub.Subscribe(ctx, "s1", box(0, 50, 0, 50)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
	if err := pub.Publish(ctx, "p1", subscription.NewPublication(25, 25)); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, sub, 2*time.Second); !ok {
		t.Fatal("pre-restart delivery did not arrive")
	}
	// A PUBBATCH run is journaled as one record of its IDs.
	const k = 8
	batch := make([]BatchPub, k)
	for i := range batch {
		batch[i] = BatchPub{PubID: fmt.Sprintf("b%d", i), Pub: subscription.NewPublication(25, 25)}
	}
	if err := pub.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, ok := recvOne(t, sub, 2*time.Second); !ok {
			t.Fatalf("pre-restart batch delivery %d did not arrive", i)
		}
	}

	// Graceful restart from the same directory.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	b2 := listenTestBroker(t, "B1", Pairwise, WithDataDir(dir), WithJournalSync(1))
	rs, ok := b2.Recovery()
	if !ok || rs.Subscriptions != 1 {
		t.Fatalf("recovery = %+v, %v; want the subscription back", rs, ok)
	}
	sub2 := dialTest(t, b2.Addr(), "alice") // no re-subscribe
	pub2 := dialTest(t, b2.Addr(), "bob")

	// Wait until the server has bound the re-dialed connection to the
	// recovered port: a fresh-ID probe delivering proves it (dialing
	// returns before the hello is processed server-side).
	deadline := time.Now().Add(5 * time.Second)
	for bound := false; !bound; {
		if time.Now().After(deadline) {
			t.Fatal("re-dialed client never received a warm-up probe")
		}
		if err := pub2.Publish(ctx, fmt.Sprintf("warm-%d", time.Now().UnixNano()), subscription.NewPublication(25, 25)); err != nil {
			t.Fatal(err)
		}
		_, bound = recvOne(t, sub2, 500*time.Millisecond)
	}

	// The same producer retrying p1 and the batch after the restart:
	// duplicates, all dropped. A fresh p2 flows normally.
	dups := b2.Metrics().DupPubsDropped
	if err := pub2.Publish(ctx, "p1", subscription.NewPublication(25, 25)); err != nil {
		t.Fatal(err)
	}
	if err := pub2.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := pub2.Publish(ctx, "p2", subscription.NewPublication(25, 25)); err != nil {
		t.Fatal(err)
	}
	n, ok := recvOne(t, sub2, 2*time.Second)
	if !ok {
		t.Fatal("post-restart delivery did not arrive")
	}
	if n.PubID != "p2" {
		t.Fatalf("post-restart delivery = %+v, want p2 only (p1 is a journaled duplicate)", n)
	}
	if extra, ok := recvOne(t, sub2, 300*time.Millisecond); ok {
		t.Fatalf("duplicate p1 re-delivered after restart: %+v", extra)
	}
	if got := b2.Metrics().DupPubsDropped - dups; got != 1+k {
		t.Errorf("dropped %d duplicates after restart, want %d (p1 and the batch)", got, 1+k)
	}
}

// journalRecords returns the store's journal records.
func journalRecords(t *testing.T, st persist.Store) [][]byte {
	t.Helper()
	var recs [][]byte
	if _, err := st.Replay(func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// pubIDsOf decodes a pubids record.
func pubIDsOf(t *testing.T, rec []byte) []string {
	t.Helper()
	if rec[0] != recPubIDs {
		t.Fatalf("record kind %d, want pubids (%d)", rec[0], recPubIDs)
	}
	d := binDecoder{buf: rec[1:]}
	ids := make([]string, d.count(1))
	for i := range ids {
		ids[i] = d.string()
	}
	if d.err != nil || len(d.buf) != 0 {
		t.Fatalf("malformed pubids record: %v, %d trailing bytes", d.err, len(d.buf))
	}
	return ids
}

// TestPublishRunJournalsOneRecord: a publish run — a reader's coalesced
// run and a client's PUBBATCH alike reach the broker as one PUBBATCH —
// journals its k first-seen IDs as ONE pubids record before it
// returns, skipping the duplicate among them; a broker recovered from
// that journal drops all k as duplicates.
func TestPublishRunJournalsOneRecord(t *testing.T) {
	const k = 5
	ids := make([]string, k)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i+1)
	}
	// The run: k fresh IDs with p0, seen before the run, in the middle.
	order := append(append(append([]string(nil), ids[:2]...), "p0"), ids[2:]...)
	pub := func(id string) broker.Message {
		return broker.Message{Kind: broker.MsgPublish, PubID: id, Pub: subscription.NewPublication(10, 10)}
	}
	run := func(b *broker.Broker) (broker.Metrics, error) {
		items := make([]broker.BatchPub, len(order))
		for i, id := range order {
			items[i] = broker.BatchPub{PubID: id, Pub: subscription.NewPublication(10, 10)}
		}
		_, err := b.Handle("alice", broker.Message{Kind: broker.MsgPublishBatch, Pubs: items})
		return b.Metrics(), err
	}
	t.Run("pubbatch", func(t *testing.T) {
		st := persist.NewMemStore()
		b, _ := newJournaledBroker(t, st, 1000)
		b.AttachClient("alice")
		if _, err := b.Handle("alice", pub("p0")); err != nil {
			t.Fatal(err)
		}
		before := len(journalRecords(t, st))
		if _, err := run(b); err != nil {
			t.Fatal(err)
		}
		recs := journalRecords(t, st)
		if len(recs) != before+1 {
			t.Fatalf("the run appended %d records, want 1", len(recs)-before)
		}
		if got := pubIDsOf(t, recs[before]); !slices.Equal(got, ids) {
			t.Fatalf("run record holds %v, want %v", got, ids)
		}

		b2, err := broker.New("B1", store.PolicyPairwise)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverBroker(b2, st); err != nil {
			t.Fatal(err)
		}
		m, err := run(b2)
		if err != nil {
			t.Fatal(err)
		}
		if m.PubsReceived != 0 || m.DupPubsDropped != k+1 {
			t.Fatalf("recovered broker received %d and dropped %d of the run, want 0 and %d", m.PubsReceived, m.DupPubsDropped, k+1)
		}
	})
}

// TestJournalSyncCountsIDs: the fsync batch counts publication IDs,
// not records, so a run of n IDs syncs a journal batched at n, and a
// shorter run stays in the unsynced tail a crash drops.
func TestJournalSyncCountsIDs(t *testing.T) {
	const syncEvery = 4
	st := persist.NewMemStore()
	b, _ := newJournaledBroker(t, st, syncEvery)
	run := func(ids ...string) {
		t.Helper()
		pubs := make([]broker.BatchPub, len(ids))
		for i, id := range ids {
			pubs[i] = broker.BatchPub{PubID: id, Pub: subscription.NewPublication(1)}
		}
		if _, err := b.Handle("N1", broker.Message{Kind: broker.MsgPublishBatch, Pubs: pubs}); err != nil {
			t.Fatal(err)
		}
	}
	run("a1", "a2", "a3", "a4") // four IDs, one record: synced
	run("b1", "b2", "b3")       // three more: below the batch
	st.Crash()
	recs := journalRecords(t, st)
	if len(recs) != 1 || !slices.Equal(pubIDsOf(t, recs[0]), []string{"a1", "a2", "a3", "a4"}) {
		t.Fatalf("after the crash the journal holds %d records, want the synced four-ID run alone", len(recs))
	}
}

// TestPublishRunErrorRule: a publish run whose third item has no
// PubID stops there. What the items before it decided leaves — their
// notifications and the neighbor's batch of them — their first-seen
// IDs are journaled, and the item after the bad one is never handled.
func TestPublishRunErrorRule(t *testing.T) {
	st := persist.NewMemStore()
	b, _ := newJournaledBroker(t, st, 1)
	b.AttachClient("S")
	b.AttachClient("P")
	if err := b.ConnectNeighbor("N"); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"S", "N"} {
		if _, err := b.Handle(from, broker.Message{Kind: broker.MsgSubscribe, SubID: from + "-s", Sub: box(0, 100, 0, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	pub := subscription.NewPublication(5, 5)
	out, err := b.Handle("P", broker.Message{Kind: broker.MsgPublishBatch, Pubs: []broker.BatchPub{
		{PubID: "p1", Pub: pub}, {PubID: "p2", Pub: pub}, {Pub: pub}, {PubID: "p3", Pub: pub},
	}})
	if err == nil {
		t.Fatal("a run with an item without PubID was accepted")
	}
	var got []string
	for _, o := range out {
		ids := []string{o.Msg.PubID}
		if o.Msg.Kind == broker.MsgPublishBatch {
			ids = ids[:0]
			for _, it := range o.Msg.Pubs {
				ids = append(ids, it.PubID)
			}
		}
		got = append(got, fmt.Sprintf("%s %v %v", o.To, o.Msg.Kind, ids))
	}
	want := []string{"S notify-batch [p1]", "S notify-batch [p2]", "N publish-batch [p1 p2]"}
	if !slices.Equal(got, want) {
		t.Fatalf("outputs %q, want %q", got, want)
	}
	recs := journalRecords(t, st)
	if ids := pubIDsOf(t, recs[len(recs)-1]); !slices.Equal(ids, []string{"p1", "p2"}) {
		t.Fatalf("the run journaled %v, want [p1 p2]", ids)
	}
	if m := b.Metrics(); m.PubsReceived != 2 {
		t.Fatalf("%d publications handled, want 2", m.PubsReceived)
	}
}
