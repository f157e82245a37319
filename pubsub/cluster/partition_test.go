package cluster

// Partition healing on the simulator (ISSUE 5 satellite): a 3-node
// chain is partitioned, both sides keep subscribing and publishing,
// the partition heals, and post-heal delivery must converge to what a
// never-partitioned run delivers. Everything — ping misses,
// suspect→dead timeouts, reconnect backoff, the link sync
// — runs on the injected simnet clock, so the whole scenario is
// deterministic and runs without sockets (and under -race).

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

// simCluster is a 3-node chain B1–B2–B3 with membership nodes and
// clients alice@B1 and carol@B3.
type simCluster struct {
	t     *testing.T
	net   *simnet.Network
	clock *simnet.Clock
	ids   []string
	nodes map[string]*Node
	// preHealMetrics are the broker counters of each side of the cut
	// just before a partition heals; healedB1 and healedB2 record the
	// subscription frames B2 applies from B1 and B3 from B2 from the
	// heal on.
	preHealMetrics map[string]broker.Metrics
	healedB1       *arrivals
	healedB2       *arrivals
}

// arrivals is a broker.Journal that records, as "kind/items", every
// subscription frame its broker applies from one port: what the link
// from that port carried, read at the receiving end.
type arrivals struct {
	from string
	mu   sync.Mutex
	got  []string
}

func (a *arrivals) RecordAttach(string, bool) {}
func (a *arrivals) RecordPubsSeen([]string)   {}

func (a *arrivals) RecordMessage(from string, msg *broker.Message) {
	items := 1
	switch {
	case from != a.from:
		return
	case msg.Kind == broker.MsgSubscribeBatch:
		items = len(msg.Subs)
	case msg.Kind != broker.MsgSubscribe:
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.got = append(a.got, fmt.Sprintf("%s/%d", msg.Kind, items))
}

// frames returns the frames recorded so far.
func (a *arrivals) frames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.got)
}

// record attaches an arrivals journal to broker b for frames from port
// from.
func record(b *broker.Broker, from string) *arrivals {
	a := &arrivals{from: from}
	b.SetJournal(a)
	return a
}

func newSimCluster(t *testing.T) *simCluster {
	t.Helper()
	return newSimClusterCfg(t, Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          7,
	})
}

func newSimClusterCfg(t *testing.T, cfg Config) *simCluster {
	t.Helper()
	sc := &simCluster{
		t:     t,
		net:   simnet.New(),
		clock: simnet.NewClock(),
		ids:   []string{"B1", "B2", "B3"},
		nodes: make(map[string]*Node),
	}
	for _, id := range sc.ids {
		if err := sc.net.AddBroker(id, store.PolicyPairwise); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.net.Connect("B1", "B2"); err != nil {
		t.Fatal(err)
	}
	if err := sc.net.Connect("B2", "B3"); err != nil {
		t.Fatal(err)
	}
	for _, id := range sc.ids {
		n, err := NewSimNode(sc.net, id, sc.clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc.nodes[id] = n
	}
	link := func(a, b string) {
		sc.nodes[a].AddMember(Member{ID: b, Addr: b}, true)
		sc.nodes[b].AddMember(Member{ID: a, Addr: a}, true)
	}
	link("B1", "B2")
	link("B2", "B3")
	// Non-neighbors track each other through gossip only.
	sc.nodes["B1"].AddMember(Member{ID: "B3", Addr: "B3"}, false)
	sc.nodes["B3"].AddMember(Member{ID: "B1", Addr: "B1"}, false)

	for _, c := range []struct{ client, broker string }{{"alice", "B1"}, {"carol", "B3"}} {
		if err := sc.net.AttachClient(c.client, c.broker); err != nil {
			t.Fatal(err)
		}
	}
	return sc
}

// step advances the clock by d per tick, ticking every node and
// running the network to quiescence, for the given number of ticks.
func (sc *simCluster) step(d time.Duration, ticks int) {
	sc.t.Helper()
	for i := 0; i < ticks; i++ {
		sc.clock.Advance(d)
		for _, id := range sc.ids {
			sc.nodes[id].Tick()
		}
		if _, err := sc.net.Run(); err != nil {
			sc.t.Fatal(err)
		}
	}
}

func (sc *simCluster) subscribe(client, subID string, lo, hi int64) {
	sc.t.Helper()
	s := subscription.New(interval.New(lo, hi), interval.New(lo, hi))
	if err := sc.net.ClientSend(client, broker.Message{Kind: broker.MsgSubscribe, SubID: subID, Sub: s}); err != nil {
		sc.t.Fatal(err)
	}
	if _, err := sc.net.Run(); err != nil {
		sc.t.Fatal(err)
	}
}

func (sc *simCluster) publish(client, pubID string, v int64) {
	sc.t.Helper()
	if err := sc.net.ClientSend(client, broker.Message{Kind: broker.MsgPublish, PubID: pubID, Pub: subscription.NewPublication(v, v)}); err != nil {
		sc.t.Fatal(err)
	}
	if _, err := sc.net.Run(); err != nil {
		sc.t.Fatal(err)
	}
}

// deliveredSet collects a client's notifications for the given
// publication IDs as "subID/pubID" strings.
func (sc *simCluster) deliveredSet(client string, pubIDs map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for _, m := range sc.net.Delivered(client) {
		if m.Kind != broker.MsgNotifyBatch || !pubIDs[m.PubID] {
			continue
		}
		for _, subID := range m.SubIDs {
			out[fmt.Sprintf("%s/%s", subID, m.PubID)] = true
		}
	}
	return out
}

func (sc *simCluster) memberState(onNode, member string) State {
	m, ok := sc.nodes[onNode].Member(member)
	if !ok {
		sc.t.Fatalf("node %s does not track %s", onNode, member)
	}
	return m.State
}

// runPartitionScenario drives the shared script, with or without the
// B1–B2 partition, and returns the per-client delivery sets of the
// post-heal probe publications.
func runPartitionScenario(t *testing.T, partition bool) (alice, carol map[string]bool, sc *simCluster) {
	sc = newSimCluster(t)

	// Assemble: the reconnect loop establishes every link.
	sc.step(250*time.Millisecond, 8)
	for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B2", "B3"}, {"B3", "B2"}} {
		if got := sc.memberState(pair[0], pair[1]); got != StateAlive {
			t.Fatalf("after assembly %s sees %s as %v", pair[0], pair[1], got)
		}
	}

	// Pre-partition subscriptions on both edges of the chain.
	sc.subscribe("alice", "a1", 0, 100)
	sc.subscribe("carol", "c1", 200, 300)

	if partition {
		sc.net.SetLink("B1", "B2", false)
		// Let the failure detector walk alive → suspect → dead on both
		// sides of the cut (and gossip the verdict to B3).
		sc.step(250*time.Millisecond, 40)
		if got := sc.memberState("B1", "B2"); got != StateDead {
			t.Fatalf("B1 sees B2 as %v mid-partition, want dead", got)
		}
		if got := sc.memberState("B2", "B1"); got != StateDead {
			t.Fatalf("B2 sees B1 as %v mid-partition, want dead", got)
		}
		if got := sc.memberState("B3", "B1"); got != StateDead {
			t.Fatalf("gossip did not carry B1's death to B3: %v", got)
		}
	} else {
		sc.step(250*time.Millisecond, 40)
	}

	// Both sides keep operating: new subscriptions (whose floods are
	// lost across the cut) and publications (those crossing the cut
	// are lost — the at-most-once tolerance the protocol documents).
	sc.subscribe("alice", "a2", 400, 450)
	sc.subscribe("carol", "c2", 600, 650)
	sc.publish("alice", "pm1", 250) // would match c1 across the cut
	sc.publish("carol", "pm2", 50)  // would match a1 across the cut

	if partition {
		sc.healedB1 = record(sc.net.Broker("B2"), "B1")
		sc.healedB2 = record(sc.net.Broker("B3"), "B2")
		sc.preHealMetrics = map[string]broker.Metrics{
			"B1": sc.net.Broker("B1").Metrics(),
			"B2": sc.net.Broker("B2").Metrics(),
		}
		sc.net.SetLink("B1", "B2", true)
		if sc.net.PartitionDropped() == 0 {
			t.Fatal("partition dropped nothing; the scenario is vacuous")
		}
	}
	// Heal: the reconnect loop re-dials (jittered backoff), the link
	// comes back, and both sides' dials send their link sync.
	sc.step(250*time.Millisecond, 40)
	if partition {
		for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B3", "B1"}} {
			if got := sc.memberState(pair[0], pair[1]); got != StateAlive {
				t.Fatalf("after heal %s sees %s as %v", pair[0], pair[1], got)
			}
		}
	}

	// Post-heal probes: every subscription — including the ones whose
	// original flood was lost in the partition — must route across the
	// whole chain again.
	probes := map[string]bool{"q1": true, "q2": true, "q3": true, "q4": true}
	sc.publish("alice", "q1", 620) // c2, announced only during the cut
	sc.publish("carol", "q2", 420) // a2, announced only during the cut
	sc.publish("alice", "q3", 250) // c1, pre-partition
	sc.publish("carol", "q4", 50)  // a1, pre-partition
	return sc.deliveredSet("alice", probes), sc.deliveredSet("carol", probes), sc
}

func setsEqual(a, b map[string]bool) bool {
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

// TestFlapDuringBackfillDigestGC pins the flap-mid-SUBBATCH repair: a
// link that drops AGAIN between the heal backfill and the digest
// round leaves the receiver holding a reverse-path entry for a
// subscription the sender retired during the first cut (the
// unsubscribe died on the dead link, and the backfill only adds — it
// never asserts completeness). The next digest reconciliation must GC
// that entry through the full unsubscribe machinery — received set,
// coverage table toward third parties, and a downstream UNSUBBATCH —
// not merely stop counting it, or every flap inflates the neighbor
// tables a little more and re-delivers retired subscriptions forever.
func TestFlapDuringBackfillDigestGC(t *testing.T) {
	// Gossip (which carries the link digest) runs at 5s against 250ms
	// sim ticks, so the heal backfill and the digest round land on
	// clearly different ticks and the flap can be wedged between them.
	sc := newSimClusterCfg(t, Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   5 * time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          7,
	})
	sc.step(250*time.Millisecond, 8)
	for _, pair := range [][2]string{{"B1", "B2"}, {"B2", "B1"}, {"B2", "B3"}, {"B3", "B2"}} {
		if got := sc.memberState(pair[0], pair[1]); got != StateAlive {
			t.Fatalf("after assembly %s sees %s as %v", pair[0], pair[1], got)
		}
	}
	b2, b3 := sc.net.Broker("B2"), sc.net.Broker("B3")
	received := func(sub string) bool {
		for _, id := range b2.ReceivedFrom("B1") {
			if id == sub {
				return true
			}
		}
		return false
	}

	sc.subscribe("alice", "a1", 0, 100)
	sc.subscribe("carol", "c1", 200, 300)
	if !received("a1") {
		t.Fatal("a1 never flooded to B2; the scenario is vacuous")
	}

	// First cut. While it stands, alice retires a1 (the UNSUBSCRIBE
	// toward B2 dies on the dead link) and opens a2.
	sc.net.SetLink("B1", "B2", false)
	sc.step(250*time.Millisecond, 40)
	if err := sc.net.ClientSend("alice", broker.Message{Kind: broker.MsgUnsubscribe, SubID: "a1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.net.Run(); err != nil {
		t.Fatal(err)
	}
	sc.subscribe("alice", "a2", 400, 450)

	// First heal: run only until the backfill SUBBATCH {a2} lands on
	// B2, then flap the link again — before any digest round.
	sc.net.SetLink("B1", "B2", true)
	backfilled := false
	for i := 0; i < 40 && !backfilled; i++ {
		sc.step(250*time.Millisecond, 1)
		backfilled = received("a2")
	}
	if !backfilled {
		t.Fatal("backfill never reached B2 after the heal")
	}
	if !received("a1") {
		t.Fatal("a1 already reconciled at backfill time; the flap cannot land between backfill and digest")
	}
	sc.net.SetLink("B1", "B2", false)
	sc.step(250*time.Millisecond, 40)

	// Second heal, this time to quiescence: reconnect, duplicate
	// backfill, and at least one full digest round trip.
	sc.net.SetLink("B1", "B2", true)
	sc.step(250*time.Millisecond, 60)

	// The stale reverse-path entry is gone from the link's received
	// set, and the digest pair agrees in both directions.
	if received("a1") {
		t.Error("B2 still lists a1 as received from B1 after reconciliation")
	}
	if !received("a2") {
		t.Error("reconciliation dropped the live a2")
	}
	for _, dir := range [][2]string{{"B1", "B2"}, {"B2", "B1"}} {
		sender, receiver := sc.net.Broker(dir[0]), sc.net.Broker(dir[1])
		if sent, ok := sender.LinkDigest(dir[1]); ok && sent != receiver.ReceivedDigest(dir[0]) {
			t.Errorf("%s→%s digests diverge after reconciliation", dir[0], dir[1])
		}
	}
	// The GC ran the full unsubscribe machinery: B2's coverage table
	// toward B3 no longer carries a1 (no inflation), and the
	// downstream UNSUBBATCH purged B3 too.
	for _, root := range b2.NeighborRoots("B3") {
		if root.SubID == "a1" {
			t.Error("B2's table toward B3 still carries the retired a1")
		}
	}
	if src, ok := b3.KnowsSubscription("a1"); ok {
		t.Errorf("B3 still knows a1 (via %s); the stale-entry GC did not propagate downstream", src)
	}
	// And delivery agrees: a publication in a1's old range goes
	// nowhere, one in a2's range reaches alice.
	sc.publish("carol", "q-old", 50)
	sc.publish("carol", "q-new", 420)
	probes := map[string]bool{"q-old": true, "q-new": true}
	got := sc.deliveredSet("alice", probes)
	want := map[string]bool{"a2/q-new": true}
	if !setsEqual(got, want) {
		t.Errorf("alice deliveries after the flap: got %v, want %v", got, want)
	}
}

func TestPartitionHealsToOracle(t *testing.T) {
	oracleAlice, oracleCarol, _ := runPartitionScenario(t, false)
	healedAlice, healedCarol, sc := runPartitionScenario(t, true)

	// The oracle must actually deliver across the chain, or the
	// comparison proves nothing.
	if !oracleCarol["c2/q1"] || !oracleAlice["a2/q2"] || !oracleCarol["c1/q3"] || !oracleAlice["a1/q4"] {
		t.Fatalf("oracle deliveries incomplete: alice %v carol %v", oracleAlice, oracleCarol)
	}
	if !setsEqual(healedAlice, oracleAlice) {
		t.Errorf("alice post-heal deliveries diverge from oracle:\n healed %v\n oracle %v", healedAlice, oracleAlice)
	}
	if !setsEqual(healedCarol, oracleCarol) {
		t.Errorf("carol post-heal deliveries diverge from oracle:\n healed %v\n oracle %v", healedCarol, oracleCarol)
	}

	// The healing protocol itself: each side of the cut sent its roots
	// exactly once, as ONE link-sync batch.
	for _, id := range []string{"B1", "B2"} {
		pre, post := sc.preHealMetrics[id], sc.net.Broker(id).Metrics()
		if syncs, subs := post.LinkSyncs-pre.LinkSyncs, post.LinkSyncSubs-pre.LinkSyncSubs; syncs != 1 || subs != 2 {
			t.Errorf("%s link syncs across the heal: %d batches with %d subs, want 1 batch of 2", id, syncs, subs)
		}
	}
	m1 := sc.nodes["B1"].Metrics()
	if m1.Deaths == 0 || m1.Recoveries == 0 || m1.DialFailures == 0 {
		t.Errorf("B1 failure-detector metrics did not move: %+v", m1)
	}
	// B1's link sync reached B2 as ONE SUBBATCH of its two roots, and
	// left B2 toward B3 as ONE SUBBATCH of {a2} (a1 was deduplicated as
	// already known).
	for _, c := range []struct {
		link string
		a    *arrivals
		want []string
	}{
		{"B1→B2", sc.healedB1, []string{"subscribe-batch/2"}},
		{"B2→B3", sc.healedB2, []string{"subscribe-batch/1"}},
	} {
		if got := c.a.frames(); !slices.Equal(got, c.want) {
			t.Errorf("%s subscription frames since the heal: %v, want %v", c.link, got, c.want)
		}
	}
}
