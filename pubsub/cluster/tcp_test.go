package cluster

// Real-socket cluster tests (ISSUE 5 acceptance): a 3-broker cluster
// started from one topology survives a broker kill + restart — the
// reconnect loop restores the link, its dial sends the coverage roots
// as ONE link-sync SUBBATCH, and delivery resumes; peers without a
// cluster layer are never sent control frames; and a seed-node
// cluster assembles itself into a mesh through gossip.

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/pubsub"
)

// fastConfig keeps detector and reconnect timings test-sized.
func fastConfig() Config {
	return Config{
		PingEvery:     50 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     200 * time.Millisecond,
		GossipEvery:   100 * time.Millisecond,
		ReconnectMin:  50 * time.Millisecond,
		ReconnectMax:  300 * time.Millisecond,
	}
}

// freeAddrs reserves n distinct loopback addresses. The topology needs
// concrete addresses up front (a restarted broker must come back on
// the SAME one), so ephemeral :0 binding cannot be used directly.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ln.Addr().String()
		ln.Close()
	}
	return out
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func tcpShutdown(t *testing.T, b *pubsub.Broker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b.Shutdown(ctx)
}

func tile2(lo, hi int64) pubsub.Subscription {
	return subscription.New(interval.New(lo, hi), interval.New(lo, hi))
}

func recvNotification(t *testing.T, c *pubsub.Client, d time.Duration, pubID string) pubsub.Notification {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case n, ok := <-c.Notifications():
			if !ok {
				t.Fatal("notification channel closed")
			}
			if n.PubID == pubID {
				return n
			}
		case <-deadline:
			t.Fatalf("notification for %s did not arrive", pubID)
		}
	}
}

// TestClusterKillRestartTCP is the ISSUE 5 acceptance scenario.
func TestClusterKillRestartTCP(t *testing.T) {
	addrs := freeAddrs(t, 3)
	topo := &Topology{
		Policy: "pairwise",
		Nodes: []TopologyNode{
			{ID: "B1", Listen: addrs[0]},
			{ID: "B2", Listen: addrs[1]},
			{ID: "B3", Listen: addrs[2]},
		},
		Links: [][2]string{{"B1", "B2"}, {"B2", "B3"}},
	}
	cfg := fastConfig()

	n1, b1, err := Start(topo, "B1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n1.Close(); tcpShutdown(t, b1) }()
	n2, b2, err := Start(topo, "B2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	n3, b3, err := Start(topo, "B3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n3.Close(); tcpShutdown(t, b3) }()

	// The cluster assembles itself regardless of boot order.
	waitFor(t, 10*time.Second, "cluster assembly", func() bool {
		for _, pair := range [][2]*Node{{n1, n2}, {n2, n1}, {n2, n3}, {n3, n2}} {
			m, ok := pair[0].Member(pair[1].link.Self())
			if !ok || m.State != StateAlive {
				return false
			}
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	alice, err := pubsub.Dial(ctx, b1.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	if err := alice.Subscribe(ctx, "s1", tile2(0, 100)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "s1 to reach B3", func() bool { return b3.Metrics().SubsReceived == 1 })

	bob, err := pubsub.Dial(ctx, b3.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	if err := bob.Publish(ctx, "p1", subscription.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	if n := recvNotification(t, alice, 5*time.Second, "p1"); n.SubID != "s1" {
		t.Fatalf("p1 delivered under %s", n.SubID)
	}

	// Kill the middle broker.
	n2.Close()
	tcpShutdown(t, b2)
	waitFor(t, 10*time.Second, "B1 to declare B2 dead", func() bool {
		m, _ := n1.Member("B2")
		return m.State == StateDead
	})

	// Subscribe while the middle is down: the flood toward B2 is lost
	// on the wire (B1's coverage table for B2 admits it regardless).
	if err := alice.Subscribe(ctx, "s2", tile2(400, 500)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "B1 to admit s2", func() bool { return b1.Metrics().SubsReceived == 2 })
	if got := b3.Metrics().SubsReceived; got != 1 {
		t.Fatalf("B3 received %d subscriptions while B2 was down", got)
	}

	// Restart B2 from the same topology file contents: the survivors'
	// reconnect loops re-dial it, and B1's dial sends its roots —
	// {s1, s2} — as ONE link-sync SUBBATCH that B2 admits and forwards
	// to B3.
	pre := b1.Metrics()
	fromB2 := record(b3.Core(), "B2")
	n2b, b2b, err := Start(topo, "B2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n2b.Close(); tcpShutdown(t, b2b) }()

	// Generous bound: `go test ./...` runs the CPU-bound 1k-broker
	// scale harness in a parallel package, which can starve this
	// test's 50ms detector timings on small machines.
	waitFor(t, 30*time.Second, "B2 recovery and B1's link sync to reach B3", func() bool {
		m1, _ := n1.Member("B2")
		m3, _ := n3.Member("B2")
		return m1.State == StateAlive && m3.State == StateAlive && b3.Metrics().SubsReceived == 2
	})

	// B1 counted its link sync to the restarted B2: every established
	// dial (a flap may add one) carried both roots.
	post := b1.Metrics()
	if syncs, subs := post.LinkSyncs-pre.LinkSyncs, post.LinkSyncSubs-pre.LinkSyncSubs; syncs < 1 || subs != 2*syncs {
		t.Errorf("B1 link syncs since the restart: %d carrying %d subs, want at least 1 of 2 subs each", syncs, subs)
	}
	// The synced roots left the restarted broker toward B3 as ONE
	// SUBBATCH of both: forwarded on B1's sync, or as B2's own link
	// sync when its link to B3 came up after it. A later re-link
	// repeats the link sync, so every frame must carry both roots.
	waitFor(t, 5*time.Second, "B2's SUBBATCH to reach B3", func() bool { return len(fromB2.frames()) > 0 })
	if got := fromB2.frames(); slices.ContainsFunc(got, func(f string) bool { return f != "subscribe-batch/2" }) {
		t.Errorf("subscription frames B3 applied from the restarted B2: %v, want each to be subscribe-batch/2", got)
	}

	// Post-heal delivery matches the never-failed oracle: publications
	// matching both the pre-kill and the mid-outage subscription
	// arrive end to end. Publication transport is at-most-once (a port
	// still settling right at the heal boundary may drop one frame),
	// so probe with fresh IDs until one delivers — the subscription
	// ROUTING state, which is what healing restores, must be in place.
	publishUntil(t, bob, alice, "p2", subscription.NewPublication(420, 420), "s2")
	publishUntil(t, bob, alice, "p3", subscription.NewPublication(60, 60), "s1")
}

// publishUntil publishes p under fresh IDs (prefix-i) until the
// subscriber sees one, failing after a few attempts. Retrying with
// fresh IDs is exactly what an at-most-once producer does; a broken
// routing path fails every attempt and the test.
func publishUntil(t *testing.T, pub, sub *pubsub.Client, prefix string, p pubsub.Publication, wantSub string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		pubID := fmt.Sprintf("%s-%d", prefix, i)
		if err := pub.Publish(ctx, pubID, p); err != nil {
			t.Fatal(err)
		}
		timeout := time.After(2 * time.Second)
	recv:
		for {
			select {
			case n, ok := <-sub.Notifications():
				if !ok {
					t.Fatal("notification channel closed")
				}
				if n.PubID == pubID {
					if n.SubID != wantSub {
						t.Fatalf("%s delivered under %s, want %s", pubID, n.SubID, wantSub)
					}
					return
				}
			case <-timeout:
				break recv
			}
		}
	}
	t.Fatalf("no %s-* publication delivered after 5 attempts", prefix)
}

// TestClusterNoControlFramesWithoutClusterLayer pins the capability
// gate: a peer that advertised no cluster layer (a hand-wired broker,
// nothing attached) receives routing traffic but never a ping, pong,
// gossip, ping-req or gossip-delta frame. The peer's own per-link
// receive counters are the witness.
func TestClusterNoControlFramesWithoutClusterLayer(t *testing.T) {
	plain, err := pubsub.ListenBroker("PLAIN", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, plain)
	b, err := pubsub.ListenBroker("A", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, b)
	n := Attach(b, fastConfig())
	defer n.Close()
	n.AddMember(Member{ID: "PLAIN", Addr: plain.Addr()}, true)

	waitFor(t, 5*time.Second, "link to the plain peer", func() bool {
		m, ok := n.Member("PLAIN")
		return ok && m.State == StateAlive
	})

	// Routing traffic flows to it...
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := pubsub.Dial(ctx, b.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(ctx, "s1", tile2(0, 50)); err != nil {
		t.Fatal(err)
	}
	fromA := plain.Observability().Link("A")
	waitFor(t, 5*time.Second, "the forwarded subscribe to reach the plain peer", func() bool {
		return fromA.Snapshot().Recv[broker.MsgSubscribe] == 1
	})
	// ...and several detector/gossip periods pass without a single
	// control frame reaching it.
	time.Sleep(500 * time.Millisecond)
	recv := fromA.Snapshot().Recv
	for kind := broker.MsgSubscribe; kind <= broker.MsgGossipDelta; kind++ {
		if kind.IsControl() && recv[kind] != 0 {
			t.Errorf("plain peer received %d %v frames", recv[kind], kind)
		}
	}
}

// TestClusterSeedMeshDiscovery pins self-assembly from a seed list:
// two brokers that only know the seed discover each other through
// gossip and link directly (mesh mode).
func TestClusterSeedMeshDiscovery(t *testing.T) {
	b1, err := pubsub.ListenBroker("B1", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, b1)
	n1 := Attach(b1, func() Config { c := fastConfig(); c.Mesh = true; return c }())
	defer n1.Close()

	seeds := map[string]string{"B1": b1.Addr()}
	n2, b2, err := Join("B2", "127.0.0.1:0", seeds, pubsub.Pairwise, pubsub.Config{}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n2.Close(); tcpShutdown(t, b2) }()
	n3, b3, err := Join("B3", "127.0.0.1:0", seeds, pubsub.Pairwise, pubsub.Config{}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { n3.Close(); tcpShutdown(t, b3) }()

	// B2 and B3 never heard of each other; gossip through B1 must
	// introduce them, and mesh mode must link them directly.
	waitFor(t, 10*time.Second, "B2 and B3 to discover each other", func() bool {
		m23, ok23 := n2.Member("B3")
		m32, ok32 := n3.Member("B2")
		return ok23 && ok32 && m23.State == StateAlive && m32.State == StateAlive
	})
	waitFor(t, 10*time.Second, "a direct B2–B3 overlay link", func() bool {
		return slices.Contains(b2.Core().Neighbors(), "B3")
	})
}

// TestClusterDiskRejoin pins durable membership end to end: a broker
// that joined a cluster via a seed node, persisted its member list,
// and shut down rejoins the SAME cluster on restart from its data
// directory alone — no seed node, no topology file.
func TestClusterDiskRejoin(t *testing.T) {
	dir := t.TempDir()
	b1, err := pubsub.ListenBroker("B1", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, b1)
	n1 := Attach(b1, func() Config { c := fastConfig(); c.Mesh = true; return c }())
	defer n1.Close()

	seeds := map[string]string{"B1": b1.Addr()}
	n2, b2, err := Join("B2", "127.0.0.1:0", seeds, pubsub.Pairwise, pubsub.Config{},
		fastConfig(), pubsub.WithDataDir(dir), pubsub.WithJournalSync(1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "first life to see B1 alive", func() bool {
		m, ok := n2.Member("B1")
		return ok && m.State == StateAlive
	})
	// Let at least one persist debounce window elapse, then shut down
	// gracefully (the final snapshot also carries the member list via
	// the journal's member source).
	time.Sleep(3 * fastConfig().GossipEvery)
	n2.Close()
	tcpShutdown(t, b2)

	// Second life: same data directory, NO seeds, no topology — the
	// recovered member list is the only way back to the cluster.
	b2r, err := pubsub.ListenBroker("B2", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{},
		pubsub.WithDataDir(dir), pubsub.WithJournalSync(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, b2r)
	rs, ok := b2r.Recovery()
	if !ok || len(rs.Members) == 0 {
		t.Fatalf("recovery = %+v, %v; want a persisted member list", rs, ok)
	}
	n2r := Attach(b2r, func() Config { c := fastConfig(); c.Mesh = true; return c }())
	defer n2r.Close()

	waitFor(t, 10*time.Second, "disk rejoin to re-link B1", func() bool {
		m, ok := n2r.Member("B1")
		return ok && m.State == StateAlive
	})
	waitFor(t, 10*time.Second, "B1 to see the rejoined B2 alive", func() bool {
		m, ok := n1.Member("B2")
		return ok && m.State == StateAlive
	})
}
