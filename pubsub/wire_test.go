package pubsub

// Wire-level tests: bursts cross a link as single batch frames, a
// handshake in any other dialect is refused on both sides,
// and a hand-wired link survives its neighbor restarting.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// tile returns a small non-overlapping box so batch items never cover
// each other and all forward.
func tile(i int64) Subscription {
	return subscription.New(interval.New(i*10, i*10+5), interval.New(0, 5))
}

// TestTCPSubscribeBatchCrossesLinkAsOneFrame: a client's SUBBATCH of
// n subscriptions leaves A toward B as ONE subscribe-batch frame that
// carries all n — not n per-item frames — and an unsubscribe burst as
// one unsubscribe-batch frame that sends no second subscribe-batch.
// The frames are read from A's per-link stats, the items from the
// brokers' counters.
func TestTCPSubscribeBatchCrossesLinkAsOneFrame(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	b := listenTestBroker(t, "B", Pairwise)
	if _, err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c := dialTest(t, a.Addr(), "alice")
	sent := func(kind broker.MsgKind) uint64 {
		return a.Observability().JSON().Links["B"].Sent[kind.String()]
	}

	const n = 16
	subs := make([]BatchSub, n)
	for i := range subs {
		subs[i] = BatchSub{SubID: fmt.Sprintf("s%d", i), Sub: tile(int64(i))}
	}
	if err := c.SubscribeBatch(ctx, subs); err != nil {
		t.Fatal(err)
	}
	// The burst floods A → B as one frame; wait for B to admit it.
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == n })
	if batches, items := sent(broker.MsgSubscribeBatch), sent(broker.MsgSubscribe); batches != 1 || items != 0 {
		t.Fatalf("a burst of %d left A as %d subscribe-batch and %d subscribe frames, want 1 and 0", n, batches, items)
	}
	if m := a.Metrics(); m.SubsForwarded != n {
		t.Fatalf("A forwarded %d subscriptions to B, want all %d in the one frame", m.SubsForwarded, n)
	}

	if err := c.UnsubscribeBatch(ctx, []string{"s0", "s1", "s2"}); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool { return m.UnsubsForwarded == 3 })
	deadline := time.Now().Add(5 * time.Second)
	for sent(broker.MsgUnsubscribeBatch) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if batches, items := sent(broker.MsgUnsubscribeBatch), sent(broker.MsgUnsubscribe); batches != 1 || items != 0 {
		t.Fatalf("an unsubscribe burst of 3 left A as %d unsubscribe-batch and %d unsubscribe frames, want 1 and 0", batches, items)
	}
	if batches := sent(broker.MsgSubscribeBatch); batches != 1 {
		t.Fatalf("the unsubscribe burst sent %d more subscribe-batch frames", batches-1)
	}
	// The one frame carried all three: B retires them.
	deadline = time.Now().Add(5 * time.Second)
	for _, id := range []string{"s0", "s1", "s2"} {
		for _, known := b.Core().KnowsSubscription(id); known; _, known = b.Core().KnowsSubscription(id) {
			if time.Now().After(deadline) {
				t.Fatalf("B still routes %s after the unsubscribe burst", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestTCPBatchCoverageWithinBurst pins the batch-admission semantics
// end to end: a burst whose first (broad) subscription covers the
// rest forwards only the broad one.
func TestTCPBatchCoverageWithinBurst(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	b := listenTestBroker(t, "B", Pairwise)
	if _, err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	c := dialTest(t, a.Addr(), "alice")

	subs := []BatchSub{
		{SubID: "narrow1", Sub: box(40, 60, 40, 60)},
		{SubID: "broad", Sub: box(0, 100, 0, 100)},
		{SubID: "narrow2", Sub: box(10, 20, 10, 20)},
	}
	if err := c.SubscribeBatch(ctx, subs); err != nil {
		t.Fatal(err)
	}
	// Batch admission processes descending volume: broad lands active,
	// both narrows admit covered, so only broad crosses the wire.
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool {
		return m.SubsReceived == 3 && m.SubsForwarded == 1 && m.SubsSuppressed == 2
	})
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	// The covered narrows still match locally: a publication inside
	// narrow1 published at B must reach the client for all covering
	// subscriptions.
	pub := dialTest(t, b.Addr(), "bob")
	if err := pub.Publish(ctx, "p1", subscription.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		n, ok := recvOne(t, c, 5*time.Second)
		if !ok {
			t.Fatalf("notification %d did not arrive (got %v)", i, got)
		}
		got[n.SubID] = true
	}
	if !got["broad"] || !got["narrow1"] {
		t.Fatalf("deliveries = %v, want broad and narrow1", got)
	}
}

// TestTCPPublishBatchDelivery drives Client.PublishBatch end to end
// over a two-broker overlay: one PUBBATCH frame in, every publication
// delivered to the matching subscriber on the far side.
func TestTCPPublishBatchDelivery(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	b := listenTestBroker(t, "B", Pairwise)
	if _, err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "alice")
	if err := sub.Subscribe(ctx, "s1", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	pub := dialTest(t, a.Addr(), "bob")
	const n = 5
	batch := make([]BatchPub, n)
	for i := range batch {
		batch[i] = BatchPub{PubID: fmt.Sprintf("p%d", i), Pub: subscription.NewPublication(int64(i*10), int64(i*10))}
	}
	if err := pub.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < n; i++ {
		nt, ok := recvOne(t, sub, 5*time.Second)
		if !ok {
			t.Fatalf("notification %d missing (got %v)", i, got)
		}
		if nt.SubID != "s1" {
			t.Fatalf("notification under %s", nt.SubID)
		}
		got[nt.PubID] = true
	}
	for i := 0; i < n; i++ {
		if !got[fmt.Sprintf("p%d", i)] {
			t.Fatalf("p%d not delivered: %v", i, got)
		}
	}
	if m := a.Metrics(); m.PubsReceived != n || m.PubsForwarded != n {
		t.Fatalf("A publish metrics %+v, want %d received and forwarded", m, n)
	}
}

// TestTCPPublishBatchStaysBatched pins that a producer batch crosses
// the overlay as ONE PUBBATCH frame. The peer is a raw socket speaking
// the frame grammar by hand.
func TestTCPPublishBatchStaysBatched(t *testing.T) {
	a := listenTestBroker(t, "A", Pairwise)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan broker.Message, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := newFrameReader(conn)
		var fr Frame
		if err := r.read(&fr); err != nil || fr.Hello != "A" {
			return
		}
		if err := writeFrame(conn, &Frame{Ack: "P"}); err != nil {
			return
		}
		// Announce a subscription over the same connection so A
		// forwards matching publications back on it.
		if err := writeFrame(conn, &Frame{Msg: &broker.Message{Kind: broker.MsgSubscribe, SubID: "ps", Sub: box(0, 100, 0, 100)}}); err != nil {
			return
		}
		for r.read(&fr) == nil {
			if fr.Msg != nil {
				frames <- *fr.Msg
			}
		}
	}()
	if _, err := a.ConnectPeer("P", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, a, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	ctx := testCtx(t)
	c := dialTest(t, a.Addr(), "bob")
	const n = 5
	batch := make([]BatchPub, n)
	for i := range batch {
		batch[i] = BatchPub{PubID: fmt.Sprintf("q%d", i), Pub: subscription.NewPublication(int64(i), int64(i))}
	}
	if err := c.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-frames:
		if msg.Kind != broker.MsgPublishBatch || len(msg.Pubs) != n {
			t.Fatalf("peer received %v with %d pubs, want one PUBBATCH of %d", msg.Kind, len(msg.Pubs), n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded publish batch never arrived")
	}
}

// rawClient dials addr as client name and completes the handshake,
// for tests that write frames by hand; r reads what the broker sends.
func rawClient(t *testing.T, addr, name string) (conn net.Conn, r *frameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r, _, err = handshake(testCtx(t), conn, &Frame{Hello: name, Client: true})
	if err != nil {
		t.Fatal(err)
	}
	return conn, r
}

// publishFrames encodes one PUBLISH frame per ID, back to back, for
// one write.
func publishFrames(t *testing.T, ids ...string) []byte {
	t.Helper()
	var buf []byte
	for _, id := range ids {
		var err error
		msg := &broker.Message{Kind: broker.MsgPublish, PubID: id, Pub: subscription.NewPublication(5, 5)}
		if buf, err = MarshalFrame(CodecBinary5, buf, &Frame{Msg: msg}); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestTCPPublishRunForwardsOneBatch pins the forwarding rule over real
// sockets: publish frames that reach a broker in one write are one run
// and leave toward the neighbor as ONE publish-batch frame, while a
// lone publish frame leaves as a publish frame. The frames leaving B1
// are read from its link stats.
func TestTCPPublishRunForwardsOneBatch(t *testing.T) {
	b1 := listenTestBroker(t, "B1", Pairwise)
	b2 := listenTestBroker(t, "B2", Pairwise)
	if _, err := b1.ConnectPeer("B2", b2.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sub := dialTest(t, b2.Addr(), "S")
	if err := sub.Subscribe(ctx, "s", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b1, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
	conn, _ := rawClient(t, b1.Addr(), "P")
	publish := func(ids ...string) {
		t.Helper()
		if _, err := conn.Write(publishFrames(t, ids...)); err != nil {
			t.Fatal(err)
		}
		for range ids {
			if _, ok := recvOne(t, sub, 5*time.Second); !ok {
				t.Fatal("a publication never reached the subscriber")
			}
		}
	}
	sent := func() (batches, pubs uint64) {
		s := b1.Observability().JSON().Links["B2"].Sent
		return s["publish-batch"], s["publish"]
	}

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	publish(ids...)
	if batches, pubs := sent(); batches != 1 || pubs != 0 {
		t.Fatalf("a run of %d left B1 as %d publish-batch and %d publish frames, want 1 and 0", n, batches, pubs)
	}
	publish("lone")
	if batches, pubs := sent(); batches != 1 || pubs != 1 {
		t.Fatalf("a lone publication left B1 as %d publish-batch and %d publish frames, want 0 and 1 more", batches-1, pubs)
	}
}

// TestTCPPublishRunErrorDropsPort: in publish frames that arrive in
// one write, the third has no PubID. The two before it are delivered,
// the broker then drops the connection, and the frame after it is
// never handled.
func TestTCPPublishRunErrorDropsPort(t *testing.T) {
	b := listenTestBroker(t, "B1", Pairwise)
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "S")
	if err := sub.Subscribe(ctx, "s", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
	conn, r := rawClient(t, b.Addr(), "P")
	if _, err := conn.Write(publishFrames(t, "p1", "p2", "", "p3")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p1", "p2"} {
		n, ok := recvOne(t, sub, 5*time.Second)
		if !ok || n.PubID != want {
			t.Fatalf("got %q (delivered %v), want %s", n.PubID, ok, want)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var fr Frame
	for {
		err := r.read(&fr)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("the broker kept the connection after the bad frame")
		}
		if err != nil {
			break
		}
	}
	if got := b.Metrics().PubsReceived; got != 2 {
		t.Fatalf("%d publications handled, want the 2 before the bad frame", got)
	}
	if n, ok := recvOne(t, sub, 100*time.Millisecond); ok {
		t.Fatalf("%s delivered after the bad frame", n.PubID)
	}
}

// TestSimPublishBatch pins Client.PublishBatch on the simulated
// transport: one batch message, every publication delivered.
func TestSimPublishBatch(t *testing.T) {
	tr, err := NewSimTransport(Pairwise, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	defer tr.Shutdown(ctx)
	if _, err := tr.AddBroker("B1"); err != nil {
		t.Fatal(err)
	}
	sub, err := tr.Open(ctx, "alice", "B1")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := tr.Open(ctx, "bob", "B1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(ctx, "s1", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBatch(ctx, []BatchPub{
		{PubID: "p0", Pub: subscription.NewPublication(1, 1)},
		{PubID: "p1", Pub: subscription.NewPublication(2, 2)},
		{PubID: "p2", Pub: subscription.NewPublication(3, 3)},
	}); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 3; i++ {
		n, ok := recvOne(t, sub, 2*time.Second)
		if !ok {
			t.Fatalf("sim notification %d missing", i)
		}
		got[n.PubID] = true
	}
	if !got["p0"] || !got["p1"] || !got["p2"] {
		t.Fatalf("sim deliveries = %v", got)
	}
}

// flightCount counts the broker's flight-recorder events of one kind.
func flightCount(b *Broker, kind string) int {
	n := 0
	for _, ev := range b.Observability().Flight().Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// foreignHello returns a well-formed handshake frame from a build
// that speaks another header version.
func foreignHello(t *testing.T, fr *Frame) []byte {
	t.Helper()
	data, err := MarshalFrame(CodecBinary5, nil, fr)
	if err != nil {
		t.Fatal(err)
	}
	data[1] = binVersion - 1
	return data
}

// TestTCPHandshakeRefusal pins the acceptor's behavior at the version
// edge: a hello under another header version and a newline-JSON hello
// (the dialect of this repository's earliest builds) are each closed
// with exactly one handshake_refused flight event, and nothing that
// followed on the connection — here a subscribe — is processed.
func TestTCPHandshakeRefusal(t *testing.T) {
	sub, err := MarshalFrame(CodecBinary5, nil, &Frame{Msg: &broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 50, 0, 50)}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"client hello v4": foreignHello(t, &Frame{Hello: "alice", Client: true}),
		"peer hello v4":   foreignHello(t, &Frame{Hello: "OLD"}),
		"json hello":      []byte(`{"hello":"alice","client":true}` + "\n"),
		"not a hello":     sub,
	}
	for name, first := range cases {
		t.Run(name, func(t *testing.T) {
			b := listenTestBroker(t, "B1", Pairwise)
			conn, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(append(append([]byte{}, first...), sub...)); err != nil {
				t.Fatal(err)
			}
			// The broker closes without answering.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var one [1]byte
			n, err := conn.Read(one[:])
			if ne, ok := err.(net.Error); n != 0 || err == nil || (ok && ne.Timeout()) {
				t.Fatalf("refused connection read %d bytes, err %v; want a bare close", n, err)
			}
			if refused := flightCount(b, "handshake_refused"); refused != 1 {
				t.Fatalf("%d handshake_refused flight events, want 1", refused)
			}
			srv := b.srv
			srv.mu.Lock()
			ports := len(srv.ports)
			srv.mu.Unlock()
			if ports != 0 {
				t.Fatalf("refused handshake left %d ports", ports)
			}
			if m := b.Metrics(); m.SubsReceived != 0 {
				t.Fatalf("refused connection's subscribe was processed: %+v", m)
			}
			if slices.Contains(b.Core().Neighbors(), "OLD") {
				t.Fatal("refused peer hello registered a neighbor")
			}
		})
	}
}

// TestTCPDialRefusedByForeignAck pins the dialing side of the version
// edge: an acceptor that answers the hello with an ack under another
// header version makes Dial fail — and makes a dialing broker drop
// the link and report it down.
func TestTCPDialRefusedByForeignAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	foreignAck := foreignHello(t, &Frame{Ack: "OLD"})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := newFrameReader(conn)
				var fr Frame
				if r.read(&fr) != nil {
					return
				}
				conn.Write(foreignAck)
				r.read(&fr) // hold the connection until the dialer gives up
			}()
		}
	}()

	if c, err := Dial(testCtx(t), ln.Addr().String(), "alice"); err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a foreign-version ack")
	}

	a := listenTestBroker(t, "A", Pairwise)
	down := make(chan string, 4)
	a.SetPeerHooks(func(string) {}, func(peer string) { down <- peer })
	if _, err := a.ConnectPeer("OLD", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	select {
	case peer := <-down:
		if peer != "OLD" {
			t.Fatalf("peer-down for %q, want OLD", peer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("foreign-version ack never took the link down")
	}
	srv := a.srv
	srv.mu.Lock()
	p := srv.ports["OLD"]
	srv.mu.Unlock()
	if p == nil || p.alive() {
		t.Fatal("port to the refused peer is still alive")
	}
}

// TestTCPDialBoundedByContext pins that Dial's wait for the ack ends
// with its context: a listener that accepts and says nothing is an
// error, not a hang.
func TestTCPDialBoundedByContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if c, err := Dial(ctx, ln.Addr().String(), "alice"); err == nil {
		c.Close()
		t.Fatal("Dial returned without an ack")
	}
}

// TestTCPRestartedNeighborIsRedialed is the hand-wired re-dial
// regression. Only R is configured with its neighbor: R dials S, and
// the one connection carries both directions. R is then shut down hard
// and comes back on the same address with the same wiring. Its dial
// re-links both directions with no action on S, or publications at S
// never reach R's subscribers again. S also holds a local
// subscription, so its roots toward R are not empty: the new link
// must carry them from S as ONE counted link sync.
func TestTCPRestartedNeighborIsRedialed(t *testing.T) {
	s := listenTestBroker(t, "S", Pairwise)
	startR := func(addr string) *Broker {
		t.Helper()
		r, err := ListenBroker("R", addr, Pairwise, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ConnectPeer("S", s.Addr()); err != nil {
			t.Fatal(err)
		}
		return r
	}
	ctx := testCtx(t)
	pub := dialTest(t, s.Addr(), "bob")
	// deliver subscribes at r and publishes at S until one arrives.
	deliver := func(r *Broker, round string) {
		t.Helper()
		sub := dialTest(t, r.Addr(), "alice")
		if err := sub.Subscribe(ctx, "s-"+round, box(0, 50, 0, 50)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; time.Now().Before(deadline); i++ {
			if err := pub.Publish(ctx, fmt.Sprintf("p-%s-%d", round, i), subscription.NewPublication(10, 10)); err != nil {
				t.Fatal(err)
			}
			if _, ok := recvOne(t, sub, 100*time.Millisecond); ok {
				return
			}
		}
		t.Fatalf("%s: no publication from S reached R's subscriber", round)
	}

	r := startR("127.0.0.1:0")
	addr := r.Addr()
	deliver(r, "first-life")
	carol := dialTest(t, s.Addr(), "carol")
	if err := carol.Subscribe(ctx, "c1", box(200, 300, 200, 300)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(s.Core().NeighborRoots("R")) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("S never admitted carol's subscription")
		}
	}
	roots := len(s.Core().NeighborRoots("R"))

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	r.Shutdown(dead) // hard: queued frames abandoned, connections closed
	// A restart takes longer than a FIN: S has seen the link die.
	for deadline := time.Now().Add(5 * time.Second); flightCount(s, "peer_down") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("S never noticed its link to R died")
		}
	}

	pre := s.Metrics()
	r = startR(addr)
	defer r.Shutdown(ctx)
	deliver(r, "second-life")

	waitMetric(t, s, 5*time.Second, func(m Metrics) bool { return m.LinkSyncs > pre.LinkSyncs })
	post := s.Metrics()
	if syncs, subs := post.LinkSyncs-pre.LinkSyncs, post.LinkSyncSubs-pre.LinkSyncSubs; syncs != 1 || subs != roots {
		t.Errorf("S's re-dial sent %d link syncs carrying %d subs, want 1 carrying %d", syncs, subs, roots)
	}
	if got := s.Observability().JSON().Counters["broker_link_syncs"]; got != int64(post.LinkSyncs) {
		t.Errorf("broker_link_syncs = %d, Metrics().LinkSyncs = %d", got, post.LinkSyncs)
	}
}
