package pubsub

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/obs"
	"probsum/internal/subscription"
)

func box(lo1, hi1, lo2, hi2 int64) Subscription {
	return subscription.New(interval.New(lo1, hi1), interval.New(lo2, hi2))
}

// testCtx returns a context that fails the test run long before the go
// test timeout would.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func listenTestBroker(t *testing.T, id string, policy Policy, opts ...TCPOption) *Broker {
	t.Helper()
	b, err := ListenBroker(id, "127.0.0.1:0", policy, Config{
		ErrorProbability: 1e-9,
		MaxTrials:        10_000,
		Seed:             3,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	})
	return b
}

func dialTest(t *testing.T, addr, name string) *Client {
	t.Helper()
	c, err := Dial(testCtx(t), addr, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// recvOne reads one notification with a deadline.
func recvOne(t *testing.T, c *Client, d time.Duration) (Notification, bool) {
	t.Helper()
	select {
	case n, ok := <-c.Notifications():
		if !ok {
			t.Fatal("notification channel closed")
		}
		return n, true
	case <-time.After(d):
		return Notification{}, false
	}
}

// waitMetric polls until cond on the broker metrics holds.
func waitMetric(t *testing.T, b *Broker, d time.Duration, cond func(Metrics) bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond(b.Metrics()) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("metrics condition not reached: %+v", b.Metrics())
}

func TestTCPSingleBrokerLoopback(t *testing.T) {
	b := listenTestBroker(t, "B1", Pairwise)
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "alice")
	pub := dialTest(t, b.Addr(), "bob")

	if err := sub.Subscribe(ctx, "s1", box(0, 50, 0, 50)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
	if err := pub.Publish(ctx, "p1", subscription.NewPublication(25, 25)); err != nil {
		t.Fatal(err)
	}
	n, ok := recvOne(t, sub, 2*time.Second)
	if !ok {
		t.Fatal("notification did not arrive")
	}
	if n.SubID != "s1" || n.PubID != "p1" {
		t.Fatalf("notification = %+v", n)
	}
}

func TestTCPTwoBrokerOverlay(t *testing.T) {
	b1 := listenTestBroker(t, "B1", Pairwise)
	b2 := listenTestBroker(t, "B2", Pairwise)
	// Bidirectional overlay link: each side dials the other.
	if _, err := b1.ConnectPeer("B2", b2.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.ConnectPeer("B1", b1.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sub := dialTest(t, b1.Addr(), "alice")
	pub := dialTest(t, b2.Addr(), "bob")

	if err := sub.Subscribe(ctx, "s1", box(10, 20, 10, 20)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b2, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
	if err := pub.Publish(ctx, "p1", subscription.NewPublication(15, 15)); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, sub, 2*time.Second); !ok {
		t.Fatal("cross-broker notification did not arrive")
	}

	// Unsubscribe and verify silence.
	if err := sub.Unsubscribe(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b1, 2*time.Second, func(m Metrics) bool { return m.UnsubsForwarded == 1 })
	if err := pub.Publish(ctx, "p2", subscription.NewPublication(15, 15)); err != nil {
		t.Fatal(err)
	}
	if n, ok := recvOne(t, sub, 300*time.Millisecond); ok {
		t.Fatalf("unexpected delivery after unsubscribe: %+v", n)
	}
}

func TestTCPCoverageSuppression(t *testing.T) {
	b1 := listenTestBroker(t, "B1", Pairwise)
	b2 := listenTestBroker(t, "B2", Pairwise)
	if _, err := b1.ConnectPeer("B2", b2.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.ConnectPeer("B1", b1.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	sub := dialTest(t, b1.Addr(), "alice")

	if err := sub.Subscribe(ctx, "big", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(ctx, "small", box(40, 60, 40, 60)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b1, 2*time.Second, func(m Metrics) bool {
		return m.SubsSuppressed >= 1 && m.SubsForwarded == 1
	})
}

func TestTCPDialErrors(t *testing.T) {
	if _, err := Dial(testCtx(t), "127.0.0.1:1", "x"); err == nil {
		t.Error("dial to closed port succeeded")
	}
	b := listenTestBroker(t, "B1", Flood)
	if _, err := b.ConnectPeer("ghost", "127.0.0.1:1"); err == nil {
		t.Error("peer dial to closed port succeeded")
	}
}

// TestTCPPeerDisconnectMidPublish drives publications through an
// overlay while the downstream peer dies mid-stream: the surviving
// broker must keep serving its local subscriber, dropping frames for
// the vanished peer without stalling or erroring the publisher path.
func TestTCPPeerDisconnectMidPublish(t *testing.T) {
	b1 := listenTestBroker(t, "B1", Pairwise)
	b2 := listenTestBroker(t, "B2", Pairwise)
	if _, err := b1.ConnectPeer("B2", b2.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.ConnectPeer("B1", b1.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	local := dialTest(t, b1.Addr(), "local")   // subscriber at B1
	remote := dialTest(t, b2.Addr(), "remote") // subscriber at B2
	pub := dialTest(t, b1.Addr(), "pub")       // publisher at B1

	s := box(0, 100, 0, 100)
	if err := local.Subscribe(ctx, "sl", s); err != nil {
		t.Fatal(err)
	}
	if err := remote.Subscribe(ctx, "sr", s); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b1, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 2 })

	const total = 50
	for i := 0; i < total; i++ {
		if i == total/2 {
			// Kill B2 abruptly mid-burst (expired context = hard close).
			done, cancel := context.WithCancel(context.Background())
			cancel()
			b2.Shutdown(done)
		}
		if err := pub.Publish(ctx, fmt.Sprintf("p%d", i), subscription.NewPublication(50, 50)); err != nil {
			t.Fatal(err)
		}
	}
	// The local subscriber receives every publication despite the dead
	// peer link.
	for i := 0; i < total; i++ {
		if _, ok := recvOne(t, local, 2*time.Second); !ok {
			t.Fatalf("local notification %d did not arrive after peer death", i)
		}
	}
	waitMetric(t, b1, 2*time.Second, func(m Metrics) bool { return m.PubsReceived == total })
}

// TestTCPClientReconnect closes a subscriber's connection and redials
// under the same name: the broker keeps the subscription state, the
// new connection takes over the delivery stream.
func TestTCPClientReconnect(t *testing.T) {
	b := listenTestBroker(t, "B1", Pairwise)
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "alice")
	pub := dialTest(t, b.Addr(), "bob")

	if err := sub.Subscribe(ctx, "s1", box(0, 50, 0, 50)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })
	if err := pub.Publish(ctx, "p1", subscription.NewPublication(10, 10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, sub, 2*time.Second); !ok {
		t.Fatal("pre-reconnect notification did not arrive")
	}

	// Drop the connection; the broker-side port dies, the subscription
	// survives.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	sub2 := dialTest(t, b.Addr(), "alice")
	// Wait for the server to have registered the replacement port: a
	// publish delivered to the new connection proves it.
	deadline := time.Now().Add(5 * time.Second)
	got := false
	for i := 0; !got; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no delivery on reconnected client")
		}
		if err := pub.Publish(ctx, fmt.Sprintf("r%d", i), subscription.NewPublication(20, 20)); err != nil {
			t.Fatal(err)
		}
		_, got = recvOne(t, sub2, 500*time.Millisecond)
	}
}

// TestTCPShutdownDrainsInFlight queues a burst of matched
// notifications and shuts the broker down: every notification the
// broker accepted (counted in its metrics) must still reach the
// subscriber before its channel closes.
func TestTCPShutdownDrainsInFlight(t *testing.T) {
	b := listenTestBroker(t, "B1", Pairwise)
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "alice")
	pub := dialTest(t, b.Addr(), "bob")

	if err := sub.Subscribe(ctx, "s1", box(0, 100, 0, 100)); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	const total = 100
	for i := 0; i < total; i++ {
		if err := pub.Publish(ctx, fmt.Sprintf("p%d", i), subscription.NewPublication(50, 50)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the broker has matched the whole burst, then shut
	// down while (some of) the notifications are still queued on the
	// subscriber's writer.
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.Notifications == total })
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The channel must deliver all 100 and then close (connection gone).
	got := 0
	for range sub.Notifications() {
		got++
	}
	if got != total {
		t.Fatalf("drained %d notifications, want %d", got, total)
	}
}

// TestTCPServeHardShutdown exercises the drain-timeout path. A raw
// connection handshakes as a client, subscribes and never reads again,
// so the broker's writer to it stalls in a write and the port's
// pending bytes reach their bound; publications go on until a broker
// send to that port waits for room. Shutdown with an expired context
// must still return promptly: the waiting send has to wake.
func TestTCPServeHardShutdown(t *testing.T) {
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := ListenBroker("B1", "127.0.0.1:0", Pairwise, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// No teardown waits for the broker: a shutdown that hangs must fail
	// this test, not stall the run.
	t.Cleanup(func() { go b.Shutdown(expired) })
	ctx := testCtx(t)
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.(*net.TCPConn).SetReadBuffer(4 << 10)
	if err := writeFrame(raw, &Frame{Hello: "alice", Client: true}); err != nil {
		t.Fatal(err)
	}
	var ack Frame
	if err := newFrameReader(raw).read(&ack); err != nil || ack.Ack != "B1" {
		t.Fatalf("handshake: ack %+v, err %v", ack, err)
	}
	sub := &broker.Message{Kind: broker.MsgSubscribe, SubID: "s1", Sub: box(0, 100, 0, 100)}
	if err := writeFrame(raw, &Frame{Msg: sub}); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 1 })

	b.srv.mu.Lock()
	port := b.srv.ports["alice"]
	b.srv.mu.Unlock()
	full := func() bool {
		port.mu.Lock()
		defer port.mu.Unlock()
		return len(port.pending) >= maxPending
	}
	// stalled waits until the broker has taken in all sent
	// publications (false) or stops taking them in while alice's pending
	// bytes sit at the bound (true): its reader for bob is then waiting
	// for room.
	stalled := func(sent int) bool {
		last, since := -1, time.Now()
		for ctx.Err() == nil {
			got := b.Metrics().PubsReceived
			switch {
			case got == sent:
				return false
			case got != last || !full():
				last, since = got, time.Now()
			case time.Since(since) > 100*time.Millisecond:
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal(ctx.Err())
		return false
	}
	pub := dialTest(t, b.Addr(), "bob")
	pad := strings.Repeat("x", 1000)
	for sent := 0; !stalled(sent); {
		if sent > 50*maxPending/len(pad) {
			t.Fatal("no broker send to the stalled subscriber waited for room")
		}
		for range 256 {
			if err := pub.Publish(ctx, fmt.Sprintf("p%d-%s", sent, pad), subscription.NewPublication(50, 50)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}

	returned := make(chan struct{})
	start := time.Now()
	go func() {
		b.Shutdown(expired) // returns ctx error; termination is what matters
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatalf("hard shutdown still running after %v", time.Since(start))
	}
}

// TestTCPNotifyOneFramePerPublication: a client holding three matching
// subscriptions gets one notify-batch frame per publication, expanded
// into one notification per subscription in subscription-ID order.
func TestTCPNotifyOneFramePerPublication(t *testing.T) {
	b := listenTestBroker(t, "B1", Flood)
	ctx := testCtx(t)
	sub := dialTest(t, b.Addr(), "alice")
	pub := dialTest(t, b.Addr(), "bob")

	for _, id := range []string{"s3", "s1", "s2"} {
		if err := sub.Subscribe(ctx, id, box(0, 100, 0, 100)); err != nil {
			t.Fatal(err)
		}
	}
	waitMetric(t, b, 2*time.Second, func(m Metrics) bool { return m.SubsReceived == 3 })
	const pubs = 10
	for i := 0; i < pubs; i++ {
		if err := pub.Publish(ctx, fmt.Sprintf("p%d", i), subscription.NewPublication(50, 50)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pubs; i++ {
		for _, subID := range []string{"s1", "s2", "s3"} {
			n, ok := recvOne(t, sub, 2*time.Second)
			if !ok {
				t.Fatalf("notification %s/p%d did not arrive", subID, i)
			}
			if want := fmt.Sprintf("p%d", i); n.SubID != subID || n.PubID != want {
				t.Fatalf("got %s/%s, want %s/%s", n.SubID, n.PubID, subID, want)
			}
		}
	}
	j := b.Observability().JSON()
	if got := j.Links["alice"].Sent["notify-batch"]; got != pubs {
		t.Errorf("notify-batch frames sent to alice = %d, want %d (links %+v)", got, pubs, j.Links)
	}
	if got := j.Counters["broker_notifications"]; got != 3*pubs {
		t.Errorf("broker_notifications = %d, want %d", got, 3*pubs)
	}
}

// gatedConn records what a writer writes and holds the first Write
// until released, so a test can fill the pending buffer behind it.
type gatedConn struct {
	net.Conn // unused methods panic
	entered  chan struct{}
	release  chan struct{}

	mu     sync.Mutex
	writes int
	data   bytes.Buffer
}

func newGatedConn() *gatedConn {
	return &gatedConn{entered: make(chan struct{}), release: make(chan struct{})}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	first := c.writes == 1
	c.data.Write(b)
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.release
	}
	return len(b), nil
}

func (c *gatedConn) Close() error { return nil }

// frames decodes everything written, in order.
func (c *gatedConn) frames(t *testing.T) []*broker.Message {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*broker.Message
	for data := c.data.Bytes(); len(data) > 0; {
		fr, n, err := UnmarshalFrame(data)
		if err != nil {
			t.Fatalf("decoding frame %d: %v", len(out), err)
		}
		out = append(out, fr.Msg)
		data = data[n:]
	}
	return out
}

// TestTCPWriterCoalescesQueuedFrames pins a port's writer: the frames
// sent while a write is in flight go out together in the next write,
// in FIFO order, and the write stage observes each frame once. A
// writer closed mid-drain still writes its tail; an unencodable
// message lets the frames before it out and then drops the port.
func TestTCPWriterCoalescesQueuedFrames(t *testing.T) {
	// ~1 KiB per frame: a write carries whatever is pending, however
	// large.
	pad := strings.Repeat("x", 1000)
	msg := func(i int) broker.Message {
		return broker.Message{Kind: broker.MsgPublish, PubID: fmt.Sprintf("p%03d-%s", i, pad), Pub: subscription.NewPublication(int64(i))}
	}
	start := func(conn net.Conn) (*tcpServer, *tcpPort) {
		s := &tcpServer{}
		w := newConnWriter(conn)
		w.enqHist, w.writeHist, w.clock = obs.NewHistogram(), obs.NewHistogram(), monoClock()
		p := &tcpPort{connWriter: w, name: "c", stats: &obs.LinkStats{}}
		s.writerWg.Add(1)
		go s.runPort(p)
		return s, p
	}
	checkOrder := func(t *testing.T, got []*broker.Message, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("decoded %d frames, want %d", len(got), n)
		}
		for i, m := range got {
			if m.PubID != msg(i).PubID {
				t.Fatalf("frame %d is %.4s, want p%03d", i, m.PubID, i)
			}
		}
	}

	t.Run("closed mid-drain", func(t *testing.T) {
		conn := newGatedConn()
		s, p := start(conn)
		s.sendTo(p, msg(0))
		<-conn.entered
		const total = 100
		for i := 1; i < total; i++ {
			s.sendTo(p, msg(i))
		}
		p.finish(errClosed) // graceful shutdown while the first write is in flight
		close(conn.release)
		s.writerWg.Wait()
		checkOrder(t, conn.frames(t), total)
		// One write for the first frame, one for the other 99 (~99 KiB).
		if conn.writes != 2 {
			t.Errorf("%d writes for %d frames, want 2", conn.writes, total)
		}
		if c := p.writeHist.Snapshot().Count; c != total {
			t.Errorf("write stage observed %d times, want once per frame (%d)", c, total)
		}
		if c := p.enqHist.Snapshot().Count; c != total {
			t.Errorf("enqueue stage observed %d times, want once per frame (%d)", c, total)
		}
	})

	t.Run("encode error", func(t *testing.T) {
		conn := newGatedConn()
		s, p := start(conn)
		s.sendTo(p, msg(0))
		<-conn.entered
		for i := 1; i < 5; i++ {
			s.sendTo(p, msg(i))
		}
		s.sendTo(p, broker.Message{Kind: broker.MsgKind(99)})
		s.sendTo(p, msg(5))
		close(conn.release)
		s.writerWg.Wait()
		checkOrder(t, conn.frames(t), 5)
		if p.alive() || p.kill() {
			t.Error("port survived an encode error")
		}
	})
}

// gatedClient is a client whose writer writes to conn; it is closed
// at cleanup.
func gatedClient(t *testing.T, conn net.Conn) (*Client, *connWriter) {
	t.Helper()
	w := newConnWriter(conn)
	go w.run()
	c := &Client{name: "c", impl: w, q: newNotifyQueue()}
	t.Cleanup(func() { c.Close() })
	return c, w
}

// TestTCPClientCoalescesWrites pins a client's writer: publishes made
// while a write is in flight leave together in the next write, in the
// order they were made.
func TestTCPClientCoalescesWrites(t *testing.T) {
	conn := newGatedConn()
	c, _ := gatedClient(t, conn)
	ctx := testCtx(t)
	const total = 101
	if err := c.Publish(ctx, "p000", subscription.NewPublication(0)); err != nil {
		t.Fatal(err)
	}
	<-conn.entered
	for i := 1; i < total; i++ {
		if err := c.Publish(ctx, fmt.Sprintf("p%03d", i), subscription.NewPublication(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(conn.release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := conn.frames(t)
	if len(got) != total {
		t.Fatalf("decoded %d frames, want %d", len(got), total)
	}
	for i, m := range got {
		if want := fmt.Sprintf("p%03d", i); m.PubID != want || m.Pub.Values[0] != int64(i) {
			t.Fatalf("frame %d is %s %v, want %s (%d)", i, m.PubID, m.Pub.Values, want, i)
		}
	}
	if conn.writes > 3 {
		t.Errorf("%d writes for %d publishes, want at most 3", conn.writes, total)
	}
}

// TestTCPClientBatchCopiedAtSend: a send encodes before it returns, so
// a caller that overwrites its batch slice, the publications' values
// included, at once still sends what it passed.
func TestTCPClientBatchCopiedAtSend(t *testing.T) {
	conn := newGatedConn()
	c, _ := gatedClient(t, conn)
	ctx := testCtx(t)
	if err := c.Publish(ctx, "first", subscription.NewPublication(0)); err != nil {
		t.Fatal(err)
	}
	<-conn.entered // the batch below waits behind this write
	const rounds, size = 4, 16
	batch := make([]BatchPub, size)
	for i := range batch {
		batch[i].Pub = subscription.NewPublication(0)
	}
	for r := 0; r < rounds; r++ {
		for i := range batch {
			batch[i].PubID = fmt.Sprintf("r%d-%d", r, i)
			batch[i].Pub.Values[0] = int64(r*size + i)
		}
		if err := c.PublishBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := range batch {
		batch[i].PubID, batch[i].Pub.Values[0] = "overwritten", -1
	}
	close(conn.release)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := conn.frames(t)
	if len(got) != 1+rounds {
		t.Fatalf("decoded %d frames, want %d", len(got), 1+rounds)
	}
	for r, m := range got[1:] {
		if len(m.Pubs) != size {
			t.Fatalf("batch %d carries %d items, want %d", r, len(m.Pubs), size)
		}
		for i, it := range m.Pubs {
			if want := fmt.Sprintf("r%d-%d", r, i); it.PubID != want || it.Pub.Values[0] != int64(r*size+i) {
				t.Fatalf("batch %d item %d = %s %v, want %s (%d)", r, i, it.PubID, it.Pub.Values, want, r*size+i)
			}
		}
	}
}

// TestTCPClientCloseFlushes: Close sends every publication accepted
// before it, so a burst followed at once by Close reaches the broker
// whole.
func TestTCPClientCloseFlushes(t *testing.T) {
	b := listenTestBroker(t, "B1", Flood)
	ctx := testCtx(t)
	pub, err := Dial(ctx, b.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for i := 0; i < total; i++ {
		if err := pub.Publish(ctx, fmt.Sprintf("p%d", i), subscription.NewPublication(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b, 5*time.Second, func(m Metrics) bool { return m.PubsReceived == total })
	if err := pub.Publish(ctx, "late", subscription.NewPublication(0, 0)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("publish after Close = %v, want net.ErrClosed", err)
	}
}

// TestTCPClientPendingBound: with the connection stalled, the pending
// bytes fill up to maxPending and the next send waits until its
// context ends, then returns the context's error.
func TestTCPClientPendingBound(t *testing.T) {
	conn := newGatedConn()
	c, w := gatedClient(t, conn)
	ctx := testCtx(t)
	pad := strings.Repeat("x", 1000)
	if err := c.Publish(ctx, "first", subscription.NewPublication(0)); err != nil {
		t.Fatal(err)
	}
	<-conn.entered
	full := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.pending) >= maxPending
	}
	for i := 0; !full(); i++ {
		if i > 2*maxPending/len(pad) {
			t.Fatal("pending bytes never reached the bound")
		}
		if err := c.Publish(ctx, fmt.Sprintf("p%d-%s", i, pad), subscription.NewPublication(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const wait = 50 * time.Millisecond
	dctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	start := time.Now()
	err := c.Publish(dctx, "over", subscription.NewPublication(0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send past the bound = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < wait || elapsed > wait+2*time.Second {
		t.Errorf("send past the bound returned after %v, want its deadline (%v)", elapsed, wait)
	}
	close(conn.release)
}

// failConn is a connection whose every write fails.
type failConn struct {
	net.Conn // unused methods panic
	err      error
}

func (c failConn) Write([]byte) (int, error) { return 0, c.err }
func (c failConn) Close() error              { return nil }

// TestTCPClientWriteErrorSticky: once a write fails, every later send
// returns that error, and so does Close, whose flush did not happen.
func TestTCPClientWriteErrorSticky(t *testing.T) {
	boom := errors.New("connection reset")
	c, w := gatedClient(t, failConn{err: boom})
	ctx := testCtx(t)
	if err := c.Publish(ctx, "p1", subscription.NewPublication(0)); err != nil {
		t.Fatalf("first send = %v, want it accepted", err)
	}
	<-w.done // the writer exits on the failed write
	for _, id := range []string{"p2", "p3"} {
		if err := c.Publish(ctx, id, subscription.NewPublication(0)); !errors.Is(err, boom) {
			t.Fatalf("send %s after the write error = %v, want %v", id, err, boom)
		}
	}
	if err := c.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after the write error = %v, want %v", err, boom)
	}
}
