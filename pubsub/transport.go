package pubsub

// Transport abstraction: one public surface over the deterministic
// in-process simulator and the concurrent TCP broker stack, so the
// same program runs in-process (tests, examples, experiments) or over
// real sockets (deployment) by swapping the constructor.
//
//	tr, _ := pubsub.NewSimTransport(pubsub.Pairwise, pubsub.Config{})
//	// or: tr, _ = pubsub.NewTCPTransport(pubsub.Pairwise, pubsub.Config{})
//	tr.AddBroker("B1")
//	tr.AddBroker("B2")
//	tr.Connect("B1", "B2")
//	sub, _ := tr.Open(ctx, "alice", "B1")
//	pub, _ := tr.Open(ctx, "bob", "B2")
//	sub.Subscribe(ctx, "s1", s)
//	tr.Settle(ctx)
//	pub.Publish(ctx, "p1", p)
//	n := <-sub.Notifications()

import (
	"context"
	"fmt"
	"sync"

	"probsum/internal/broker"
	"probsum/internal/obs"
	"probsum/subsume"
)

// Transport hosts a broker overlay and connects clients to it. The two
// implementations are SimTransport (deterministic, in-process, the
// paper's evaluation harness) and TCPTransport (real sockets, one
// listener per broker, concurrent message handling). Both guarantee
// the same protocol semantics; they differ in timing: simnet runs
// every operation to quiescence before returning, TCP is asynchronous
// and needs Settle (or application-level acknowledgment) between
// causally dependent operations.
type Transport interface {
	// AddBroker creates a broker node under the transport's policy and
	// config.
	AddBroker(id string) (*Broker, error)
	// Broker returns a previously added broker.
	Broker(id string) (*Broker, bool)
	// Brokers lists broker IDs, sorted.
	Brokers() []string
	// Connect links two brokers bidirectionally.
	Connect(a, b string) error
	// Open attaches a client endpoint (unique name per transport) to a
	// broker and returns its handle.
	Open(ctx context.Context, clientName, brokerID string) (*Client, error)
	// Settle blocks until the overlay is quiescent: queued messages
	// processed and broker counters stable. On the simulator this is
	// immediate (operations already run to quiescence); on TCP it polls
	// the local brokers' metrics until they stop changing.
	Settle(ctx context.Context) error
	// Shutdown stops every broker and client. On TCP the context bounds
	// the graceful drain of in-flight frames.
	Shutdown(ctx context.Context) error
}

// Broker is a broker handle, transport-independent. TCP brokers
// additionally listen on a real address and can peer with brokers in
// other processes via ConnectPeer.
type Broker struct {
	id   string
	impl brokerImpl
}

// brokerImpl is the transport-specific side of a Broker.
type brokerImpl interface {
	addr() string
	metrics() Metrics
	connectPeer(id, addr string) error
	// dialPeer is connectPeer reporting whether THIS call established
	// the link (false+nil when a live link already existed).
	dialPeer(id, addr string) (established bool, err error)
	shutdown(ctx context.Context) error
	// core exposes the underlying protocol state machine (root-set
	// export, control-handler attachment).
	core() *broker.Broker
	// sendPeer queues one message toward a peer broker; false when no
	// live link (or, for control kinds, no cluster-capable link)
	// exists.
	sendPeer(id string, msg broker.Message) bool
	// setPeerHooks registers link up/down callbacks; setControlHandler
	// attaches the cluster control dispatcher and turns on the cluster
	// advertisement.
	setPeerHooks(up, down func(peer string))
	setControlHandler(h broker.ControlHandler)
	// peerCluster reports the cluster protocol version a peer
	// advertised (0 = none).
	peerCluster(id string) uint8
	// journalRef returns the durability journal (nil without one);
	// recoveryStats the boot-time replay summary.
	journalRef() *BrokerJournal
	recoveryStats() (RecoveryStats, bool)
	// observability returns the broker's metrics registry; nil on
	// transports without one (the simulator reads broker state
	// directly).
	observability() *obs.Registry
}

// ID returns the broker identifier.
func (b *Broker) ID() string { return b.id }

// Addr returns the broker's listen address ("host:port"); empty for
// in-process transports.
func (b *Broker) Addr() string { return b.impl.addr() }

// Metrics returns the broker's activity counters.
func (b *Broker) Metrics() Metrics { return b.impl.metrics() }

// ConnectPeer dials a neighbor broker at a real address and registers
// the overlay link — the cross-process form of Transport.Connect. For
// a bidirectional overlay the remote side must dial back (its own
// ConnectPeer); an inbound hello auto-registers the reverse link for
// routing, but only an outbound dial gives this side a channel to
// forward on. In-process brokers return an error: their links are
// wired through Transport.Connect.
func (b *Broker) ConnectPeer(id, addr string) error { return b.impl.connectPeer(id, addr) }

// DialPeer is ConnectPeer with an extra result: established reports
// whether THIS call created the outbound link (false with a nil error
// when a live link already existed — connecting twice is still
// success). The cluster reconnect loop uses the distinction: only a
// genuinely re-established connection proves the peer reachable and
// carries the link sync, while a no-op dial against an existing —
// possibly stalled — connection proves nothing.
func (b *Broker) DialPeer(id, addr string) (established bool, err error) {
	return b.impl.dialPeer(id, addr)
}

// Shutdown stops the broker, draining in-flight work within the
// context's deadline. In-process brokers stop with their transport and
// treat this as a no-op.
func (b *Broker) Shutdown(ctx context.Context) error { return b.impl.shutdown(ctx) }

// SendPeer queues one protocol message toward a peer broker, under the
// same control-frame gate as broker-originated traffic. It reports
// whether a live (and, for control kinds, cluster-capable) link
// existed; delivery stays best-effort. This is the
// cluster layer's send primitive — ordinary applications publish
// through clients, not through broker links.
func (b *Broker) SendPeer(peer string, msg broker.Message) bool {
	return b.impl.sendPeer(peer, msg)
}

// SetPeerHooks registers callbacks invoked when a peer overlay link is
// established (up: an outbound connection completed) or lost (down: a
// link's connection died). Events are delivered at-least-once on
// separate goroutines; the cluster membership layer consumes them to
// drive its failure detector and reconnect loop.
func (b *Broker) SetPeerHooks(up, down func(peer string)) {
	b.impl.setPeerHooks(up, down)
}

// SetControlHandler attaches the cluster layer's dispatcher for
// overlay-control messages (ping/pong/gossip) and turns on the cluster
// advertisement in this broker's hellos and acks. Handlers run outside
// the broker's routing locks and must be safe for concurrent callers.
func (b *Broker) SetControlHandler(h broker.ControlHandler) {
	b.impl.setControlHandler(h)
}

// PeerRoots exports the active subscriptions of the coverage table for
// one peer — the forwarding roots that peer must know. The cluster
// healing protocol re-announces them as one SUBBATCH when a lost link
// is restored.
func (b *Broker) PeerRoots(peer string) []BatchSub {
	return b.impl.core().NeighborRoots(peer)
}

// Core returns the underlying broker engine — the handle
// cluster.AttachRouter wires rendezvous routing through.
func (b *Broker) Core() *broker.Broker { return b.impl.core() }

// PeerClusterVersion reports the cluster protocol version a peer
// advertised in its hello or ack (0 = no cluster layer).
func (b *Broker) PeerClusterVersion(peer string) uint8 {
	return b.impl.peerCluster(peer)
}

// LinkDigest returns this broker's sender-side digest of the
// subscriptions it announced toward peer (false when no coverage
// table for the peer exists yet).
func (b *Broker) LinkDigest(peer string) (broker.LinkDigest, bool) {
	return b.impl.core().LinkDigest(peer)
}

// ReceivedDigest returns this broker's receiver-side digest of the
// live subscriptions it received over the link from peer. Two brokers
// agree on a link exactly when each side's LinkDigest root equals the
// other side's ReceivedDigest root.
func (b *Broker) ReceivedDigest(peer string) broker.LinkDigest {
	return b.impl.core().ReceivedDigest(peer)
}

// Journal returns the broker's durability journal, nil when it runs
// without a data directory (see WithDataDir).
func (b *Broker) Journal() *BrokerJournal { return b.impl.journalRef() }

// Recovery returns the boot-time recovery statistics; ok is false
// when the broker is not durable.
func (b *Broker) Recovery() (RecoveryStats, bool) { return b.impl.recoveryStats() }

// Observability returns the broker's metrics registry: per-link frame
// counts, publish-stage histograms, queue depths, route-table
// footprint, and the flight recorder, exported over HTTP via its
// Handler (see cmd/brokerd's -metrics-addr). Nil on in-process
// simulator brokers, which are inspected directly.
func (b *Broker) Observability() *obs.Registry { return b.impl.observability() }

// NeighborTableMetrics returns the coverage-table operation counters
// for one peer port — how the subscriptions forwarded to that peer
// were admitted (per-item vs batch, suppressed, promoted). The
// cluster tests pin through it that a healed link's root
// re-announcement arrives as ONE batch admission.
func (b *Broker) NeighborTableMetrics(peer string) (subsume.TableMetrics, bool) {
	return b.impl.core().NeighborTableMetrics(peer)
}

// Client is a subscriber/publisher endpoint, transport-independent.
// Operations are context-aware; notifications stream on a channel.
// A Client is safe for concurrent use.
type Client struct {
	name string
	impl clientImpl
	q    *notifyQueue

	statsMu sync.Mutex
	// stats, when attached (SetStats), stamps publish departures for
	// end-to-end latency measurement.
	// +guarded_by:statsMu
	stats *ClientStats
}

// clientImpl is the transport-specific side of a Client.
type clientImpl interface {
	send(ctx context.Context, msg broker.Message) error
	close() error
}

// Name returns the client's endpoint name.
func (c *Client) Name() string { return c.name }

// Subscribe announces a subscription under a globally unique ID.
func (c *Client) Subscribe(ctx context.Context, subID string, s Subscription) error {
	if subID == "" {
		return fmt.Errorf("pubsub: empty subscription id")
	}
	return c.impl.send(ctx, broker.Message{Kind: broker.MsgSubscribe, SubID: subID, Sub: s})
}

// SubscribeBatch announces a subscription burst as ONE protocol
// message: each broker admits the whole burst into its per-neighbor
// coverage tables with a single batch call (broad subscriptions
// suppress narrow ones arriving alongside them) and forwards the
// surviving items onward as one frame, so the burst stays batched
// end to end across the overlay. An empty burst is a no-op.
func (c *Client) SubscribeBatch(ctx context.Context, subs []BatchSub) error {
	if len(subs) == 0 {
		return nil
	}
	for i, it := range subs {
		if it.SubID == "" {
			return fmt.Errorf("pubsub: batch item %d has empty subscription id", i)
		}
	}
	return c.impl.send(ctx, broker.Message{Kind: broker.MsgSubscribeBatch, Subs: subs})
}

// Unsubscribe cancels a previously announced subscription.
func (c *Client) Unsubscribe(ctx context.Context, subID string) error {
	if subID == "" {
		return fmt.Errorf("pubsub: empty subscription id")
	}
	return c.impl.send(ctx, broker.Message{Kind: broker.MsgUnsubscribe, SubID: subID})
}

// UnsubscribeBatch cancels a burst of subscriptions as ONE protocol
// message: each broker removes the burst from its per-neighbor tables
// with a single batch call sharing one promotion-cascade frontier.
// An empty burst is a no-op.
func (c *Client) UnsubscribeBatch(ctx context.Context, subIDs []string) error {
	if len(subIDs) == 0 {
		return nil
	}
	for i, id := range subIDs {
		if id == "" {
			return fmt.Errorf("pubsub: batch item %d has empty subscription id", i)
		}
	}
	return c.impl.send(ctx, broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: subIDs})
}

// Publish sends a publication under a globally unique ID (the overlay
// deduplicates on it).
func (c *Client) Publish(ctx context.Context, pubID string, p Publication) error {
	if pubID == "" {
		return fmt.Errorf("pubsub: empty publication id")
	}
	if cs := c.clientStats(); cs != nil {
		cs.markPublished(pubID)
	}
	return c.impl.send(ctx, broker.Message{Kind: broker.MsgPublish, PubID: pubID, Pub: p})
}

// PublishBatch sends a burst of publications as ONE protocol message:
// the broker pays its routing lock once for the whole frame and
// re-forwards the matching publications per neighbor as one batch, so
// a deliberate producer-side burst stays batched end to end across the
// overlay. Publications are processed in slice order with the same
// dedup and delivery semantics as per-item Publish. An empty burst is
// a no-op. Against brokers that predate the PUBBATCH frame the burst
// is transparently sent as per-item frames.
func (c *Client) PublishBatch(ctx context.Context, pubs []BatchPub) error {
	if len(pubs) == 0 {
		return nil
	}
	for i, it := range pubs {
		if it.PubID == "" {
			return fmt.Errorf("pubsub: batch item %d has empty publication id", i)
		}
	}
	if cs := c.clientStats(); cs != nil {
		for _, it := range pubs {
			cs.markPublished(it.PubID)
		}
	}
	return c.impl.send(ctx, broker.Message{Kind: broker.MsgPublishBatch, Pubs: pubs})
}

// Notifications returns the client's delivery stream. The channel is
// fed in delivery order and closed after the last delivery once the
// client's connection ends; notifications already delivered to the
// client are never dropped as long as the channel is being read.
// Calling Close discards anything still unread.
func (c *Client) Notifications() <-chan Notification { return c.q.ch }

// Close detaches the client and discards unread notifications. On TCP
// this closes the connection; the broker keeps the client's
// subscriptions (a later Open/Dial with the same name resumes them).
func (c *Client) Close() error {
	err := c.impl.close()
	c.q.abandon()
	return err
}

// notifyQueue decouples notification producers (transport goroutines,
// or the simulator's synchronous delivery) from the consumer-facing
// channel: pushes never block, ordering is preserved, and buffering is
// unbounded so a slow reader cannot stall the overlay.
//
// Teardown has two flavors matching its two sides: finish (producer
// gone — drain what is buffered to the reader, then close the
// channel) and abandon (consumer gone — drop everything now). A
// client whose connection ended still delivers its tail; a client
// that was Closed stops immediately.
type notifyQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      []Notification
	finished bool
	// stats, when attached, observes delivery arrival times against
	// their publish stamps (see ClientStats).
	// +guarded_by:mu
	stats *ClientStats

	ch  chan Notification
	die chan struct{}
}

func newNotifyQueue() *notifyQueue {
	q := &notifyQueue{ch: make(chan Notification, 16), die: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.pump()
	return q
}

// push appends one notification; a finished queue drops it.
func (q *notifyQueue) push(n Notification) {
	q.mu.Lock()
	cs := q.stats
	if !q.finished {
		q.buf = append(q.buf, n)
		q.cond.Signal()
	}
	q.mu.Unlock()
	if cs != nil {
		// Latency is measured at ARRIVAL (the transport handed the
		// notification over), not at consumption from the channel — a
		// slow reader must not inflate broker latency figures.
		cs.observeDelivery(n.PubID)
	}
}

// setStats attaches a delivery-latency collector (nil detaches).
func (q *notifyQueue) setStats(cs *ClientStats) {
	q.mu.Lock()
	q.stats = cs
	q.mu.Unlock()
}

// pump moves notifications from the buffer to the channel, closing the
// channel once the queue is finished and drained, or abandoned.
func (q *notifyQueue) pump() {
	for {
		q.mu.Lock()
		for len(q.buf) == 0 && !q.finished {
			q.cond.Wait()
		}
		if len(q.buf) == 0 {
			q.mu.Unlock()
			close(q.ch)
			return
		}
		n := q.buf[0]
		q.buf = q.buf[1:]
		q.mu.Unlock()
		select {
		case q.ch <- n:
		case <-q.die:
			close(q.ch)
			return
		}
	}
}

// finish marks the producer side done: no more pushes are accepted,
// buffered notifications still flow to the reader, and the channel
// closes after the last one.
func (q *notifyQueue) finish() {
	q.mu.Lock()
	q.finished = true
	q.cond.Signal()
	q.mu.Unlock()
}

// abandon marks the consumer side gone: buffered notifications are
// dropped and the channel closes immediately.
func (q *notifyQueue) abandon() {
	q.mu.Lock()
	if !q.finished {
		q.finished = true
	}
	select {
	case <-q.die:
	default:
		close(q.die)
	}
	q.cond.Signal()
	q.mu.Unlock()
}
