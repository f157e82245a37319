package pubsub

import (
	"context"
	"fmt"
	"sync"

	"probsum/internal/broker"
	"probsum/internal/obs"
	"probsum/internal/simnet"
	"probsum/internal/store"
)

// SimTransport hosts the overlay on the deterministic in-process
// simulator: every client operation enqueues its message and runs the
// network to quiescence before returning, so a run is a pure function
// of its inputs — the paper's evaluation regime. Notifications are
// pushed onto each client's channel as part of the operation that
// produced them.
//
// SimTransport methods are safe for concurrent use (a single mutex
// serializes the simulator), but determinism of course only holds for
// a deterministic caller.
type SimTransport struct {
	policy store.Policy
	cfg    Config

	mu       sync.Mutex
	net      *simnet.Network
	brokers  map[string]*Broker
	clients  map[string]*simClient
	shutdown bool
}

// NewSimTransport creates an empty simulated overlay with the given
// coverage policy and tuning; AddBroker applies exactly the options
// Network.AddBroker does, so sim transports and Networks built from
// the same Config make identical coverage decisions.
func NewSimTransport(policy Policy, cfg Config) (*SimTransport, error) {
	sp, err := policy.toStore()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var opts []simnet.Option
	if cfg.DropRate > 0 || cfg.DupRate > 0 {
		opts = append(opts, simnet.WithFailures(cfg.DropRate, cfg.DupRate, cfg.Seed^0xfa11))
	}
	return &SimTransport{
		policy:  sp,
		cfg:     cfg,
		net:     simnet.New(opts...),
		brokers: make(map[string]*Broker),
		clients: make(map[string]*simClient),
	}, nil
}

var _ Transport = (*SimTransport)(nil)

// AddBroker creates a broker node.
func (t *SimTransport) AddBroker(id string) (*Broker, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	opts := []broker.Option{
		broker.WithSeed(t.cfg.Seed),
		broker.WithTableOptions(t.cfg.TableOptions()...),
	}
	if err := t.net.AddBroker(id, t.policy, opts...); err != nil {
		return nil, err
	}
	b := &Broker{id: id, impl: simBroker{b: t.net.Broker(id)}}
	t.brokers[id] = b
	return b, nil
}

// Broker returns a previously added broker.
func (t *SimTransport) Broker(id string) (*Broker, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.brokers[id]
	return b, ok
}

// Brokers lists broker IDs, sorted.
func (t *SimTransport) Brokers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.net.BrokerIDs()
}

// Connect links two brokers bidirectionally.
func (t *SimTransport) Connect(a, b string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.net.Connect(a, b)
}

// Open attaches a client endpoint to a broker. Simulated clients are
// persistent: opening an already used name is an error.
func (t *SimTransport) Open(ctx context.Context, clientName, brokerID string) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shutdown {
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	if err := t.net.AttachClient(clientName, brokerID); err != nil {
		return nil, err
	}
	sc := &simClient{t: t, name: clientName}
	c := &Client{name: clientName, impl: sc, q: newNotifyQueue()}
	sc.c = c
	t.clients[clientName] = sc
	return c, nil
}

// Settle is immediate: every simulated operation already ran the
// network to quiescence.
func (t *SimTransport) Settle(ctx context.Context) error { return ctx.Err() }

// Dropped reports how many broker-to-broker messages failure injection
// discarded.
func (t *SimTransport) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.net.Dropped()
}

// Shutdown closes every client stream. The simulated network has no
// goroutines to stop.
func (t *SimTransport) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shutdown = true
	for _, sc := range t.clients {
		sc.c.q.finish()
	}
	return ctx.Err()
}

// simBroker adapts a simulator broker to brokerImpl.
type simBroker struct{ b *broker.Broker }

func (s simBroker) addr() string     { return "" }
func (s simBroker) metrics() Metrics { return s.b.Metrics() }
func (s simBroker) connectPeer(id, addr string) error {
	return fmt.Errorf("pubsub: sim brokers peer via Transport.Connect, not ConnectPeer")
}
func (s simBroker) dialPeer(id, addr string) (bool, error) { return false, s.connectPeer(id, addr) }
func (s simBroker) shutdown(ctx context.Context) error     { return ctx.Err() }
func (s simBroker) core() *broker.Broker                   { return s.b }

// Simulated brokers have no wire ports: the cluster layer drives
// simulated overlays through its own simnet adapter (see
// pubsub/cluster), not through these hooks.
func (s simBroker) sendPeer(id string, msg broker.Message) bool { return false }
func (s simBroker) setPeerHooks(up, down func(peer string))     {}
func (s simBroker) setControlHandler(h broker.ControlHandler)   { s.b.SetControlHandler(h) }
func (s simBroker) peerCluster(id string) uint8                 { return 0 }
func (s simBroker) journalRef() *BrokerJournal                  { return nil }
func (s simBroker) recoveryStats() (RecoveryStats, bool)        { return RecoveryStats{}, false }
func (s simBroker) observability() *obs.Registry                { return nil }

// simClient adapts a simulator client port to clientImpl.
type simClient struct {
	t        *SimTransport
	c        *Client
	name     string
	consumed int // prefix of simnet.Delivered already pushed to the queue
}

// send enqueues the message, runs the network to quiescence, and
// pushes the resulting deliveries (for every client) onto the
// notification channels.
func (sc *simClient) send(ctx context.Context, msg broker.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := sc.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shutdown {
		return fmt.Errorf("pubsub: transport is shut down")
	}
	var err error
	switch msg.Kind {
	case broker.MsgSubscribe:
		err = t.net.ClientSubscribe(sc.name, msg.SubID, msg.Sub)
	case broker.MsgUnsubscribe:
		err = t.net.ClientUnsubscribe(sc.name, msg.SubID)
	case broker.MsgPublish:
		err = t.net.ClientPublish(sc.name, msg.PubID, msg.Pub)
	case broker.MsgSubscribeBatch:
		err = t.net.ClientSubscribeBatch(sc.name, msg.Subs)
	case broker.MsgUnsubscribeBatch:
		err = t.net.ClientUnsubscribeBatch(sc.name, msg.SubIDs)
	case broker.MsgPublishBatch:
		err = t.net.ClientPublishBatch(sc.name, msg.Pubs)
	default:
		err = fmt.Errorf("pubsub: unsupported client message kind %v", msg.Kind)
	}
	if err != nil {
		return err
	}
	if _, err := t.net.Run(); err != nil {
		return err
	}
	t.drainLocked()
	return nil
}

func (sc *simClient) close() error { return nil }

// drainLocked pushes every not-yet-consumed delivery onto its client's
// notification queue. Caller holds t.mu.
func (t *SimTransport) drainLocked() {
	for _, sc := range t.clients {
		msgs := t.net.Delivered(sc.name)
		for _, m := range msgs[sc.consumed:] {
			if m.Kind == broker.MsgNotify {
				sc.c.q.push(Notification{SubID: m.SubID, PubID: m.PubID, Pub: m.Pub})
			}
		}
		sc.consumed = len(msgs)
	}
}
