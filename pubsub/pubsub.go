// Package pubsub is the public API for running content-based
// publish/subscribe broker overlays with coverage-based subscription
// reduction — the distributed side of the Middleware 2006 paper this
// library reproduces.
//
// Brokers form an overlay; clients attach to brokers, subscribe with
// boxes (see package subsume), and publish points. Subscriptions
// flood the overlay along reverse paths; depending on the coverage
// Policy, a broker suppresses forwarding a subscription to a neighbor
// when the subscriptions already sent to that neighbor cover it —
// pairwise (classical, exact) or group coverage (the paper's
// probabilistic algorithm, which suppresses strictly more traffic at
// a bounded risk of losing publications).
//
// The package offers the same protocol over two transports behind one
// surface (see Transport, Broker, Client):
//
//   - NewSimTransport hosts the overlay on the deterministic
//     in-process simulator — the evaluation and testing regime.
//   - NewTCPTransport hosts it on real sockets with concurrent
//     message handling; ListenBroker and Dial are the cross-process
//     forms used by cmd/brokerd and cmd/psclient.
//
// Network is the older, simulator-only facade kept for callers that
// want synchronous pull-style access to deliveries.
package pubsub

import (
	"fmt"
	"strings"

	"probsum/internal/broker"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// Policy selects subscription-forwarding reduction.
type Policy int

// Coverage policies.
const (
	// Flood forwards every subscription (no reduction).
	Flood Policy = iota + 1
	// Pairwise suppresses subscriptions covered by a single
	// previously forwarded subscription (exact, classical).
	Pairwise
	// Group suppresses subscriptions covered by the union of
	// previously forwarded subscriptions, decided probabilistically.
	Group
)

func (p Policy) String() string {
	switch p {
	case Flood:
		return "flood"
	case Pairwise:
		return "pairwise"
	case Group:
		return "group"
	default:
		return "unknown"
	}
}

// ParsePolicy parses a policy name as accepted by the CLI tools:
// "flood" (or "none"), "pairwise", and "group". It is the single
// string→Policy conversion shared by cmd/brokerd, cmd/psclient,
// examples and any embedding program.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "flood", "none":
		return Flood, nil
	case "pairwise":
		return Pairwise, nil
	case "group":
		return Group, nil
	default:
		return 0, fmt.Errorf("pubsub: unknown policy %q (want flood | pairwise | group)", s)
	}
}

func (p Policy) toStore() (store.Policy, error) {
	switch p {
	case Flood:
		return store.PolicyNone, nil
	case Pairwise:
		return store.PolicyPairwise, nil
	case Group:
		return store.PolicyGroup, nil
	default:
		return 0, fmt.Errorf("pubsub: invalid policy %d", p)
	}
}

// Subscription and Publication are the content types (see package
// subsume for builders).
type (
	Subscription = subscription.Subscription
	Publication  = subscription.Publication
)

// BatchSub pairs a subscription with its globally unique ID inside a
// Client.SubscribeBatch burst.
type BatchSub = broker.BatchSub

// BatchPub pairs a publication with its globally unique ID inside a
// Client.PublishBatch burst.
type BatchPub = broker.BatchPub

// Notification is a delivered publication together with the matched
// subscription ID. A broker sends a publication to a client once,
// naming every subscription of the client it matched; the
// notifications expanded from that one frame share the publication's
// Values slice, so treat it as read-only.
type Notification struct {
	SubID string
	PubID string
	Pub   Publication
}

// appendNotifications expands a notify-batch message into one
// Notification per matched subscription, in the frame's order, and
// appends them to ns; any other kind appends nothing.
func appendNotifications(ns []Notification, m *broker.Message) []Notification {
	if m.Kind != broker.MsgNotifyBatch {
		return ns
	}
	for _, id := range m.SubIDs {
		ns = append(ns, Notification{SubID: id, PubID: m.PubID, Pub: m.Pub})
	}
	return ns
}

// Metrics aggregates broker activity counters.
type Metrics = broker.Metrics

// Config tunes the probabilistic checker used under the Group policy
// and optional link-failure injection.
type Config struct {
	// ErrorProbability is the per-decision false-cover bound δ
	// (default 1e-6).
	ErrorProbability float64
	// MaxTrials caps Monte-Carlo guesses per decision (default 100000).
	MaxTrials int
	// Seed makes all broker decisions reproducible (default 1).
	Seed uint64
	// DropRate and DupRate inject per-message loss and duplication on
	// broker-to-broker links (default 0), modeling the lossy sensor
	// and MANET environments the paper targets.
	DropRate, DupRate float64
}

func (c Config) withDefaults() Config {
	if c.ErrorProbability == 0 {
		c.ErrorProbability = 1e-6
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 100_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TableOptions converts the network tuning into subsume.Table options
// — the exact options AddBroker applies to every per-neighbor coverage
// table (per-neighbor checker seeding is layered on top by the broker;
// Config.Seed feeds that derivation, not an option here). Exported so
// a standalone subsume.Table can share a network's tuning.
func (c Config) TableOptions() []subsume.TableOption {
	c = c.withDefaults()
	return []subsume.TableOption{
		subsume.WithTableChecker(
			subsume.WithErrorProbability(c.ErrorProbability),
			subsume.WithMaxTrials(c.MaxTrials),
		),
	}
}

// Network is an in-process deterministic broker overlay.
type Network struct {
	inner  *simnet.Network
	policy store.Policy
	cfg    Config
}

// NewNetwork creates an empty overlay with the given coverage policy.
func NewNetwork(policy Policy, cfg Config) (*Network, error) {
	sp, err := policy.toStore()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var opts []simnet.Option
	if cfg.DropRate > 0 || cfg.DupRate > 0 {
		opts = append(opts, simnet.WithFailures(cfg.DropRate, cfg.DupRate, cfg.Seed^0xfa11))
	}
	return &Network{inner: simnet.New(opts...), policy: sp, cfg: cfg}, nil
}

// Dropped reports how many broker-to-broker messages failure injection
// discarded.
func (n *Network) Dropped() int { return n.inner.Dropped() }

// AddBroker creates a broker node.
func (n *Network) AddBroker(id string) error {
	opts := []broker.Option{
		broker.WithSeed(n.cfg.Seed),
		broker.WithTableOptions(n.cfg.TableOptions()...),
	}
	return n.inner.AddBroker(id, n.policy, opts...)
}

// Connect links two brokers bidirectionally.
func (n *Network) Connect(a, b string) error { return n.inner.Connect(a, b) }

// AttachClient binds a client endpoint to a broker.
func (n *Network) AttachClient(client, brokerID string) error {
	return n.inner.AttachClient(client, brokerID)
}

// Subscribe announces a client subscription under a globally unique ID.
func (n *Network) Subscribe(client, subID string, s Subscription) error {
	if err := n.inner.ClientSubscribe(client, subID, s); err != nil {
		return err
	}
	_, err := n.inner.Run()
	return err
}

// Unsubscribe cancels a client subscription.
func (n *Network) Unsubscribe(client, subID string) error {
	if err := n.inner.ClientUnsubscribe(client, subID); err != nil {
		return err
	}
	_, err := n.inner.Run()
	return err
}

// Publish sends a publication from a client and routes it to all
// matching subscribers.
func (n *Network) Publish(client, pubID string, p Publication) error {
	if err := n.inner.ClientPublish(client, pubID, p); err != nil {
		return err
	}
	_, err := n.inner.Run()
	return err
}

// Notifications returns (and leaves in place) the notifications a
// client has received, in order.
func (n *Network) Notifications(client string) []Notification {
	var out []Notification
	for _, m := range n.inner.Delivered(client) {
		out = appendNotifications(out, &m)
	}
	return out
}

// Metrics returns the summed broker counters.
func (n *Network) Metrics() Metrics { return n.inner.TotalMetrics() }

// BrokerMetrics returns one broker's counters.
func (n *Network) BrokerMetrics(id string) (Metrics, error) {
	b := n.inner.Broker(id)
	if b == nil {
		return Metrics{}, fmt.Errorf("pubsub: unknown broker %s", id)
	}
	return b.Metrics(), nil
}

// Brokers lists broker IDs, sorted.
func (n *Network) Brokers() []string { return n.inner.BrokerIDs() }
