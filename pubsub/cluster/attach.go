package cluster

// TCP attachment: binding a membership node to a real-socket broker.

import (
	"probsum/internal/broker"
	"probsum/pubsub"
)

// tcpLink adapts a pubsub TCP broker to the Link interface.
type tcpLink struct {
	b *pubsub.Broker
}

func (l tcpLink) Self() string { return l.b.ID() }

func (l tcpLink) Send(peer string, msg broker.Message) bool {
	return l.b.SendPeer(peer, msg)
}

func (l tcpLink) Connect(peer, addr string, done func(established bool, err error)) {
	// Dialing blocks (bounded by the transport's dial timeout); keep
	// the caller's tick loop responsive.
	go func() { done(l.b.DialPeer(peer, addr)) }()
}

func (l tcpLink) Roots(peer string) []broker.BatchSub {
	return l.b.PeerRoots(peer)
}

func (l tcpLink) ClusterCapable(peer string) bool {
	return l.b.PeerClusterVersion(peer) >= 1
}

// The TCP transport sends the coverage roots as one SUBBATCH after
// every successful peer dial, so the node itself stays quiet on
// recovery.
func (l tcpLink) SyncOnConnect() bool { return true }

func (l tcpLink) Digest(peer string) (broker.LinkDigest, bool) {
	return l.b.LinkDigest(peer)
}

// Attach binds a membership node to a listening TCP broker: the
// node's control handler and peer-link hooks are registered (which
// also turns on the cluster advertisement in the broker's hellos and
// acks), and a background ticker starts driving the failure detector,
// gossip, and reconnect loop. Call AddMember (or use Start / Join)
// to tell the node which peers to maintain; initial connections are
// established by the reconnect loop itself, so peers may come up in
// any order. Stop the node with Close (the broker's lifetime is
// separate).
//
// Attach before connecting peers: links dialed after attachment
// advertise the cluster protocol, so both sides ping each other.
func Attach(b *pubsub.Broker, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := NewNode(Member{ID: b.ID(), Addr: b.Addr(), Incarnation: cfg.Incarnation}, tcpLink{b: b}, cfg)
	// Durable membership: adopt the member list a previous life
	// persisted (rejoin the overlay without a seed node) and register
	// the journal hooks that keep it persisted in this one.
	if rs, ok := b.Recovery(); ok && len(rs.Members) > 0 {
		n.adoptRecovered(rs.Members)
	}
	if j := b.Journal(); j != nil {
		j.SetMemberSource(n.WireMembers)
		n.mu.Lock()
		n.persistFn = j.RecordMembers
		n.mu.Unlock()
	}
	b.SetControlHandler(n.HandleControl)
	b.SetPeerHooks(n.PeerUp, n.PeerDown)
	n.wg.Add(1)
	go n.run()
	return n
}
