package cluster

// Simulator attachment: membership over internal/simnet, with manual
// ticks and deterministic partitions — how the healing protocol is
// tested without sockets.

import (
	"fmt"

	"probsum/internal/broker"
	"probsum/internal/simnet"
)

// simLink adapts a simulator broker to the Link interface. Sends are
// injected onto the simulated links (crossing the same partitions and
// failure injection as routed traffic) and processed on the caller's
// next Network.Run; "dialing" succeeds exactly when the link is not
// partitioned, mirroring what a TCP dial would experience, and a
// successful one sends the link sync as a TCP dial does.
type simLink struct {
	net *simnet.Network
	id  string
}

func (l *simLink) Self() string { return l.id }

func (l *simLink) Send(peer string, msg broker.Message) bool {
	l.net.Inject(l.id, broker.Outbound{To: peer, Msg: msg})
	return true
}

func (l *simLink) Connect(peer, addr string, done func(established bool, err error)) {
	// Inline completion keeps simulated runs single-threaded and
	// deterministic. A successful simulated dial always counts as
	// establishing the link: there is no connection object whose
	// staleness the result could hide.
	if l.net.Crashed(peer) {
		done(false, fmt.Errorf("cluster: broker %s is down", peer))
		return
	}
	if l.net.LinkUp(l.id, peer) {
		for _, o := range l.net.Broker(l.id).LinkSync(peer) {
			l.net.Inject(l.id, o)
		}
		done(true, nil)
		return
	}
	done(false, fmt.Errorf("cluster: link %s–%s is partitioned", l.id, peer))
}

func (l *simLink) ClusterCapable(peer string) bool { return true }

// The digest is gated only on the coverage table existing.
func (l *simLink) Digest(peer string) (broker.LinkDigest, bool) {
	b := l.net.Broker(l.id)
	if b == nil {
		return broker.LinkDigest{}, false
	}
	return b.LinkDigest(peer)
}

// NewSimNode binds a membership node to a broker that already exists
// in a simulator network. No background ticker starts: the test (or
// experiment) advances the injected clock and calls Tick, then runs
// the network — every membership transition happens at an exactly
// reproducible step. cfg.Clock is forced to the given clock.
func NewSimNode(net *simnet.Network, id string, clock *simnet.Clock, cfg Config) (*Node, error) {
	b := net.Broker(id)
	if b == nil {
		return nil, fmt.Errorf("cluster: unknown simulator broker %s", id)
	}
	cfg.Clock = clock.Now
	n := NewNode(Member{ID: id, Addr: id}, &simLink{net: net, id: id}, cfg)
	b.SetControlHandler(n.HandleControl)
	return n, nil
}
