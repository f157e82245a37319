// Package cluster makes broker overlays self-assembling and
// self-healing: a cluster.Node wraps a pub/sub broker with a member
// list, an anti-entropy gossip of that list, a ping-based failure
// detector, and a reconnect loop that re-dials dead peers with
// jittered backoff; every dial that restores a link carries the
// broker's link sync (its coverage roots as one SUBBATCH), so routing
// state converges again (see DESIGN.md §10).
//
// The membership machinery is deliberately transport-free: every
// time-driven decision happens in Node.Tick against an injected clock,
// and every wire interaction goes through the small Link interface.
// Attach binds a node to a TCP broker (real sockets, a background
// ticker); NewSimNode binds one to a simulator broker (manual ticks,
// deterministic partitions), which is how the healing protocol is
// tested without sockets.
package cluster

import (
	"fmt"
	"time"

	"probsum/internal/broker"
)

// State is a member's health as seen by the local node.
type State uint8

// Member states. The order is the merge severity: at equal
// incarnation a more severe claim wins (dead > suspect > alive),
// matching SWIM-style rumor ordering.
const (
	// StateAlive members answer pings (or have not yet missed enough).
	StateAlive State = iota
	// StateSuspect members missed pings (or their link dropped) and
	// are on the countdown to dead.
	StateSuspect
	// StateDead members failed the suspect timeout; the reconnect loop
	// re-dials them with backoff until they come back.
	StateDead
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one entry of the member list: identity, dialable address,
// and the (incarnation, state) pair that orders gossip claims.
type Member struct {
	ID   string
	Addr string
	// Incarnation orders claims about this member: a claim at a higher
	// incarnation supersedes any claim at a lower one. It bumps when a
	// member refutes a death rumor about itself, and — a deliberate
	// deviation from strict SWIM — when a node DIRECTLY observes a
	// dead member answer again (observer-assisted refutation), so a
	// recovery propagates through gossip without waiting for the
	// member to learn it was declared dead.
	Incarnation uint64
	State       State
}

// wire converts a member to its gossip-frame form.
func (m Member) wire() broker.MemberInfo {
	return broker.MemberInfo{ID: m.ID, Addr: m.Addr, Incarnation: m.Incarnation, State: uint8(m.State)}
}

// memberFromWire converts a gossip-frame record, clamping unknown
// states from newer builds to dead (the conservative reading: it
// triggers probing, never suppresses it).
func memberFromWire(mi broker.MemberInfo) Member {
	s := State(mi.State)
	if s > StateDead {
		s = StateDead
	}
	return Member{ID: mi.ID, Addr: mi.Addr, Incarnation: mi.Incarnation, State: s}
}

// supersedes reports whether claim a beats claim b about the same
// member: higher incarnation wins outright; at equal incarnation the
// more severe state wins.
func supersedes(a, b Member) bool {
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	return a.State > b.State
}

// memberState is the local bookkeeping around one member: the
// gossiped record plus everything the failure detector and reconnect
// loop need.
type memberState struct {
	Member
	// linked marks members this node maintains an overlay link to
	// (topology neighbors, or every discovered member in mesh mode).
	// Unlinked members are tracked by gossip only.
	linked bool
	// linkUp mirrors the transport link: pings flow only while it is
	// up, reconnects only while it is down.
	linkUp bool
	// lossy records that frames toward this member may have been lost
	// (its link died, or it was declared dead) — the trigger for
	// re-announcing the coverage roots on the next successful contact.
	lossy bool
	// synced records that the full membership snapshot went out over
	// the current link incarnation. It is cleared on every down→up
	// transition and on link loss; while clear, Tick pushes a full
	// gossip frame as soon as the peer is known cluster-capable (the
	// capability is learned asynchronously from the peer's ack, so the
	// push must retry rather than fire once at link-up). Steady-state
	// dissemination after that first exchange is delta-only.
	synced bool

	suspectSince time.Time // when the state became suspect
	lastPing     time.Time
	// lastSyncReply rate-limits anti-entropy: a full-snapshot push
	// answering this member's mismatched view hash goes out at most
	// once per GossipEvery.
	lastSyncReply time.Time
	awaiting      int    // pings sent since the last pong
	seq           uint64 // ping sequence counter

	dialing  bool
	nextDial time.Time
	backoff  time.Duration
}
