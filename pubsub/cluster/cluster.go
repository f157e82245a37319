package cluster

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"probsum/internal/broker"
	"probsum/internal/obs"
)

// Link is the cluster node's view of its broker's overlay links — the
// only thing membership needs from a transport. pubsub TCP brokers and
// simulator brokers both satisfy it (see Attach and NewSimNode).
type Link interface {
	// Self returns the local broker's identifier.
	Self() string
	// Send queues one protocol message toward a peer, best-effort. It
	// reports whether a live (and, for control kinds, cluster-capable)
	// link existed.
	Send(peer string, msg broker.Message) bool
	// Connect (re)establishes the link to a peer and reports the
	// result through done: established says whether THIS attempt
	// created the link (false with a nil error when a live link
	// already existed, or the peer's own simultaneous dial won — which
	// proves nothing about the peer, since that connection may be
	// stalled). An established link has already
	// carried its link sync (broker.Broker.LinkSync) when done runs, so
	// the node never announces subscriptions itself. The TCP
	// implementation dials on its own goroutine (done runs there); the
	// simulator one answers inline, which keeps simulated runs
	// deterministic.
	Connect(peer, addr string, done func(established bool, err error))
	// ClusterCapable reports whether the peer advertised the
	// membership protocol — peers that did not are never pinged (their
	// links are still reconnected on loss).
	ClusterCapable(peer string) bool
	// Digest returns the broker's sender-side subscription digest for
	// the link to peer, false when the link has no digest to offer.
	// Gossip toward the peer piggybacks it, which is what arms the
	// anti-entropy reconciliation.
	Digest(peer string) (broker.LinkDigest, bool)
}

// SWIM's protocol constants (Das/Gupta/Motivala), fixed for every node.
const (
	// probeFanout is k: how many of the due linked members receive a
	// direct ping per tick. When no more than k members are due they
	// are all probed, so small clusters keep the every-neighbor cadence.
	probeFanout = 2
	// indirectRelays is r: how many relays receive a PING-REQ when a
	// member's direct probe already stands unanswered.
	indirectRelays = 2
	// retransmitMult is the λ of the per-update retransmit budget
	// λ·⌈log₂ n⌉: how many frames each membership update rides before
	// it is dropped from the delta queue.
	retransmitMult = 3
	// maxDeltasPerFrame bounds the membership updates piggybacked on
	// one control frame.
	maxDeltasPerFrame = 6
)

// Config tunes a membership node. Zero values select the defaults
// noted on each field.
type Config struct {
	// PingEvery is the failure-detector probe interval (500ms). A
	// TCP-attached node ticks every PingEvery/4 (at least 1ms);
	// simulator nodes are ticked manually instead.
	PingEvery time.Duration
	// SuspectMisses is how many unanswered pings move an alive member
	// to suspect (2).
	SuspectMisses int
	// DeadAfter is how long a member stays suspect before it is
	// declared dead (4 × PingEvery).
	DeadAfter time.Duration
	// GossipEvery is the anti-entropy interval: a bounded delta batch
	// goes to every live linked peer this often (2 × PingEvery).
	GossipEvery time.Duration
	// ReconnectMin / ReconnectMax bound the re-dial backoff for down
	// links: attempts double from Min to Max with seeded jitter
	// (PingEvery/2 and 16 × ReconnectMin).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Seed feeds the backoff-jitter and probe-selection streams, mixed
	// with the node ID so cluster members never thunder in lockstep (1).
	Seed uint64
	// Clock supplies the node's time (time.Now). Simulator tests
	// inject a simnet.Clock for fully deterministic schedules.
	Clock func() time.Time
	// Events, when set, receives membership flight events (suspicions,
	// deaths, recoveries) for post-mortem dumps —
	// the chaos harness attaches one recorder across all its nodes and
	// includes the dump in failure reports. Nil disables recording.
	Events *obs.FlightRecorder
	// Mesh links every member discovered through gossip (seed-node
	// operation: the overlay converges to a full mesh). Without it
	// only explicitly added peers are linked (topology operation).
	Mesh bool

	// The reference protocols tests compare against; no other code
	// sets them. fullGossip sends the full member list on every gossip
	// beat and disables delta piggybacks and indirect probes (the
	// full-snapshot oracle); noRelays disables indirect probes only.
	fullGossip bool
	noRelays   bool
}

func (c Config) withDefaults() Config {
	if c.PingEvery <= 0 {
		c.PingEvery = 500 * time.Millisecond
	}
	if c.SuspectMisses <= 0 {
		c.SuspectMisses = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 4 * c.PingEvery
	}
	if c.GossipEvery <= 0 {
		c.GossipEvery = 2 * c.PingEvery
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = c.PingEvery / 2
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 16 * c.ReconnectMin
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		//brokervet:allow clockcheck this IS the clock injection point: the default for production wiring, overridden by simnet in deterministic tests
		c.Clock = time.Now
	}
	return c
}

// NodeMetrics counts a membership node's activity.
type NodeMetrics struct {
	PingsSent     uint64
	PongsReceived uint64
	// Suspects / Deaths / Recoveries count state transitions of
	// tracked members as seen by this node.
	Suspects     uint64
	Deaths       uint64
	Recoveries   uint64
	GossipSent   uint64 // full-snapshot gossip frames sent
	GossipMerged uint64 // remote claims adopted (or members learned)
	Dials        uint64
	DialFailures uint64
	// SWIM dissemination counters.
	DeltaFramesSent  uint64 // gossip-delta frames sent
	DeltaUpdatesSent uint64 // membership updates carried by any frame
	PingReqsSent     uint64 // indirect probes requested of relays
	PingReqsRelayed  uint64 // indirect probes this node relayed
	IndirectAcks     uint64 // members kept alive by a relay's ack
	MemberSyncs      uint64 // full snapshots pushed on a view-hash mismatch
	// ControlBytesSent estimates the wire bytes of every control frame
	// sent (binary encoding) — the scale harness's traffic gauge.
	ControlBytesSent uint64
}

// relayReq is one standing obligation to answer an indirect-probe
// origin once (if) the target pongs.
type relayReq struct {
	origin  string
	seq     uint64
	expires time.Time
}

// queuedUpdate is one membership rumor awaiting dissemination, with
// the retransmissions it has left.
type queuedUpdate struct {
	info      broker.MemberInfo
	remaining int
}

// Node is the membership side of one broker: member list, failure
// detector, gossip, and the reconnect/heal loop. All methods are safe
// for concurrent use; time advances only through Tick (which TCP
// nodes run on a background ticker and simulator tests call
// manually).
type Node struct {
	link Link
	cfg  Config
	// +guarded_by:mu
	rng *rand.Rand // jitter and probe-selection stream

	mu sync.Mutex
	// +guarded_by:mu
	self Member
	// +guarded_by:mu
	members map[string]*memberState
	// order and linkedOrder are the deterministic iteration orders
	// (ascending ID), maintained incrementally so a node tracking
	// thousands of gossip-learned members never re-sorts per tick and
	// Tick touches only the linked ones.
	// +guarded_by:mu
	order []*memberState
	// +guarded_by:mu
	linkedOrder []*memberState
	// +guarded_by:mu
	lastGossip time.Time
	// +guarded_by:mu
	metrics NodeMetrics

	// The delta-dissemination queue: pending updates by member ID plus
	// a round-robin send order (qHead is the consumed prefix).
	// +guarded_by:mu
	updates map[string]*queuedUpdate
	// +guarded_by:mu
	updateQueue []string
	// +guarded_by:mu
	qHead int
	// pendingRelay holds, per probe target, the indirect-probe origins
	// awaiting this node's vouch.
	// +guarded_by:mu
	pendingRelay map[string][]relayReq

	// Durable membership: persistFn (when set) receives the wire-form
	// member list, debounced to once per GossipEvery while dirty.
	// +guarded_by:mu
	persistFn func([]broker.MemberInfo)
	// +guarded_by:mu
	persistDirty bool
	// +guarded_by:mu
	lastPersist time.Time

	// Anti-entropy view hash: an order-independent digest of the whole
	// member map (self included), carried on outgoing gossip-delta
	// frames and compared against inbound ones. Cached until a member
	// record mutates.
	// +guarded_by:mu
	viewHash uint64
	// +guarded_by:mu
	viewDirty bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode builds a membership node around a link. The node is
// passive until Tick is called (or a background ticker is started by
// Attach); self's state is forced alive and its incarnation defaults
// to 1 when zero.
func NewNode(self Member, link Link, cfg Config) *Node {
	cfg = cfg.withDefaults()
	self.State = StateAlive
	if self.Incarnation == 0 {
		self.Incarnation = 1
	}
	return &Node{
		link:         link,
		cfg:          cfg,
		rng:          rand.New(rand.NewPCG(cfg.Seed^fnv1a(self.ID), fnv1a(self.ID)|1)),
		self:         self,
		members:      make(map[string]*memberState),
		updates:      make(map[string]*queuedUpdate),
		pendingRelay: make(map[string][]relayReq),
		viewDirty:    true,
		stop:         make(chan struct{}),
	}
}

// fnv1a hashes a string into a 64-bit seed component.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// AddMember registers a member to track. Linked members get the full
// treatment — the reconnect loop establishes and maintains their
// overlay link, the failure detector probes them — while unlinked ones
// are only carried in gossip. Members start suspect-until-contacted:
// the first successful connect (or inbound frame) makes them alive,
// and a member that never answers goes dead on the normal timeout.
// Adding an already-tracked member only widens its linkage and fills
// a missing address.
func (n *Node) AddMember(m Member, linked bool) {
	if m.ID == n.link.Self() {
		return
	}
	now := n.cfg.Clock()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.members[m.ID]
	if st == nil {
		m.State = StateSuspect
		st = &memberState{Member: m, suspectSince: now}
		n.trackLocked(st)
		n.enqueueUpdateLocked(st.wire())
	} else if st.Addr == "" && m.Addr != "" {
		st.Addr = m.Addr
		n.viewDirty = true
	}
	if linked {
		n.linkLocked(st)
	}
}

// adoptRecovered seeds the member list from a persisted membership
// record (pubsub.RecoveryStats.Members): the local entry bumps the
// self incarnation past its pre-crash value so stale rumors about the
// previous life cannot outrank the new one; every other member is
// adopted as a linked suspect at its recorded incarnation, which puts
// the reconnect loop to work re-dialing the old overlay without a
// seed node. Nothing but the self bump is enqueued for rumor
// dissemination — the recovered entries reach peers through the
// full-snapshot sync each link performs on its first contact, so a
// cold boot does not flood the mesh with stale suspicion. Returns the
// number of peers adopted.
func (n *Node) adoptRecovered(ms []broker.MemberInfo) int {
	self := n.link.Self()
	now := n.cfg.Clock()
	n.mu.Lock()
	defer n.mu.Unlock()
	adopted := 0
	for _, mi := range ms {
		if mi.ID == self {
			if mi.Incarnation >= n.self.Incarnation {
				n.self.Incarnation = mi.Incarnation + 1
				n.enqueueUpdateLocked(n.self.wire())
			}
			continue
		}
		m := memberFromWire(mi)
		m.State = StateSuspect
		st := n.members[m.ID]
		if st == nil {
			st = &memberState{Member: m, suspectSince: now}
			n.trackLocked(st)
		} else if st.Addr == "" && m.Addr != "" {
			st.Addr = m.Addr
			n.viewDirty = true
		}
		n.linkLocked(st)
		adopted++
	}
	return adopted
}

// trackLocked registers a new member record under both iteration
// orders (the caller links it separately if needed).
//
// +mustlock:mu
func (n *Node) trackLocked(st *memberState) {
	n.viewDirty = true
	n.members[st.ID] = st
	i := sort.Search(len(n.order), func(i int) bool { return n.order[i].ID >= st.ID })
	n.order = append(n.order, nil)
	copy(n.order[i+1:], n.order[i:])
	n.order[i] = st
}

// linkLocked marks a tracked member linked, maintaining the linked
// iteration order. Members never unlink.
//
// +mustlock:mu
func (n *Node) linkLocked(st *memberState) {
	if st.linked {
		return
	}
	st.linked = true
	i := sort.Search(len(n.linkedOrder), func(i int) bool { return n.linkedOrder[i].ID >= st.ID })
	n.linkedOrder = append(n.linkedOrder, nil)
	copy(n.linkedOrder[i+1:], n.linkedOrder[i:])
	n.linkedOrder[i] = st
}

// Members returns the current member list — the local node first,
// then the tracked members sorted by ID.
func (n *Node) Members() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.order)+1)
	out = append(out, n.self)
	for _, st := range n.order {
		out = append(out, st.Member)
	}
	return out
}

// Member returns the tracked record for id (the local node included).
func (n *Node) Member(id string) (Member, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if id == n.self.ID {
		return n.self, true
	}
	st, ok := n.members[id]
	if !ok {
		return Member{}, false
	}
	return st.Member, true
}

// AliveCount returns how many tracked members (the local node
// included) the node currently believes alive, and the total tracked.
func (n *Node) AliveCount() (alive, total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	alive, total = 1, len(n.order)+1
	for _, st := range n.order {
		if st.State == StateAlive {
			alive++
		}
	}
	return alive, total
}

// Metrics returns a snapshot of the activity counters.
func (n *Node) Metrics() NodeMetrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metrics
}

// WireMembers snapshots the member list (self first) in gossip form —
// the journal's member source for durable membership.
func (n *Node) WireMembers() []broker.MemberInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.wireMembersLocked()
}

// sortedIDsLocked lists tracked member IDs in deterministic order.
//
// +mustlock:mu
func (n *Node) sortedIDsLocked() []string {
	ids := make([]string, len(n.order))
	for i, st := range n.order {
		ids[i] = st.ID
	}
	return ids
}

// wireMembersLocked snapshots the member list (self first) in gossip
// form.
//
// +mustlock:mu
func (n *Node) wireMembersLocked() []broker.MemberInfo {
	out := make([]broker.MemberInfo, 0, len(n.order)+1)
	out = append(out, n.self.wire())
	for _, st := range n.order {
		out = append(out, st.Member.wire())
	}
	return out
}

// memberRecordHash digests one member record. Field lengths are mixed
// in so (id, addr) pairs cannot alias across the boundary.
func memberRecordHash(mi broker.MemberInfo) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= uint64(len(s)) | 0x100
		h *= prime
	}
	mix(mi.ID)
	mix(mi.Addr)
	h ^= mi.Incarnation
	h *= prime
	h ^= uint64(mi.State)
	h *= prime
	return h
}

// memberHashLocked returns the anti-entropy digest of the full member
// view: the sum of the record hashes (order-independent, so two nodes
// holding the same records hash identically regardless of how they
// learned them), never zero so the wire can treat zero as absent.
//
// +mustlock:mu
func (n *Node) memberHashLocked() uint64 {
	if n.viewDirty {
		h := memberRecordHash(n.self.wire())
		for _, st := range n.order {
			h += memberRecordHash(st.Member.wire())
		}
		if h == 0 {
			h = 1
		}
		n.viewHash = h
		n.viewDirty = false
	}
	return n.viewHash
}

// enqueueUpdateLocked (re)queues one membership update for
// piggybacked dissemination with a fresh retransmit budget of
// λ·⌈log₂ n⌉ frames, and marks the member list dirty for the
// persistence hook. The latest claim for a member replaces any queued
// one in place.
//
// +mustlock:mu
func (n *Node) enqueueUpdateLocked(mi broker.MemberInfo) {
	n.persistDirty = true
	n.viewDirty = true
	budget := retransmitMult * bits.Len(uint(len(n.members)+2))
	if qu := n.updates[mi.ID]; qu != nil {
		qu.info = mi
		qu.remaining = budget
		return
	}
	n.updates[mi.ID] = &queuedUpdate{info: mi, remaining: budget}
	n.updateQueue = append(n.updateQueue, mi.ID)
}

// takeDeltasLocked dequeues the updates one outgoing control frame
// carries — up to maxDeltasPerFrame pending ones, round-robin —
// charging each one frame of its retransmit budget; exhausted updates
// drop out of the queue, surviving ones rotate to the back. The
// full-snapshot oracle piggybacks none.
//
// +mustlock:mu
func (n *Node) takeDeltasLocked() []broker.MemberInfo {
	pending := len(n.updateQueue) - n.qHead
	if n.cfg.fullGossip || pending <= 0 {
		return nil
	}
	take := min(maxDeltasPerFrame, pending)
	out := make([]broker.MemberInfo, 0, take)
	for i := 0; i < take; i++ {
		id := n.updateQueue[n.qHead]
		n.qHead++
		qu := n.updates[id]
		if qu == nil {
			continue
		}
		out = append(out, qu.info)
		qu.remaining--
		if qu.remaining > 0 {
			n.updateQueue = append(n.updateQueue, id)
		} else {
			delete(n.updates, id)
		}
	}
	// Compact the consumed prefix once it dominates the queue.
	if n.qHead > 64 && n.qHead*2 >= len(n.updateQueue) {
		n.updateQueue = append([]string(nil), n.updateQueue[n.qHead:]...)
		n.qHead = 0
	}
	n.metrics.DeltaUpdatesSent += uint64(len(out))
	return out
}

// Tick runs one round of the time-driven machinery at the injected
// clock's current instant: direct probes for probeFanout random due
// members, indirect probes through relays for the unanswered ones,
// suspect→dead timeouts, gossip fan-out, reconnect attempts for down
// links,
// and the debounced membership persistence. TCP-attached nodes call
// it from a background ticker; simulator tests call it between clock
// advances (then run the network).
func (n *Node) Tick() {
	now := n.cfg.Clock()
	type sendOp struct {
		to     string
		msg    broker.Message
		digest bool // piggyback the link digest (gossip kinds)
		// probe marks a direct ping: if the transport drops it (the
		// peer's cluster capability is still unknown mid-handshake, or
		// the link just died), the outstanding-ping count rolls back so
		// a frame that never left this process cannot feed suspicion.
		probe *memberState
	}
	type dialOp struct {
		id, addr string
	}
	var sends []sendOp
	var dials []dialOp
	var persistSnap []broker.MemberInfo
	var persistFn func([]broker.MemberInfo)

	n.mu.Lock()
	gossipDue := now.Sub(n.lastGossip) >= n.cfg.GossipEvery
	if gossipDue {
		n.lastGossip = now
	}
	var snapshot []broker.MemberInfo // full-gossip form, built lazily

	// SWIM probe selection: of the linked live members due for a
	// probe, ping at most probeFanout random ones this tick. Small
	// clusters (≤ probeFanout due members) keep the every-neighbor
	// cadence; large ones pay k probes per tick regardless of size.
	var due []*memberState
	for _, st := range n.linkedOrder {
		if st.linkUp && n.link.ClusterCapable(st.ID) && now.Sub(st.lastPing) >= n.cfg.PingEvery {
			due = append(due, st)
		}
	}
	if len(due) > probeFanout {
		for i := 0; i < probeFanout; i++ {
			j := i + n.rng.IntN(len(due)-i)
			due[i], due[j] = due[j], due[i]
		}
		due = due[:probeFanout]
	}
	for _, st := range due {
		st.seq++
		st.awaiting++
		st.lastPing = now
		n.metrics.PingsSent++
		ping := broker.Message{Kind: broker.MsgPing, Seq: st.seq, Members: n.takeDeltasLocked()}
		sends = append(sends, sendOp{to: st.ID, msg: ping, probe: st})
		// Indirect probe: a previous ping already stands unanswered,
		// so ask r relays to vouch for the member before the suspect
		// threshold trips — SWIM's defense against declaring a member
		// dead over one broken path.
		if st.awaiting > 1 && !n.cfg.fullGossip && !n.cfg.noRelays {
			for _, relay := range n.relayTargetsLocked(st.ID) {
				n.metrics.PingReqsSent++
				req := broker.Message{Kind: broker.MsgPingReq, Target: st.ID, Seq: st.seq, Members: n.takeDeltasLocked()}
				sends = append(sends, sendOp{to: relay.ID, msg: req})
			}
		}
	}

	for _, st := range n.linkedOrder {
		if st.linkUp && n.link.ClusterCapable(st.ID) {
			if !st.synced {
				// Membership push-pull on link establishment: the peer
				// merges our full map and (its own sync push firing
				// symmetrically) sends back its own — the one place
				// full snapshots still travel, which is what lets
				// steady-state dissemination stay delta-only.
				st.synced = true
				if snapshot == nil {
					snapshot = n.wireMembersLocked()
				}
				n.metrics.GossipSent++
				sends = append(sends, sendOp{to: st.ID, msg: broker.Message{Kind: broker.MsgGossip, Members: snapshot}, digest: true})
			}
			if st.State == StateAlive && st.awaiting > n.cfg.SuspectMisses {
				st.State = StateSuspect
				st.suspectSince = now
				n.metrics.Suspects++
				n.enqueueUpdateLocked(st.wire())
			}
			if gossipDue && st.State == StateAlive && st.synced {
				if !n.cfg.fullGossip {
					n.metrics.DeltaFramesSent++
					sends = append(sends, sendOp{
						to: st.ID,
						msg: broker.Message{
							Kind:    broker.MsgGossipDelta,
							Members: n.takeDeltasLocked(),
							// The view hash arms anti-entropy: a receiver
							// still hashing differently after the merge
							// pushes its full map back (rate-limited), the
							// completeness backstop for budget-bounded
							// rumors.
							MemberHash: n.memberHashLocked(),
						},
						digest: true,
					})
				} else {
					if snapshot == nil {
						snapshot = n.wireMembersLocked()
					}
					n.metrics.GossipSent++
					sends = append(sends, sendOp{to: st.ID, msg: broker.Message{Kind: broker.MsgGossip, Members: snapshot}, digest: true})
				}
			}
		}
		if st.State == StateSuspect && now.Sub(st.suspectSince) >= n.cfg.DeadAfter {
			st.State = StateDead
			st.lossy = true
			st.linkUp = false
			st.synced = false
			n.metrics.Deaths++
			n.enqueueUpdateLocked(st.wire())
		}
		// Reconnect loop: any down link with a known address is
		// re-dialed on a doubling, jittered backoff.
		if !st.linkUp && !st.dialing && st.Addr != "" &&
			(st.nextDial.IsZero() || !now.Before(st.nextDial)) {
			if st.backoff == 0 {
				st.backoff = n.cfg.ReconnectMin
			} else {
				st.backoff = min(2*st.backoff, n.cfg.ReconnectMax)
			}
			jitter := time.Duration(n.rng.Int64N(int64(st.backoff/2) + 1))
			st.nextDial = now.Add(st.backoff + jitter)
			st.dialing = true
			n.metrics.Dials++
			dials = append(dials, dialOp{st.ID, st.Addr})
		}
	}
	// Expire relay obligations whose target never answered.
	for target, reqs := range n.pendingRelay {
		kept := reqs[:0]
		for _, r := range reqs {
			if now.Before(r.expires) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(n.pendingRelay, target)
		} else {
			n.pendingRelay[target] = kept
		}
	}
	if n.persistFn != nil && n.persistDirty && now.Sub(n.lastPersist) >= n.cfg.GossipEvery {
		persistSnap = n.wireMembersLocked()
		persistFn = n.persistFn
		n.persistDirty = false
		n.lastPersist = now
	}
	n.mu.Unlock()

	var sentBytes uint64
	var lostProbes []*memberState
	for i := range sends {
		s := &sends[i]
		if s.digest {
			// Piggyback the link digest on gossip: the receiver compares
			// it against what actually arrived over the link and starts
			// a sync round on mismatch — at most one per gossip interval
			// per link, which is the protocol's rate bound.
			if d, ok := n.link.Digest(s.to); ok {
				s.msg.Digest = &d
			}
		}
		if n.link.Send(s.to, s.msg) {
			sentBytes += uint64(controlFrameSize(&s.msg))
		} else if s.probe != nil {
			lostProbes = append(lostProbes, s.probe)
		}
	}
	if sentBytes > 0 || len(lostProbes) > 0 {
		n.mu.Lock()
		n.metrics.ControlBytesSent += sentBytes
		for _, st := range lostProbes {
			// The ping was dropped before reaching the wire (see sendOp):
			// undo its contribution to the miss count. The probe itself
			// retries on the normal cadence, and once the peer's ack
			// finally lands the transport's peer-up hook re-kicks the
			// probe path (markUp resets the count and re-arms the
			// membership push).
			if st.awaiting > 0 {
				st.awaiting--
			}
		}
		n.mu.Unlock()
	}
	for _, d := range dials {
		id := d.id
		n.link.Connect(id, d.addr, func(established bool, err error) { n.dialDone(id, established, err) })
	}
	if persistFn != nil {
		persistFn(persistSnap)
	}
}

// relayTargetsLocked picks up to indirectRelays random linked live
// cluster-capable members (excluding the probe target) to carry a
// PING-REQ.
//
// +mustlock:mu
func (n *Node) relayTargetsLocked(target string) []*memberState {
	var cands []*memberState
	for _, st := range n.linkedOrder {
		if st.ID == target || !st.linkUp || st.State != StateAlive || !n.link.ClusterCapable(st.ID) {
			continue
		}
		cands = append(cands, st)
	}
	if len(cands) > indirectRelays {
		for i := 0; i < indirectRelays; i++ {
			j := i + n.rng.IntN(len(cands)-i)
			cands[i], cands[j] = cands[j], cands[i]
		}
		cands = cands[:indirectRelays]
	}
	return cands
}

// dialDone finishes one reconnect attempt.
func (n *Node) dialDone(id string, established bool, err error) {
	if err != nil {
		n.mu.Lock()
		if st := n.members[id]; st != nil {
			st.dialing = false
		}
		n.metrics.DialFailures++
		n.mu.Unlock()
		return
	}
	if !established {
		// A live link already exists (the peer dialed us first, its
		// simultaneous dial won the tie-break, or the detector gave up
		// on a connection that never actually broke). The dial made no contact with the peer, so
		// it must NOT count as a recovery — forcing alive here would
		// let a hung-but-connected peer flap dead→alive forever.
		// Resume probing over the existing link instead: a pong marks
		// the member alive (observe), and if the connection is truly
		// dead its writer will fail and reopen the reconnect path.
		n.mu.Lock()
		if st := n.members[id]; st != nil {
			st.dialing = false
			st.linkUp = true
			st.backoff = 0
			st.nextDial = time.Time{}
		}
		n.mu.Unlock()
		return
	}
	n.markUp(id)
}

// PeerUp is the transport's link-established hook (a link's handshake
// completed, whichever end dialed). It is also the dial-success path, so both converge on
// the same recovery logic.
func (n *Node) PeerUp(id string) { n.markUp(id) }

// PeerDown is the transport's link-lost hook: the member turns
// suspect immediately (faster than waiting out the ping misses) and
// is flagged lossy so the next successful contact counts as a
// recovery.
//
// While a re-dial is already in flight the suspect escalation is
// skipped (the link-down and lossy flags still apply): the losing
// connection of a dial race reports its death AFTER the replacement
// link is being established, and escalating then would bump the
// member's incarnation on every such race (suspect → markUp
// refutation), turning connection churn into gossip churn. The
// regression test pins the interleaving.
func (n *Node) PeerDown(id string) {
	now := n.cfg.Clock()
	n.mu.Lock()
	st := n.members[id]
	if st != nil {
		st.linkUp = false
		st.lossy = true
		st.synced = false
		if st.State == StateAlive && !st.dialing {
			st.State = StateSuspect
			st.suspectSince = now
			n.metrics.Suspects++
			n.cfg.Events.Record("suspect", n.self.ID, st.ID+" link down")
			n.enqueueUpdateLocked(st.wire())
		}
	}
	n.mu.Unlock()
}

// markUp records that the link to id works again (a dial
// completed, or the transport's link-up hook fired) and counts a
// RECOVERY when the member was dead or frames toward it may have been
// lost. The subscriptions the peer may have missed already went out
// as the dial's link sync (see Link.Connect). Every down→up
// transition also pushes a full membership snapshot over the fresh
// link (both sides do, so a new or recovered peer and the cluster
// exchange complete member maps once), which is what lets
// steady-state dissemination stay delta-only.
//
// Only outbound-path events come here. Inbound frames (observe) prove
// the peer can reach us, not that we can reach it, so they neither
// set linkUp nor clear lossy — otherwise a half-broken link would
// silence the reconnect loop.
func (n *Node) markUp(id string) {
	if id == n.link.Self() {
		return
	}
	n.mu.Lock()
	st := n.members[id]
	if st == nil {
		// A peer we were not configured with connected to us (its side
		// was configured, or mesh gossip got there first). Track it;
		// the address arrives by gossip.
		st = &memberState{Member: Member{ID: id}}
		n.trackLocked(st)
		n.linkLocked(st)
	}
	wasDown := !st.linkUp
	st.dialing = false
	st.linkUp = true
	st.awaiting = 0
	st.backoff = 0
	st.nextDial = time.Time{}
	recovered := st.lossy || st.State == StateDead
	if recovered {
		n.metrics.Recoveries++
		n.cfg.Events.Record("recover", n.self.ID, st.ID)
	}
	stateChanged := st.State != StateAlive
	if stateChanged {
		// Observer-assisted refutation: propagate the recovery at a
		// fresh incarnation so gossip overrides the standing suspect
		// or dead rumor (which would otherwise win every same-
		// incarnation merge by severity).
		st.Incarnation++
	}
	st.State = StateAlive
	st.lossy = false
	if stateChanged || wasDown {
		n.enqueueUpdateLocked(st.wire())
	}
	if wasDown || recovered {
		// Arm the membership push for the fresh link: the next Tick
		// sends the full member map once the peer is known
		// cluster-capable (see memberState.synced).
		st.synced = false
	}
	n.mu.Unlock()
}

// HandleControl is the broker.ControlHandler: it dispatches inbound
// ping/pong/gossip/ping-req/gossip-delta frames and returns the
// replies (pong, relay probes, indirect acks, refutation gossip) for
// the transport to deliver. Membership deltas piggybacked on any
// control kind are merged exactly like gossip.
func (n *Node) HandleControl(from string, msg broker.Message) []broker.Outbound {
	now := n.cfg.Clock()
	switch msg.Kind {
	case broker.MsgPing:
		var outs []broker.Outbound
		if len(msg.Members) > 0 {
			outs, _ = n.mergeGossip(from, msg.Members, now)
		} else {
			n.observe(from, now, false)
		}
		n.mu.Lock()
		pong := broker.Message{Kind: broker.MsgPong, Seq: msg.Seq, Members: n.takeDeltasLocked()}
		n.metrics.ControlBytesSent += uint64(controlFrameSize(&pong))
		n.mu.Unlock()
		return append(outs, broker.Outbound{To: from, Msg: pong})
	case broker.MsgPong:
		n.observe(from, now, true)
		var outs []broker.Outbound
		if len(msg.Members) > 0 {
			outs, _ = n.mergeGossip(from, msg.Members, now)
		}
		return append(outs, n.relayAcks(from)...)
	case broker.MsgPingReq:
		if msg.Ack {
			var outs []broker.Outbound
			if len(msg.Members) > 0 {
				outs, _ = n.mergeGossip(from, msg.Members, now)
			} else {
				n.observe(from, now, false)
			}
			n.indirectObserve(msg.Target)
			return outs
		}
		return n.relayProbe(from, msg, now)
	case broker.MsgGossip, broker.MsgGossipDelta:
		outs, learned := n.mergeGossip(from, msg.Members, now)
		if msg.Kind == broker.MsgGossipDelta && msg.MemberHash != 0 && !learned {
			if out, ok := n.antiEntropy(from, msg.MemberHash, now); ok {
				outs = append(outs, out)
			}
		}
		return outs
	default:
		return nil
	}
}

// relayProbe handles an origin's PING-REQ: if this node holds a live
// direct link to the target it pings the target itself and remembers
// to ack the origin when the pong arrives. A relay without direct
// linkage refuses silently — it cannot vouch over links it does not
// have, which is exactly what keeps a partitioned member from being
// kept alive through relays that only know it by rumor.
func (n *Node) relayProbe(from string, msg broker.Message, now time.Time) []broker.Outbound {
	var outs []broker.Outbound
	if len(msg.Members) > 0 {
		outs, _ = n.mergeGossip(from, msg.Members, now)
	} else {
		n.observe(from, now, false)
	}
	if msg.Target == n.link.Self() {
		// We ARE the target: the origin lost its direct path to us and
		// is probing through a relay that got confused — answer
		// directly, we are evidently alive.
		ack := broker.Message{Kind: broker.MsgPingReq, Ack: true, Target: msg.Target, Seq: msg.Seq}
		n.mu.Lock()
		n.metrics.ControlBytesSent += uint64(controlFrameSize(&ack))
		n.mu.Unlock()
		return append(outs, broker.Outbound{To: from, Msg: ack})
	}
	n.mu.Lock()
	st := n.members[msg.Target]
	if st == nil || !st.linked || !st.linkUp || !n.link.ClusterCapable(msg.Target) {
		n.mu.Unlock()
		return outs
	}
	st.seq++
	st.awaiting++
	st.lastPing = now
	n.metrics.PingsSent++
	n.metrics.PingReqsRelayed++
	n.pendingRelay[msg.Target] = append(n.pendingRelay[msg.Target],
		relayReq{origin: from, seq: msg.Seq, expires: now.Add(2 * n.cfg.PingEvery)})
	ping := broker.Message{Kind: broker.MsgPing, Seq: st.seq, Members: n.takeDeltasLocked()}
	n.metrics.ControlBytesSent += uint64(controlFrameSize(&ping))
	n.mu.Unlock()
	return append(outs, broker.Outbound{To: msg.Target, Msg: ping})
}

// relayAcks answers every indirect-probe origin waiting on a pong
// from this member.
func (n *Node) relayAcks(target string) []broker.Outbound {
	n.mu.Lock()
	reqs := n.pendingRelay[target]
	delete(n.pendingRelay, target)
	var outs []broker.Outbound
	for _, r := range reqs {
		ack := broker.Message{Kind: broker.MsgPingReq, Ack: true, Target: target, Seq: r.seq, Members: n.takeDeltasLocked()}
		n.metrics.ControlBytesSent += uint64(controlFrameSize(&ack))
		outs = append(outs, broker.Outbound{To: r.origin, Msg: ack})
	}
	n.mu.Unlock()
	return outs
}

// indirectObserve processes a relay's vouch for target: the member
// answered SOMEONE's ping, so it is alive and the outstanding-probe
// count resets — but nothing is learned about our own direct link, so
// linkUp and lossy stay untouched and the reconnect loop keeps
// working on the broken path.
func (n *Node) indirectObserve(target string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.members[target]
	if st == nil {
		return
	}
	n.metrics.IndirectAcks++
	st.awaiting = 0
	if st.State != StateAlive {
		st.Incarnation++
		st.State = StateAlive
		n.enqueueUpdateLocked(st.wire())
	}
}

// observe processes direct INBOUND evidence of life from a member
// (any control frame it sent us). Inbound evidence marks the member
// alive — the process is clearly running — but deliberately leaves
// linkUp and lossy alone: whether WE can reach IT is decided by the
// outbound path (pongs to our own pings, dial results, link hooks),
// and the link sync must ride a restored outbound link, not an
// inference from inbound traffic.
func (n *Node) observe(from string, now time.Time, pong bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.members[from]
	if st == nil {
		st = &memberState{Member: Member{ID: from}}
		n.trackLocked(st)
		n.linkLocked(st)
		n.enqueueUpdateLocked(st.wire())
	}
	if pong {
		n.metrics.PongsReceived++
		// Only a pong proves the round trip, so only a pong clears the
		// outstanding-ping count.
		st.awaiting = 0
	}
	if st.State != StateAlive {
		// Observer-assisted refutation, as in markUp.
		st.Incarnation++
		st.State = StateAlive
		n.enqueueUpdateLocked(st.wire())
	}
	st.State = StateAlive
}

// mergeGossip folds a remote member list into the local one under the
// (incarnation, severity) order, treats the sender itself as directly
// observed, learns new members (linking them in mesh mode), requeues
// every adopted update for further dissemination, and refutes rumors
// of the local node's own death by bumping its incarnation and
// gossiping straight back. The second return reports whether the
// merge taught this node ANYTHING — the anti-entropy gate: a frame
// that carried only known information while the sender's view hash
// still differs means some rumor starved before reaching one side.
func (n *Node) mergeGossip(from string, infos []broker.MemberInfo, now time.Time) ([]broker.Outbound, bool) {
	n.observe(from, now, false)

	var refute, changed bool
	n.mu.Lock()
	for _, mi := range infos {
		m := memberFromWire(mi)
		if m.ID == n.self.ID {
			if m.State != StateAlive && m.Incarnation >= n.self.Incarnation {
				n.self.Incarnation = m.Incarnation + 1
				refute = true
				changed = true
				n.enqueueUpdateLocked(n.self.wire())
			} else if m.Incarnation > n.self.Incarnation {
				n.self.Incarnation = m.Incarnation
				changed = true
				n.enqueueUpdateLocked(n.self.wire())
			}
			continue
		}
		if m.ID == from {
			// Direct contact already processed the sender; its
			// self-claim still teaches us its incarnation and — for
			// members first met over an inbound connection — its
			// dialable address, which mesh discovery passes on.
			if st := n.members[from]; st != nil {
				senderChanged := false
				if st.Addr == "" && m.Addr != "" {
					st.Addr = m.Addr
					senderChanged = true
				}
				if m.Incarnation > st.Incarnation {
					st.Incarnation = m.Incarnation
					senderChanged = true
				}
				if senderChanged {
					changed = true
					// Requeue so the address (or incarnation) just
					// learned replaces any address-less update still in
					// the delta queue — deltas snapshot the record at
					// enqueue time, and an address-less rumor cannot
					// seed mesh dials on the receiving side.
					n.enqueueUpdateLocked(st.wire())
				}
			}
			continue
		}
		st := n.members[m.ID]
		if st == nil {
			st = &memberState{Member: m}
			if st.State == StateSuspect || st.State == StateDead {
				st.suspectSince = now
				st.lossy = true
			}
			n.trackLocked(st)
			if n.cfg.Mesh {
				n.linkLocked(st)
			}
			n.metrics.GossipMerged++
			changed = true
			n.enqueueUpdateLocked(st.wire())
			continue
		}
		if st.Addr == "" && m.Addr != "" {
			st.Addr = m.Addr
			changed = true
			n.enqueueUpdateLocked(st.wire())
		}
		if n.cfg.Mesh {
			n.linkLocked(st)
		}
		// Fresh direct evidence outranks rumor: a member answering our
		// own pings is not dead, whatever the gossip says — it will
		// refute the rumor itself.
		if st.linkUp && st.awaiting == 0 && m.State != StateAlive {
			continue
		}
		if supersedes(m, st.Member) {
			if m.State == StateDead && st.State != StateDead {
				st.lossy = true
				st.linkUp = false
			}
			if m.State == StateSuspect && st.State == StateAlive {
				st.suspectSince = now
			}
			st.Incarnation = m.Incarnation
			st.State = m.State
			n.metrics.GossipMerged++
			changed = true
			n.enqueueUpdateLocked(st.wire())
		}
	}
	var snapshot []broker.MemberInfo
	if refute {
		n.metrics.GossipSent++
		snapshot = n.wireMembersLocked()
		n.metrics.ControlBytesSent += uint64(controlFrameSize(&broker.Message{Kind: broker.MsgGossip, Members: snapshot}))
	}
	n.mu.Unlock()

	if !refute {
		return nil, changed
	}
	return []broker.Outbound{{To: from, Msg: broker.Message{Kind: broker.MsgGossip, Members: snapshot}}}, changed
}

// antiEntropy answers a gossip-delta frame whose view hash does not
// match ours even though its deltas taught us nothing: some rumor
// exhausted its retransmit budget before reaching one of the two
// sides, so push our full map back (at most once per GossipEvery per
// peer). The peer's own delta frames arm the symmetric push toward
// us, which is what makes the repair converge regardless of which
// side is missing what.
func (n *Node) antiEntropy(from string, remoteHash uint64, now time.Time) (broker.Outbound, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.memberHashLocked() == remoteHash {
		return broker.Outbound{}, false
	}
	st := n.members[from]
	if st == nil || now.Sub(st.lastSyncReply) < n.cfg.GossipEvery {
		return broker.Outbound{}, false
	}
	st.lastSyncReply = now
	n.metrics.MemberSyncs++
	n.metrics.GossipSent++
	msg := broker.Message{Kind: broker.MsgGossip, Members: n.wireMembersLocked()}
	n.metrics.ControlBytesSent += uint64(controlFrameSize(&msg))
	return broker.Outbound{To: from, Msg: msg}, true
}

// run is the TCP-attached background loop: Tick on a real ticker.
func (n *Node) run() {
	defer n.wg.Done()
	//brokervet:allow clockcheck real-TCP attach path: the ticker only paces Tick calls; all time the logic sees still flows through cfg.Clock
	t := time.NewTicker(max(n.cfg.PingEvery/4, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.Tick()
		}
	}
}

// Close stops the background ticker (if any). It does not shut down
// the underlying broker; membership can be detached and re-attached
// around a broker's lifetime.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// String renders the member list compactly (diagnostics, examples).
func (n *Node) String() string {
	ms := n.Members()
	out := ""
	for i, m := range ms {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s@%d", m.ID, m.State, m.Incarnation)
	}
	return out
}

// ---------------------------------------------------------------------------
// Wire-size estimation: exact arithmetic mirror of the binary
// encoding of the control kinds, so traffic accounting costs no
// second encode pass. Kept in lockstep with pubsub's codec by
// TestControlFrameSizeMatchesCodec.

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func wireStringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func wireMembersLen(ms []broker.MemberInfo) int {
	sz := uvarintLen(uint64(len(ms)))
	for _, m := range ms {
		sz += wireStringLen(m.ID) + wireStringLen(m.Addr) + uvarintLen(m.Incarnation) + 1
	}
	return sz
}

// controlFrameSize estimates the on-wire bytes of a control frame
// under the binary codec: 6-byte header, kind byte, payload.
func controlFrameSize(msg *broker.Message) int {
	const hdr = 7
	switch msg.Kind {
	case broker.MsgPing, broker.MsgPong:
		sz := hdr + uvarintLen(msg.Seq)
		if len(msg.Members) > 0 {
			sz += wireMembersLen(msg.Members)
		}
		return sz
	case broker.MsgPingReq:
		return hdr + 1 + wireStringLen(msg.Target) + uvarintLen(msg.Seq) + wireMembersLen(msg.Members)
	case broker.MsgGossip, broker.MsgGossipDelta:
		sz := hdr + wireMembersLen(msg.Members)
		if msg.Kind == broker.MsgGossipDelta {
			sz += 8 // fixed member-view hash
		}
		if msg.Digest != nil {
			sz += 1 + uvarintLen(uint64(msg.Digest.Count)) + 8
		}
		return sz
	default:
		return hdr
	}
}
