// Package broker implements a content-based publish/subscribe broker
// as a pure state machine: messages in, messages out, no I/O. That
// makes brokers deterministic under the simulator (package simnet) and
// reusable behind the TCP transport (pubsub's TCP path).
//
// Routing follows the paper's Section 2: subscriptions flood the
// overlay with duplicate suppression (first arrival defines the
// reverse path), and each broker keeps one outgoing coverage table per
// neighbor so a subscription is forwarded to a neighbor only when the
// subscriptions already sent to that neighbor do not cover it — under
// the configured policy (flooding, pairwise, or the paper's
// probabilistic group coverage). Publications travel the reverse paths
// of matching subscriptions. Unsubscriptions promote covered
// subscriptions per Section 5.
package broker

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probsum/internal/match"
	"probsum/internal/obs"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// MsgKind enumerates protocol messages.
type MsgKind int

// Protocol message kinds.
const (
	// MsgSubscribe announces a subscription along the overlay.
	MsgSubscribe MsgKind = iota + 1
	// MsgUnsubscribe cancels a previously announced subscription.
	MsgUnsubscribe
	// MsgPublish carries a publication toward subscribers.
	MsgPublish
	// MsgNotify delivers a matched publication to a local client.
	MsgNotify
	// MsgSubscribeBatch announces an ordered burst of subscriptions
	// admitted into each per-neighbor coverage table as ONE batch call,
	// so within-burst coverage is found immediately (broad
	// subscriptions suppress the narrow ones arriving alongside them).
	MsgSubscribeBatch
	// MsgUnsubscribeBatch cancels a burst of subscriptions with one
	// shared promotion-cascade frontier per neighbor table.
	MsgUnsubscribeBatch
	// MsgPublishBatch carries a producer-side burst of publications in
	// one frame; the broker processes the run under a single shared-lock
	// acquisition (the wire-reader coalescing path, made deliberate) and
	// re-forwards the matching publications per neighbor as one batch.
	MsgPublishBatch
	// MsgPing probes a neighbor's liveness (cluster failure detector).
	// Control kinds are not routing traffic: the broker hands them to
	// the registered ControlHandler (the cluster membership layer) and
	// drops them silently when none is registered.
	MsgPing
	// MsgPong answers a ping, echoing its sequence number.
	MsgPong
	// MsgGossip carries an anti-entropy snapshot of the sender's member
	// list (cluster membership). It may piggyback a LinkDigest of the
	// subscriptions the sender believes this link carries; the
	// receiving broker compares it against what it actually
	// received and starts a sync exchange on mismatch.
	MsgGossip
	// MsgSyncRequest asks a neighbor to re-sync this link: the sender's
	// digest disagreed with the receiver's, and the frame carries the
	// receiver's per-bucket hashes so the neighbor can answer with only
	// the differing buckets.
	MsgSyncRequest
	// MsgSyncRoots answers a MsgSyncRequest: the roots the sender's
	// table holds in the differing buckets (Mask), admitted by the
	// receiver as ONE batch; received subscriptions in those buckets
	// that are absent from the frame are stale and garbage-collected.
	MsgSyncRoots
	// MsgPingReq is the SWIM indirect probe. With Ack unset
	// it asks the receiving relay to ping Target on the origin's
	// behalf; with Ack set it is the relay's answer back to the origin
	// confirming Target responded. Either direction may piggyback
	// membership deltas in Members.
	MsgPingReq
	// MsgGossipDelta carries a bounded batch of membership updates
	// instead of MsgGossip's full member-list snapshot. Like
	// MsgGossip it may piggyback a LinkDigest for subscription-set
	// reconciliation on the link.
	MsgGossipDelta
	// MsgRouteAnnounce routes a batch of subscriptions hop-by-hop
	// toward the rendezvous broker named in Target instead of flooding
	// them on every link. Each broker on the path installs the normal
	// reverse-path state and relays the uncovered subset one hop
	// closer; at the rendezvous the announce terminates.
	MsgRouteAnnounce
)

// String returns the message kind name.
func (k MsgKind) String() string {
	switch k {
	case MsgSubscribe:
		return "subscribe"
	case MsgUnsubscribe:
		return "unsubscribe"
	case MsgPublish:
		return "publish"
	case MsgNotify:
		return "notify"
	case MsgSubscribeBatch:
		return "subscribe-batch"
	case MsgUnsubscribeBatch:
		return "unsubscribe-batch"
	case MsgPublishBatch:
		return "publish-batch"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgGossip:
		return "gossip"
	case MsgSyncRequest:
		return "sync-request"
	case MsgSyncRoots:
		return "sync-roots"
	case MsgPingReq:
		return "ping-req"
	case MsgGossipDelta:
		return "gossip-delta"
	case MsgRouteAnnounce:
		return "route-announce"
	default:
		return "unknown"
	}
}

// IsControl reports whether k is an overlay-control kind (cluster
// ping/pong/gossip and the indirect-probe/delta-gossip kinds)
// rather than routing traffic. Control messages are dispatched to the
// ControlHandler and never touch coverage tables.
func (k MsgKind) IsControl() bool {
	switch k {
	case MsgPing, MsgPong, MsgGossip, MsgPingReq, MsgGossipDelta:
		return true
	}
	return false
}

// BatchSub pairs a subscription with its globally unique identifier
// inside a MsgSubscribeBatch burst.
type BatchSub struct {
	SubID string
	Sub   subscription.Subscription
}

// BatchPub pairs a publication with its globally unique identifier
// inside a MsgPublishBatch burst.
type BatchPub struct {
	PubID string
	Pub   subscription.Publication
}

// Member states carried in gossip frames. The numeric order matters:
// at equal incarnation the more severe state wins a merge.
const (
	MemberAlive   uint8 = 0
	MemberSuspect uint8 = 1
	MemberDead    uint8 = 2
)

// MemberInfo is one member-list entry of a MsgGossip frame: the wire
// form of the cluster layer's membership record.
type MemberInfo struct {
	ID          string
	Addr        string
	Incarnation uint64
	State       uint8
}

// Message is the single wire format exchanged between ports (neighbor
// brokers and local clients).
type Message struct {
	Kind MsgKind
	// SubID is the globally unique subscription identifier for
	// subscribe/unsubscribe; Notify echoes the matched subscription.
	SubID string
	// Sub is the subscription payload for MsgSubscribe.
	Sub subscription.Subscription
	// PubID uniquely identifies a publication for duplicate
	// suppression on cyclic overlays.
	PubID string
	// Pub is the publication payload for MsgPublish / MsgNotify.
	Pub subscription.Publication
	// Subs is the MsgSubscribeBatch payload, in arrival order.
	Subs []BatchSub
	// SubIDs is the MsgUnsubscribeBatch payload.
	SubIDs []string
	// Pubs is the MsgPublishBatch payload, in arrival order.
	Pubs []BatchPub
	// Seq is the MsgPing sequence number, echoed by MsgPong; for
	// MsgPingReq it is the origin's request sequence, echoed by the
	// relay's ack.
	Seq uint64
	// Members is the MsgGossip payload (the sender's full member
	// list), the MsgGossipDelta payload (a bounded update batch), or a
	// piggybacked delta batch on MsgPing/MsgPong/MsgPingReq.
	Members []MemberInfo
	// Target names the member a MsgPingReq asks a relay to probe (or,
	// on the ack, the member the relay confirmed alive).
	Target string
	// Ack marks a MsgPingReq as the relay's answer to the origin
	// rather than a probe request toward the relay.
	Ack bool
	// Digest optionally piggybacks on MsgGossip / MsgGossipDelta: the
	// sender's subscription-set digest for this link.
	Digest *LinkDigest
	// MemberHash is the MsgGossipDelta anti-entropy digest: an
	// order-independent hash of the sender's entire member view (never
	// zero on the wire). A receiver whose own view still hashes
	// differently after merging the frame's deltas answers with one
	// full snapshot — the completeness backstop that lets steady-state
	// dissemination stay delta-only without rumors starving on their
	// retransmit budgets.
	MemberHash uint64
	// Buckets is the MsgSyncRequest payload: the requester's
	// DigestBuckets per-bucket hashes of what it received on the link.
	Buckets []uint64
	// Mask marks which digest buckets a MsgSyncRoots frame re-syncs
	// (bit i set = bucket i's full root set is in Subs).
	Mask uint64
}

// Outbound pairs a message with its destination port.
type Outbound struct {
	To  string
	Msg Message
}

// Metrics counts broker activity; the evaluation experiments read
// these to compare coverage policies.
type Metrics struct {
	SubsReceived    int // subscribe messages processed (non-duplicate)
	SubsForwarded   int // subscribe messages sent to neighbors
	SubsSuppressed  int // per-neighbor forwards suppressed by coverage
	DupSubsDropped  int // duplicate subscription arrivals dropped
	UnsubsForwarded int
	PubsReceived    int
	PubsForwarded   int
	DupPubsDropped  int
	Notifications   int
	Promotions      int // covered subscriptions promoted after unsubscribe
	SyncRequests    int // digest mismatches that started a sync exchange
	SyncRootsResent int // roots re-sent while answering sync requests
	SyncStalePruned int // stale reverse-path entries pruned by sync
	ControlDropped  int // control frames dropped before reaching a peer
	RoutedSubs      int // client subscriptions routed toward rendezvous
	RouteForwards   int // route-announce forwards sent to neighbors
	RoutedPubs      int // publications forwarded toward their rendezvous
}

// Add accumulates another broker's counters into m — the one
// summation used by every consumer that aggregates over brokers
// (simulator totals, transport settling, examples).
func (m *Metrics) Add(o Metrics) {
	m.SubsReceived += o.SubsReceived
	m.SubsForwarded += o.SubsForwarded
	m.SubsSuppressed += o.SubsSuppressed
	m.DupSubsDropped += o.DupSubsDropped
	m.UnsubsForwarded += o.UnsubsForwarded
	m.PubsReceived += o.PubsReceived
	m.PubsForwarded += o.PubsForwarded
	m.DupPubsDropped += o.DupPubsDropped
	m.Notifications += o.Notifications
	m.Promotions += o.Promotions
	m.SyncRequests += o.SyncRequests
	m.SyncRootsResent += o.SyncRootsResent
	m.SyncStalePruned += o.SyncStalePruned
	m.ControlDropped += o.ControlDropped
	m.RoutedSubs += o.RoutedSubs
	m.RouteForwards += o.RouteForwards
	m.RoutedPubs += o.RoutedPubs
}

// counters is the internal, atomically updated form of Metrics, so the
// publish path can count under the shared (read) lock.
type counters struct {
	subsReceived    atomic.Int64
	subsForwarded   atomic.Int64
	subsSuppressed  atomic.Int64
	dupSubsDropped  atomic.Int64
	unsubsForwarded atomic.Int64
	pubsReceived    atomic.Int64
	pubsForwarded   atomic.Int64
	dupPubsDropped  atomic.Int64
	notifications   atomic.Int64
	promotions      atomic.Int64
	syncRequests    atomic.Int64
	syncRootsResent atomic.Int64
	syncStalePruned atomic.Int64
	controlDropped  atomic.Int64
	routedSubs      atomic.Int64
	routeForwards   atomic.Int64
	routedPubs      atomic.Int64
}

// snapshot converts the counters to the public Metrics form.
func (c *counters) snapshot() Metrics {
	return Metrics{
		SubsReceived:    int(c.subsReceived.Load()),
		SubsForwarded:   int(c.subsForwarded.Load()),
		SubsSuppressed:  int(c.subsSuppressed.Load()),
		DupSubsDropped:  int(c.dupSubsDropped.Load()),
		UnsubsForwarded: int(c.unsubsForwarded.Load()),
		PubsReceived:    int(c.pubsReceived.Load()),
		PubsForwarded:   int(c.pubsForwarded.Load()),
		DupPubsDropped:  int(c.dupPubsDropped.Load()),
		Notifications:   int(c.notifications.Load()),
		Promotions:      int(c.promotions.Load()),
		SyncRequests:    int(c.syncRequests.Load()),
		SyncRootsResent: int(c.syncRootsResent.Load()),
		SyncStalePruned: int(c.syncStalePruned.Load()),
		ControlDropped:  int(c.controlDropped.Load()),
		RoutedSubs:      int(c.routedSubs.Load()),
		RouteForwards:   int(c.routeForwards.Load()),
		RoutedPubs:      int(c.routedPubs.Load()),
	}
}

// Option configures a Broker.
type Option func(*Broker)

// WithSeed sets the base seed mixed with the broker and neighbor
// identities so every per-neighbor coverage table gets an independent,
// reproducible checker stream under store.PolicyGroup (default 1).
//
// Each coverage table owns its checker instance outright — this is a
// deliberate design point, not an accident of construction: a Checker
// carries a non-thread-safe random stream plus the reusable
// zero-allocation scratch of the hot path, so sharing one across
// tables (or across the transports that drive different brokers
// concurrently) would race on both. Callers that multiplex many
// short-lived checks across goroutines should use core.CheckerPool
// instead of reaching into a broker's tables.
func WithSeed(seed uint64) Option {
	return func(b *Broker) { b.seed = seed }
}

// WithDedupLimit bounds the publication-deduplication memory: the
// broker remembers at least the last n distinct publication IDs (and
// at most ~2n, see pubDedup). The default is 65536. Publications
// re-arriving after more than the horizon of newer distinct
// publications may be processed again — the same at-least-once
// tolerance the protocol already has for lossy links, traded here for
// a memory bound on long-running brokers.
func WithDedupLimit(n int) Option {
	return func(b *Broker) {
		if n > 0 {
			b.dedupLimit = n
		}
	}
}

// WithTableOptions appends subsume table options applied to every
// per-neighbor coverage table — error probability, trial cap,
// candidate-pruning ablation, and so on (pubsub.Config converts to
// exactly these). The broker's per-neighbor checker seed is applied
// after them, so a WithSeed among the checker options is overridden
// to keep table streams independent.
func WithTableOptions(opts ...subsume.TableOption) Option {
	return func(b *Broker) { b.tableOpts = append(b.tableOpts, opts...) }
}

// Broker is a single node of the overlay.
//
// Concurrency: Handle serializes subscription-state changes (subscribe
// and unsubscribe take an exclusive lock) but lets publications run
// concurrently — handlePublish only reads the routing state, matching
// through the concurrency-safe per-port ITreeIndex, deduplicating
// through a bounded atomic generation ring and counting through
// atomic metrics. Driven
// from a single goroutine (the simulator) the broker behaves exactly
// as before: all locks are uncontended and every decision sequence is
// deterministic. Driven from the TCP transport's per-connection
// goroutines, publish matching parallelizes across connections while
// coverage-table admission stays ordered per port.
type Broker struct {
	id        string
	policy    store.Policy
	seed      uint64
	tableOpts []subsume.TableOption

	// mu guards the routing state below: exclusive for subscribe /
	// unsubscribe / topology changes, shared for publish.
	mu sync.RWMutex

	// +guarded_by:mu
	neighbors map[string]bool
	// +guarded_by:mu
	clients map[string]bool

	// out holds one coverage table per neighbor: the subscriptions this
	// broker has forwarded to that neighbor, reduced under the policy.
	// +guarded_by:mu
	out map[string]*subsume.Table
	// outIDs maps subscription IDs to per-broker numeric IDs; idToSub
	// is its inverse, used when promotions must be re-announced.
	// +guarded_by:mu
	outIDs map[string]subsume.ID
	// +guarded_by:mu
	idToSub map[subsume.ID]string
	// +guarded_by:mu
	nextID subsume.ID

	// in records, per port, the subscriptions received from that port:
	// the reverse-path routing table.
	// +guarded_by:mu
	in map[string]map[string]subscription.Subscription
	// matchers indexes each port's reverse-path table with the
	// interval-tree matcher, so handlePublish runs stabbing queries
	// instead of a linear scan per publication.
	// +guarded_by:mu
	matchers map[string]*match.ITreeIndex
	// source records the first-arrival port of each known subscription.
	// +guarded_by:mu
	source map[string]string
	// recv records, per NEIGHBOR port, every live subscription ID that
	// arrived over it — including duplicate copies the first-arrival
	// rule dropped from routing. This is the receiver's ground truth
	// for the digest reconciliation protocol: the sender digests the
	// active set of its outgoing table for the link, the receiver
	// digests recv, and a mismatch starts an anti-entropy exchange
	// (see digest.go).
	// +guarded_by:mu
	recv map[string]map[string]bool

	// routeOut holds the routed counterpart of out: per neighbor, per
	// rendezvous target, the coverage table of subscriptions forwarded
	// to that neighbor toward that target (see route.go). Subscriptions
	// bound for different rendezvous never suppress each other.
	// +guarded_by:mu
	routeOut map[string]map[string]*subsume.Table
	// routeFwd records, per routed subscription, the forwarding
	// decision taken per rendezvous target: the neighbor the announce
	// went to, or "" when it terminated here or degraded to flood.
	// +guarded_by:mu
	routeFwd map[string]map[string]string
	// router, when attached, supplies rendezvous routing decisions.
	// Atomic because the publish path consults it under the shared
	// lock. Nil means flood mode — the pre-routing behavior and the
	// rollback knob.
	router atomic.Pointer[Router]

	// seenPubs deduplicates publications on cyclic overlays. It is a
	// bounded generation ring (see pubDedup) so long-running brokers
	// do not grow memory without limit; lookups and inserts run under
	// the shared lock, racing on atomics instead of b.mu.
	dedupLimit int
	seenPubs   pubDedup

	// journal, when attached, records every state-changing arrival so a
	// restarted broker can replay itself back (see Journal). Stored as
	// an atomic pointer because the publish path records first-seen
	// publication IDs under the shared lock.
	journal atomic.Pointer[Journal]

	// control dispatches overlay-control messages (ping/pong/gossip)
	// to the cluster membership layer, outside the routing state and
	// its locks. Nil when no cluster layer is attached; control frames
	// are then dropped, so a broker without membership tolerates a
	// misdirected gossip instead of killing the link.
	control atomic.Pointer[ControlHandler]

	// pubObs, when attached, times the broker-side publish stages
	// (matching, routing) into observability histograms. Atomic because
	// the publish path reads it under the shared lock; nil (the
	// default) keeps the path free of clock reads entirely.
	pubObs atomic.Pointer[PublishObserver]

	metrics counters
}

// ControlHandler processes one overlay-control message from a port and
// returns the messages to emit (e.g. the pong answering a ping). It is
// called from Handle without any broker lock held and must be safe for
// concurrent callers.
type ControlHandler func(from string, msg Message) []Outbound

// SetControlHandler registers the cluster layer's control dispatcher.
// Pass nil to detach; control frames are then dropped again.
func (b *Broker) SetControlHandler(h ControlHandler) {
	if h == nil {
		b.control.Store(nil)
		return
	}
	b.control.Store(&h)
}

// PublishObserver times the broker-side stages of the publish path:
// matching (interval-tree stabbing plus neighbor reverse-path scan)
// and routing (rendezvous forwarding). The clock is injected so
// simulated harnesses time with simulated clocks and the broker stays
// clockcheck-clean; both histograms and the clock must be non-nil.
// Observation is two clock reads and two atomic adds per publication
// — zero allocations (pinned by TestPublishObserverZeroAlloc).
type PublishObserver struct {
	Clock func() time.Time
	Match *obs.Histogram
	Route *obs.Histogram
}

// SetPublishObserver attaches stage timing to the publish path. Pass
// nil to detach (publishes then skip the clock entirely).
func (b *Broker) SetPublishObserver(o *PublishObserver) {
	if o == nil {
		b.pubObs.Store(nil)
		return
	}
	if o.Clock == nil || o.Match == nil || o.Route == nil {
		panic("broker: PublishObserver needs Clock, Match, and Route")
	}
	b.pubObs.Store(o)
}

// pubDedup is a bounded duplicate-suppression set: two sync.Map
// generations of at most limit entries each. Inserts go to the
// current generation; when it fills, the previous generation is
// dropped and the current one takes its place. An ID is a duplicate
// when either generation holds it, so the horizon — the number of
// newer distinct IDs after which a repeat can slip through — is at
// least limit and the memory bound is ~2·limit entries. Concurrent
// inserts during a rotation can land in the generation that just
// became previous; they stay findable, and the one-rotation-at-a-time
// mutex keeps the bound intact.
type pubDedup struct {
	limit int64
	mu    sync.Mutex // serializes rotation, not lookups
	// gens is read lock-free on the publish path; mu serializes the
	// generation swap in rotate.
	// +guarded_by:mu (writes)
	gens atomic.Pointer[dedupGens]
}

type dedupGens struct {
	cur  *dedupGen
	prev *dedupGen
}

type dedupGen struct {
	m sync.Map
	n atomic.Int64
}

func (d *pubDedup) init(limit int) {
	d.limit = int64(limit)
	//brokervet:allow lockcheck constructor path: the broker is not shared yet
	d.gens.Store(&dedupGens{cur: &dedupGen{}, prev: &dedupGen{}})
}

// seen records id and reports whether it was already known.
func (d *pubDedup) seen(id string) bool {
	g := d.gens.Load()
	if _, ok := g.prev.m.Load(id); ok {
		// Refresh a previous-generation hit into the current generation.
		// Without this, an ID re-sighted just before its generation
		// rotates away is dropped with it — the documented at-least-limit
		// horizon from the LAST sighting would shrink to as little as one
		// newer distinct ID when the current generation sits at the
		// rotation boundary.
		if _, loaded := g.cur.m.LoadOrStore(id, struct{}{}); !loaded {
			if g.cur.n.Add(1) >= d.limit {
				d.rotate(g)
			}
		}
		return true
	}
	if _, loaded := g.cur.m.LoadOrStore(id, struct{}{}); loaded {
		return true
	}
	if g.cur.n.Add(1) >= d.limit {
		d.rotate(g)
	}
	return false
}

// rotate retires the previous generation. Only the first caller that
// observed the full generation rotates; latecomers see the new
// pointer and return.
func (d *pubDedup) rotate(old *dedupGens) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gens.Load() != old {
		return
	}
	d.gens.Store(&dedupGens{cur: &dedupGen{}, prev: old.cur})
}

// size counts the tracked IDs across both generations (test hook for
// the memory bound).
func (d *pubDedup) size() int {
	g := d.gens.Load()
	n := 0
	for _, gen := range []*dedupGen{g.cur, g.prev} {
		gen.m.Range(func(any, any) bool { n++; return true })
	}
	return n
}

// New creates a broker. Policy selects subscription-forwarding
// reduction; see store.Policy.
func New(id string, policy store.Policy, opts ...Option) (*Broker, error) {
	if id == "" {
		return nil, fmt.Errorf("broker: empty id")
	}
	b := &Broker{
		id:         id,
		policy:     policy,
		seed:       1,
		dedupLimit: 65536,
		neighbors:  make(map[string]bool),
		clients:    make(map[string]bool),
		out:        make(map[string]*subsume.Table),
		outIDs:     make(map[string]subsume.ID),
		idToSub:    make(map[subsume.ID]string),
		in:         make(map[string]map[string]subscription.Subscription),
		matchers:   make(map[string]*match.ITreeIndex),
		source:     make(map[string]string),
		recv:       make(map[string]map[string]bool),
		routeOut:   make(map[string]map[string]*subsume.Table),
		routeFwd:   make(map[string]map[string]string),
	}
	for _, opt := range opts {
		opt(b)
	}
	b.seenPubs.init(b.dedupLimit)
	return b, nil
}

// tablePolicy converts the store-level policy to the public one.
func tablePolicy(p store.Policy) (subsume.Policy, error) {
	switch p {
	case store.PolicyNone:
		return subsume.Flood, nil
	case store.PolicyPairwise:
		return subsume.Pairwise, nil
	case store.PolicyGroup:
		return subsume.Group, nil
	default:
		return 0, fmt.Errorf("invalid policy %d", p)
	}
}

// ID returns the broker identifier.
func (b *Broker) ID() string { return b.id }

// Metrics returns a copy of the activity counters.
func (b *Broker) Metrics() Metrics { return b.metrics.snapshot() }

// NeighborTableMetrics returns the coverage-table operation counters
// for one neighbor port — how the subscriptions forwarded to that
// neighbor were admitted (per-item vs batch, suppressed, promoted).
// Tests use it to assert that wire bursts reach batch admission as
// single calls; operators can read it to size per-link routing state.
func (b *Broker) NeighborTableMetrics(id string) (subsume.TableMetrics, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.out[id]
	if !ok {
		return subsume.TableMetrics{}, false
	}
	return t.Metrics(), true
}

// CheckerStats sums the checker accounting of every coverage table
// the broker keeps — one per neighbor plus one per routed (neighbor,
// rendezvous) pair; tables are never dropped, so the sums only grow.
// It is what an operator reads to see whether δ is being honoured:
// decisions by reason, RSPC trials, capped probabilistic answers,
// candidate rows, and re-checks per removal.
func (b *Broker) CheckerStats() store.CheckerStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var sum store.CheckerStats
	for _, t := range b.out {
		sum.Add(t.Metrics().Checker)
	}
	for _, byTarget := range b.routeOut {
		for _, t := range byTarget {
			sum.Add(t.Metrics().Checker)
		}
	}
	return sum
}

// dedupSize reports the tracked publication-ID count (test hook for
// the WithDedupLimit memory bound).
func (b *Broker) dedupSize() int { return b.seenPubs.size() }

// Neighbors returns the connected neighbor ports, sorted.
func (b *Broker) Neighbors() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sortedKeys(b.neighbors)
}

// Clients returns the attached client ports, sorted.
func (b *Broker) Clients() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sortedKeys(b.clients)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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

// ConnectNeighbor registers a neighbor port and creates its outgoing
// coverage table through the public subsume.Table API. The
// per-neighbor checker seed is applied after any caller-supplied table
// options, so every table keeps an independent, reproducible stream
// (see WithSeed).
func (b *Broker) ConnectNeighbor(id string) error {
	if id == b.id {
		return fmt.Errorf("broker %s: cannot neighbor itself", b.id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.neighbors[id] {
		return nil
	}
	policy, err := tablePolicy(b.policy)
	if err != nil {
		return fmt.Errorf("broker %s: neighbor %s: %w", b.id, id, err)
	}
	// Caller options first; the per-neighbor seed comes after so it
	// always wins — independent checker streams are a broker
	// invariant, not a knob.
	opts := slices.Clone(b.tableOpts)
	if b.policy == store.PolicyGroup {
		opts = append(opts, subsume.WithTableChecker(
			subsume.WithSeed(b.seed^fnv1a(b.id), fnv1a(id)|1),
		))
	}
	tbl, err := subsume.NewTable(policy, opts...)
	if err != nil {
		return fmt.Errorf("broker %s: neighbor %s: %w", b.id, id, err)
	}
	// Backfill: admit every subscription already known from OTHER
	// ports, exactly as if it arrived now that the link exists. This
	// keeps the invariant that every neighbor table holds every
	// non-duplicate subscription (active or covered) regardless of
	// when the link formed — a broker that gains a neighbor mid-life
	// (cluster healing, late joins) then has a correct root set for
	// the transport to synchronize over the new link (see
	// NeighborRoots). One batch call, ascending-ID order, so the
	// admission is deterministic and coverage within the backfill is
	// found immediately.
	ids := make([]subsume.ID, 0, len(b.source))
	for subID, src := range b.source {
		if src == id {
			continue
		}
		if sid, ok := b.outIDs[subID]; ok {
			ids = append(ids, sid)
		}
	}
	if len(ids) > 0 {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		subs := make([]subscription.Subscription, len(ids))
		for i, sid := range ids {
			subs[i] = b.in[b.source[b.idToSub[sid]]][b.idToSub[sid]]
		}
		if _, err := tbl.SubscribeBatch(ids, subs); err != nil {
			return fmt.Errorf("broker %s: neighbor %s backfill: %w", b.id, id, err)
		}
	}
	b.neighbors[id] = true
	b.out[id] = tbl
	if j := b.journal.Load(); j != nil {
		(*j).RecordAttach(id, false)
	}
	return nil
}

// AttachClient registers a local client port. Attaching an already
// attached client is a no-op, so a reconnecting TCP client keeps its
// reverse-path state.
func (b *Broker) AttachClient(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fresh := !b.clients[id]
	b.clients[id] = true
	if b.in[id] == nil {
		b.in[id] = make(map[string]subscription.Subscription)
	}
	if fresh {
		if j := b.journal.Load(); j != nil {
			(*j).RecordAttach(id, true)
		}
	}
}

// Handle processes one message arriving on port from and returns the
// messages to emit. It is the broker's entire behavior. Subscribe and
// unsubscribe are mutually exclusive; publishes from different callers
// run concurrently (see the type comment).
func (b *Broker) Handle(from string, msg Message) ([]Outbound, error) {
	switch msg.Kind {
	case MsgSubscribe, MsgUnsubscribe, MsgSubscribeBatch, MsgUnsubscribeBatch, MsgSyncRoots, MsgRouteAnnounce:
		// State-changing kinds: handled under the exclusive lock and —
		// on success — journaled inside the same critical section, so
		// the journal's record order is exactly the application order.
		b.mu.Lock()
		defer b.mu.Unlock()
		var out []Outbound
		var err error
		switch msg.Kind {
		case MsgSubscribe:
			out, err = b.handleSubscribe(from, msg)
		case MsgUnsubscribe:
			out, err = b.handleUnsubscribe(from, msg)
		case MsgSubscribeBatch:
			out, err = b.handleSubscribeBatch(from, msg)
		case MsgUnsubscribeBatch:
			out, err = b.handleUnsubscribeBatch(from, msg)
		case MsgSyncRoots:
			out, err = b.handleSyncRoots(from, msg)
		case MsgRouteAnnounce:
			out, err = b.handleRouteAnnounce(from, msg)
		}
		if err == nil {
			if j := b.journal.Load(); j != nil {
				(*j).RecordMessage(from, &msg)
			}
		}
		return out, err
	case MsgPublish:
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.handlePublish(from, msg)
	case MsgPublishBatch:
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.handlePublishBatchMsg(from, msg)
	case MsgSyncRequest:
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.handleSyncRequest(from, msg)
	case MsgPing, MsgPong, MsgGossip, MsgPingReq, MsgGossipDelta:
		var out []Outbound
		if (msg.Kind == MsgGossip || msg.Kind == MsgGossipDelta) && msg.Digest != nil {
			// Digest reconciliation is broker state, not membership:
			// check it here so links converge even when no cluster
			// layer is attached to consume the gossip itself.
			out = b.checkLinkDigest(from, *msg.Digest)
		}
		if h := b.control.Load(); h != nil {
			out = append(out, (*h)(from, msg)...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("broker %s: unexpected message kind %v from %s", b.id, msg.Kind, from)
	}
}

// HandlePublishBatch processes a run of MsgPublish messages arriving
// back-to-back on one port under a SINGLE shared-lock acquisition —
// the wire readers coalesce queued publish frames into one call so a
// high-rate connection pays the RWMutex once per run instead of once
// per frame. Outputs are the concatenation of the per-message outputs
// in input order, so per-destination delivery order is exactly what a
// per-message loop would produce.
func (b *Broker) HandlePublishBatch(from string, msgs []Message) ([]Outbound, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Outbound
	for i := range msgs {
		if msgs[i].Kind != MsgPublish {
			return out, fmt.Errorf("broker %s: non-publish kind %v in publish batch from %s", b.id, msgs[i].Kind, from)
		}
		o, err := b.handlePublish(from, msgs[i])
		if err != nil {
			return out, err
		}
		out = append(out, o...)
	}
	return out, nil
}

// storeID returns (allocating if needed) the numeric per-broker ID for
// a subscription identifier.
//
// +mustlock:mu
func (b *Broker) storeID(subID string) subsume.ID {
	if id, ok := b.outIDs[subID]; ok {
		return id
	}
	b.nextID++
	b.outIDs[subID] = b.nextID
	b.idToSub[b.nextID] = subID
	return b.nextID
}

// matcher returns (creating if needed) the reverse-path matcher for a
// port.
//
// +mustlock:mu
func (b *Broker) matcher(port string) *match.ITreeIndex {
	m := b.matchers[port]
	if m == nil {
		m = match.NewITreeIndex()
		b.matchers[port] = m
	}
	return m
}

// handleSubscribe admits one subscription, installing its reverse
// path and forwarding it to uncovered neighbors.
//
// +mustlock:mu
func (b *Broker) handleSubscribe(from string, msg Message) ([]Outbound, error) {
	if msg.SubID == "" {
		return nil, fmt.Errorf("broker %s: subscribe without SubID", b.id)
	}
	if _, seen := b.source[msg.SubID]; seen {
		// Duplicate arrival over a cycle: the first arrival defined
		// the forwarding tree, so the re-flood is dropped — but the
		// announcing port is still a valid reverse path and MUST be
		// recorded (see recordDupPathLocked), and the link digest
		// still balances.
		b.recvAdd(from, msg.SubID)
		b.recordDupPathLocked(from, msg.SubID, msg.Sub)
		b.metrics.dupSubsDropped.Add(1)
		return nil, nil
	}
	b.metrics.subsReceived.Add(1)
	b.source[msg.SubID] = from
	b.recvAdd(from, msg.SubID)
	if b.in[from] == nil {
		b.in[from] = make(map[string]subscription.Subscription)
	}
	b.in[from][msg.SubID] = msg.Sub

	id := b.storeID(msg.SubID)
	b.matcher(from).Add(match.ID(id), msg.Sub)
	// Routed path first: with a router attached, a client subscription
	// travels toward its rendezvous brokers instead of every link. A
	// declined route (no router, relayed arrival, unroutable target)
	// falls through to the flood below.
	if outs, routed, err := b.routeSubLocked(from, msg.SubID, msg.Sub); routed || err != nil {
		return outs, err
	}
	var out []Outbound
	for _, n := range sortedKeys(b.neighbors) {
		if n == from {
			continue
		}
		res, err := b.out[n].Subscribe(id, msg.Sub)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		if res.Status == store.StatusActive {
			b.metrics.subsForwarded.Add(1)
			out = append(out, Outbound{To: n, Msg: msg})
		} else {
			b.metrics.subsSuppressed.Add(1)
		}
	}
	return out, nil
}

// recordDupPathLocked registers a duplicate subscription announcement
// from a neighbor port in the reverse-path state: the port announced
// the subscription, so matching publications arriving here must be
// forwarded toward it even though the re-flood itself is dropped. On
// a cyclic overlay each subscription's announcements form a
// first-arrival tree, and when a broker suppresses a covered client
// subscription it relies on the covering roots it announced pulling
// publications back in — announcements that land at the neighbors as
// exactly these duplicates. Dropping them without recording the port
// severs that gradient and silently loses deliveries to any covered
// subscription off the covering root's own tree (caught at n=200 by
// the scale harness's flood-vs-routed delivery gate).
//
// +mustlock:mu
func (b *Broker) recordDupPathLocked(from, subID string, sub subscription.Subscription) {
	if !b.neighbors[from] || b.source[subID] == from {
		return
	}
	if b.in[from] == nil {
		b.in[from] = make(map[string]subscription.Subscription)
	}
	if _, ok := b.in[from][subID]; ok {
		return
	}
	b.in[from][subID] = sub
	b.matcher(from).Add(match.ID(b.storeID(subID)), sub)
}

// dropPathLocked removes one port's reverse-path registration of a
// subscription, if present — the inverse of recordDupPathLocked,
// applied when the port cancels its copy or a digest sync declares it
// stale.
//
// +mustlock:mu
func (b *Broker) dropPathLocked(port, subID string) {
	set := b.in[port]
	if set == nil {
		return
	}
	if _, ok := set[subID]; !ok {
		return
	}
	delete(set, subID)
	if id, ok := b.outIDs[subID]; ok {
		b.matcher(port).Remove(match.ID(id))
	}
}

// dropAllPathsLocked removes every port's reverse-path registration of
// a subscription (full cancellation along the owning tree). Must run
// before the subID→ID mappings are deleted.
//
// +mustlock:mu
func (b *Broker) dropAllPathsLocked(subID string) {
	for port := range b.in {
		b.dropPathLocked(port, subID)
	}
}

// handleUnsubscribe cancels one subscription and late-forwards the
// promotions its removal uncovered.
//
// +mustlock:mu
func (b *Broker) handleUnsubscribe(from string, msg Message) ([]Outbound, error) {
	// Whatever the routing outcome, the sending port no longer carries
	// this subscription: balance the link digest first.
	b.recvDel(from, msg.SubID)
	src, known := b.source[msg.SubID]
	if !known {
		return nil, nil // unsubscribe for an unknown subscription
	}
	if src != from {
		// Unsubscriptions follow the same tree as the subscription;
		// copies arriving over other links only retire that port's
		// duplicate reverse path.
		b.dropPathLocked(from, msg.SubID)
		return nil, nil
	}
	delete(b.source, msg.SubID)
	b.recvDelAll(msg.SubID)

	id, ok := b.outIDs[msg.SubID]
	if !ok {
		delete(b.in[from], msg.SubID)
		return nil, nil
	}
	b.dropAllPathsLocked(msg.SubID)
	delete(b.outIDs, msg.SubID)
	delete(b.idToSub, id)

	// Tear down the routed forwarding state first: the cancellation
	// follows the announce path toward each rendezvous (see route.go).
	out, err := b.routeUnsubLocked(msg.SubID, id)
	if err != nil {
		return nil, err
	}
	for _, n := range sortedKeys(b.neighbors) {
		if n == from {
			continue
		}
		res, err := b.out[n].Unsubscribe(id)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		if !res.Existed {
			continue
		}
		if res.WasActive {
			// The neighbor knew this subscription: propagate the
			// cancellation.
			b.metrics.unsubsForwarded.Add(1)
			out = append(out, Outbound{To: n, Msg: msg})
		}
		// Late-forward promoted subscriptions: they were suppressed
		// while covered and must now reach the neighbor (Section 5).
		for _, pid := range res.Promoted {
			sub, _, found := b.out[n].Get(pid)
			if !found {
				continue
			}
			subID := b.idToSub[pid]
			if subID == "" {
				continue
			}
			b.metrics.promotions.Add(1)
			b.metrics.subsForwarded.Add(1)
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgSubscribe, SubID: subID, Sub: sub}})
		}
	}
	return out, nil
}

// handleSubscribeBatch admits a subscription burst. Per neighbor the
// whole burst goes through ONE Table.SubscribeBatch call — within-
// burst coverage is found immediately, so a broad subscription
// suppresses the narrow ones arriving alongside it — and the items
// admitted active for that neighbor are forwarded as ONE
// MsgSubscribeBatch, keeping the burst batched end to end across the
// overlay. Duplicate arrivals (cycle copies, or repeats within the
// burst) are dropped exactly as on the per-item path.
//
// +mustlock:mu
func (b *Broker) handleSubscribeBatch(from string, msg Message) ([]Outbound, error) {
	// Validate before mutating anything: the wire is untrusted, and a
	// mid-loop abort would leave earlier items registered in the
	// reverse-path state but never admitted or forwarded. (The
	// coverage tables also reject unsatisfiable boxes, but only after
	// this handler has touched state — catch them here first.)
	for _, it := range msg.Subs {
		if it.SubID == "" {
			return nil, fmt.Errorf("broker %s: subscribe batch item without SubID", b.id)
		}
		if !it.Sub.IsSatisfiable() {
			return nil, fmt.Errorf("broker %s: subscribe batch item %s is unsatisfiable", b.id, it.SubID)
		}
	}
	fresh := make([]BatchSub, 0, len(msg.Subs))
	for _, it := range msg.Subs {
		b.recvAdd(from, it.SubID)
		if _, seen := b.source[it.SubID]; seen {
			b.recordDupPathLocked(from, it.SubID, it.Sub)
			b.metrics.dupSubsDropped.Add(1)
			continue
		}
		b.metrics.subsReceived.Add(1)
		b.source[it.SubID] = from
		if b.in[from] == nil {
			b.in[from] = make(map[string]subscription.Subscription)
		}
		b.in[from][it.SubID] = it.Sub
		b.matcher(from).Add(match.ID(b.storeID(it.SubID)), it.Sub)
		fresh = append(fresh, it)
	}
	if len(fresh) == 0 {
		return nil, nil
	}
	// Routed path first (see handleSubscribe): routable items leave as
	// route announces, the rest flood as one batch per neighbor.
	out, fresh, err := b.routeSubBatchLocked(from, fresh)
	if err != nil {
		return nil, err
	}
	if len(fresh) == 0 {
		return out, nil
	}
	ids := make([]subsume.ID, len(fresh))
	subs := make([]subscription.Subscription, len(fresh))
	for i, it := range fresh {
		ids[i] = b.outIDs[it.SubID]
		subs[i] = it.Sub
	}
	for _, n := range sortedKeys(b.neighbors) {
		if n == from {
			continue
		}
		results, err := b.out[n].SubscribeBatch(ids, subs)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		fwd := make([]BatchSub, 0, len(fresh))
		for i, res := range results {
			if res.Status == store.StatusActive {
				fwd = append(fwd, fresh[i])
			}
		}
		b.metrics.subsForwarded.Add(int64(len(fwd)))
		b.metrics.subsSuppressed.Add(int64(len(fresh) - len(fwd)))
		if len(fwd) > 0 {
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgSubscribeBatch, Subs: fwd}})
		}
	}
	return out, nil
}

// handleUnsubscribeBatch cancels a burst. Per neighbor the removal
// runs through ONE Table.UnsubscribeBatch call (one shared
// promotion-cascade frontier), the subscriptions that neighbor knew
// are forwarded as ONE MsgUnsubscribeBatch, and the promotions the
// burst caused are late-forwarded as ONE MsgSubscribeBatch.
//
// +mustlock:mu
func (b *Broker) handleUnsubscribeBatch(from string, msg Message) ([]Outbound, error) {
	subIDs := make([]string, 0, len(msg.SubIDs))
	ids := make([]subsume.ID, 0, len(msg.SubIDs))
	for _, subID := range msg.SubIDs {
		b.recvDel(from, subID)
		src, known := b.source[subID]
		if !known || src != from {
			// Unknown cancellations are dropped; copies arriving over
			// other links retire that port's duplicate reverse path,
			// as on the per-item path.
			if known {
				b.dropPathLocked(from, subID)
			}
			continue
		}
		id, ok := b.outIDs[subID]
		if !ok {
			continue
		}
		delete(b.source, subID)
		b.recvDelAll(subID)
		b.dropAllPathsLocked(subID)
		delete(b.outIDs, subID)
		delete(b.idToSub, id)
		subIDs = append(subIDs, subID)
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, nil
	}
	var out []Outbound
	// Routed teardown first, per item (see route.go).
	for i, subID := range subIDs {
		o, err := b.routeUnsubLocked(subID, ids[i])
		if err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	for _, n := range sortedKeys(b.neighbors) {
		if n == from {
			continue
		}
		tbl := b.out[n]
		// The neighbor must see the cancellation of exactly the
		// subscriptions it was sent — the ones active in its table
		// before the removal.
		fwd := make([]string, 0, len(ids))
		for i, id := range ids {
			if _, status, ok := tbl.Get(id); ok && status == store.StatusActive {
				fwd = append(fwd, subIDs[i])
			}
		}
		res, err := tbl.UnsubscribeBatch(ids)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		if len(fwd) > 0 {
			b.metrics.unsubsForwarded.Add(int64(len(fwd)))
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgUnsubscribeBatch, SubIDs: fwd}})
		}
		// Late-forward promoted subscriptions (Section 5), batched.
		promoted := make([]BatchSub, 0, len(res.Promoted))
		for _, pid := range res.Promoted {
			sub, _, found := tbl.Get(pid)
			if !found {
				continue
			}
			subID := b.idToSub[pid]
			if subID == "" {
				continue
			}
			b.metrics.promotions.Add(1)
			b.metrics.subsForwarded.Add(1)
			promoted = append(promoted, BatchSub{SubID: subID, Sub: sub})
		}
		if len(promoted) > 0 {
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgSubscribeBatch, Subs: promoted}})
		}
	}
	return out, nil
}

// handlePublishBatchMsg processes a deliberate producer-side
// publication burst (MsgPublishBatch) under the SHARED lock already
// held by Handle — one lock acquisition for the whole frame, the
// wire-reader coalescing path made deliberate. Each item runs the
// per-publication path (dedup, local delivery, reverse-path matching);
// forwards are re-grouped into ONE MsgPublishBatch per neighbor,
// preserving arrival order, so the burst stays batched end to end
// across the overlay.
//
// +mustlock:mu (shared)
func (b *Broker) handlePublishBatchMsg(from string, msg Message) ([]Outbound, error) {
	var out []Outbound
	var fwd map[string][]BatchPub
	for i := range msg.Pubs {
		it := &msg.Pubs[i]
		o, err := b.handlePublish(from, Message{Kind: MsgPublish, PubID: it.PubID, Pub: it.Pub})
		if err != nil {
			return out, fmt.Errorf("broker %s: publish batch item %d: %w", b.id, i, err)
		}
		for _, ob := range o {
			if ob.Msg.Kind == MsgPublish && b.neighbors[ob.To] {
				if fwd == nil {
					fwd = make(map[string][]BatchPub)
				}
				fwd[ob.To] = append(fwd[ob.To], BatchPub{PubID: it.PubID, Pub: it.Pub})
			} else {
				out = append(out, ob)
			}
		}
	}
	for _, n := range sortedKeys(b.neighbors) {
		if batch := fwd[n]; len(batch) > 0 {
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgPublishBatch, Pubs: batch}})
		}
	}
	return out, nil
}

// NeighborRoots exports the ACTIVE subscriptions announced to a
// neighbor — the forwarding roots the neighbor must know for routing
// to work, exactly the set a healed or restarted peer is re-announced
// as one SUBBATCH (cluster healing protocol). The set unions the
// flood table with every routed (neighbor, target) table, each
// subscription once. Covered subscriptions are omitted by
// construction: the neighbor never saw them, and their coverers are
// in the set. Flood-table IDs come first in admission order
// (ascending numeric ID), routed ones after, per target.
func (b *Broker) NeighborRoots(id string) []BatchSub {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []BatchSub
	b.sentActiveLocked(id, func(subID string, sid subsume.ID, tbl *subsume.Table) {
		sub, _, found := tbl.Get(sid)
		if !found {
			return
		}
		out = append(out, BatchSub{SubID: subID, Sub: sub})
	})
	return out
}

// handlePublish runs under the SHARED lock: everything it touches is
// either read-only routing state (maps mutated only under the
// exclusive lock), the concurrency-safe matchers, or atomics.
//
// +mustlock:mu (shared)
func (b *Broker) handlePublish(from string, msg Message) ([]Outbound, error) {
	if msg.PubID == "" {
		return nil, fmt.Errorf("broker %s: publish without PubID", b.id)
	}
	if b.seenPubs.seen(msg.PubID) {
		b.metrics.dupPubsDropped.Add(1)
		return nil, nil
	}
	b.metrics.pubsReceived.Add(1)
	if j := b.journal.Load(); j != nil {
		// First sighting of this publication: journal the ID so a
		// restarted broker keeps its dedup window (at-most-once across
		// the restart, for IDs that reached the synced journal).
		(*j).RecordPubSeen(msg.PubID)
	}

	po := b.pubObs.Load()
	var stageT0 time.Time
	if po != nil {
		stageT0 = po.Clock()
	}

	var out []Outbound
	// Deliver to local clients whose subscriptions match. The per-port
	// interval-tree matcher answers in O(m log k + hits) instead of
	// scanning the port's reverse-path table linearly.
	for _, c := range sortedKeys(b.clients) {
		if c == from {
			continue
		}
		m := b.matchers[c]
		if m == nil || m.Len() == 0 {
			continue
		}
		for _, nid := range m.Match(msg.Pub) {
			subID := b.idToSub[subsume.ID(nid)]
			if subID == "" {
				continue
			}
			b.metrics.notifications.Add(1)
			out = append(out, Outbound{To: c, Msg: Message{
				Kind:  MsgNotify,
				SubID: subID,
				PubID: msg.PubID,
				Pub:   msg.Pub,
			}})
		}
	}
	// Reverse-path forwarding: send to every neighbor that announced a
	// matching subscription.
	for _, n := range sortedKeys(b.neighbors) {
		if n == from {
			continue
		}
		m := b.matchers[n]
		if m == nil || m.Len() == 0 {
			continue
		}
		if m.MatchAny(msg.Pub) {
			b.metrics.pubsForwarded.Add(1)
			out = append(out, Outbound{To: n, Msg: msg})
		}
	}
	if po != nil {
		t1 := po.Clock()
		po.Match.Observe(t1.Sub(stageT0))
		stageT0 = t1
	}
	// With a router attached, also push the publication toward the
	// rendezvous of its cell, where the reverse paths of every matching
	// subscription converge (see route.go).
	out = b.routePublishLocked(from, msg, out)
	if po != nil {
		po.Route.Observe(po.Clock().Sub(stageT0))
	}
	sortOutbound(out)
	return out, nil
}

// sortOutbound orders messages deterministically (by destination, then
// subscription ID) so simulation runs are reproducible regardless of
// map iteration order.
func sortOutbound(out []Outbound) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Msg.SubID < out[j].Msg.SubID
	})
}
