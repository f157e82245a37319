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
	"cmp"
	"fmt"
	"maps"
	"slices"
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
	// MsgNotify delivers a matched publication to a local client under
	// one subscription. No broker emits it: MsgNotifyBatch replaced it,
	// and the kind keeps its wire grammar for codec measurements only.
	MsgNotify
	// MsgSubscribeBatch announces an ordered burst of subscriptions
	// admitted into each per-neighbor coverage table as ONE batch call,
	// so within-burst coverage is found immediately (broad
	// subscriptions suppress the narrow ones arriving alongside them).
	MsgSubscribeBatch
	// MsgUnsubscribeBatch cancels a burst of subscriptions; each
	// per-neighbor coverage table retires the whole burst in ONE call
	// and the promotions it caused are re-announced as one
	// MsgSubscribeBatch.
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
)

// MsgNotifyBatch delivers a matched publication to a local client
// once, naming in SubIDs (ascending) every subscription of that client
// it matched. Kind 15 was the deleted route-announce and stays
// unassigned.
const MsgNotifyBatch MsgKind = 16

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
	case MsgNotifyBatch:
		return "notify-batch"
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
	// Pub is the publication payload for MsgPublish / MsgNotify /
	// MsgNotifyBatch.
	Pub subscription.Publication
	// Subs is the MsgSubscribeBatch payload, in arrival order.
	Subs []BatchSub
	// SubIDs is the MsgUnsubscribeBatch payload, or the matched
	// subscriptions of a MsgNotifyBatch in ascending order.
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
// per-neighbor coverage table — error probability, trial cap, the
// MCS and fast-path ablations (pubsub.Config converts to exactly
// these). The broker's per-neighbor checker seed is applied
// after them, so a WithSeed among the checker options is overridden
// to keep table streams independent.
func WithTableOptions(opts ...subsume.TableOption) Option {
	return func(b *Broker) { b.tableOpts = append(b.tableOpts, opts...) }
}

// Broker is a single node of the overlay.
//
// Concurrency: Handle serializes subscription-state changes (subscribe
// and unsubscribe take an exclusive lock, and are the only callers that
// update the per-port matchers) but lets publications run concurrently —
// handlePublish only reads the routing state, matching through the
// per-port ITreeIndex, whose queries run in parallel under its read
// lock, deduplicating through a bounded atomic generation ring and
// counting through atomic metrics. Driven
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

	// neighbors and clients are the registered ports, kept sorted at
	// insertion (ports are never removed), so the publish path walks
	// them in order without sorting or allocating.
	// +guarded_by:mu
	neighbors portSet
	// +guarded_by:mu
	clients portSet

	// out holds one coverage table per neighbor: the subscriptions this
	// broker has forwarded to that neighbor, reduced under the policy.
	// +guarded_by:mu
	out map[string]*subsume.Table

	// routes holds one record per known subscription, by SubID; byID
	// holds the same records by numeric ID, the key of every coverage
	// table and matcher.
	// +guarded_by:mu
	routes map[string]*route
	// +guarded_by:mu
	byID map[subsume.ID]*route
	// +guarded_by:mu
	nextID subsume.ID

	// paths holds, per port, the routes with a reverse path over it:
	// the reverse-path routing table. A neighbor's entry is also the
	// link's received set — every live subscription that arrived over
	// it, duplicate copies included — which the digest reconciliation
	// compares against the active set the neighbor's table for this
	// broker holds (see digest.go).
	// +guarded_by:mu
	paths map[string]*revPaths

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

// route is one subscription's routing record: its identifier, the
// per-broker numeric ID its coverage-table and matcher entries carry,
// its box, and the port it first arrived on (the owning port, the only
// one whose cancellation retires it).
type route struct {
	subID string
	id    subsume.ID
	sub   subscription.Subscription
	src   string
}

// revPaths is one port's reverse-path table: the routes announced over
// the port, by SubID, and the cell-bitset matcher over their boxes,
// updated in place as routes arrive and leave, so handlePublish checks
// the filter's candidates instead of scanning the table.
type revPaths struct {
	routes map[string]*route
	match  *match.ITreeIndex
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
// matching (the local clients' per-port matchers) and
// routing (the neighbor reverse-path scan and outbound ordering). The
// clock is injected so simulated harnesses time with simulated clocks
// and the broker stays clockcheck-clean; both histograms and the clock
// must be non-nil.
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
		out:        make(map[string]*subsume.Table),
		routes:     make(map[string]*route),
		byID:       make(map[subsume.ID]*route),
		paths:      make(map[string]*revPaths),
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

// CheckerStats sums the checker accounting of the broker's coverage
// tables, one per neighbor; tables are never dropped, so the sums only
// grow. It is what an operator reads to see whether δ is being
// honoured: decisions by reason, RSPC trials, capped probabilistic
// answers, candidate rows, and re-checks per removal.
func (b *Broker) CheckerStats() store.CheckerStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var sum store.CheckerStats
	for _, t := range b.out {
		sum.Add(t.Metrics().Checker)
	}
	return sum
}

// CountControlDrop counts one control frame dropped before reaching a
// peer (it advertised no cluster layer, or its cluster capability is
// still unknown mid-handshake). The transport calls it at its drop
// site so lost probes are visible in Metrics instead of surfacing
// only as spurious suspicion.
func (b *Broker) CountControlDrop() { b.metrics.controlDropped.Add(1) }

// dedupSize reports the tracked publication-ID count (test hook for
// the WithDedupLimit memory bound).
func (b *Broker) dedupSize() int { return b.seenPubs.size() }

// Neighbors returns the connected neighbor ports, sorted.
func (b *Broker) Neighbors() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return slices.Clone(b.neighbors)
}

// Clients returns the attached client ports, sorted.
func (b *Broker) Clients() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return slices.Clone(b.clients)
}

// MatchFilterCounts sums, over the per-port matchers, the candidates
// their cell filters passed to the exact check and the hits among them
// (see match.ITreeIndex.FilterCounts).
func (b *Broker) MatchFilterCounts() (candidates, hits uint64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, p := range b.paths {
		c, h := p.match.FilterCounts()
		candidates += c
		hits += h
	}
	return candidates, hits
}

// portSet is a sorted set of port names.
type portSet []string

func (s portSet) has(id string) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

// add inserts id in order and reports whether it was new.
func (s *portSet) add(id string) bool {
	i, ok := slices.BinarySearch(*s, id)
	if ok {
		return false
	}
	*s = slices.Insert(*s, i, id)
	return true
}

// sortedRoutes returns every route in ascending numeric-ID order, which
// is admission order.
//
// +mustlock:mu (shared)
func (b *Broker) sortedRoutes() []*route {
	rs := slices.Collect(maps.Values(b.routes))
	slices.SortFunc(rs, func(x, y *route) int { return cmp.Compare(x.id, y.id) })
	return rs
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
	if b.neighbors.has(id) {
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
	var ids []subsume.ID
	var subs []subscription.Subscription
	for _, r := range b.sortedRoutes() {
		if r.src != id {
			ids, subs = append(ids, r.id), append(subs, r.sub)
		}
	}
	if len(ids) > 0 {
		if _, err := tbl.SubscribeBatch(ids, subs); err != nil {
			return fmt.Errorf("broker %s: neighbor %s backfill: %w", b.id, id, err)
		}
	}
	b.neighbors.add(id)
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
	if b.clients.add(id) {
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
	case MsgSubscribe, MsgUnsubscribe, MsgSubscribeBatch, MsgUnsubscribeBatch, MsgSyncRoots:
		// State-changing kinds: handled under the exclusive lock and —
		// on success — journaled inside the same critical section, so
		// the journal's record order is exactly the application order.
		// A per-item SUBSCRIBE or UNSUBSCRIBE is a burst of one; the
		// journal still records the message that arrived.
		b.mu.Lock()
		defer b.mu.Unlock()
		var out []Outbound
		var err error
		switch msg.Kind {
		case MsgSubscribe:
			out, err = b.handleSubscribeBatch(from, msg.Kind, []BatchSub{{SubID: msg.SubID, Sub: msg.Sub}})
		case MsgUnsubscribe:
			out, err = b.handleUnsubscribeBatch(from, msg.Kind, []string{msg.SubID})
		case MsgSubscribeBatch:
			out, err = b.handleSubscribeBatch(from, msg.Kind, msg.Subs)
		case MsgUnsubscribeBatch:
			out, err = b.handleUnsubscribeBatch(from, msg.Kind, msg.SubIDs)
		case MsgSyncRoots:
			out, err = b.handleSyncRoots(from, msg)
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

// addPath gives r a reverse path over port, unless it has one already.
//
// +mustlock:mu
func (b *Broker) addPath(port string, r *route) {
	p := b.paths[port]
	if p == nil {
		p = &revPaths{routes: make(map[string]*route), match: match.NewITreeIndex()}
		b.paths[port] = p
	}
	if p.routes[r.subID] == nil {
		p.routes[r.subID] = r
		p.match.Add(match.ID(r.id), r.sub)
	}
}

// dropPath removes r's reverse path over port, if it has one: the port
// cancelled its copy, a digest sync declared the copy stale, or r
// retired.
//
// +mustlock:mu
func (b *Broker) dropPath(port string, r *route) {
	if p := b.paths[port]; p != nil && p.routes[r.subID] != nil {
		delete(p.routes, r.subID)
		p.match.Remove(match.ID(r.id))
	}
}

// frames appends the messages of the given kind that carry rs to
// neighbor n: one per item for MsgSubscribe and MsgUnsubscribe, one in
// all for MsgSubscribeBatch and MsgUnsubscribeBatch.
func frames(out []Outbound, n string, kind MsgKind, rs []*route) []Outbound {
	switch {
	case len(rs) == 0:
	case kind == MsgSubscribe || kind == MsgUnsubscribe:
		for _, r := range rs {
			m := Message{Kind: kind, SubID: r.subID}
			if kind == MsgSubscribe {
				m.Sub = r.sub
			}
			out = append(out, Outbound{To: n, Msg: m})
		}
	case kind == MsgUnsubscribeBatch:
		ids := make([]string, len(rs))
		for i, r := range rs {
			ids[i] = r.subID
		}
		out = append(out, Outbound{To: n, Msg: Message{Kind: kind, SubIDs: ids}})
	default:
		subs := make([]BatchSub, len(rs))
		for i, r := range rs {
			subs[i] = BatchSub{SubID: r.subID, Sub: r.sub}
		}
		out = append(out, Outbound{To: n, Msg: Message{Kind: kind, Subs: subs}})
	}
	return out
}

// handleSubscribeBatch admits a subscription burst that arrived as
// kind: a SUBBATCH, the missing roots of a sync listing, or the one
// item of a SUBSCRIBE. Per neighbor the whole burst goes through ONE
// Table.SubscribeBatch call — within-burst coverage is found
// immediately, so a broad subscription suppresses the narrow ones
// arriving alongside it — and the items admitted active for that
// neighbor are forwarded in the same kind.
//
// A duplicate arrival (a cycle copy, or a repeat within the burst) is
// dropped as a re-flood, since the first arrival defined the forwarding
// tree, but a neighbor that announces it still becomes a reverse path.
// On a cyclic overlay each subscription's announcements form a
// first-arrival tree, and when a broker suppresses a covered client
// subscription it relies on the covering roots it announced pulling
// publications back in — announcements that land at the neighbors as
// exactly these duplicates. Dropping them without recording the port
// severs that gradient and silently loses deliveries to any covered
// subscription off the covering root's own tree (caught at n=200 by the
// scale harness's delivery oracle, TestScaleFloodMatchesOracle). The
// copy also counts in the link's received set, so the digest balances.
//
// +mustlock:mu
func (b *Broker) handleSubscribeBatch(from string, kind MsgKind, items []BatchSub) ([]Outbound, error) {
	// Validate before mutating anything: the wire is untrusted, and a
	// rejected burst must leave no trace in the routing state.
	for _, it := range items {
		if it.SubID == "" {
			return nil, fmt.Errorf("broker %s: subscribe without SubID", b.id)
		}
		if !it.Sub.IsSatisfiable() {
			return nil, fmt.Errorf("broker %s: subscription %s is unsatisfiable", b.id, it.SubID)
		}
	}
	fresh := make([]*route, 0, len(items))
	for _, it := range items {
		if r := b.routes[it.SubID]; r != nil {
			if b.neighbors.has(from) {
				b.addPath(from, r)
			}
			b.metrics.dupSubsDropped.Add(1)
			continue
		}
		b.metrics.subsReceived.Add(1)
		b.nextID++
		r := &route{subID: it.SubID, id: b.nextID, sub: it.Sub, src: from}
		b.routes[r.subID], b.byID[r.id] = r, r
		b.addPath(from, r)
		fresh = append(fresh, r)
	}
	if len(fresh) == 0 {
		return nil, nil
	}
	ids := make([]subsume.ID, len(fresh))
	subs := make([]subscription.Subscription, len(fresh))
	for i, r := range fresh {
		ids[i], subs[i] = r.id, r.sub
	}
	var out []Outbound
	for _, n := range b.neighbors {
		if n == from {
			continue
		}
		results, err := b.out[n].SubscribeBatch(ids, subs)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		fwd := make([]*route, 0, len(fresh))
		for i, res := range results {
			if res.Status == store.StatusActive {
				fwd = append(fwd, fresh[i])
			}
		}
		b.metrics.subsForwarded.Add(int64(len(fwd)))
		b.metrics.subsSuppressed.Add(int64(len(fresh) - len(fwd)))
		out = frames(out, n, kind, fwd)
	}
	return out, nil
}

// handleUnsubscribeBatch cancels a burst that arrived as kind: an
// UNSUBBATCH, the stale roots of a sync listing, or the one item of an
// UNSUBSCRIBE. Cancellations follow the subscription's tree: only the
// owning port's retires it, a copy arriving over another link retires
// that port's duplicate reverse path, and unknown IDs are dropped. Per
// neighbor the retirements run through ONE Table.UnsubscribeBatch call;
// the neighbor is sent, in the same kind, the cancellations of the
// subscriptions it was sent, and then the promotions the burst caused
// (Section 5) as SUBSCRIBE frames after an UNSUBSCRIBE, one SUBBATCH
// after a burst.
//
// +mustlock:mu
func (b *Broker) handleUnsubscribeBatch(from string, kind MsgKind, subIDs []string) ([]Outbound, error) {
	announce := MsgSubscribeBatch
	if kind == MsgUnsubscribe {
		announce = MsgSubscribe
	}
	var gone []*route
	for _, subID := range subIDs {
		r := b.routes[subID]
		if r == nil {
			continue
		}
		if r.src != from {
			b.dropPath(from, r)
			continue
		}
		delete(b.routes, subID)
		delete(b.byID, r.id)
		b.dropPath(r.src, r)
		for _, n := range b.neighbors { // duplicate paths
			b.dropPath(n, r)
		}
		gone = append(gone, r)
	}
	if len(gone) == 0 {
		return nil, nil
	}
	ids := make([]subsume.ID, len(gone))
	for i, r := range gone {
		ids[i] = r.id
	}
	var out []Outbound
	for _, n := range b.neighbors {
		if n == from {
			continue
		}
		tbl := b.out[n]
		// The neighbor must see the cancellation of exactly the
		// subscriptions it was sent — the ones active in its table
		// before the removal.
		fwd := make([]*route, 0, len(gone))
		for _, r := range gone {
			if _, status, ok := tbl.Get(r.id); ok && status == store.StatusActive {
				fwd = append(fwd, r)
			}
		}
		res, err := tbl.UnsubscribeBatch(ids)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		promoted := make([]*route, 0, len(res.Promoted))
		for _, pid := range res.Promoted {
			if r := b.byID[pid]; r != nil {
				promoted = append(promoted, r)
			}
		}
		b.metrics.unsubsForwarded.Add(int64(len(fwd)))
		b.metrics.promotions.Add(int64(len(promoted)))
		b.metrics.subsForwarded.Add(int64(len(promoted)))
		out = frames(out, n, kind, fwd)
		out = frames(out, n, announce, promoted)
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
			if ob.Msg.Kind == MsgPublish && b.neighbors.has(ob.To) {
				if fwd == nil {
					fwd = make(map[string][]BatchPub)
				}
				fwd[ob.To] = append(fwd[ob.To], BatchPub{PubID: it.PubID, Pub: it.Pub})
			} else {
				out = append(out, ob)
			}
		}
	}
	for _, n := range b.neighbors {
		if batch := fwd[n]; len(batch) > 0 {
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgPublishBatch, Pubs: batch}})
		}
	}
	return out, nil
}

// NeighborRoots exports the ACTIVE subscriptions announced to a
// neighbor — the forwarding roots the neighbor must know for routing
// to work, exactly the set a healed or restarted peer is re-announced
// as one SUBBATCH (cluster healing protocol). It is the neighbor's
// coverage table's active set, in admission order (ascending numeric
// ID). Covered subscriptions are omitted by construction: the
// neighbor never saw them, and their coverers are in the set.
func (b *Broker) NeighborRoots(id string) []BatchSub {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []BatchSub
	b.sentActiveLocked(id, func(r *route) {
		out = append(out, BatchSub{SubID: r.subID, Sub: r.sub})
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
	// Deliver to local clients whose subscriptions match: one frame per
	// client, naming every matched subscription. The per-port matcher
	// checks only its cell filter's candidates instead of scanning the
	// port's reverse-path table linearly.
	for _, c := range b.clients {
		if c == from {
			continue
		}
		p := b.paths[c]
		if p == nil || p.match.Len() == 0 {
			continue
		}
		hits := p.match.Match(msg.Pub)
		if len(hits) == 0 {
			continue
		}
		subIDs := make([]string, 0, len(hits))
		for _, nid := range hits {
			if r := b.byID[subsume.ID(nid)]; r != nil {
				subIDs = append(subIDs, r.subID)
			}
		}
		if len(subIDs) == 0 {
			continue
		}
		slices.Sort(subIDs)
		b.metrics.notifications.Add(int64(len(subIDs)))
		out = append(out, Outbound{To: c, Msg: Message{
			Kind:   MsgNotifyBatch,
			PubID:  msg.PubID,
			Pub:    msg.Pub,
			SubIDs: subIDs,
		}})
	}
	if po != nil {
		t1 := po.Clock()
		po.Match.Observe(t1.Sub(stageT0))
		stageT0 = t1
	}
	// Reverse-path forwarding: send to every neighbor that announced a
	// matching subscription. Clients and neighbors are each walked in
	// sorted order, so the output is deterministic without a sort.
	for _, n := range b.neighbors {
		if n == from {
			continue
		}
		p := b.paths[n]
		if p == nil || p.match.Len() == 0 {
			continue
		}
		if p.match.MatchAny(msg.Pub) {
			b.metrics.pubsForwarded.Add(1)
			out = append(out, Outbound{To: n, Msg: msg})
		}
	}
	if po != nil {
		po.Route.Observe(po.Clock().Sub(stageT0))
	}
	return out, nil
}
