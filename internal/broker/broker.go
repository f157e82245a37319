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
	"hash/maphash"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unique"

	"probsum/internal/cells"
	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/obs"
	"probsum/internal/store"
	"probsum/internal/subscription"
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
	// MsgPublishBatch carries a run of publications in one frame: a
	// producer-side burst, or the publish frames a wire reader found
	// already buffered. The broker processes the run under a single
	// shared-lock acquisition and re-forwards the matching publications
	// per neighbor as one batch.
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
	LinkSyncs       int // link syncs sent over freshly dialed links (LinkSync)
	LinkSyncSubs    int // roots those link syncs carried
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
	m.LinkSyncs += o.LinkSyncs
	m.LinkSyncSubs += o.LinkSyncSubs
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
	linkSyncs       atomic.Int64
	linkSyncSubs    atomic.Int64
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
		LinkSyncs:       int(c.linkSyncs.Load()),
		LinkSyncSubs:    int(c.linkSyncSubs.Load()),
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
// concurrently) would race on both. Callers that run checks on many
// goroutines build one Checker per goroutine instead of reaching into
// a broker's tables.
func WithSeed(seed uint64) Option {
	return func(b *Broker) { b.seed = seed }
}

// withDedupLimit bounds the publication-deduplication memory: the
// broker remembers at least the last n distinct publication IDs (and
// at most ~2n, in pointer-free tables the collector never scans, see
// pubDedup). The default is 65536. Publications
// re-arriving after more than the horizon of newer distinct
// publications may be processed again — the same at-least-once
// tolerance the protocol already has for lossy links, traded here for
// a memory bound on long-running brokers.
func withDedupLimit(n int) Option {
	return func(b *Broker) {
		if n > 0 {
			b.dedupLimit = n
		}
	}
}

// WithTableOptions appends store options for every per-neighbor
// coverage table ConnectNeighbor builds with store.New: checker options
// such as error probability and trial cap (pubsub.Config.TableOptions
// converts to exactly these). The broker's per-neighbor checker seed is
// appended after them, so a seed among them is overridden to keep
// table streams independent. store.WithChecker must not be passed: the
// tables would share one checker.
func WithTableOptions(opts ...store.Option) Option {
	return func(b *Broker) { b.tableOpts = append(b.tableOpts, opts...) }
}

// Broker is a single node of the overlay.
//
// Concurrency: Handle serializes subscription-state changes (subscribe
// and unsubscribe take an exclusive lock, and are the only callers that
// update the matcher) but lets publications run concurrently —
// handlePublish only reads the routing state, stabbing the slot tables'
// cell indexes with a scratch of its own, deduplicating through a
// bounded two-generation table under its own short mutex and counting
// through atomic metrics. Driven from a single goroutine (the
// simulator) the broker behaves exactly as before: all locks are uncontended and every decision sequence is
// deterministic. Driven from the TCP transport's per-connection
// goroutines, publish matching parallelizes across connections while
// coverage-table admission stays ordered per port.
type Broker struct {
	id        string
	policy    store.Policy
	seed      uint64
	tableOpts []store.Option

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
	// A store has no lock of its own: mu guards it, exclusive for the
	// admissions and removals, shared for the reads (Get, ActiveIDs,
	// CheckerStats).
	// +guarded_by:mu
	out map[string]*store.Store

	// routes holds one record per known subscription, by SubID. Its
	// hash seed, drawn in New, keys every received set in paths too.
	// +guarded_by:mu
	routes routeIndex
	// tables is the matcher: per attribute count some route has, one
	// cell index whose slots hold the routes themselves (nil once
	// freed), the count's slot table. A route's numeric ID names its
	// slot (see routeID), so a stab's hits and an ID from a coverage
	// table both reach the route by indexing. A publication stabs only
	// its own count's table, mirroring Subscription.Matches, which
	// rejects on length mismatch.
	// +guarded_by:mu
	tables []*cells.Index[route]
	// seq counts the routes admitted; the last one's ID carries it.
	// +guarded_by:mu
	seq int64
	// routePeak is the most routes held since the last collection the
	// broker asked for (see shedCollectMin).
	// +guarded_by:mu
	routePeak int

	// paths holds, from ConnectNeighbor on, per neighbor the routes
	// with a reverse path over it, by SubID: the link's received set —
	// every live subscription that arrived over it, duplicate copies
	// included — which the digest reconciliation compares against the
	// active set the neighbor's table for this broker holds (see
	// digest.go). A client's reverse paths are the routes it sources.
	// +guarded_by:mu
	paths map[string]*routeIndex

	// seenPubs deduplicates publications on cyclic overlays. It is a
	// bounded two-generation table (see pubDedup), so long-running
	// brokers do not grow memory without limit, laid out without
	// pointers, so its ~2·dedupLimit IDs add nothing to the collector's
	// mark work. Lookups and inserts run under the shared lock and
	// serialize on pubDedup's own mutex instead of b.mu.
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
	// candidates counts the slots the matcher's cell filter passed to
	// the exact check, hits those of them that matched.
	candidates, hits atomic.Uint64
}

// Route IDs. A route's numeric ID, the key of every coverage table, is
// seq<<slotBits | slot: seq numbers the broker's admissions from 1, and
// slot is the route's slot in its attribute count's slot table. ID
// order is therefore admission order, and the ID resolves to its route
// by indexing (routeByID). A slot table holds at most maxSlots routes,
// and seq stops at maxSeq, so every ID is a positive int64; a burst that
// would pass either limit is refused whole. At 350k admissions a
// second, maxSeq lasts ~18 days of nonstop admission, and a restarted
// broker numbers its journal replay from 1 again.
const (
	slotBits = 24
	maxSlots = 1 << slotBits
	maxSeq   = 1<<(63-slotBits) - 1
)

// routeID returns the ID of the route admitted as seq into slot.
func routeID(seq int64, slot int32) store.ID {
	return store.ID(seq<<slotBits | int64(slot))
}

// slotOf returns the slot a route ID carries.
func slotOf(id store.ID) int32 { return int32(id & (maxSlots - 1)) }

// stabScratch holds the cell-index query scratch of publish runs in
// flight: a run takes one and returns it when done, so concurrent runs
// under the shared lock never share a scratch.
var stabScratch = sync.Pool{New: func() any { return new(cells.Scratch) }}

// route is one subscription's routing record: its identifier, the
// per-broker numeric ID its coverage-table entries carry, which names
// its matcher slot (see routeID), its box, and the port it first
// arrived on (the owning port, the only one whose cancellation retires
// it). The box is the pointer the matcher reads (cells.First) and the
// attribute count, not a slice header, and the port an interned
// handle, not a string: the fields fill the 48-byte size class.
type route struct {
	subID string
	id    store.ID
	first *interval.Interval
	src   unique.Handle[string]
	m     uint32
}

// sub returns r's box.
func (r *route) sub() subscription.Subscription { return cells.Box(r.first, r.m) }

// port returns the name of the port r first arrived on.
func (r *route) port() string { return r.src.Value() }

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
// matching (the one stab of the matcher, and grouping the hits into
// notifications per client) and routing (choosing the neighbors with a
// reverse path over some hit). The
// clock is injected so simulated harnesses time with simulated clocks
// and the broker stays clockcheck-clean; both histograms and the clock
// must be non-nil.
// Observation is two clock reads and two atomic adds per publication
// — zero allocations (pinned by TestPublishObserverZeroAlloc).
type PublishObserver struct {
	Clock func() time.Duration
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

// New creates a broker. Policy selects subscription-forwarding
// reduction; see store.Policy.
func New(id string, policy store.Policy, opts ...Option) (*Broker, error) {
	if id == "" {
		return nil, fmt.Errorf("broker: empty id")
	}
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("broker %s: %w", id, err)
	}
	b := &Broker{
		id:         id,
		policy:     policy,
		seed:       1,
		dedupLimit: 65536,
		out:        make(map[string]*store.Store),
		routes:     routeIndex{seed: maphash.MakeSeed()},
		paths:      make(map[string]*routeIndex),
	}
	for _, opt := range opts {
		opt(b)
	}
	if err := b.seenPubs.init(b.dedupLimit); err != nil {
		return nil, fmt.Errorf("broker %s: %w", id, err)
	}
	return b, nil
}

// ID returns the broker identifier.
func (b *Broker) ID() string { return b.id }

// Metrics returns a copy of the activity counters.
func (b *Broker) Metrics() Metrics { return b.metrics.snapshot() }

// CheckerStats sums the checker accounting of the broker's coverage
// tables, one per neighbor; tables are never dropped, so the sums only
// grow. It is what an operator reads to see whether δ is being
// honoured: decisions by reason, RSPC trials, capped probabilistic
// answers, candidate rows, and re-checks per removal.
func (b *Broker) CheckerStats() store.CheckerStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var sum store.CheckerStats
	for _, st := range b.out {
		sum.Add(st.CheckerStats())
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
// the withDedupLimit memory bound).
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

// MatchFilterCounts returns how many slots the matcher's cell filter
// has passed to the exact check, and how many of those matched, over
// the broker's life. Each publication stabs its attribute count's slot
// table once, so every live route matching it counts once, whichever
// port the publication came from. Candidates far above hits mean the
// filter sheds little: a degenerate hull.
func (b *Broker) MatchFilterCounts() (candidates, hits uint64) {
	return b.candidates.Load(), b.hits.Load()
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
	rs := slices.Collect(b.routes.all())
	slices.SortFunc(rs, func(x, y *route) int { return cmp.Compare(x.id, y.id) })
	return rs
}

// table returns the slot table of attribute count m, or nil.
//
// +mustlock:mu (shared)
func (b *Broker) table(m int) *cells.Index[route] {
	for _, t := range b.tables {
		if t.Attrs() == m {
			return t
		}
	}
	return nil
}

// routeByID returns the live route with numeric ID id, or nil: the
// route at id's slot of the table whose route there carries id.
//
// +mustlock:mu (shared)
func (b *Broker) routeByID(id store.ID) *route {
	slot := slotOf(id)
	for _, t := range b.tables {
		if r := t.Row(slot); r != nil && r.id == id {
			return r
		}
	}
	return nil
}

// index admits r to its count's slot table, creating the table on first
// use, and numbers it: the next seq, and the slot it landed in.
//
// +mustlock:mu
func (b *Broker) index(r *route) {
	m := int(r.m)
	t := b.table(m)
	if t == nil {
		t = cells.New(m, func(r *route) **interval.Interval { return &r.first })
		b.tables = append(b.tables, t)
	}
	b.seq++
	r.id = routeID(b.seq, t.Add(r))
}

// unindex frees r's slot, dropping its table once empty so that a later
// population starts from a fresh grid.
//
// +mustlock:mu
func (b *Broker) unindex(r *route) {
	i := slices.IndexFunc(b.tables, func(t *cells.Index[route]) bool { return t.Attrs() == int(r.m) })
	t := b.tables[i]
	t.Remove(slotOf(r.id))
	if t.Len() == 0 {
		b.tables = slices.Delete(b.tables, i, i+1)
	}
}

// idRoom refuses a burst of items the route IDs cannot number, counting
// every item as fresh and of the fullest attribute count: seq would pass
// maxSeq, or a slot table would hold more than maxSlots routes.
//
// +mustlock:mu (shared)
func (b *Broker) idRoom(items []BatchSub) error {
	if b.seq > maxSeq-int64(len(items)) {
		return fmt.Errorf("broker %s: route IDs exhausted: %d admitted, a burst of %d would pass %d", b.id, b.seq, len(items), int64(maxSeq))
	}
	for _, t := range b.tables {
		if t.Len() > maxSlots-len(items) {
			return fmt.Errorf("broker %s: %d routes of %d attributes, a burst of %d could pass %d", b.id, t.Len(), t.Attrs(), len(items), maxSlots)
		}
	}
	return nil
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
// coverage table with store.New. The per-neighbor checker seed is
// applied after any caller-supplied table options, so every table
// keeps an independent, reproducible stream (see WithSeed).
func (b *Broker) ConnectNeighbor(id string) error {
	if id == b.id {
		return fmt.Errorf("broker %s: cannot neighbor itself", b.id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.neighbors.has(id) {
		return nil
	}
	// Caller options first; the per-neighbor seed comes after so it
	// always wins — independent checker streams are a broker
	// invariant, not a knob. A store ignores checker options unless
	// its policy is Group.
	opts := append(slices.Clone(b.tableOpts), store.WithCheckerOptions(
		core.WithSeed(b.seed^fnv1a(b.id), fnv1a(id)|1),
	))
	tbl, err := store.New(b.policy, opts...)
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
	// LinkSync). One batch call, which the store admits in descending
	// box volume, ties broken by ascending ID, so the admission is
	// deterministic and coverage within the backfill is found
	// immediately.
	var ids []store.ID
	var subs []subscription.Subscription
	for _, r := range b.sortedRoutes() {
		if r.port() != id {
			ids, subs = append(ids, r.id), append(subs, r.sub())
		}
	}
	if len(ids) > 0 {
		if _, err := tbl.SubscribeBatch(ids, subs); err != nil {
			return fmt.Errorf("broker %s: neighbor %s backfill: %w", b.id, id, err)
		}
	}
	b.neighbors.add(id)
	b.out[id] = tbl
	b.paths[id] = &routeIndex{seed: b.routes.seed}
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
// run concurrently (see the type comment). An error comes with what
// the broker decided before it — for a publish run, the outputs of the
// items ahead of the bad one — which the caller still sends.
//
// Handle keeps no batch array of msg (Subs, SubIDs, Pubs) once it
// returns, and neither do its outputs or the journal, which encodes
// what it records before Handle returns: the caller may reuse those
// arrays for its next message. It may keep their elements — SubID
// strings, boxes, publication values — which the caller must not
// change.
func (b *Broker) Handle(from string, msg Message) ([]Outbound, error) {
	switch msg.Kind {
	case MsgSubscribe, MsgUnsubscribe, MsgSubscribeBatch, MsgUnsubscribeBatch, MsgSyncRoots:
		out, shed, err := b.handleStateChange(from, msg)
		if shed {
			// Outside the lock: publishes go on while the collector runs.
			runtime.GC()
		}
		return out, err
	case MsgPublish, MsgPublishBatch:
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.handlePublishRun(from, msg)
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
				m.Sub = r.sub()
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
			subs[i] = BatchSub{SubID: r.subID, Sub: r.sub()}
		}
		out = append(out, Outbound{To: n, Msg: Message{Kind: kind, Subs: subs}})
	}
	return out
}

// handleStateChange applies a state-changing message under the
// exclusive lock and — on success — journals it inside the same
// critical section, so the journal's record order is exactly the
// application order. A per-item SUBSCRIBE or UNSUBSCRIBE is a burst of
// one; the journal still records the message that arrived. shed
// reports that the broker has dropped to half the routes it held at
// its peak since the last collection (see shedCollectMin).
func (b *Broker) handleStateChange(from string, msg Message) (out []Outbound, shed bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
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
	n := b.routes.len()
	b.routePeak = max(b.routePeak, n)
	if b.routePeak >= shedCollectMin && n <= b.routePeak/2 {
		b.routePeak, shed = n, true
	}
	return out, shed, err
}

// shedCollectMin is the smallest route peak whose halving makes the
// broker ask the runtime for a collection. The collector paces itself
// by the heap it marked last: after a mass unsubscription that mark may
// still count the routes just dropped, and the heap may then grow to
// twice the old peak before the next cycle — or not, depending on
// where the last cycle fell relative to the peak, which varies from one
// run of the same traffic to the next. Collecting once the route count
// has halved makes the broker's peak memory depend on the traffic
// alone. Below this size a forced collection costs more than the few
// megabytes it could save.
const shedCollectMin = 4096

// handleSubscribeBatch admits a subscription burst that arrived as
// kind: a SUBBATCH, the missing roots of a sync listing, or the one
// item of a SUBSCRIBE. Per neighbor the whole burst goes through ONE
// Store.SubscribeBatch call — within-burst coverage is found
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
// The up-front validation covers every error Store.SubscribeBatch can
// return: the broker assigns fresh table IDs, drops repeats before the
// tables see them, and rejects a burst holding an empty SubID or an
// unsatisfiable box (no attributes included), or one the route IDs
// cannot number (see idRoom). Attribute counts partition a table, so a
// mix of counts is admitted, each count decided on its own. A burst
// that passes validation therefore reaches the routes, the matcher and
// every table alike.
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
	if err := b.idRoom(items); err != nil {
		return nil, err
	}
	// Only the tables of neighbors other than from take the burst, so
	// with none the fresh routes need no list.
	takers := len(b.neighbors)
	recv := b.paths[from] // a neighbor's received set: a reverse path
	if recv != nil {
		takers--
	}
	var fresh []*route
	if takers > 0 {
		fresh = make([]*route, 0, len(items))
	}
	src := unique.Make(from)
	for _, it := range items {
		r, added := b.routes.insert(it.SubID)
		if !added {
			b.metrics.dupSubsDropped.Add(1)
		} else {
			b.metrics.subsReceived.Add(1)
			r.first, r.m, r.src = cells.First(it.Sub), uint32(it.Sub.Len()), src
			b.index(r)
			if takers > 0 {
				fresh = append(fresh, r)
			}
		}
		if recv != nil {
			recv.put(r)
		}
	}
	if len(fresh) == 0 {
		return nil, nil
	}
	ids := make([]store.ID, len(fresh))
	subs := make([]subscription.Subscription, len(fresh))
	for i, r := range fresh {
		ids[i], subs[i] = r.id, r.sub()
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
// neighbor the retirements run through ONE Store.UnsubscribeBatch call;
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
		r := b.routes.get(subID)
		if r == nil {
			continue
		}
		if r.port() != from { // a duplicate path over from, if any
			if recv := b.paths[from]; recv != nil {
				recv.del(subID)
			}
			continue
		}
		b.routes.del(subID)
		b.unindex(r)
		for _, recv := range b.paths {
			recv.del(subID)
		}
		gone = append(gone, r)
	}
	if len(gone) == 0 {
		return nil, nil
	}
	ids := make([]store.ID, len(gone))
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
			if r := b.routeByID(pid); r != nil {
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

// NeighborRoots exports the ACTIVE subscriptions announced to a
// neighbor — the forwarding roots the neighbor must know for routing
// to work, exactly the set LinkSync sends a healed or restarted peer.
// It is the neighbor's coverage table's active set, in admission order
// (ascending numeric ID). Covered subscriptions are omitted by
// construction: the neighbor never saw them, and their coverers are in
// the set.
func (b *Broker) NeighborRoots(id string) []BatchSub {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []BatchSub
	b.sentActiveLocked(id, func(r *route) {
		out = append(out, BatchSub{SubID: r.subID, Sub: r.sub()})
	})
	return out
}

// LinkSync returns what a link this broker just dialed to peer carries
// first: the coverage roots for peer (NeighborRoots) as ONE SUBBATCH,
// counted in Metrics.LinkSyncs and LinkSyncSubs. An empty root set
// returns and counts nothing — a first-boot link. After a reconnect,
// or toward a neighbor registered while no link existed, it is the
// healing re-announcement: the peer drops what it already knows and
// fills the gaps, so routing converges without any transport replaying
// lost frames. Every transport calls it once per successful dial.
func (b *Broker) LinkSync(peer string) []Outbound {
	roots := b.NeighborRoots(peer)
	if len(roots) == 0 {
		return nil
	}
	b.metrics.linkSyncs.Add(1)
	b.metrics.linkSyncSubs.Add(int64(len(roots)))
	return []Outbound{{To: peer, Msg: Message{Kind: MsgSubscribeBatch, Subs: roots}}}
}

// pubRun is one publish run on its way through the broker: the
// outputs decided so far and the buffers its items share.
type pubRun struct {
	// batch marks a MsgPublishBatch run; a MsgPublish is a run of one,
	// whose forwards go to out as they are decided.
	batch bool
	// out is the run's one output slice: notifications in item order,
	// then the forwards.
	out []Outbound
	// fwd holds a batch's forwards per neighbor, indexed like
	// b.neighbors: the items routed there, in arrival order.
	fwd [][]BatchPub
	// sc is the run's stab scratch, from stabScratch; candidates and
	// hits sum the run's stabs for MatchFilterCounts.
	sc               *cells.Scratch
	candidates, hits int
	// subIDs backs the notifications' SubIDs, one array per item with
	// client hits sized to them, whose room the next item may use.
	subIDs []string
	// seen collects the first-seen publication IDs when a journal is
	// attached.
	seen []string
}

// forward routes it to neighbor n, the k-th of the broker's neighbors:
// a run of one sends it as a MsgPublish, a batch adds it to n's batch,
// which can take at most left more items.
func (run *pubRun) forward(k int, n string, neighbors int, it *BatchPub, left int) {
	if !run.batch {
		run.out = append(run.out, Outbound{To: n, Msg: Message{Kind: MsgPublish, PubID: it.PubID, Pub: it.Pub}})
		return
	}
	if run.fwd == nil {
		run.fwd = make([][]BatchPub, neighbors)
	}
	if run.fwd[k] == nil {
		run.fwd[k] = make([]BatchPub, 0, left)
	}
	run.fwd[k] = append(run.fwd[k], *it)
}

// handlePublishRun processes a publish run under the SHARED lock held
// by Handle: a MsgPublish is a run of one, a MsgPublishBatch a run of
// its items in arrival order. A run forwards in its own kind: a
// MsgPublish as a MsgPublish, a batch as ONE MsgPublishBatch per
// neighbor, after the notifications, so a burst stays batched end to
// end across the overlay. The run's first-seen IDs are journaled as ONE
// record before it returns (a restarted broker keeps its dedup window:
// at-most-once across the restart, for IDs that reached the synced
// journal). An item without a PubID ends the run: what the items before
// it decided — notifications and the forwards batched so far — is
// returned with the error, and their first-seen IDs are journaled.
//
// +mustlock:mu (shared)
func (b *Broker) handlePublishRun(from string, msg Message) ([]Outbound, error) {
	run := pubRun{batch: msg.Kind == MsgPublishBatch, sc: stabScratch.Get().(*cells.Scratch)}
	defer stabScratch.Put(run.sc)
	items := msg.Pubs
	if !run.batch {
		items = []BatchPub{{PubID: msg.PubID, Pub: msg.Pub}}
	}
	j := b.journal.Load()
	if j != nil {
		run.seen = make([]string, 0, len(items))
	}
	var err error
	for i := range items {
		if err = b.handlePublish(from, &run, &items[i], len(items)-i); err != nil {
			if run.batch {
				err = fmt.Errorf("broker %s: publish batch item %d: %w", b.id, i, err)
			}
			break
		}
	}
	for k, pubs := range run.fwd {
		if len(pubs) > 0 {
			run.out = append(run.out, Outbound{To: b.neighbors[k], Msg: Message{Kind: MsgPublishBatch, Pubs: pubs}})
		}
	}
	if len(run.seen) > 0 {
		(*j).RecordPubsSeen(run.seen)
	}
	if run.candidates > 0 {
		b.candidates.Add(uint64(run.candidates))
		b.hits.Add(uint64(run.hits))
	}
	return run.out, err
}

// handlePublish runs one item of a publish run under the SHARED lock:
// everything it touches is either read-only routing state (the maps and
// slot tables mutated only under the exclusive lock), the run's own
// stab scratch, the dedup window behind its own mutex, or atomics. It
// appends the item's notifications and forwards to run; left counts
// the run's items from this one on, the most a neighbor's batch can
// still take.
//
// +mustlock:mu (shared)
func (b *Broker) handlePublish(from string, run *pubRun, it *BatchPub, left int) error {
	if it.PubID == "" {
		return fmt.Errorf("broker %s: publish without PubID", b.id)
	}
	if b.seenPubs.seen(it.PubID) {
		b.metrics.dupPubsDropped.Add(1)
		return nil
	}
	b.metrics.pubsReceived.Add(1)
	if run.seen != nil {
		run.seen = append(run.seen, it.PubID)
	}

	po := b.pubObs.Load()
	var stageT0 time.Duration
	if po != nil {
		stageT0 = po.Clock()
	}

	// One stab finds every matching route, whichever ports lead to it.
	// Sorted by source port, then SubID, the hits fall into one run per
	// port, and clients come out in sorted order. Routes from one port
	// share its handle, so only hits from two ports compare names.
	// Up to 64 hits fit the stack; a longer list is allocated once, at
	// its length, rather than regrown by append.
	var slots []int32
	t := b.table(len(it.Pub.Values))
	if t != nil {
		var candidates int
		slots, candidates = t.Stab(run.sc, it.Pub)
		run.candidates += candidates
		run.hits += len(slots)
	}
	hits := slices.Grow(make([]*route, 0, 64), len(slots))
	for _, slot := range slots {
		hits = append(hits, t.Row(slot))
	}
	slices.SortFunc(hits, func(x, y *route) int {
		if x.src != y.src {
			return strings.Compare(x.port(), y.port())
		}
		return strings.Compare(x.subID, y.subID)
	})
	// Deliver to local clients whose subscriptions match: one frame per
	// client, naming every matched subscription. A client's reverse
	// paths are the routes it sources.
	if len(hits) > 0 {
		// Room for a frame per client run and, in a run of one, a
		// forward per neighbor.
		size := 0
		if !run.batch {
			size = len(b.neighbors)
			if b.neighbors.has(from) {
				size--
			}
		}
		for i, r := range hits {
			if (i == 0 || r.src != hits[i-1].src) && r.port() != from && b.clients.has(r.port()) {
				size++
			}
		}
		run.out = slices.Grow(run.out, size)
	}
	for i, j := 0, 0; i < len(hits); i = j {
		src := hits[i].src
		j = i + 1
		for j < len(hits) && hits[j].src == src {
			j++
		}
		c := src.Value()
		if c == from || !b.clients.has(c) {
			continue
		}
		if cap(run.subIDs)-len(run.subIDs) < j-i {
			run.subIDs = make([]string, 0, len(hits)-i)
		}
		k := len(run.subIDs)
		for _, r := range hits[i:j] {
			run.subIDs = append(run.subIDs, r.subID)
		}
		b.metrics.notifications.Add(int64(j - i))
		run.out = append(run.out, Outbound{To: c, Msg: Message{
			Kind:   MsgNotifyBatch,
			PubID:  it.PubID,
			Pub:    it.Pub,
			SubIDs: run.subIDs[k:len(run.subIDs):len(run.subIDs)],
		}})
	}
	if po != nil {
		t1 := po.Clock()
		po.Match.Observe(t1 - stageT0)
		stageT0 = t1
	}
	// Reverse-path forwarding: send to every neighbor that announced a
	// matching subscription. Clients and neighbors are each walked in
	// sorted order, so the output is deterministic without a sort.
	for k, n := range b.neighbors {
		if n == from {
			continue
		}
		recv := b.paths[n]
		for _, r := range hits {
			if recv.get(r.subID) != nil {
				b.metrics.pubsForwarded.Add(1)
				run.forward(k, n, len(b.neighbors), it, left)
				break
			}
		}
	}
	if po != nil {
		po.Route.Observe(po.Clock() - stageT0)
	}
	return nil
}
