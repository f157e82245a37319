// Package scale is a deterministic membership-at-scale harness: it
// runs hundreds to thousands of cluster.Node instances over a pure
// in-memory frame router (no brokers, no sockets, no goroutines) and
// measures what the paper's evaluation cares about at that size —
// how many protocol rounds a sparse overlay needs before every node
// sees every member alive, and how many gossip bytes per member per
// round the steady state costs once it has.
//
// The overlay is a ring plus a few pseudo-random chord links per node
// (a small-world graph: O(log n) diameter at constant degree), the
// clock is a manual variable advanced one PingEvery per round, and
// every random choice derives from Config.Seed — the same seed always
// produces the same round-by-round trace, which is what lets CI gate
// on the numbers.
package scale

import (
	"fmt"
	"math/rand/v2"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub/cluster"
)

// Config sizes one scale run. Zero values select the noted defaults.
type Config struct {
	// N is the member count (default 200).
	N int
	// Chords is the number of extra pseudo-random overlay links per
	// node beyond the ring (default 2; degree ≈ 2 + 2·Chords).
	Chords int
	// Seed drives every random choice of the run (default 1).
	Seed uint64
	// MaxRounds bounds the convergence phase (default 200): a run
	// that has not converged by then fails.
	MaxRounds int
	// SteadyRounds is the post-convergence measurement window
	// (default 20).
	SteadyRounds int
	// LegacyGossip runs the oracle protocol (periodic full-snapshot
	// frames, no deltas) for comparison runs.
	LegacyGossip bool
	// Subs injects that many client subscriptions after convergence
	// and counts the subscription-announcement frames each broker link
	// carries (default 0: membership-only run).
	Subs int
	// Pubs publishes that many probe publications through injected
	// subscriptions and records the delivery set (default 0; needs
	// Subs > 0).
	Pubs int
	// Routed attaches a rendezvous router to every broker, so
	// subscriptions route toward their cell owners instead of flooding
	// every link. A flood run of the same seed is the oracle: its
	// DeliveryHash must match and its SubFramesPerLink is the baseline
	// structured routing has to beat.
	Routed bool
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 200
	}
	if c.Chords == 0 {
		c.Chords = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200
	}
	if c.SteadyRounds == 0 {
		c.SteadyRounds = 20
	}
	return c
}

// Report is what one run measured.
type Report struct {
	// N and Links describe the graph: member count and undirected
	// overlay links built.
	N     int
	Links int
	// MaxDegree is the largest per-node overlay degree (the route
	// table a node maintains links for stays this sparse even though
	// its member map grows to N).
	MaxDegree int
	// ConvergedRound is the first round after which every node saw
	// every member alive (rounds are PingEvery apart).
	ConvergedRound int
	// ConvergedTime is the simulated wall clock of convergence.
	ConvergedTime time.Duration
	// SteadyBytesPerMemberRound is the steady-state gossip cost:
	// control bytes sent per member per round, averaged over the
	// measurement window.
	SteadyBytesPerMemberRound float64
	// SteadyFullGossipFrames counts full-snapshot membership frames
	// sent during the steady window — zero when delta dissemination
	// is doing its job.
	SteadyFullGossipFrames uint64
	// SteadyDeltaFrames counts bounded delta frames sent during the
	// steady window.
	SteadyDeltaFrames uint64
	// TotalControlBytes is the cumulative control-plane traffic of
	// the whole run, bootstrap included.
	TotalControlBytes uint64
	// SubFrames counts the subscription-announcement frames (SUB,
	// SUBBATCH, route-announce) that crossed broker links during the
	// subscription phase; SubFramesPerLink is the same count per
	// directed overlay link — the headline routing-vs-flood metric.
	SubFrames        uint64
	SubFramesPerLink float64
	// RouteTables / RouteEntries sum the routed per-(link, target)
	// coverage tables and their entries across brokers (zero in flood
	// mode).
	RouteTables  int
	RouteEntries int
	// Deliveries counts probe notifications reaching clients;
	// DeliveryHash folds every (client, sub, pub) delivery
	// order-independently. A routed run and the flood run of the same
	// seed must agree on both — the delivery-equivalence gate.
	Deliveries   int
	DeliveryHash uint64
	// FramesByKind counts every frame the router carried over the whole
	// run, keyed by wire kind name — the per-kind traffic profile the
	// observability layer exposes per link on real transports, summed
	// across the simulated overlay here.
	FramesByKind map[string]uint64
}

// frame is one in-flight control message.
type frame struct {
	from, to string
	msg      broker.Message
}

// harness owns the nodes and the frame router. Everything is
// single-threaded: Tick and HandleControl run on the caller's
// goroutine, sends append to the queue, and the round loop drains it
// to empty (delta budgets guarantee the drain terminates).
type harness struct {
	ids     []string
	nodes   []*cluster.Node
	brokers []*broker.Broker
	index   map[string]int
	queue   []frame
	now     time.Time
	err     error // first broker error; deliver stops on it

	subFrames    uint64
	deliveries   int
	deliveryHash uint64
	framesByKind map[string]uint64
}

// link adapts one harness slot to cluster.Link. Connects succeed
// inline (the graph has no partitions — this harness measures cost,
// not healing, which the chaos and partition suites cover).
type link struct {
	h  *harness
	id string
}

func (l *link) Self() string { return l.id }

func (l *link) Send(peer string, msg broker.Message) bool {
	l.h.queue = append(l.h.queue, frame{l.id, peer, msg})
	return true
}

func (l *link) Connect(peer, addr string, done func(established bool, err error)) {
	done(true, nil)
}

func (l *link) Roots(peer string) []broker.BatchSub          { return nil }
func (l *link) ClusterCapable(peer string) bool              { return true }
func (l *link) SyncOnConnect() bool                          { return true }
func (l *link) Digest(peer string) (broker.LinkDigest, bool) { return broker.LinkDigest{}, false }

// deliver drains the frame queue to empty, routing every reply. FIFO
// order keeps runs reproducible. Control frames dispatch to the
// destination's membership node, broker frames to its broker, and
// frames addressed to a client port are terminal deliveries.
func (h *harness) deliver() {
	for len(h.queue) > 0 && h.err == nil {
		f := h.queue[0]
		h.queue = h.queue[1:]
		h.framesByKind[f.msg.Kind.String()]++
		i, ok := h.index[f.to]
		if !ok {
			// A client port: record the notification and stop routing.
			if f.msg.Kind == broker.MsgNotify {
				h.deliveries++
				h.deliveryHash ^= hash64(f.to + "|" + f.msg.SubID + "|" + f.msg.PubID)
			}
			continue
		}
		if f.msg.Kind.IsControl() {
			for _, out := range h.nodes[i].HandleControl(f.from, f.msg) {
				h.queue = append(h.queue, frame{f.to, out.To, out.Msg})
			}
			continue
		}
		switch f.msg.Kind {
		case broker.MsgSubscribe, broker.MsgSubscribeBatch, broker.MsgRouteAnnounce:
			h.subFrames++
		}
		outs, err := h.brokers[i].Handle(f.from, f.msg)
		if err != nil {
			h.err = fmt.Errorf("scale: %s handling %v from %s: %w", f.to, f.msg.Kind, f.from, err)
			return
		}
		for _, out := range outs {
			h.queue = append(h.queue, frame{f.to, out.To, out.Msg})
		}
	}
	h.queue = nil // release the grown backing array between rounds
}

// inject runs one client-originated message through broker i and
// drains everything it causes.
func (h *harness) inject(i int, msg broker.Message) {
	outs, err := h.brokers[i].Handle("c-"+h.ids[i], msg)
	if err != nil {
		h.err = fmt.Errorf("scale: %s injecting %v: %w", h.ids[i], msg.Kind, err)
		return
	}
	for _, out := range outs {
		h.queue = append(h.queue, frame{h.ids[i], out.To, out.Msg})
	}
	h.deliver()
}

// hash64 is FNV-1a with an avalanche tail, for order-independent
// XOR-folding of delivery records.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// converged reports whether every node sees all n members alive.
func (h *harness) converged() bool {
	for _, n := range h.nodes {
		alive, total := n.AliveCount()
		if alive != len(h.nodes) || total != len(h.nodes) {
			return false
		}
	}
	return true
}

// totals sums the traffic counters across all nodes.
func (h *harness) totals() (bytes, fullGossip, deltaFrames uint64) {
	for _, n := range h.nodes {
		m := n.Metrics()
		bytes += m.ControlBytesSent
		fullGossip += m.GossipSent
		deltaFrames += m.DeltaFramesSent
	}
	return
}

// Run executes one scale experiment.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 3 {
		return Report{}, fmt.Errorf("scale: need at least 3 members, got %d", cfg.N)
	}
	const pingEvery = time.Second
	h := &harness{
		ids:          make([]string, cfg.N),
		nodes:        make([]*cluster.Node, cfg.N),
		index:        make(map[string]int, cfg.N),
		now:          time.Unix(0, 0),
		framesByKind: make(map[string]uint64),
	}
	clock := func() time.Time { return h.now }
	ncfg := cluster.Config{
		PingEvery:     pingEvery,
		GossipEvery:   pingEvery,
		SuspectMisses: 3,
		DeadAfter:     10 * pingEvery,
		ReconnectMin:  pingEvery,
		ReconnectMax:  4 * pingEvery,
		Seed:          cfg.Seed,
		Clock:         clock,
		LegacyGossip:  cfg.LegacyGossip,
	}
	h.brokers = make([]*broker.Broker, cfg.N)
	for i := range h.nodes {
		id := fmt.Sprintf("b%04d", i)
		h.ids[i] = id
		h.index[id] = i
		h.nodes[i] = cluster.NewNode(cluster.Member{ID: id, Addr: id}, &link{h: h, id: id}, ncfg)
		b, err := broker.New(id, store.PolicyPairwise)
		if err != nil {
			return Report{}, err
		}
		h.brokers[i] = b
		b.AttachClient("c-" + id)
		if cfg.Routed {
			cluster.AttachRouter(h.nodes[i], b, cluster.RouterConfig{})
		}
	}

	// Overlay: ring + chords. Each link is registered on both ends, so
	// both sides probe and both sides gossip across it — and the
	// brokers carry the same graph as their content overlay.
	degree := make([]int, cfg.N)
	connect := func(i, j int) bool {
		if i == j {
			return false
		}
		h.nodes[i].AddMember(cluster.Member{ID: h.ids[j], Addr: h.ids[j]}, true)
		h.nodes[j].AddMember(cluster.Member{ID: h.ids[i], Addr: h.ids[i]}, true)
		if err := h.brokers[i].ConnectNeighbor(h.ids[j]); err != nil {
			return false
		}
		if err := h.brokers[j].ConnectNeighbor(h.ids[i]); err != nil {
			return false
		}
		degree[i]++
		degree[j]++
		return true
	}
	links := 0
	for i := 0; i < cfg.N; i++ {
		if connect(i, (i+1)%cfg.N) {
			links++
		}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed|1))
	for i := 0; i < cfg.N; i++ {
		for c := 0; c < cfg.Chords; c++ {
			if connect(i, rng.IntN(cfg.N)) {
				links++
			}
		}
	}

	round := func() {
		h.now = h.now.Add(pingEvery)
		for _, n := range h.nodes {
			n.Tick()
		}
		h.deliver()
	}

	rep := Report{N: cfg.N, Links: links}
	for _, d := range degree {
		rep.MaxDegree = max(rep.MaxDegree, d)
	}

	// Phase 1: converge.
	for rep.ConvergedRound = 1; ; rep.ConvergedRound++ {
		if rep.ConvergedRound > cfg.MaxRounds {
			return rep, fmt.Errorf("scale: n=%d not converged after %d rounds", cfg.N, cfg.MaxRounds)
		}
		round()
		if h.converged() {
			break
		}
	}
	rep.ConvergedTime = time.Duration(rep.ConvergedRound) * pingEvery

	// Phase 2: steady-state measurement window.
	bytes0, full0, delta0 := h.totals()
	for r := 0; r < cfg.SteadyRounds; r++ {
		round()
	}
	bytes1, full1, delta1 := h.totals()
	rep.SteadyBytesPerMemberRound = float64(bytes1-bytes0) / float64(cfg.N*cfg.SteadyRounds)
	rep.SteadyFullGossipFrames = full1 - full0
	rep.SteadyDeltaFrames = delta1 - delta0
	rep.TotalControlBytes = bytes1

	// Phase 3: content layer. Inject client subscriptions over the
	// converged overlay (every draw comes from the same seeded stream,
	// so a routed and a flood run issue identical operations), count
	// the announcement frames they cost, then probe with publications
	// and fold the delivery set.
	if cfg.Subs > 0 {
		type subRec struct{ lo, hi int64 }
		subs := make([]subRec, cfg.Subs)
		frames0 := h.subFrames
		for k := range subs {
			origin := rng.IntN(cfg.N)
			lo := int64(rng.IntN(4000))
			width := int64(16 + rng.IntN(112))
			subs[k] = subRec{lo, lo + width}
			s := subscription.New(interval.New(lo, lo+width), interval.New(lo, lo+width))
			h.inject(origin, broker.Message{Kind: broker.MsgSubscribe, SubID: fmt.Sprintf("s%05d", k), Sub: s})
			if h.err != nil {
				return rep, h.err
			}
		}
		rep.SubFrames = h.subFrames - frames0
		rep.SubFramesPerLink = float64(rep.SubFrames) / float64(2*links)
		for _, b := range h.brokers {
			t, e := b.RouteTableStats()
			rep.RouteTables += t
			rep.RouteEntries += e
		}
		for k := 0; k < cfg.Pubs; k++ {
			sr := subs[k%len(subs)]
			mid := (sr.lo + sr.hi) / 2
			origin := rng.IntN(cfg.N)
			h.inject(origin, broker.Message{Kind: broker.MsgPublish, PubID: fmt.Sprintf("p%05d", k),
				Pub: subscription.NewPublication(mid, mid)})
			if h.err != nil {
				return rep, h.err
			}
		}
		rep.Deliveries = h.deliveries
		rep.DeliveryHash = h.deliveryHash
	}
	rep.FramesByKind = h.framesByKind
	return rep, nil
}
