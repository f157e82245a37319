// Package scale is a deterministic membership-at-scale harness: it
// runs hundreds to thousands of real brokers, each with a
// cluster.Node from cluster.NewSimNode, on the internal/simnet
// simulator (no sockets, no goroutines) and measures what the paper's
// evaluation cares about at that size — how many protocol rounds a
// sparse overlay needs before every node sees every member alive, how
// many gossip bytes per member per round the steady state costs once
// it has, and, with Config.Subs, how many subscription frames each
// link carries.
//
// The overlay is a ring plus a few pseudo-random chord links per node
// (a small-world graph: O(log n) diameter at constant degree), the
// simnet.Clock is advanced one PingEvery per round, and every random
// choice derives from Config.Seed — the same seed always produces the
// same round-by-round trace, which is what lets CI gate on the
// numbers.
package scale

import (
	"fmt"
	"math/rand/v2"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub/cluster"
)

// The overlay and round budget of every scale run.
const (
	// chords is the number of extra pseudo-random overlay links per
	// node beyond the ring (degree ≈ 2 + 2·chords).
	chords = 2
	// maxRounds bounds the convergence phase: a run that has not
	// converged by then fails.
	maxRounds = 200
	// steadyRounds is the post-convergence measurement window.
	steadyRounds = 20
)

// Config sizes one scale run. Zero values select the noted defaults.
type Config struct {
	// N is the member count (default 200).
	N int
	// Seed drives every random choice of the run (default 1).
	Seed uint64
	// Subs injects that many client subscriptions after convergence
	// and counts the subscription-announcement frames each broker link
	// carries (default 0: membership-only run).
	Subs int
	// Pubs publishes that many probe publications through injected
	// subscriptions and checks the delivery set against a brute-force
	// oracle (default 0; needs Subs > 0).
	Pubs int
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
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
	// SUBBATCH) brokers sent during the subscription phase;
	// SubFramesPerLink is the same count per directed overlay
	// link — what per-link coverage leaves of a flood.
	SubFrames        uint64
	SubFramesPerLink float64
	// Deliveries counts probe notifications reaching clients;
	// DeliveryHash folds every (client, sub, pub) delivery
	// order-independently. Run fails unless both equal what the
	// brute-force oracle expects — the delivery-equivalence gate.
	Deliveries   int
	DeliveryHash uint64
	// FramesByKind counts every message a broker emitted over the
	// whole run, keyed by wire kind name — the per-kind traffic profile
	// the observability layer exposes per link on real transports,
	// summed across the simulated overlay here.
	FramesByKind map[string]uint64
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

// converged reports whether every node sees all len(nodes) members
// alive.
func converged(nodes []*cluster.Node) bool {
	for _, n := range nodes {
		alive, total := n.AliveCount()
		if alive != len(nodes) || total != len(nodes) {
			return false
		}
	}
	return true
}

// totals sums the traffic counters across all nodes.
func totals(nodes []*cluster.Node) (bytes, fullGossip, deltaFrames uint64) {
	for _, n := range nodes {
		m := n.Metrics()
		bytes += m.ControlBytesSent
		fullGossip += m.GossipSent
		deltaFrames += m.DeltaFramesSent
	}
	return
}

// subFrames counts the subscription announcements brokers have sent.
func subFrames(net *simnet.Network) uint64 {
	k := net.FramesByKind()
	return k[broker.MsgSubscribe.String()] + k[broker.MsgSubscribeBatch.String()]
}

// Run executes one scale experiment.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 3 {
		return Report{}, fmt.Errorf("scale: need at least 3 members, got %d", cfg.N)
	}
	const pingEvery = time.Second
	net := simnet.New()
	clock := simnet.NewClock()
	ncfg := cluster.Config{
		PingEvery:     pingEvery,
		GossipEvery:   pingEvery,
		SuspectMisses: 3,
		DeadAfter:     10 * pingEvery,
		ReconnectMin:  pingEvery,
		ReconnectMax:  4 * pingEvery,
		Seed:          cfg.Seed,
	}
	ids := make([]string, cfg.N)
	nodes := make([]*cluster.Node, cfg.N)
	for i := range nodes {
		id := fmt.Sprintf("b%04d", i)
		ids[i] = id
		if err := net.AddBroker(id, store.PolicyPairwise); err != nil {
			return Report{}, err
		}
		if err := net.AttachClient("c-"+id, id); err != nil {
			return Report{}, err
		}
		n, err := cluster.NewSimNode(net, id, clock, ncfg)
		if err != nil {
			return Report{}, err
		}
		nodes[i] = n
	}

	// Overlay: ring + chords. Each link is registered on both ends, so
	// both sides probe and both sides gossip across it — and the
	// brokers carry the same graph as their content overlay.
	degree := make([]int, cfg.N)
	connect := func(i, j int) bool {
		if i == j {
			return false
		}
		nodes[i].AddMember(cluster.Member{ID: ids[j], Addr: ids[j]}, true)
		nodes[j].AddMember(cluster.Member{ID: ids[i], Addr: ids[i]}, true)
		if err := net.Connect(ids[i], ids[j]); err != nil {
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
		for c := 0; c < chords; c++ {
			if connect(i, rng.IntN(cfg.N)) {
				links++
			}
		}
	}

	round := func() error {
		clock.Advance(pingEvery)
		for _, n := range nodes {
			n.Tick()
		}
		_, err := net.Run()
		return err
	}
	// send runs one client-originated message from the client of broker
	// i and everything it causes.
	send := func(i int, msg broker.Message) error {
		if err := net.ClientSend("c-"+ids[i], msg); err != nil {
			return err
		}
		_, err := net.Run()
		return err
	}

	rep := Report{N: cfg.N, Links: links}
	for _, d := range degree {
		rep.MaxDegree = max(rep.MaxDegree, d)
	}

	// Phase 1: converge.
	for rep.ConvergedRound = 1; ; rep.ConvergedRound++ {
		if rep.ConvergedRound > maxRounds {
			return rep, fmt.Errorf("scale: n=%d not converged after %d rounds", cfg.N, maxRounds)
		}
		if err := round(); err != nil {
			return rep, fmt.Errorf("scale: %w", err)
		}
		if converged(nodes) {
			break
		}
	}
	rep.ConvergedTime = time.Duration(rep.ConvergedRound) * pingEvery

	// Phase 2: steady-state measurement window.
	bytes0, full0, delta0 := totals(nodes)
	for r := 0; r < steadyRounds; r++ {
		if err := round(); err != nil {
			return rep, fmt.Errorf("scale: %w", err)
		}
	}
	bytes1, full1, delta1 := totals(nodes)
	rep.SteadyBytesPerMemberRound = float64(bytes1-bytes0) / float64(cfg.N*steadyRounds)
	rep.SteadyFullGossipFrames = full1 - full0
	rep.SteadyDeltaFrames = delta1 - delta0
	rep.TotalControlBytes = bytes1

	// Phase 3: content layer. Inject client subscriptions over the
	// converged overlay, count the announcement frames they cost, then
	// probe with publications and fold the delivery set. The oracle is
	// computed from the same draws: a publication reaches every
	// subscription whose box contains it, except those of the
	// publishing client (handlePublish skips the arrival port).
	if cfg.Subs > 0 {
		type subRec struct {
			origin int
			id     string
			sub    subscription.Subscription
		}
		subs := make([]subRec, cfg.Subs)
		frames0 := subFrames(net)
		for k := range subs {
			origin := rng.IntN(cfg.N)
			lo := int64(rng.IntN(4000))
			width := int64(16 + rng.IntN(112))
			s := subscription.New(interval.New(lo, lo+width), interval.New(lo, lo+width))
			subs[k] = subRec{origin, fmt.Sprintf("s%05d", k), s}
			if err := send(origin, broker.Message{Kind: broker.MsgSubscribe, SubID: subs[k].id, Sub: s}); err != nil {
				return rep, fmt.Errorf("scale: %w", err)
			}
		}
		rep.SubFrames = subFrames(net) - frames0
		rep.SubFramesPerLink = float64(rep.SubFrames) / float64(2*links)
		var want int
		var wantHash uint64
		for k := 0; k < cfg.Pubs; k++ {
			x := subs[k%len(subs)].sub.Bounds[0]
			mid := (x.Lo + x.Hi) / 2
			origin := rng.IntN(cfg.N)
			pubID := fmt.Sprintf("p%05d", k)
			pub := subscription.NewPublication(mid, mid)
			if err := send(origin, broker.Message{Kind: broker.MsgPublish, PubID: pubID, Pub: pub}); err != nil {
				return rep, fmt.Errorf("scale: %w", err)
			}
			for _, sr := range subs {
				if sr.origin != origin && sr.sub.Matches(pub) {
					want++
					wantHash ^= hash64("c-" + ids[sr.origin] + "|" + sr.id + "|" + pubID)
				}
			}
		}
		for _, id := range ids {
			for _, m := range net.Delivered("c-" + id) {
				if m.Kind != broker.MsgNotifyBatch {
					continue
				}
				for _, subID := range m.SubIDs {
					rep.Deliveries++
					rep.DeliveryHash ^= hash64("c-" + id + "|" + subID + "|" + m.PubID)
				}
			}
		}
		if rep.Deliveries != want || rep.DeliveryHash != wantHash {
			return rep, fmt.Errorf("scale: delivery divergence: %d (%#x) delivered, oracle expects %d (%#x)",
				rep.Deliveries, rep.DeliveryHash, want, wantHash)
		}
	}
	rep.FramesByKind = net.FramesByKind()
	return rep, nil
}
