package cluster

// Deterministic chaos harness: a broker chain with durable journals
// under a seeded schedule of crash-restarts, partitions, message
// drops, duplication, and delays — all on the simulator, so a seed
// fully determines the run. The harness is the reproducible half of
// the robustness story: the same seed run with faults disabled is the
// oracle, and after the faulted run heals (reconnect loop + digest
// reconciliation) its probe deliveries must match the oracle's
// exactly. The TCP kill -9 test covers the same recovery path against
// real processes; this harness covers the schedule space.

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/obs"
	"probsum/internal/persist"
	"probsum/internal/simnet"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub"
)

// The shape of every chaos run.
const (
	// chaosBrokers is the chain length. Each broker hosts one client.
	chaosBrokers = 4
	// chaosRounds is the number of fault rounds. Every round issues a
	// few client operations and may crash a broker or cut a link.
	chaosRounds = 8
	// chaosSyncEvery is the journal fsync batch: every record is
	// durable, so a crash loses nothing that was applied.
	chaosSyncEvery = 1
	// chaosDropRate, chaosDupRate and chaosDelayRate are the
	// per-message injection probabilities on broker links during the
	// fault phase. All are forced to zero for the heal and probe
	// phases.
	chaosDropRate  = 0.03
	chaosDupRate   = 0.03
	chaosDelayRate = 0.05
	// maxHealRounds bounds the gossip rounds the heal phase may take
	// to converge every link digest.
	maxHealRounds = 24
)

// ChaosConfig selects one chaos run.
type ChaosConfig struct {
	// Seed determines the entire schedule (0 selects 1).
	Seed uint64
	// Faults enables injection; with false the same seed produces the
	// oracle run: identical operations, no faults.
	Faults bool
}

// ChaosReport summarizes one run.
type ChaosReport struct {
	// Crashes / Partitions count injected faults; Subscribes /
	// Unsubscribes the client operations issued.
	Crashes      int
	Partitions   int
	Subscribes   int
	Unsubscribes int
	// Recovered sums the journal records replayed across restarts.
	Recovered int
	// HealRounds is how many gossip rounds the heal phase took until
	// every link digest converged; Converged is false when the bound
	// ran out first.
	HealRounds int
	Converged  bool
	// SyncRequests / RootsResent / StalePruned aggregate the digest
	// protocol's repair work across all brokers.
	SyncRequests int
	RootsResent  int
	StalePruned  int
	// Probes is the number of probe publications; Deliveries the
	// per-client sets of "subID/pubID" probe notifications — the
	// oracle comparison surface.
	Probes     int
	Deliveries map[string]map[string]bool
	// FlightDump is the run's flight-recorder tail (crashes, restarts,
	// partitions, suspicions, deaths, recoveries),
	// oldest-first — attached to failure reports so a divergent run
	// explains itself.
	FlightDump []string
}

// chaosRun carries one run's live state.
type chaosRun struct {
	rng    *rand.Rand
	net    *simnet.Network
	clock  *simnet.Clock
	ids    []string
	edges  [][2]string
	nodes  map[string]*Node
	stores map[string]*persist.MemStore
	flight *obs.FlightRecorder
	report ChaosReport
}

// RunChaos executes one seeded chaos (or oracle) run and returns its
// report. Errors are structural (a broker refused an operation), not
// behavioral — behavioral divergence is what the report's Deliveries
// and Converged fields are for.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &chaosRun{
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed|1)),
		clock:  simnet.NewClock(),
		nodes:  make(map[string]*Node),
		stores: make(map[string]*persist.MemStore),
	}
	r.flight = obs.NewFlightRecorder(512, r.clock.Now)
	var opts []simnet.Option
	if cfg.Faults {
		opts = append(opts,
			simnet.WithFailures(chaosDropRate, chaosDupRate, cfg.Seed^0xc4a0),
			simnet.WithDelays(chaosDelayRate, cfg.Seed^0xd31a))
	}
	r.net = simnet.New(opts...)

	for i := 0; i < chaosBrokers; i++ {
		id := fmt.Sprintf("B%d", i+1)
		r.ids = append(r.ids, id)
		if err := r.net.AddBroker(id, store.PolicyPairwise); err != nil {
			return nil, err
		}
		st := persist.NewMemStore()
		r.stores[id] = st
		b := r.net.Broker(id)
		b.SetJournal(pubsub.NewBrokerJournal(b, st, chaosSyncEvery))
	}
	for i := 0; i+1 < chaosBrokers; i++ {
		a, b := r.ids[i], r.ids[i+1]
		if err := r.net.Connect(a, b); err != nil {
			return nil, err
		}
		r.edges = append(r.edges, [2]string{a, b})
	}
	ncfg := Config{
		PingEvery:     500 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     2 * time.Second,
		GossipEvery:   time.Second,
		ReconnectMin:  500 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
		Seed:          cfg.Seed ^ 0x0de,
		Events:        r.flight,
	}
	for _, id := range r.ids {
		n, err := NewSimNode(r.net, id, r.clock, ncfg)
		if err != nil {
			return nil, err
		}
		r.nodes[id] = n
	}
	for _, e := range r.edges {
		r.nodes[e[0]].AddMember(Member{ID: e[1], Addr: e[1]}, true)
		r.nodes[e[1]].AddMember(Member{ID: e[0], Addr: e[0]}, true)
	}
	for _, id := range r.ids {
		if err := r.net.AttachClient("c-"+id, id); err != nil {
			return nil, err
		}
	}

	// Assemble the membership layer before any fault.
	if err := r.step(250*time.Millisecond, 8); err != nil {
		return nil, err
	}

	// live tracks the schedule's subscriptions: subID → owner client
	// index and box. Both the faulted and the oracle run derive the
	// same schedule from it.
	type liveSub struct {
		client int
		lo, hi int64
	}
	live := make(map[string]liveSub)
	liveIDs := []string{} // deterministic iteration order
	subSeq := 0

	for round := 0; round < chaosRounds; round++ {
		// Scripted fault for this round (decided by the seed whether
		// or not faults are enabled, so the operation schedule below
		// is identical in both runs).
		crashIdx, cutEdge := -1, -1
		switch r.rng.IntN(3) {
		case 0:
			crashIdx = r.rng.IntN(chaosBrokers)
		case 1:
			cutEdge = r.rng.IntN(len(r.edges))
		}
		if crashIdx >= 0 {
			r.report.Crashes++
			if cfg.Faults {
				r.flight.Recordf("crash", "harness", "round %d: %s", round, r.ids[crashIdx])
				if err := r.crash(r.ids[crashIdx]); err != nil {
					return nil, err
				}
			}
		}
		if cutEdge >= 0 {
			r.report.Partitions++
			if cfg.Faults {
				r.flight.Recordf("partition", "harness", "round %d: %s-%s cut", round, r.edges[cutEdge][0], r.edges[cutEdge][1])
				r.net.SetLink(r.edges[cutEdge][0], r.edges[cutEdge][1], false)
			}
		}
		if err := r.step(250*time.Millisecond, 4); err != nil {
			return nil, err
		}

		// Client operations from brokers the script has alive.
		for op := 0; op < 2; op++ {
			ci := r.rng.IntN(chaosBrokers)
			unsub := r.rng.IntN(3) == 0 && len(liveIDs) > 0
			var victim int
			if unsub {
				victim = r.rng.IntN(len(liveIDs))
			}
			lo := int64(r.rng.IntN(900))
			width := int64(20 + r.rng.IntN(180))
			if ci == crashIdx {
				continue // its broker is down this round, in both runs
			}
			client := "c-" + r.ids[ci]
			if unsub {
				subID := liveIDs[victim]
				if live[subID].client != ci {
					continue // only the owner can unsubscribe
				}
				delete(live, subID)
				liveIDs = append(liveIDs[:victim], liveIDs[victim+1:]...)
				r.report.Unsubscribes++
				if err := r.net.ClientSend(client, broker.Message{Kind: broker.MsgUnsubscribe, SubID: subID}); err != nil {
					return nil, err
				}
			} else {
				subSeq++
				subID := fmt.Sprintf("s%d", subSeq)
				live[subID] = liveSub{client: ci, lo: lo, hi: lo + width}
				liveIDs = append(liveIDs, subID)
				r.report.Subscribes++
				s := subscription.New(interval.New(lo, lo+width), interval.New(lo, lo+width))
				if err := r.net.ClientSend(client, broker.Message{Kind: broker.MsgSubscribe, SubID: subID, Sub: s}); err != nil {
					return nil, err
				}
			}
			if _, err := r.net.Run(); err != nil {
				return nil, err
			}
		}
		if err := r.step(250*time.Millisecond, 4); err != nil {
			return nil, err
		}

		// Heal this round's faults.
		if cutEdge >= 0 && cfg.Faults {
			r.flight.Recordf("heal", "harness", "round %d: %s-%s restored", round, r.edges[cutEdge][0], r.edges[cutEdge][1])
			r.net.SetLink(r.edges[cutEdge][0], r.edges[cutEdge][1], true)
		}
		if crashIdx >= 0 && cfg.Faults {
			r.flight.Recordf("restart", "harness", "round %d: %s", round, r.ids[crashIdx])
			if err := r.restart(r.ids[crashIdx]); err != nil {
				return nil, err
			}
		}
		if err := r.step(250*time.Millisecond, 4); err != nil {
			return nil, err
		}
	}

	// Heal phase: injection off, everything alive; gossip rounds run
	// until every link digest converges (bounded).
	r.net.SetFailureRates(0, 0, 0)
	if err := r.step(250*time.Millisecond, 12); err != nil {
		return nil, err
	}
	for r.report.HealRounds = 0; r.report.HealRounds < maxHealRounds; r.report.HealRounds++ {
		if r.converged() {
			r.report.Converged = true
			break
		}
		if err := r.step(ncfg.GossipEvery, 1); err != nil {
			return nil, err
		}
	}
	if !r.report.Converged && r.converged() {
		r.report.Converged = true
	}

	// Probe phase: one publication through the midpoint of every live
	// subscription, published from a rotating client. Deliveries of
	// exactly these IDs are the oracle comparison surface.
	r.net.ClearDeliveries()
	sort.Strings(liveIDs)
	for i, subID := range liveIDs {
		ls := live[subID]
		mid := (ls.lo + ls.hi) / 2
		from := "c-" + r.ids[i%chaosBrokers]
		pubID := fmt.Sprintf("probe-%d", i)
		r.report.Probes++
		if err := r.net.ClientSend(from, broker.Message{Kind: broker.MsgPublish, PubID: pubID, Pub: subscription.NewPublication(mid, mid)}); err != nil {
			return nil, err
		}
		if _, err := r.net.Run(); err != nil {
			return nil, err
		}
	}
	r.report.Deliveries = make(map[string]map[string]bool)
	for _, id := range r.ids {
		set := make(map[string]bool)
		for _, m := range r.net.Delivered("c-" + id) {
			if m.Kind != broker.MsgNotifyBatch {
				continue
			}
			for _, subID := range m.SubIDs {
				set[subID+"/"+m.PubID] = true
			}
		}
		r.report.Deliveries["c-"+id] = set
	}
	r.report.FlightDump = r.flight.Dump()
	for _, id := range r.ids {
		m := r.net.Broker(id).Metrics()
		r.report.SyncRequests += m.SyncRequests
		r.report.RootsResent += m.SyncRootsResent
		r.report.StalePruned += m.SyncStalePruned
	}
	return &r.report, nil
}

// step advances the clock, ticks every live node, and runs the
// network to quiescence, `ticks` times.
func (r *chaosRun) step(d time.Duration, ticks int) error {
	for i := 0; i < ticks; i++ {
		r.clock.Advance(d)
		for _, id := range r.ids {
			if r.net.Crashed(id) {
				continue // dead processes do not tick
			}
			r.nodes[id].Tick()
		}
		if _, err := r.net.Run(); err != nil {
			return err
		}
	}
	return nil
}

// crash kills a broker: the unsynced journal tail is lost with the
// process, and the simulator drops everything sent to it until
// restart.
func (r *chaosRun) crash(id string) error {
	r.stores[id].Crash()
	return r.net.CrashBroker(id)
}

// restart recovers a fresh broker from the crashed one's store and
// reinstalls it — the simulated form of restarting brokerd over the
// same -data-dir.
func (r *chaosRun) restart(id string) error {
	b, err := broker.New(id, store.PolicyPairwise)
	if err != nil {
		return err
	}
	rec, err := pubsub.RecoverBroker(b, r.stores[id])
	if err != nil {
		return err
	}
	r.report.Recovered += rec.SnapshotOps + rec.JournalRecords
	b.SetJournal(pubsub.NewBrokerJournal(b, r.stores[id], chaosSyncEvery))
	if err := r.net.RestartBroker(id, b); err != nil {
		return err
	}
	// The recovered broker keeps its membership node; only the control
	// handler must be re-pointed at the new broker object.
	b.SetControlHandler(r.nodes[id].HandleControl)
	return nil
}

// converged reports whether every link's sender digest matches the
// receiver's received digest, in both directions.
func (r *chaosRun) converged() bool {
	for _, e := range r.edges {
		for _, dir := range [][2]string{{e[0], e[1]}, {e[1], e[0]}} {
			sender, receiver := r.net.Broker(dir[0]), r.net.Broker(dir[1])
			if sender == nil || receiver == nil {
				return false
			}
			sent, ok := sender.LinkDigest(dir[1])
			if !ok {
				return false
			}
			if sent != receiver.ReceivedDigest(dir[0]) {
				return false
			}
		}
	}
	return true
}
