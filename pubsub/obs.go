package pubsub

// Observability wiring for the TCP transport: every tcpServer owns an
// obs.Registry and threads its histograms and per-link frame stats
// through the frame path. The broker core's counters, routing-table
// footprint, rendezvous-owner load, recovery stats, and send-queue
// depths are registered as pull callbacks — scrapes read them, the
// hot paths never touch the registry.

import (
	"strings"
	"time"

	"probsum/internal/broker"
	"probsum/internal/core"
	"probsum/internal/obs"
	"probsum/internal/store"
)

// Registry names for the publish-stage histograms. The full publish
// pipeline reads: decode → match → route → enqueue → write.
const (
	histFrameDecode  = "publish_stage_decode_ns"
	histMatch        = "publish_stage_match_ns"
	histRoute        = "publish_stage_route_ns"
	histFrameEnqueue = "publish_stage_enqueue_ns"
	histFrameWrite   = "publish_stage_write_ns"
)

// newServerRegistry builds the registry for one tcpServer and wires
// the broker core into it: publish-stage observer, counter callbacks,
// route-table gauges, and the flight recorder.
func newServerRegistry(core *broker.Broker) *obs.Registry {
	reg := obs.NewRegistry(obs.NewFlightRecorder(512, time.Now))
	reg.SetKindNamer(func(k int) string { return broker.MsgKind(k).String() })
	core.SetPublishObserver(&broker.PublishObserver{
		Clock: time.Now,
		Match: reg.Histogram(histMatch),
		Route: reg.Histogram(histRoute),
	})
	registerBrokerMetrics(reg, core)
	reg.RegisterGauge("route_tables", func() int64 {
		tables, _ := core.RouteTableStats()
		return int64(tables)
	})
	reg.RegisterGauge("route_entries", func() int64 {
		_, entries := core.RouteTableStats()
		return int64(entries)
	})
	reg.RegisterGaugeVec("rendezvous_owner_load", func(emit func(string, int64)) {
		for target, n := range core.RouteTargetLoad() {
			emit(target, int64(n))
		}
	})
	return reg
}

// registerBrokerMetrics exposes every broker.Metrics counter as its
// own series. Each callback snapshots the atomics at scrape time.
func registerBrokerMetrics(reg *obs.Registry, core *broker.Broker) {
	for name, pick := range map[string]func(broker.Metrics) int{
		"broker_subs_received":     func(m broker.Metrics) int { return m.SubsReceived },
		"broker_subs_forwarded":    func(m broker.Metrics) int { return m.SubsForwarded },
		"broker_subs_suppressed":   func(m broker.Metrics) int { return m.SubsSuppressed },
		"broker_dup_subs_dropped":  func(m broker.Metrics) int { return m.DupSubsDropped },
		"broker_unsubs_forwarded":  func(m broker.Metrics) int { return m.UnsubsForwarded },
		"broker_pubs_received":     func(m broker.Metrics) int { return m.PubsReceived },
		"broker_pubs_forwarded":    func(m broker.Metrics) int { return m.PubsForwarded },
		"broker_dup_pubs_dropped":  func(m broker.Metrics) int { return m.DupPubsDropped },
		"broker_notifications":     func(m broker.Metrics) int { return m.Notifications },
		"broker_promotions":        func(m broker.Metrics) int { return m.Promotions },
		"broker_sync_requests":     func(m broker.Metrics) int { return m.SyncRequests },
		"broker_sync_roots_resent": func(m broker.Metrics) int { return m.SyncRootsResent },
		"broker_sync_stale_pruned": func(m broker.Metrics) int { return m.SyncStalePruned },
		"broker_control_dropped":   func(m broker.Metrics) int { return m.ControlDropped },
		"broker_routed_subs":       func(m broker.Metrics) int { return m.RoutedSubs },
		"broker_route_forwards":    func(m broker.Metrics) int { return m.RouteForwards },
		"broker_routed_pubs":       func(m broker.Metrics) int { return m.RoutedPubs },
	} {
		pick := pick
		reg.RegisterCounter(name, func() int64 { return int64(pick(core.Metrics())) })
	}
	registerCheckerMetrics(reg, core)
}

// registerCheckerMetrics exposes the coverage checker's accounting,
// summed over the broker's tables: the paper's quantities as live
// series. A probabilistic YES (broker_checker_decisions_trials_
// exhausted) is wrong with probability at most δ unless it is also
// counted in broker_checker_capped; every other decision is exact.
// broker_checker_recheck_calls over broker_table_unsubscribes is the
// checker cost of one removal.
func registerCheckerMetrics(reg *obs.Registry, b *broker.Broker) {
	for name, pick := range map[string]func(store.CheckerStats) uint64{
		"broker_checker_calls":          func(s store.CheckerStats) uint64 { return s.Calls },
		"broker_checker_candidate_rows": func(s store.CheckerStats) uint64 { return s.CandidateRows },
		"broker_checker_recheck_calls":  func(s store.CheckerStats) uint64 { return s.RecheckCalls },
		"broker_table_unsubscribes":     func(s store.CheckerStats) uint64 { return s.Unsubscribes },
		"broker_checker_rspc_trials":    func(s store.CheckerStats) uint64 { return s.Trials },
		"broker_checker_capped":         func(s store.CheckerStats) uint64 { return s.Capped },
	} {
		pick := pick
		reg.RegisterCounter(name, func() int64 { return int64(pick(b.CheckerStats())) })
	}
	for r := core.ReasonPairwiseCover; r <= core.ReasonResidualCover; r++ {
		r := r
		name := "broker_checker_decisions_" + strings.ReplaceAll(r.String(), "-", "_")
		reg.RegisterCounter(name, func() int64 { return int64(b.CheckerStats().Decisions[r]) })
	}
}

// registerQueueDepths exposes per-port send-queue depth as a labeled
// gauge family (and the sum as a plain gauge).
func registerQueueDepths(reg *obs.Registry, s *tcpServer) {
	depths := func(emit func(string, int64)) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, p := range s.ports {
			emit(name, int64(len(p.ch)))
		}
	}
	reg.RegisterGaugeVec("send_queue_depth", depths)
	reg.RegisterGauge("send_queue_depth_total", func() int64 {
		var total int64
		depths(func(_ string, v int64) { total += v })
		return total
	})
}

// registerRecoveryStats exposes the boot-time journal replay figures.
func registerRecoveryStats(reg *obs.Registry, rec RecoveryStats) {
	reg.RegisterGauge("recovery_snapshot_ops", func() int64 { return int64(rec.SnapshotOps) })
	reg.RegisterGauge("recovery_journal_records", func() int64 { return int64(rec.JournalRecords) })
	reg.RegisterGauge("recovery_skipped", func() int64 { return int64(rec.Skipped) })
	reg.RegisterGauge("recovery_dropped_bytes", func() int64 { return rec.DroppedBytes })
	reg.RegisterGauge("recovery_subscriptions", func() int64 { return int64(rec.Subscriptions) })
	reg.RegisterGauge("recovery_clients", func() int64 { return int64(rec.Clients) })
	reg.RegisterGauge("recovery_neighbors", func() int64 { return int64(rec.Neighbors) })
	reg.RegisterGauge("recovery_truncated", func() int64 {
		if rec.Truncated {
			return 1
		}
		return 0
	})
}
