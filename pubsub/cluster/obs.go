package cluster

// Observability: a membership node exports its view and activity
// counters through the same pull-model registry the transport uses —
// callbacks snapshot NodeMetrics at scrape time, so the hot paths pay
// nothing for an attached registry.

import "probsum/internal/obs"

// RegisterObservability registers the node's member-view gauges and
// membership-protocol counters on reg (brokerd wires this when both a
// cluster layer and -metrics-addr are active). Callbacks read live
// state at scrape time via Node.Metrics and Node.AliveCount.
func (n *Node) RegisterObservability(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterGauge("cluster_members_alive", func() int64 {
		alive, _ := n.AliveCount()
		return int64(alive)
	})
	reg.RegisterGauge("cluster_members_total", func() int64 {
		_, total := n.AliveCount()
		return int64(total)
	})
	counters := map[string]func(NodeMetrics) uint64{
		"cluster_pings_sent":         func(m NodeMetrics) uint64 { return m.PingsSent },
		"cluster_pongs_received":     func(m NodeMetrics) uint64 { return m.PongsReceived },
		"cluster_suspects":           func(m NodeMetrics) uint64 { return m.Suspects },
		"cluster_deaths":             func(m NodeMetrics) uint64 { return m.Deaths },
		"cluster_recoveries":         func(m NodeMetrics) uint64 { return m.Recoveries },
		"cluster_gossip_sent":        func(m NodeMetrics) uint64 { return m.GossipSent },
		"cluster_delta_frames_sent":  func(m NodeMetrics) uint64 { return m.DeltaFramesSent },
		"cluster_dials":              func(m NodeMetrics) uint64 { return m.Dials },
		"cluster_dial_failures":      func(m NodeMetrics) uint64 { return m.DialFailures },
		"cluster_control_bytes_sent": func(m NodeMetrics) uint64 { return m.ControlBytesSent },
	}
	for name, pick := range counters {
		pick := pick
		reg.RegisterCounter(name, func() int64 { return int64(pick(n.Metrics())) })
	}
}
