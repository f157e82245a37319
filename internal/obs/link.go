package obs

// Per-link frame accounting. A LinkStats is owned by one transport
// link (e.g. a tcpPort) and counts frames sent/received by wire kind.
// Counting is a single atomic add into a fixed array indexed by the
// kind's integer value — zero allocations on the frame path. The
// array is sized with headroom over the current MsgKind range so new
// kinds don't need an obs change; out-of-range kinds clamp into the
// last slot rather than panicking.

import "sync/atomic"

// linkKindSlots bounds the per-kind arrays. MsgKind currently tops
// out at 16 (MsgNotifyBatch); 24 leaves room to grow.
const linkKindSlots = 24

// LinkStats counts frames by wire kind for one link.
type LinkStats struct {
	sent [linkKindSlots]atomic.Uint64
	recv [linkKindSlots]atomic.Uint64
}

func clampKind(kind int) int {
	if kind < 0 || kind >= linkKindSlots {
		return linkKindSlots - 1
	}
	return kind
}

// Sent records one outbound frame of the given kind.
func (l *LinkStats) Sent(kind int) { l.sent[clampKind(kind)].Add(1) }

// Recv records one inbound frame of the given kind.
func (l *LinkStats) Recv(kind int) { l.recv[clampKind(kind)].Add(1) }

// LinkSnapshot is a point-in-time copy of one link's counters.
type LinkSnapshot struct {
	Sent [linkKindSlots]uint64
	Recv [linkKindSlots]uint64
}

// Snapshot copies the current counts.
func (l *LinkStats) Snapshot() LinkSnapshot {
	var s LinkSnapshot
	for i := range l.sent {
		s.Sent[i] = l.sent[i].Load()
		s.Recv[i] = l.recv[i].Load()
	}
	return s
}
