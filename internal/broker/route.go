// Rendezvous routing: the structured alternative to flooding
// subscriptions on every overlay link (DESIGN.md §14).
//
// A Router (implemented by the cluster layer over its SWIM member
// view) maps attribute-space regions to rendezvous brokers and picks
// the overlay next hop toward any member. With a router attached,
// client subscriptions are no longer announced on every link: they
// travel hop-by-hop toward the rendezvous broker of each attribute
// cell they span, as MsgRouteAnnounce frames, and every broker along
// the path installs the normal reverse-path state. Publications are
// routed toward the rendezvous of their own cell, where the reverse
// paths of all matching subscriptions converge — matching pub and sub
// meet at the rendezvous at the latest, and reverse-path delivery
// takes over from wherever they first meet.
//
// Flooding remains the oracle and the universal safety valve: any
// routing decision that cannot be made (no router — including journal
// replay, an unroutable target, no strictly closer neighbor) degrades
// to the flood path for that subscription or publication, which is
// always correct and merely costs traffic. Coverage aggregation still
// applies along routed paths: subscriptions sharing a (link, target)
// pair are reduced through a per-pair coverage table, so a broad
// routed subscription suppresses the narrow ones behind it exactly as
// flooded ones are suppressed per link.
package broker

import (
	"fmt"
	"slices"
	"sort"

	"probsum/internal/match"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// Router supplies rendezvous routing decisions. Implementations must
// be safe for concurrent callers and must not call back into the
// broker while servicing a lookup (the broker holds its routing lock).
type Router interface {
	// Targets returns the rendezvous broker IDs responsible for the
	// attribute-space cells the subscription spans, deduplicated. ok is
	// false when the subscription should flood instead (it spans too
	// many cells, or the member view is unusable).
	Targets(sub subscription.Subscription) (targets []string, ok bool)
	// PubTarget returns the rendezvous broker of the publication's
	// cell; ok false floods.
	PubTarget(pub subscription.Publication) (target string, ok bool)
	// NextHop returns the neighbor strictly closer to target on the
	// overlay; ok false (no progress, target unknown) floods.
	NextHop(target string) (hop string, ok bool)
}

// SetRouter attaches (or, with nil, detaches) the rendezvous router.
// Without a router every subscription floods, exactly as before the
// routing layer existed — flood mode is the rollback knob.
func (b *Broker) SetRouter(r Router) {
	if r == nil {
		b.router.Store(nil)
		return
	}
	b.router.Store(&r)
}

// routerLocked returns the attached router, if any.
func (b *Broker) routerLocked() Router {
	if p := b.router.Load(); p != nil {
		return *p
	}
	return nil
}

// routeFwdSet records the forwarding decision for (subID, target):
// hop is the neighbor the announce went to, "" when the subscription
// terminated here (this broker is the rendezvous) or degraded to
// flood for that target.
//
// +mustlock:mu
func (b *Broker) routeFwdSet(subID, target, hop string) {
	m := b.routeFwd[subID]
	if m == nil {
		m = make(map[string]string)
		b.routeFwd[subID] = m
	}
	m[target] = hop
}

// routeTableLocked returns (creating if needed) the coverage table for
// routed subscriptions forwarded to neighbor hop toward target. One
// table per (link, target) pair: subscriptions bound for different
// rendezvous must not suppress each other — their announce paths
// diverge downstream — while those sharing the pair aggregate under
// the same coverage policy as flooded ones.
//
// +mustlock:mu
func (b *Broker) routeTableLocked(hop, target string) (*subsume.Table, error) {
	byTarget := b.routeOut[hop]
	if byTarget == nil {
		byTarget = make(map[string]*subsume.Table)
		b.routeOut[hop] = byTarget
	}
	if tbl := byTarget[target]; tbl != nil {
		return tbl, nil
	}
	policy, err := tablePolicy(b.policy)
	if err != nil {
		return nil, fmt.Errorf("broker %s: route table %s->%s: %w", b.id, hop, target, err)
	}
	opts := slices.Clone(b.tableOpts)
	if b.policy == store.PolicyGroup {
		opts = append(opts, subsume.WithTableChecker(
			subsume.WithSeed(b.seed^fnv1a(b.id), fnv1a(hop+"\x00"+target)|1),
		))
	}
	tbl, err := subsume.NewTable(policy, opts...)
	if err != nil {
		return nil, fmt.Errorf("broker %s: route table %s->%s: %w", b.id, hop, target, err)
	}
	byTarget[target] = tbl
	return tbl, nil
}

// routeSubLocked attempts the routed path for one client-origin
// subscription that was just installed. It either routes the
// subscription toward every rendezvous target (returning the announce
// frames and routed=true) or declines entirely (routed=false, no
// state touched) so the caller floods — partial routing is never left
// behind.
//
// +mustlock:mu
func (b *Broker) routeSubLocked(from, subID string, sub subscription.Subscription) ([]Outbound, bool, error) {
	r := b.routerLocked()
	if r == nil || !b.clients[from] {
		return nil, false, nil
	}
	targets, ok := r.Targets(sub)
	if !ok || len(targets) == 0 {
		return nil, false, nil
	}
	sort.Strings(targets)
	// Resolve every hop before admitting anything: one unroutable
	// target floods the whole subscription.
	hops := make([]string, len(targets))
	for i, t := range targets {
		if t == b.id {
			continue // terminal at the origin
		}
		hop, ok := r.NextHop(t)
		if !ok || hop == from || !b.neighbors[hop] {
			return nil, false, nil
		}
		hops[i] = hop
	}
	id := b.outIDs[subID]
	var out []Outbound
	for i, t := range targets {
		if hops[i] == "" {
			b.routeFwdSet(subID, t, "")
			continue
		}
		tbl, err := b.routeTableLocked(hops[i], t)
		if err != nil {
			return nil, false, err
		}
		res, err := tbl.Subscribe(id, sub)
		if err != nil {
			return nil, false, fmt.Errorf("broker %s: route %s toward %s: %w", b.id, subID, t, err)
		}
		b.routeFwdSet(subID, t, hops[i])
		if res.Status == store.StatusActive {
			b.metrics.routeForwards.Add(1)
			out = append(out, Outbound{To: hops[i], Msg: Message{
				Kind:   MsgRouteAnnounce,
				Target: t,
				Subs:   []BatchSub{{SubID: subID, Sub: sub}},
			}})
		} else {
			b.metrics.subsSuppressed.Add(1)
		}
	}
	b.metrics.routedSubs.Add(1)
	return out, true, nil
}

// routeSubBatchLocked runs routeSubLocked over a freshly installed
// batch, returning the routed announce frames and the items that must
// flood instead.
//
// +mustlock:mu
func (b *Broker) routeSubBatchLocked(from string, fresh []BatchSub) ([]Outbound, []BatchSub, error) {
	if b.routerLocked() == nil || !b.clients[from] {
		return nil, fresh, nil
	}
	var out []Outbound
	flood := make([]BatchSub, 0, len(fresh))
	for _, it := range fresh {
		o, routed, err := b.routeSubLocked(from, it.SubID, it.Sub)
		if err != nil {
			return nil, nil, err
		}
		if routed {
			out = append(out, o...)
		} else {
			flood = append(flood, it)
		}
	}
	return out, flood, nil
}

// handleRouteAnnounce relays routed subscriptions one hop closer to
// their rendezvous. Reverse-path state installs exactly as for a
// SUBBATCH arrival (first arrival defines the path, duplicate copies
// balance the digest); the forwarding decision is per (subscription,
// target), so a second rendezvous path through this broker still
// propagates even when the subscription itself is already known.
// Journaled like the other state-changing kinds; on replay the router
// is absent and the fallback floods, which digest reconciliation then
// reconciles with the neighbors — safe, never lossy.
//
// +mustlock:mu
func (b *Broker) handleRouteAnnounce(from string, msg Message) ([]Outbound, error) {
	if msg.Target == "" {
		return nil, fmt.Errorf("broker %s: route-announce without target", b.id)
	}
	for _, it := range msg.Subs {
		if it.SubID == "" {
			return nil, fmt.Errorf("broker %s: route-announce item without SubID", b.id)
		}
		if !it.Sub.IsSatisfiable() {
			return nil, fmt.Errorf("broker %s: route-announce item %s is unsatisfiable", b.id, it.SubID)
		}
	}
	pending := make([]BatchSub, 0, len(msg.Subs))
	for _, it := range msg.Subs {
		b.recvAdd(from, it.SubID)
		if _, seen := b.source[it.SubID]; !seen {
			b.metrics.subsReceived.Add(1)
			b.source[it.SubID] = from
			if b.in[from] == nil {
				b.in[from] = make(map[string]subscription.Subscription)
			}
			b.in[from][it.SubID] = it.Sub
			b.matcher(from).Add(match.ID(b.storeID(it.SubID)), it.Sub)
		} else {
			// A known subscription announced again over another port:
			// record the additional reverse path, exactly as the flood
			// path does for cycle duplicates.
			b.recordDupPathLocked(from, it.SubID, it.Sub)
		}
		if fwd := b.routeFwd[it.SubID]; fwd != nil {
			if _, done := fwd[msg.Target]; done {
				b.metrics.dupSubsDropped.Add(1)
				continue
			}
		}
		pending = append(pending, it)
	}
	if len(pending) == 0 {
		return nil, nil
	}
	if msg.Target == b.id {
		// This broker IS the rendezvous: the announce terminates, the
		// reverse paths installed above are what publications routed
		// here fan out over.
		for _, it := range pending {
			b.routeFwdSet(it.SubID, msg.Target, "")
		}
		return nil, nil
	}
	hop := ""
	if r := b.routerLocked(); r != nil {
		if h, ok := r.NextHop(msg.Target); ok && h != from && b.neighbors[h] {
			hop = h
		}
	}
	if hop == "" {
		// No routed progress (router absent — e.g. journal replay — or
		// the overlay offers no closer neighbor): degrade these items to
		// flood from here on out.
		for _, it := range pending {
			b.routeFwdSet(it.SubID, msg.Target, "")
		}
		return b.floodRoutedLocked(from, pending)
	}
	tbl, err := b.routeTableLocked(hop, msg.Target)
	if err != nil {
		return nil, err
	}
	ids := make([]subsume.ID, 0, len(pending))
	subs := make([]subscription.Subscription, 0, len(pending))
	items := make([]BatchSub, 0, len(pending))
	for _, it := range pending {
		id := b.outIDs[it.SubID]
		if _, _, exists := tbl.Get(id); exists {
			// Already admitted toward this (hop, target) pair by an
			// earlier path; nothing new to announce.
			continue
		}
		ids = append(ids, id)
		subs = append(subs, it.Sub)
		items = append(items, it)
	}
	for _, it := range pending {
		b.routeFwdSet(it.SubID, msg.Target, hop)
	}
	if len(ids) == 0 {
		return nil, nil
	}
	results, err := tbl.SubscribeBatch(ids, subs)
	if err != nil {
		return nil, fmt.Errorf("broker %s: route toward %s via %s: %w", b.id, msg.Target, hop, err)
	}
	fwd := make([]BatchSub, 0, len(items))
	for i, res := range results {
		if res.Status == store.StatusActive {
			fwd = append(fwd, items[i])
		}
	}
	b.metrics.routeForwards.Add(int64(len(fwd)))
	b.metrics.subsSuppressed.Add(int64(len(items) - len(fwd)))
	if len(fwd) == 0 {
		return nil, nil
	}
	return []Outbound{{To: hop, Msg: Message{Kind: MsgRouteAnnounce, Target: msg.Target, Subs: fwd}}}, nil
}

// floodRoutedLocked admits routed items into every per-neighbor flood
// table (except the arrival port) and emits the active subset as one
// SUBBATCH per neighbor — the mid-path degradation of a route that
// cannot progress. Items a table already holds (a neighbor backfill
// raced the route) are skipped for that neighbor.
//
// +mustlock:mu
func (b *Broker) floodRoutedLocked(from string, items []BatchSub) ([]Outbound, error) {
	var out []Outbound
	for _, n := range sortedKeys(b.neighbors) {
		if n == from {
			continue
		}
		tbl := b.out[n]
		ids := make([]subsume.ID, 0, len(items))
		subs := make([]subscription.Subscription, 0, len(items))
		kept := make([]BatchSub, 0, len(items))
		for _, it := range items {
			id := b.outIDs[it.SubID]
			if _, _, exists := tbl.Get(id); exists {
				continue
			}
			ids = append(ids, id)
			subs = append(subs, it.Sub)
			kept = append(kept, it)
		}
		if len(ids) == 0 {
			continue
		}
		results, err := tbl.SubscribeBatch(ids, subs)
		if err != nil {
			return nil, fmt.Errorf("broker %s: neighbor %s: %w", b.id, n, err)
		}
		fwd := make([]BatchSub, 0, len(kept))
		for i, res := range results {
			if res.Status == store.StatusActive {
				fwd = append(fwd, kept[i])
			}
		}
		b.metrics.subsForwarded.Add(int64(len(fwd)))
		b.metrics.subsSuppressed.Add(int64(len(kept) - len(fwd)))
		if len(fwd) > 0 {
			out = append(out, Outbound{To: n, Msg: Message{Kind: MsgSubscribeBatch, Subs: fwd}})
		}
	}
	return out, nil
}

// routeUnsubLocked tears down the routed forwarding state of one
// subscription being removed: per recorded (target → hop) entry the
// routed coverage table drops it, the cancellation follows the
// announce path as a plain unsubscribe, and promotions the removal
// uncovered are re-announced toward the same rendezvous.
//
// +mustlock:mu
func (b *Broker) routeUnsubLocked(subID string, id subsume.ID) ([]Outbound, error) {
	fwd := b.routeFwd[subID]
	if fwd == nil {
		return nil, nil
	}
	delete(b.routeFwd, subID)
	targets := make([]string, 0, len(fwd))
	for t := range fwd {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	var out []Outbound
	for _, t := range targets {
		hop := fwd[t]
		if hop == "" {
			continue // terminal or flooded: the flood tables own it
		}
		byTarget := b.routeOut[hop]
		if byTarget == nil {
			continue
		}
		tbl := byTarget[t]
		if tbl == nil {
			continue
		}
		res, err := tbl.Unsubscribe(id)
		if err != nil {
			return out, fmt.Errorf("broker %s: route unsub %s toward %s: %w", b.id, subID, t, err)
		}
		if !res.Existed {
			continue
		}
		if res.WasActive {
			b.metrics.unsubsForwarded.Add(1)
			out = append(out, Outbound{To: hop, Msg: Message{Kind: MsgUnsubscribe, SubID: subID}})
		}
		promoted := make([]BatchSub, 0, len(res.Promoted))
		for _, pid := range res.Promoted {
			sub, _, found := tbl.Get(pid)
			if !found {
				continue
			}
			pSubID := b.idToSub[pid]
			if pSubID == "" {
				continue
			}
			b.metrics.promotions.Add(1)
			b.metrics.routeForwards.Add(1)
			promoted = append(promoted, BatchSub{SubID: pSubID, Sub: sub})
		}
		if len(promoted) > 0 {
			out = append(out, Outbound{To: hop, Msg: Message{Kind: MsgRouteAnnounce, Target: t, Subs: promoted}})
		}
	}
	return out, nil
}

// routePublishLocked extends a publication's reverse-path forwards
// with one routed forward toward the rendezvous of its cell, so a
// publication and the subscriptions matching it meet at the rendezvous
// at the latest. No progress toward the rendezvous floods the
// publication instead — bounded by every broker's dedup window, and
// the reason routed delivery can never lose what flooding would have
// delivered. Runs on the publish path: read-only against the routing
// state, safe under the shared lock.
//
// +mustlock:mu (shared)
func (b *Broker) routePublishLocked(from string, msg Message, out []Outbound) []Outbound {
	r := b.routerLocked()
	if r == nil {
		return out
	}
	t, ok := r.PubTarget(msg.Pub)
	if !ok || t == b.id {
		return out
	}
	sentTo := func(n string) bool {
		for _, o := range out {
			if o.To == n && o.Msg.Kind == MsgPublish {
				return true
			}
		}
		return false
	}
	if hop, ok := r.NextHop(t); ok && hop != from && b.neighbors[hop] {
		if !sentTo(hop) {
			b.metrics.routedPubs.Add(1)
			b.metrics.pubsForwarded.Add(1)
			out = append(out, Outbound{To: hop, Msg: msg})
		}
		return out
	}
	for _, n := range sortedKeys(b.neighbors) {
		if n == from || sentTo(n) {
			continue
		}
		b.metrics.pubsForwarded.Add(1)
		out = append(out, Outbound{To: n, Msg: msg})
	}
	return out
}

// ReannounceRoutes recomputes the rendezvous of every client-owned
// routed subscription against the current member view and emits the
// announces for targets whose next hop changed (or that are new) —
// the re-routing step the cluster layer kicks when membership changes
// (a rendezvous died, a closer overlay path appeared). Old paths are
// left in place: extra reverse-path state only widens delivery and is
// garbage-collected by unsubscribe and digest reconciliation.
//
//brokervet:allow journalcheck route state is re-derived, never journaled: replay runs with no router attached (subscriptions flood, which is always correct) and the cluster layer kicks ReannounceRoutes again after recovery
func (b *Broker) ReannounceRoutes() []Outbound {
	r := b.routerLocked()
	if r == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	subIDs := make([]string, 0, len(b.routeFwd))
	for subID := range b.routeFwd {
		if b.clients[b.source[subID]] {
			subIDs = append(subIDs, subID)
		}
	}
	sort.Strings(subIDs)
	var out []Outbound
	for _, subID := range subIDs {
		src := b.source[subID]
		sub, ok := b.in[src][subID]
		if !ok {
			continue
		}
		targets, ok := r.Targets(sub)
		if !ok {
			continue
		}
		sort.Strings(targets)
		id := b.outIDs[subID]
		for _, t := range targets {
			if t == b.id {
				b.routeFwdSet(subID, t, "")
				continue
			}
			prev, had := b.routeFwd[subID][t]
			if had && prev == "" {
				continue // already terminal or flooded for this target
			}
			hop, ok := r.NextHop(t)
			if !ok || hop == src || !b.neighbors[hop] {
				continue
			}
			if had && prev == hop {
				continue
			}
			tbl, err := b.routeTableLocked(hop, t)
			if err != nil {
				continue
			}
			active := false
			if _, status, exists := tbl.Get(id); exists {
				active = status == store.StatusActive
			} else if res, err := tbl.Subscribe(id, sub); err == nil {
				active = res.Status == store.StatusActive
			} else {
				continue
			}
			b.routeFwdSet(subID, t, hop)
			if active {
				b.metrics.routeForwards.Add(1)
				out = append(out, Outbound{To: hop, Msg: Message{
					Kind:   MsgRouteAnnounce,
					Target: t,
					Subs:   []BatchSub{{SubID: subID, Sub: sub}},
				}})
			}
		}
	}
	return out
}

// HasRoutedClientSubs reports whether any client-owned subscription
// currently has routed forwarding state — the cheap pre-check the
// cluster layer's re-route kick uses to skip brokers with nothing to
// re-announce.
func (b *Broker) HasRoutedClientSubs() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for subID := range b.routeFwd {
		if b.clients[b.source[subID]] {
			return true
		}
	}
	return false
}

// RouteTableStats sizes the routed forwarding state: how many
// (neighbor, target) coverage tables exist and the total routed
// entries they hold (active and covered). The scale harness compares
// this against the flood baseline's per-link table growth.
func (b *Broker) RouteTableStats() (tables, entries int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, byTarget := range b.routeOut {
		for _, tbl := range byTarget {
			tables++
			entries += tbl.Len()
		}
	}
	return tables, entries
}

// RouteTargetLoad reports the routed-entry count per rendezvous
// target, summed over neighbors — a direct view of per-owner load for
// the hot-cell question the rendezvous rungs keep asking. The metrics
// endpoint exports it as a labeled gauge family.
func (b *Broker) RouteTargetLoad() map[string]int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]int)
	for _, byTarget := range b.routeOut {
		for target, tbl := range byTarget {
			out[target] += tbl.Len()
		}
	}
	return out
}

// CountControlDrop counts one control frame dropped before reaching a
// peer (it advertised no cluster layer, or its cluster capability is
// still unknown mid-handshake). The transport calls it at its drop
// site so lost probes are visible in Metrics instead of surfacing
// only as spurious suspicion.
func (b *Broker) CountControlDrop() { b.metrics.controlDropped.Add(1) }

// sentActiveLocked visits every subscription this broker actively
// announced toward peer, across the flood table and every routed
// (peer, target) table, each subscription once — the sender-side
// ground truth the link digest and the sync listing are built from.
//
// +mustlock:mu (shared)
func (b *Broker) sentActiveLocked(peer string, visit func(subID string, sid subsume.ID, tbl *subsume.Table)) bool {
	tbl, ok := b.out[peer]
	if !ok {
		return false
	}
	seen := make(map[string]bool)
	for _, sid := range tbl.ActiveIDs() {
		subID := b.idToSub[sid]
		if subID == "" || seen[subID] {
			continue
		}
		seen[subID] = true
		visit(subID, sid, tbl)
	}
	for _, target := range sortedKeysTables(b.routeOut[peer]) {
		rt := b.routeOut[peer][target]
		for _, sid := range rt.ActiveIDs() {
			subID := b.idToSub[sid]
			if subID == "" || seen[subID] {
				continue
			}
			seen[subID] = true
			visit(subID, sid, rt)
		}
	}
	return true
}

// sortedKeysTables lists a target-table map's keys in order.
func sortedKeysTables(m map[string]*subsume.Table) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
