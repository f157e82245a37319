// Rendezvous routing over the SWIM member view (DESIGN.md §14).
//
// The Router implements broker.Router on top of a membership Node: it
// slices attribute 0 into fixed-width cells, assigns each cell a
// rendezvous broker by highest-random-weight hashing over the alive
// member set, and picks overlay next hops by greedy
// distance over the sorted member order — on the scale harness's
// ring+chords overlay (ring edges are sorted-adjacent, chords are
// shortcuts) every greedy step strictly shrinks the remaining
// distance, so routes terminate without per-destination state.
//
// The router's member view is a cache: Node.routeEpoch counts every
// membership mutation, and lookups rebuild the view lazily when the
// cache falls behind. Tick kicks the router once per call; the kick
// re-announces client-owned routed subscriptions whose rendezvous or
// next hop moved (a member died, a closer path appeared) and is
// epoch-gated, so steady state costs one atomic load.
//
// Lock order: broker.mu → Router.mu → Node.mu. Broker handlers call
// the lookup methods while holding broker.mu; kick holds NO Router
// lock while calling back into the broker.
package cluster

import (
	"sync"
	"sync/atomic"

	"probsum/internal/broker"
	"probsum/internal/subscription"
)

// RouterConfig tunes the rendezvous mapping. Zero values select the
// defaults noted on each field.
type RouterConfig struct {
	// CellWidth is the attribute-0 span of one rendezvous cell (64).
	// Every publication value v belongs to cell floor(v/CellWidth); a
	// subscription owns every cell its attribute-0 interval overlaps.
	CellWidth int64
	// MaxCells caps how many cells a subscription may span before it
	// floods instead of routing (8): a near-unbounded subscription
	// would rendezvous everywhere anyway, and flooding it costs less
	// than announcing it toward every owner.
	MaxCells int
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.CellWidth <= 0 {
		c.CellWidth = 64
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 8
	}
	return c
}

// Router maps attribute-space cells to rendezvous brokers over a
// membership Node's member view. Create with AttachRouter; safe for
// concurrent use.
type Router struct {
	n   *Node
	cfg RouterConfig
	// b is the broker the kick re-announces through — an atomic
	// pointer so a crash/restart harness can rebind the router to the
	// recovered broker instance.
	b atomic.Pointer[broker.Broker]
	// lastKick is the routeEpoch the last kick ran at: the gate that
	// makes steady-state kicks free.
	lastKick atomic.Uint64

	mu sync.Mutex
	// +guarded_by:mu
	epoch uint64
	// view is immutable once built; the pointer swaps under mu.
	// +guarded_by:mu
	view *routeView
}

// routeView is one immutable snapshot of the member view, in the
// shape the routing decisions consume.
type routeView struct {
	self string
	// alive is the sorted alive member set, self included — the HRW
	// candidate set rendezvous ownership is computed over.
	alive []string
	// known is every tracked member plus self, sorted — the overlay
	// position line greedy next-hop distance is measured on.
	known []string
	pos   map[string]int
	// up marks members with a live overlay link — the usable hops.
	up map[string]bool
}

// AttachRouter wires rendezvous routing between a membership node and
// its broker: the broker consults the router on every subscribe and
// publish, and the node kicks it after membership changes. Detach by
// calling b.SetRouter(nil) and n.DetachRouter (flood mode — the
// rollback knob).
func AttachRouter(n *Node, b *broker.Broker, cfg RouterConfig) *Router {
	r := &Router{n: n, cfg: cfg.withDefaults()}
	r.b.Store(b)
	n.router.Store(r)
	b.SetRouter(r)
	return r
}

// DetachRouter unhooks the node-side kick (the broker side is
// b.SetRouter(nil)).
func (n *Node) DetachRouter() { n.router.Store(nil) }

// Rebind points the router at a recovered broker instance (chaos
// restart: the journal-replayed broker replaces the crashed one) and
// re-registers the router with it.
func (r *Router) Rebind(b *broker.Broker) {
	r.b.Store(b)
	b.SetRouter(r)
	// Force the next kick to re-announce against the current view.
	r.lastKick.Store(0)
}

// getView returns the current view snapshot, rebuilding it when the
// node's routeEpoch has moved past the cached one.
func (r *Router) getView() *routeView {
	e := r.n.routeEpoch.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.view == nil || r.epoch != e {
		r.view = r.buildView()
		r.epoch = e
	}
	return r.view
}

// buildView snapshots the member view from the node.
func (r *Router) buildView() *routeView {
	n := r.n
	n.mu.Lock()
	self := n.self.ID
	v := &routeView{
		self:  self,
		alive: make([]string, 0, len(n.order)+1),
		known: make([]string, 0, len(n.order)+1),
		up:    make(map[string]bool),
	}
	for _, st := range n.order {
		// order is sorted ascending and never contains self.
		v.known = append(v.known, st.ID)
		if st.State == StateAlive {
			v.alive = append(v.alive, st.ID)
		}
		if st.linked && st.linkUp {
			v.up[st.ID] = true
		}
	}
	n.mu.Unlock()
	v.known = insertSorted(v.known, self)
	v.alive = insertSorted(v.alive, self)
	v.pos = make(map[string]int, len(v.known))
	for i, id := range v.known {
		v.pos[id] = i
	}
	return v
}

// insertSorted inserts id into its sorted position in ids (built
// ascending without it).
func insertSorted(ids []string, id string) []string {
	i := 0
	for i < len(ids) && ids[i] < id {
		i++
	}
	ids = append(ids, "")
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// Targets implements broker.Router: the rendezvous owners of every
// cell the subscription's attribute-0 interval overlaps, deduplicated.
func (r *Router) Targets(sub subscription.Subscription) ([]string, bool) {
	if len(sub.Bounds) == 0 {
		return nil, false
	}
	lo, hi := sub.Bounds[0].Lo, sub.Bounds[0].Hi
	if hi < lo {
		return nil, false
	}
	loCell := cellOf(lo, r.cfg.CellWidth)
	hiCell := cellOf(hi, r.cfg.CellWidth)
	if hiCell-loCell+1 > int64(r.cfg.MaxCells) {
		return nil, false // spans too much of the space: flood instead
	}
	v := r.getView()
	if len(v.alive) < 2 {
		return nil, false // routing needs somewhere to route to
	}
	var targets []string
	seen := make(map[string]bool, r.cfg.MaxCells)
	for c := loCell; c <= hiCell; c++ {
		owner := hrwOwner(c, v.alive)
		if !seen[owner] {
			seen[owner] = true
			targets = append(targets, owner)
		}
	}
	return targets, true
}

// PubTarget implements broker.Router: the rendezvous owner of the
// publication's attribute-0 cell. A publication matching a routed
// subscription lies inside its attribute-0 interval, so both map to
// the same cell owner — which is what guarantees they meet.
func (r *Router) PubTarget(pub subscription.Publication) (string, bool) {
	if len(pub.Values) == 0 {
		return "", false
	}
	v := r.getView()
	if len(v.alive) < 2 {
		return "", false
	}
	return hrwOwner(cellOf(pub.Values[0], r.cfg.CellWidth), v.alive), true
}

// NextHop implements broker.Router: the live linked member strictly
// closer to target on the sorted member line. Ties break to the
// lowest ID; no strictly closer live hop means no progress (the
// caller floods).
func (r *Router) NextHop(target string) (string, bool) {
	v := r.getView()
	tpos, ok := v.pos[target]
	if !ok {
		return "", false
	}
	bestD := absInt(v.pos[v.self] - tpos)
	hop := ""
	for _, id := range v.known {
		if !v.up[id] {
			continue
		}
		if d := absInt(v.pos[id] - tpos); d < bestD {
			bestD = d
			hop = id
		}
	}
	return hop, hop != ""
}

// kick re-routes after membership changes: epoch-gated (steady state
// is one atomic load), then re-announces every client-owned routed
// subscription whose rendezvous or next hop moved. Called from Tick
// with no locks held; must not hold r.mu while calling the broker
// (lock order, see the package comment).
func (r *Router) kick() {
	e := r.n.routeEpoch.Load()
	if r.lastKick.Swap(e) == e {
		return
	}
	b := r.b.Load()
	if b == nil || !b.HasRoutedClientSubs() {
		return
	}
	for _, o := range b.ReannounceRoutes() {
		r.n.link.Send(o.To, o.Msg)
	}
}

// cellOf returns the cell index containing v (floor division, exact
// for negatives).
func cellOf(v, width int64) int64 {
	q := v / width
	if v%width != 0 && v < 0 {
		q--
	}
	return q
}

// hrwOwner returns the highest-random-weight owner of a cell among
// ids: every (cell, member) pair hashes to a score and the highest
// score wins, so a membership change remaps only the cells the
// changed member owned — the rendezvous-hashing stability property.
func hrwOwner(cell int64, ids []string) string {
	const phi = 0x9e3779b97f4a7c15
	key := mix64(uint64(cell) + phi)
	best, bestScore := "", uint64(0)
	for _, id := range ids {
		if s := mix64(key ^ fnv1a(id)); best == "" || s > bestScore {
			best, bestScore = id, s
		}
	}
	return best
}

// RendezvousOwner computes the rendezvous broker of the cell
// containing attribute-0 value v among a static member set — the
// oracle form of the mapping for harnesses that must know the owner
// without running a node (e.g. the chaos kill-the-rendezvous
// schedule).
func RendezvousOwner(v int64, cfg RouterConfig, ids []string) string {
	cfg = cfg.withDefaults()
	return hrwOwner(cellOf(v, cfg.CellWidth), ids)
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
