package store

// Sharded is the concurrency layer over Store: N hash-sharded Store
// instances, each guarded by its own mutex and owning its own checker,
// with a cross-shard merge for coverage decisions that span shards.
//
// # Semantics
//
// Every subscription lives in exactly one shard, so the cover forest
// (coverers, children, promotion cascades) stays shard-local. An
// arriving subscription is checked against its home shard first, then
// against every other shard; it is admitted as covered into the FIRST
// shard whose active set covers it, and activated in its home shard
// only when no shard covers it. Group coverage is therefore weakened
// to PER-SHARD UNIONS: a set of subscriptions spread across shards is
// never considered jointly, so a sharded table may keep subscriptions
// active that a single store would suppress. That weakening is sound —
// it errs toward forwarding, never toward losing publications. The
// same holds for reverse pruning (demotion scans only the home shard)
// and for races between concurrent subscribers: every interleaving
// resolves toward keeping subscriptions active. WithShards(1) restores
// the exact single-store semantics — decision for decision, including
// checker streams — which the equivalence tests pin.
//
// When an unsubscription promotes covered subscriptions, the merge
// layer re-offers each promoted subscription to the other shards and
// MIGRATES it (covered, into the covering shard) when one still covers
// it, so cancellation does not leak permanently-uncovered actives just
// because the replacement cover lives elsewhere.
//
// # Routing
//
// The home shard comes from a schema-aware hash of the subscription's
// dominant bound — the most selective attribute, judged relative to
// its domain when a schema is supplied — quantized coarsely so boxes
// concentrated in the same region of the same attribute tend to share
// a shard and coverage relations stay intra-shard. Subscriptions with
// no constrained attribute (and callers that configure no schema and
// pass zero-attribute subscriptions) fall back to an ID hash. Routing
// is a placement heuristic only; correctness never depends on it.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"probsum/internal/core"
	"probsum/internal/subscription"
)

// Router maps a subscription to a shard-selection hash; the shard is
// the hash modulo the shard count.
type Router func(id ID, s subscription.Subscription) uint64

// ShardedOption configures a Sharded store.
type ShardedOption func(*shardedConfig)

type shardedConfig struct {
	shards       int
	seed         uint64
	copts        []core.Option
	reversePrune bool
	pruning      bool
	schema       *subscription.Schema
	router       Router
	rendezvous   bool
}

// WithShards sets the shard count (default 1). One shard reproduces
// Store semantics exactly; more shards trade the per-shard-union
// weakening documented on Sharded for concurrency.
func WithShards(n int) ShardedOption {
	return func(c *shardedConfig) { c.shards = n }
}

// WithShardSeed sets the base seed of the checker pool that per-shard
// checkers are drawn from under PolicyGroup (default 1). With one
// shard the checker is built directly from the checker options
// instead, so an explicit core.WithSeed there is honored — that is
// what makes WithShards(1) bit-identical to a seeded Store.
func WithShardSeed(seed uint64) ShardedOption {
	return func(c *shardedConfig) { c.seed = seed }
}

// WithShardCheckerOptions appends checker options (error probability,
// trial cap, …) applied to every per-shard checker.
func WithShardCheckerOptions(opts ...core.Option) ShardedOption {
	return func(c *shardedConfig) { c.copts = append(c.copts, opts...) }
}

// WithShardReversePrune enables reverse pruning in every shard. With
// more than one shard, demotion scans only the arriving subscription's
// home shard (see the semantics note on Sharded).
func WithShardReversePrune(enabled bool) ShardedOption {
	return func(c *shardedConfig) { c.reversePrune = enabled }
}

// WithShardCandidatePruning toggles the per-attribute candidate index
// in every shard (default on).
func WithShardCandidatePruning(enabled bool) ShardedOption {
	return func(c *shardedConfig) { c.pruning = enabled }
}

// WithShardSchema makes the default router schema-aware: attribute
// selectivity is judged relative to each domain, and unconstrained
// attributes never dominate.
func WithShardSchema(schema *subscription.Schema) ShardedOption {
	return func(c *shardedConfig) { c.schema = schema }
}

// WithShardRouter replaces the routing hash entirely.
func WithShardRouter(r Router) ShardedOption {
	return func(c *shardedConfig) { c.router = r }
}

// WithShardRendezvous enables balance-first placement. The router's
// value is treated as a placement KEY (a fine sixty-four-cell
// dominant-bound key by default) and every shard ranks it by salted
// hash — rendezvous (highest-random-weight) hashing, so coarse-key
// modulo clumping disappears and a shard-count change moves only ~1/n
// of the keys. Activation then picks the LESS-OCCUPIED of the two
// top-ranked shards (power of two choices over the lifetime placement
// counters), which is what actually balances workloads where coverage
// concentrates storage: covered subscriptions always live with their
// coverer, so a broad subscription drags its whole covered population
// into its shard and only load-aware activation can spread those
// piles. The tradeoff is weaker placement locality — nearby boxes
// share a shard less often, so cross-shard suppression does more of
// the coverage work (sound: admission checks every shard).
func WithShardRendezvous(enabled bool) ShardedOption {
	return func(c *shardedConfig) { c.rendezvous = enabled }
}

// shardSlot is one shard: a Store and the mutex serializing it.
type shardSlot struct {
	mu sync.Mutex
	st *Store
}

// Sharded is a concurrency-safe, hash-sharded subscription table.
// All methods are safe for concurrent callers.
type Sharded struct {
	policy Policy
	router Router
	shards []*shardSlot
	// salts is non-nil when rendezvous placement is enabled (see
	// WithShardRendezvous): one placement salt per shard.
	salts []uint64

	// mu guards placement. Unsubscribe holds it across the whole
	// promotion/migration sequence so a subscription is never observed
	// half-migrated; Subscribe/SubscribeBatch take it only around map
	// operations and NEVER while holding a shard lock, which is what
	// keeps the two lock orders deadlock-free.
	mu        sync.Mutex
	placement map[ID]int // shard index, or placePending during admission

	metrics shardedCounters
}

// placePending marks an ID reserved by an in-flight Subscribe.
const placePending = -1

// shardedCounters are the cumulative activity counters.
type shardedCounters struct {
	subscribes   atomic.Uint64
	suppressed   atomic.Uint64 // admitted covered (any shard)
	crossShard   atomic.Uint64 // … of which a non-home shard covered
	batches      atomic.Uint64
	batchItems   atomic.Uint64
	unsubscribes atomic.Uint64
	promotions   atomic.Uint64
	migrations   atomic.Uint64
	matches      atomic.Uint64
	// placed counts, per shard, the subscriptions that landed there
	// (admissions and migrations) — the routing-skew measure.
	placed []atomic.Uint64
}

// ShardStats sizes one shard.
type ShardStats struct {
	Len     int
	Active  int
	Covered int
}

// ShardedSnapshot is a point-in-time size report.
type ShardedSnapshot struct {
	Shards  []ShardStats
	Len     int
	Active  int
	Covered int
}

// ShardedMetrics are cumulative operation counters.
type ShardedMetrics struct {
	// Subscribes counts Subscribe calls plus SubscribeBatch items.
	Subscribes uint64
	// Suppressed counts arrivals admitted covered; CrossShardSuppressed
	// is the subset a non-home shard covered.
	Suppressed           uint64
	CrossShardSuppressed uint64
	// Batches and BatchItems count SubscribeBatch calls and their items.
	Batches    uint64
	BatchItems uint64
	// Unsubscribes counts removals of present subscriptions; Promotions
	// counts covered subscriptions those removals re-activated (after
	// cross-shard re-cover); Migrations counts promoted subscriptions
	// re-covered by — and moved into — another shard instead.
	Unsubscribes uint64
	Promotions   uint64
	Migrations   uint64
	// Matches counts Match calls.
	Matches uint64
	// ShardPlacements counts, per shard, the subscriptions placed there
	// over the table's lifetime (admissions plus migrations), and
	// ShardOccupancy is the CURRENT per-shard stored-subscription count
	// — together they make routing skew (shard clumping) measurable
	// from the public API without a separate Snapshot call.
	ShardPlacements []uint64
	ShardOccupancy  []int
	// Checker sums the shards' checker accounting (see CheckerStats).
	// Its Unsubscribes is counted per store, so unlike Unsubscribes
	// above it includes the withdrawals a cross-shard migration makes.
	Checker CheckerStats
}

// NewSharded builds a sharded table. PolicyGroup shards draw their
// checkers from a core.CheckerPool seeded by WithShardSeed — except
// with a single shard, where the checker is built directly from the
// checker options so explicit seeding is honored.
func NewSharded(policy Policy, opts ...ShardedOption) (*Sharded, error) {
	if policy < PolicyNone || policy > PolicyGroup {
		return nil, fmt.Errorf("store: invalid policy %d", policy)
	}
	cfg := shardedConfig{shards: 1, seed: 1, pruning: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.shards < 1 {
		return nil, fmt.Errorf("store: invalid shard count %d", cfg.shards)
	}
	router := cfg.router
	if router == nil {
		if cfg.rendezvous {
			// Rendezvous placement wants key DIVERSITY (many fine cells
			// spread evenly); the coarse default wants locality.
			router = dominantBoundKey(cfg.schema, 64, 6)
		} else {
			router = dominantBoundRouter(cfg.schema)
		}
	}
	var pool *core.CheckerPool
	if policy == PolicyGroup && cfg.shards > 1 {
		p, err := core.NewCheckerPool(cfg.seed, cfg.copts...)
		if err != nil {
			return nil, err
		}
		pool = p
	}
	sh := &Sharded{
		policy:    policy,
		router:    router,
		shards:    make([]*shardSlot, cfg.shards),
		placement: make(map[ID]int),
	}
	if cfg.rendezvous {
		sh.salts = make([]uint64, cfg.shards)
		for j := range sh.salts {
			sh.salts[j] = mix64(uint64(j)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909)
		}
	}
	sh.metrics.placed = make([]atomic.Uint64, cfg.shards)
	for j := range sh.shards {
		sopts := []Option{
			WithReversePrune(cfg.reversePrune),
			WithCandidatePruning(cfg.pruning),
		}
		if policy == PolicyGroup {
			var checker *core.Checker
			var err error
			if pool != nil {
				checker = pool.Get() // one independent stream per shard
			} else if checker, err = core.NewChecker(cfg.copts...); err != nil {
				return nil, err
			}
			sopts = append(sopts, WithChecker(checker))
		}
		st, err := New(policy, sopts...)
		if err != nil {
			return nil, err
		}
		sh.shards[j] = &shardSlot{st: st}
	}
	return sh, nil
}

// mix64 is a splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dominantBoundKey returns a placement-key function hashing the most
// selective attribute's index together with a quantization of its
// interval midpoint into the given number of cells per domain. With a
// schema, selectivity is width relative to the domain, the midpoint is
// quantized into cells of the domain, and attributes bounded by their
// full domain are skipped; without one, selectivity is absolute width
// and the midpoint falls on a fixed grid of the given shift. No
// dominant bound (or no bounds) keys by ID.
func dominantBoundKey(schema *subscription.Schema, cells int64, shift uint) func(ID, subscription.Subscription) uint64 {
	return func(id ID, s subscription.Subscription) uint64 {
		best, bestSel := -1, 0.0
		for a, b := range s.Bounds {
			if b.IsEmpty() {
				continue
			}
			sel := float64(b.Count())
			if schema != nil {
				if a >= schema.Len() || b.ContainsInterval(schema.Domain(a)) {
					continue
				}
				sel /= float64(schema.Domain(a).Count())
			}
			if best < 0 || sel < bestSel {
				best, bestSel = a, sel
			}
		}
		if best < 0 {
			return mix64(uint64(id))
		}
		b := s.Bounds[best]
		mid := b.Lo + (b.Hi-b.Lo)/2
		cell := mid >> shift
		if schema != nil {
			// Divide-by-width form so huge domains neither overflow the
			// product nor (when Count itself overflows to <= 0) divide
			// by zero.
			if step := schema.Domain(best).Count() / cells; step > 0 {
				cell = (mid - schema.Domain(best).Lo) / step
			}
		}
		return mix64(uint64(best)<<32 ^ uint64(cell))
	}
}

// dominantBoundRouter returns the default Router: the dominant-bound
// key at a COARSE sixteen-cell quantization, so boxes concentrated in
// the same region of the same attribute tend to share a shard and
// coverage relations stay intra-shard. The cost is clumping: sixteen
// coarse cells modulo a small shard count can land most of a skewed
// workload in one shard (the stockticker example used to put 245 of
// 392 subscriptions in one of four) — WithShardRendezvous is the
// balance-first alternative.
func dominantBoundRouter(schema *subscription.Schema) Router {
	return dominantBoundKey(schema, 16, 10)
}

// home returns the shard index for a subscription. Under rendezvous
// placement the router value is a KEY: every shard ranks it by salted
// hash and the less-placed of the two top-ranked shards wins (power
// of two choices over the lifetime placement counters — racy reads,
// but placement is a heuristic and single-threaded admission is
// deterministic).
func (sh *Sharded) home(id ID, s subscription.Subscription) int {
	if len(sh.shards) == 1 {
		return 0
	}
	h := sh.router(id, s)
	if sh.salts == nil {
		return int(h % uint64(len(sh.shards)))
	}
	top, second := -1, -1
	var wTop, wSecond uint64
	for j := range sh.salts {
		w := mix64(h ^ sh.salts[j])
		switch {
		case top < 0 || w > wTop:
			second, wSecond = top, wTop
			top, wTop = j, w
		case second < 0 || w > wSecond:
			second, wSecond = j, w
		}
	}
	if sh.metrics.placed[second].Load() < sh.metrics.placed[top].Load() {
		return second
	}
	return top
}

// reserve claims an ID for an in-flight admission.
func (sh *Sharded) reserve(id ID) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.placement[id]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	sh.placement[id] = placePending
	return nil
}

// place finalizes a reservation. It only upgrades a still-pending
// entry: between admission into a shard and this call, a concurrent
// Unsubscribe of the coverer can promote AND migrate the new
// subscription (recoverPromoted runs under sh.mu and records the
// destination shard), and that placement must win.
func (sh *Sharded) place(id ID, shard int) {
	sh.mu.Lock()
	if j, ok := sh.placement[id]; ok && j == placePending {
		sh.placement[id] = shard
	}
	sh.mu.Unlock()
}

func (sh *Sharded) unreserve(id ID) {
	sh.mu.Lock()
	delete(sh.placement, id)
	sh.mu.Unlock()
}

// Policy returns the coverage policy.
func (sh *Sharded) Policy() Policy { return sh.policy }

// ShardCount returns the number of shards.
func (sh *Sharded) ShardCount() int { return len(sh.shards) }

// Subscribe admits one subscription: covered into the first shard
// whose active set covers it (home shard first), active into its home
// shard otherwise.
func (sh *Sharded) Subscribe(id ID, s subscription.Subscription) (SubscribeResult, error) {
	if err := sh.reserve(id); err != nil {
		return SubscribeResult{}, err
	}
	if !s.IsSatisfiable() {
		sh.unreserve(id)
		return SubscribeResult{}, core.ErrUnsatisfiable
	}
	sh.metrics.subscribes.Add(1)
	home := sh.home(id, s)
	res, shard, err := sh.admit(id, s, home, nil)
	if err != nil {
		sh.unreserve(id)
		return SubscribeResult{}, err
	}
	sh.place(id, shard)
	sh.metrics.placed[shard].Add(1)
	if res.Status == StatusCovered {
		sh.metrics.suppressed.Add(1)
		if shard != home {
			sh.metrics.crossShard.Add(1)
		}
	}
	return res, nil
}

// admit runs the cross-shard admission for one validated, reserved
// subscription and returns the result and the shard it landed in.
// When locked is non-nil the caller already holds EVERY shard lock
// (the batch path) and admit must not lock; otherwise admit locks one
// shard at a time.
func (sh *Sharded) admit(id ID, s subscription.Subscription, home int, locked []*shardSlot) (SubscribeResult, int, error) {
	var homeDecision SubscribeResult
	decided := false
	if sh.policy != PolicyNone {
		for off := 0; off < len(sh.shards); off++ {
			j := (home + off) % len(sh.shards)
			slot := sh.shards[j]
			if locked == nil {
				slot.mu.Lock()
			}
			res, ok, err := slot.st.SubscribeCovered(id, s)
			if locked == nil {
				slot.mu.Unlock()
			}
			if err != nil {
				return SubscribeResult{}, 0, err
			}
			if j == home {
				homeDecision, decided = res, true
			}
			if ok {
				return res, j, nil
			}
		}
	}
	slot := sh.shards[home]
	if locked == nil {
		slot.mu.Lock()
	}
	// Reservation guarantees a fresh ID and the caller validated
	// satisfiability, so activation cannot fail.
	res := slot.st.activateNew(id, s)
	if locked == nil {
		slot.mu.Unlock()
	}
	if decided {
		res.Checker = homeDecision.Checker
	}
	return res, home, nil
}

// SubscribeBatch admits a burst in one call, holding every shard lock
// for the duration so the whole burst is one critical section: items
// are processed in the deterministic descending-volume batchOrder (the
// same order Store.SubscribeBatch uses, so WithShards(1) batches match
// a single store exactly), each seeing the previous items' effects.
// Results are in input order. Validation happens before any insertion;
// a mid-batch checker error aborts with earlier items admitted.
func (sh *Sharded) SubscribeBatch(ids []ID, subs []subscription.Subscription) ([]SubscribeResult, error) {
	if len(ids) != len(subs) {
		return nil, fmt.Errorf("store: batch of %d ids but %d subscriptions", len(ids), len(subs))
	}
	for i, s := range subs {
		if !s.IsSatisfiable() {
			return nil, fmt.Errorf("batch item %d (id %d): %w", i, ids[i], core.ErrUnsatisfiable)
		}
	}
	if err := sh.reserveAll(ids); err != nil {
		return nil, err
	}
	sh.metrics.batches.Add(1)
	sh.metrics.batchItems.Add(uint64(len(ids)))
	sh.metrics.subscribes.Add(uint64(len(ids)))

	homes := make([]int, len(ids))
	perShard := make([]int, len(sh.shards))
	for i, id := range ids {
		homes[i] = sh.home(id, subs[i])
		perShard[homes[i]]++
	}

	for _, slot := range sh.shards {
		slot.mu.Lock()
	}
	for j, n := range perShard {
		if n > 0 {
			sh.shards[j].st.growActive(n)
		}
	}
	order := batchOrder(ids, subs)
	out := make([]SubscribeResult, len(ids))
	placed := make([]int, len(ids))
	var batchErr error
	done := 0
	for _, i := range order {
		res, shard, err := sh.admit(ids[i], subs[i], homes[i], sh.shards)
		if err != nil {
			batchErr = fmt.Errorf("batch item %d (id %d): %w", i, ids[i], err)
			break
		}
		out[i], placed[i] = res, shard
		done++
		sh.metrics.placed[shard].Add(1)
		if res.Status == StatusCovered {
			sh.metrics.suppressed.Add(1)
			if shard != homes[i] {
				sh.metrics.crossShard.Add(1)
			}
		}
	}
	for _, slot := range sh.shards {
		slot.mu.Unlock()
	}

	sh.mu.Lock()
	for pos, i := range order {
		if pos >= done {
			delete(sh.placement, ids[i]) // aborted remainder
		} else if j, ok := sh.placement[ids[i]]; ok && j == placePending {
			// See place(): a concurrent migration may already have
			// recorded a newer shard for this item.
			sh.placement[ids[i]] = placed[i]
		}
	}
	sh.mu.Unlock()
	if batchErr != nil {
		return nil, batchErr
	}
	return out, nil
}

// reserveAll claims every batch ID or none.
func (sh *Sharded) reserveAll(ids []ID) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, id := range ids {
		if _, dup := sh.placement[id]; dup {
			for _, undo := range ids[:i] {
				delete(sh.placement, undo)
			}
			return fmt.Errorf("%w: %d", ErrDuplicateID, id)
		}
		sh.placement[id] = placePending
	}
	return nil
}

// Unsubscribe removes id, running the owning shard's promotion cascade
// and then the cross-shard merge: each promoted subscription is
// re-offered to the other shards and migrated (covered) into one that
// still covers it. Promoted lists only the subscriptions left active
// after that. The placement lock is held throughout so concurrent
// callers never observe a half-migrated subscription.
func (sh *Sharded) Unsubscribe(id ID) (UnsubscribeResult, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j, ok := sh.placement[id]
	if !ok || j == placePending {
		return UnsubscribeResult{}, nil
	}
	slot := sh.shards[j]
	slot.mu.Lock()
	res, err := slot.st.Unsubscribe(id)
	slot.mu.Unlock()
	delete(sh.placement, id)
	if err != nil {
		return res, err
	}
	sh.metrics.unsubscribes.Add(1)
	if len(sh.shards) > 1 && len(res.Promoted) > 0 {
		kept := make([]ID, 0, len(res.Promoted))
		for i, pid := range res.Promoted {
			migrated, merr := sh.recoverPromoted(j, pid)
			if merr != nil {
				// pid and the un-checked remainder are still active.
				res.Promoted = append(kept, res.Promoted[i:]...)
				return res, merr
			}
			if !migrated {
				kept = append(kept, pid)
			}
		}
		res.Promoted = kept
	}
	sh.metrics.promotions.Add(uint64(len(res.Promoted)))
	return res, nil
}

// recoverPromoted re-offers a just-promoted subscription to the other
// shards. If one still covers it, the covered copy is inserted there
// and the active original retired from its old shard — unless it
// acquired dependents during the cascade, in which case it stays
// active and the copy is withdrawn. Reports whether the migration
// happened. Caller holds sh.mu.
func (sh *Sharded) recoverPromoted(from int, pid ID) (bool, error) {
	fromSlot := sh.shards[from]
	fromSlot.mu.Lock()
	sub, status, ok := fromSlot.st.Get(pid)
	fromSlot.mu.Unlock()
	if !ok || status != StatusActive {
		return false, nil
	}
	for off := 1; off < len(sh.shards); off++ {
		j := (from + off) % len(sh.shards)
		slot := sh.shards[j]
		slot.mu.Lock()
		_, covered, err := slot.st.SubscribeCovered(pid, sub)
		slot.mu.Unlock()
		if err != nil {
			return false, err
		}
		if !covered {
			continue
		}
		// Covered copy now lives in shard j; retire the original.
		fromSlot.mu.Lock()
		removed := fromSlot.st.removeActiveLeaf(pid)
		fromSlot.mu.Unlock()
		if removed {
			sh.placement[pid] = j
			sh.metrics.migrations.Add(1)
			sh.metrics.placed[j].Add(1)
			return true, nil
		}
		// The cascade re-covered something beneath pid: keep it active
		// and withdraw the copy (covered nodes have no dependents, so
		// this is a plain removal).
		slot.mu.Lock()
		_, err = slot.st.Unsubscribe(pid)
		slot.mu.Unlock()
		return false, err
	}
	return false, nil
}

// Match returns the IDs of every stored subscription matching p,
// merged across shards in ascending order. Shards are queried one at
// a time; the result is a consistent snapshot per shard, not across
// shards (concurrent churn lands on one side or the other).
func (sh *Sharded) Match(p subscription.Publication) []ID {
	sh.metrics.matches.Add(1)
	var out []ID
	for _, slot := range sh.shards {
		slot.mu.Lock()
		ids := slot.st.Match(p)
		slot.mu.Unlock()
		out = append(out, ids...)
	}
	slices.Sort(out)
	return slices.Compact(out) // a mid-migration ID can appear twice
}

// Get returns the subscription and status for id.
func (sh *Sharded) Get(id ID) (subscription.Subscription, Status, bool) {
	sh.mu.Lock()
	j, ok := sh.placement[id]
	sh.mu.Unlock()
	if !ok || j == placePending {
		return subscription.Subscription{}, 0, false
	}
	slot := sh.shards[j]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.st.Get(id)
}

// ActiveIDs returns the sorted IDs of the active set across shards.
func (sh *Sharded) ActiveIDs() []ID {
	var out []ID
	for _, slot := range sh.shards {
		slot.mu.Lock()
		out = append(out, slot.st.activeIDs...)
		slot.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// Snapshot reports current sizes, per shard and total.
func (sh *Sharded) Snapshot() ShardedSnapshot {
	snap := ShardedSnapshot{Shards: make([]ShardStats, len(sh.shards))}
	for j, slot := range sh.shards {
		slot.mu.Lock()
		s := ShardStats{
			Len:     slot.st.Len(),
			Active:  slot.st.ActiveLen(),
			Covered: slot.st.CoveredLen(),
		}
		slot.mu.Unlock()
		snap.Shards[j] = s
		snap.Len += s.Len
		snap.Active += s.Active
		snap.Covered += s.Covered
	}
	return snap
}

// Metrics reports the cumulative operation counters plus the current
// per-shard occupancy.
func (sh *Sharded) Metrics() ShardedMetrics {
	m := ShardedMetrics{
		Subscribes:           sh.metrics.subscribes.Load(),
		Suppressed:           sh.metrics.suppressed.Load(),
		CrossShardSuppressed: sh.metrics.crossShard.Load(),
		Batches:              sh.metrics.batches.Load(),
		BatchItems:           sh.metrics.batchItems.Load(),
		Unsubscribes:         sh.metrics.unsubscribes.Load(),
		Promotions:           sh.metrics.promotions.Load(),
		Migrations:           sh.metrics.migrations.Load(),
		Matches:              sh.metrics.matches.Load(),
		ShardPlacements:      make([]uint64, len(sh.shards)),
		ShardOccupancy:       make([]int, len(sh.shards)),
	}
	for j, slot := range sh.shards {
		m.ShardPlacements[j] = sh.metrics.placed[j].Load()
		slot.mu.Lock()
		m.ShardOccupancy[j] = slot.st.Len()
		m.Checker.Add(slot.st.CheckerStats())
		slot.mu.Unlock()
	}
	return m
}
