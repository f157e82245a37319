// Table: the maintained coverage table, the paper's payoff operation.
// A broker does not ask one-shot Covered questions — it keeps the set
// of forwarded subscriptions and suppresses arrivals the active set
// already covers. Table packages that machinery (internal/store) as an
// embeddable, concurrency-safe component: one store behind one mutex,
// with batch admission and cancellation for bursts and Algorithm 5
// matching.
package subsume

import (
	"fmt"
	"sync"

	"probsum/internal/core"
	"probsum/internal/store"
)

// Policy selects how a Table reduces arriving subscriptions.
type Policy int

// Coverage policies.
const (
	// Flood keeps every subscription active (no reduction).
	Flood Policy = iota + 1
	// Pairwise suppresses a subscription only when a single active
	// subscription covers it (classical deterministic systems).
	Pairwise
	// Group suppresses a subscription when the probabilistic checker
	// decides the active set jointly covers it (the paper's
	// contribution).
	Group
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Flood:
		return "flood"
	case Pairwise:
		return "pairwise"
	case Group:
		return "group"
	default:
		return "unknown"
	}
}

func (p Policy) toStore() (store.Policy, error) {
	switch p {
	case Flood:
		return store.PolicyNone, nil
	case Pairwise:
		return store.PolicyPairwise, nil
	case Group:
		return store.PolicyGroup, nil
	default:
		return 0, fmt.Errorf("subsume: invalid policy %d", p)
	}
}

// ID identifies a subscription within a Table.
type ID = store.ID

// Status reports where a subscription lives: StatusActive entries
// drive routing and matching; StatusCovered entries are suppressed by
// the active set and stored in the cover forest.
type Status = store.Status

// Status values.
const (
	StatusActive  = store.StatusActive
	StatusCovered = store.StatusCovered
)

// SubscribeResult reports how an arrival was classified; see the
// fields of store.SubscribeResult.
type SubscribeResult = store.SubscribeResult

// UnsubscribeResult reports a removal and any promotions it caused.
type UnsubscribeResult = store.UnsubscribeResult

// UnsubscribeBatchResult reports a batch removal: how many IDs were
// removed and which covered subscriptions the burst promoted.
type UnsubscribeBatchResult = store.UnsubscribeBatchResult

// TableSnapshot is a point-in-time size report.
type TableSnapshot struct {
	Len     int
	Active  int
	Covered int
}

// TableMetrics are a Table's cumulative operation counters.
type TableMetrics struct {
	// Subscribes counts admitted subscriptions: Subscribe calls plus
	// SubscribeBatch items.
	Subscribes uint64
	// Suppressed counts arrivals admitted covered.
	Suppressed uint64
	// Batches and BatchItems count SubscribeBatch calls and their items.
	Batches    uint64
	BatchItems uint64
	// Unsubscribes counts removals of present subscriptions; Promotions
	// counts covered subscriptions those removals re-activated.
	Unsubscribes uint64
	Promotions   uint64
	// Matches counts Match calls.
	Matches uint64
	// Checker is the store's checker accounting (see store.CheckerStats).
	Checker store.CheckerStats
}

// ErrDuplicateID is returned when subscribing an ID already in use.
var ErrDuplicateID = store.ErrDuplicateID

// TableOption configures a Table.
type TableOption func(*tableConfig)

type tableConfig struct {
	copts        []core.Option
	reversePrune bool
	pruning      bool
}

// WithTableChecker appends checker options (WithErrorProbability,
// WithMaxTrials, WithSeed, …) for the table's checker under Group.
func WithTableChecker(opts ...Option) TableOption {
	return func(c *tableConfig) { c.copts = append(c.copts, opts...) }
}

// WithTableReversePrune enables demoting existing active subscriptions
// that an arrival covers (the Section 4.4 multi-level forest).
func WithTableReversePrune(enabled bool) TableOption {
	return func(c *tableConfig) { c.reversePrune = enabled }
}

// WithTableCandidatePruning toggles the store's per-attribute
// candidate index (default on).
func WithTableCandidatePruning(enabled bool) TableOption {
	return func(c *tableConfig) { c.pruning = enabled }
}

// Table is a maintained coverage table, safe for concurrent callers:
// one mutex serializes every operation on the store beneath, so each
// call is atomic and the table behaves exactly as a sequential store
// fed the calls in lock order. Subscriptions are admitted covered when
// the active set already covers them and active otherwise; Match
// answers publication routing across the whole table.
type Table struct {
	policy Policy

	mu sync.Mutex
	// +guarded_by:mu
	st *store.Store
	// +guarded_by:mu
	metrics TableMetrics // Checker is filled from st on read
}

// NewTable builds a coverage table under the given policy.
func NewTable(policy Policy, opts ...TableOption) (*Table, error) {
	sp, err := policy.toStore()
	if err != nil {
		return nil, err
	}
	cfg := tableConfig{pruning: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	sopts := []store.Option{
		store.WithReversePrune(cfg.reversePrune),
		store.WithCandidatePruning(cfg.pruning),
	}
	if policy == Group {
		checker, err := core.NewChecker(cfg.copts...)
		if err != nil {
			return nil, err
		}
		sopts = append(sopts, store.WithChecker(checker))
	}
	st, err := store.New(sp, sopts...)
	if err != nil {
		return nil, err
	}
	return &Table{policy: policy, st: st}, nil
}

// Policy returns the table's coverage policy.
func (t *Table) Policy() Policy { return t.policy }

// Subscribe admits one subscription under a caller-chosen unique ID.
func (t *Table) Subscribe(id ID, s Subscription) (SubscribeResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res, err := t.st.Subscribe(id, s)
	if err == nil {
		t.countAdmitted(res)
	}
	return res, err
}

// countAdmitted tallies one admitted subscription.
//
// +mustlock:mu
func (t *Table) countAdmitted(res SubscribeResult) {
	t.metrics.Subscribes++
	if res.Status == StatusCovered {
		t.metrics.Suppressed++
	}
}

// SubscribeBatch admits an arrival burst in one call. The burst is
// processed in descending box-volume order inside a single critical
// section, so within-burst coverage is found immediately and broad
// subscriptions suppress the narrow ones arriving alongside them;
// results are returned in input order. On burst workloads this is
// substantially faster than per-item Subscribe (see
// BenchmarkTableSubscribeBatch).
func (t *Table) SubscribeBatch(ids []ID, subs []Subscription) ([]SubscribeResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := t.st.SubscribeBatch(ids, subs)
	if err != nil {
		return nil, err
	}
	t.metrics.Batches++
	t.metrics.BatchItems += uint64(len(ids))
	for _, res := range out {
		t.countAdmitted(res)
	}
	return out, nil
}

// Unsubscribe removes id, promoting covered subscriptions whose cover
// no longer holds. Removing an unknown ID is a no-op.
func (t *Table) Unsubscribe(id ID) (UnsubscribeResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res, err := t.st.Unsubscribe(id)
	if res.Existed {
		t.metrics.Unsubscribes++
	}
	t.metrics.Promotions += uint64(len(res.Promoted))
	return res, err
}

// UnsubscribeBatch removes a cancellation burst in one call, sharing a
// single promotion-cascade frontier: each surviving subscription that
// lost coverers to the burst is re-validated exactly once against the
// post-removal active set, instead of once per removed coverer as a
// per-item loop would (see BenchmarkTableUnsubscribeBatch). Unknown
// IDs are skipped; Promoted lists the subscriptions left active, in
// ID order.
func (t *Table) UnsubscribeBatch(ids []ID) (UnsubscribeBatchResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res, err := t.st.UnsubscribeBatch(ids)
	t.metrics.Unsubscribes += uint64(res.Removed)
	t.metrics.Promotions += uint64(len(res.Promoted))
	return res, err
}

// Match returns the sorted IDs of every stored subscription matching
// p — active and covered, via the paper's Algorithm 5 descent.
func (t *Table) Match(p Publication) []ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics.Matches++
	return t.st.Match(p)
}

// Get returns the subscription and status for id.
func (t *Table) Get(id ID) (Subscription, Status, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Get(id)
}

// ActiveIDs returns the sorted IDs of the active set.
func (t *Table) ActiveIDs() []ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.ActiveIDs()
}

// Len returns the total number of stored subscriptions.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Len()
}

// ActiveLen returns the active-set size.
func (t *Table) ActiveLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.ActiveLen()
}

// CoveredLen returns the covered-set size.
func (t *Table) CoveredLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.CoveredLen()
}

// Snapshot reports current sizes.
func (t *Table) Snapshot() TableSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TableSnapshot{Len: t.st.Len(), Active: t.st.ActiveLen(), Covered: t.st.CoveredLen()}
}

// Metrics reports cumulative operation counters.
func (t *Table) Metrics() TableMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.metrics
	m.Checker = t.st.CheckerStats()
	return m
}
