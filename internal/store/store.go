// Package store maintains a broker's subscription state under a
// coverage policy: the active (uncovered) set that drives routing and
// matching, and the passive (covered) set organized as a cover forest.
// It implements the paper's Algorithm 5 — match publications against
// the active set first and descend into covered subscriptions only on
// a match — together with the Section 4.4 multi-level optimization and
// the Section 5 cancellation rule (promote covered subscriptions when
// their coverer unsubscribes).
package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"probsum/internal/cells"
	"probsum/internal/core"
	"probsum/internal/pairwise"
	"probsum/internal/subscription"
)

// ID identifies a subscription within a store.
type ID int64

// Policy selects how arriving subscriptions are reduced.
type Policy int

// Coverage policies.
const (
	// PolicyNone keeps every subscription active (flooding baseline).
	PolicyNone Policy = iota + 1
	// PolicyPairwise marks a subscription covered only when a single
	// active subscription covers it (classical deterministic systems).
	PolicyPairwise
	// PolicyGroup marks a subscription covered when the probabilistic
	// checker decides the active set jointly covers it (the paper's
	// contribution).
	PolicyGroup
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyPairwise:
		return "pairwise"
	case PolicyGroup:
		return "group"
	default:
		return "unknown"
	}
}

// Status describes where a subscription currently lives.
type Status int

// Status values.
const (
	StatusActive Status = iota + 1
	StatusCovered
)

// String returns the status name.
func (s Status) String() string {
	if s == StatusActive {
		return "active"
	}
	return "covered"
}

// ErrDuplicateID is returned when subscribing with an ID already in use.
var ErrDuplicateID = errors.New("store: duplicate subscription id")

// node is one subscription in the cover forest.
type node struct {
	id       ID
	sub      subscription.Subscription
	status   Status
	coverers map[ID]struct{} // nodes whose union covers this one
	children map[ID]struct{} // nodes listing this one as coverer
	slot     int32           // position in the candidate index while active
}

// SubscribeResult reports what Subscribe did.
type SubscribeResult struct {
	// Status is where the new subscription was placed.
	Status Status
	// Coverers lists the subscriptions that jointly cover it (empty
	// when active). For pairwise coverage it has exactly one element.
	Coverers []ID
	// Demoted lists previously active subscriptions moved to the
	// covered set because the new subscription covers them (only with
	// reverse pruning enabled).
	Demoted []ID
	// Checker carries the probabilistic decision detail under
	// PolicyGroup; zero otherwise. Its CoveringRow and ReducedSet
	// indices refer to positions in the ID-ordered active set at
	// decision time (as returned by ActiveIDs), regardless of any
	// internal candidate pruning.
	Checker core.Result
}

// UnsubscribeResult reports what Unsubscribe did.
type UnsubscribeResult struct {
	// Existed reports whether the ID was present.
	Existed bool
	// WasActive reports whether the removed subscription was active.
	WasActive bool
	// Promoted lists covered subscriptions promoted to active because
	// their cover no longer holds without the removed subscription.
	Promoted []ID
}

// CheckerStats accounts for what the probabilistic checker did on a
// store's behalf, counted where the decision is taken. It is how an
// operator sees whether the configured δ is being honoured: exact
// decisions (every reason but ReasonTrialsExhausted) carry no error,
// a ReasonTrialsExhausted decision carries at most δ — unless it is
// also counted in Capped, in which case the trial cap cut the run
// short and the bound does not hold.
type CheckerStats struct {
	// Calls counts checker runs: admissions plus the re-checks counted
	// in RecheckCalls. CandidateRows sums the rows handed to them.
	Calls         uint64
	CandidateRows uint64
	// Unsubscribes counts removals of present subscriptions;
	// RecheckCalls counts the checker runs those removals caused to
	// re-validate covered subscriptions naming the retiree as coverer.
	Unsubscribes uint64
	RecheckCalls uint64
	// Decisions counts outcomes by core.Reason (index 0 is unused).
	Decisions [core.ReasonResidualCover + 1]uint64
	// Trials sums the RSPC guesses executed.
	Trials uint64
	// Capped counts probabilistic YES answers whose theoretical trial
	// bound d exceeded the checker's cap.
	Capped uint64
}

// Add accumulates o into s.
func (s *CheckerStats) Add(o CheckerStats) {
	s.Calls += o.Calls
	s.CandidateRows += o.CandidateRows
	s.Unsubscribes += o.Unsubscribes
	s.RecheckCalls += o.RecheckCalls
	for i, n := range o.Decisions {
		s.Decisions[i] += n
	}
	s.Trials += o.Trials
	s.Capped += o.Capped
}

// Option configures a Store.
type Option func(*Store)

// WithChecker supplies the probabilistic checker used by PolicyGroup
// (and by promotion re-checks). Ignored by other policies.
func WithChecker(c *core.Checker) Option {
	return func(st *Store) { st.checker = c }
}

// WithReversePrune enables demoting existing active subscriptions that
// a newly arriving subscription covers pairwise, building the
// multi-level cover forest of Section 4.4.
func WithReversePrune(enabled bool) Option {
	return func(st *Store) { st.reversePrune = enabled }
}

// WithCandidatePruning toggles the cell-bitset candidate index that
// restricts coverage checks to active subscriptions intersecting the
// arriving one (default on). Disabling it hands the full active set to
// the coverage decision, as the pre-index implementation did; the
// switch exists for the DESIGN.md ablation and for equivalence tests.
func WithCandidatePruning(enabled bool) Option {
	return func(st *Store) { st.pruning = enabled }
}

// Store is a broker-local subscription table. It is not safe for
// concurrent use; brokers own one store each and serialize access.
//
// The active set is maintained incrementally: activeIDs/activeSubs are
// kept sorted by ID across every status change, and the cell-bitset
// candidate index (package cells) stays in lockstep, so Subscribe never
// rescans or re-sorts the whole set.
type Store struct {
	policy       Policy
	checker      *core.Checker
	reversePrune bool
	pruning      bool
	nodes        map[ID]*node
	activeIDs    []ID // sorted; parallel cache of active set
	activeSubs   []subscription.Subscription
	idx          *cells.Index // over the active set; nil while it is empty
	mismatched   int          // active subscriptions disagreeing with idx's arity; pruning off while > 0

	// Reusable hot-path buffers.
	scratch  cells.Scratch
	candIDs  []ID
	candSubs []subscription.Subscription
	candKeys []int64
	checkRes core.Result

	stats CheckerStats
}

// New returns an empty store with the given policy. PolicyGroup
// requires a checker (a default one is created when none is supplied).
// The checker becomes store-owned: it carries a random stream and
// reusable scratch, so it must not be shared with another store or
// goroutine.
func New(policy Policy, opts ...Option) (*Store, error) {
	if policy < PolicyNone || policy > PolicyGroup {
		return nil, fmt.Errorf("store: invalid policy %d", policy)
	}
	st := &Store{policy: policy, nodes: make(map[ID]*node), pruning: true}
	for _, opt := range opts {
		opt(st)
	}
	if policy == PolicyGroup && st.checker == nil {
		c, err := core.NewChecker()
		if err != nil {
			return nil, err
		}
		st.checker = c
	}
	return st, nil
}

// Policy returns the store's coverage policy.
func (st *Store) Policy() Policy { return st.policy }

// CheckerStats returns the cumulative checker accounting; all zero
// but Unsubscribes under policies that never call the checker.
func (st *Store) CheckerStats() CheckerStats { return st.stats }

// activate inserts n into the sorted active caches and the candidate
// index. Nodes whose attribute count disagrees with the index are
// counted instead of indexed; pruning stays off while any are active.
func (st *Store) activate(n *node) {
	pos, _ := slices.BinarySearch(st.activeIDs, n.id)
	st.activeIDs = slices.Insert(st.activeIDs, pos, n.id)
	st.activeSubs = slices.Insert(st.activeSubs, pos, n.sub)
	if st.idx == nil {
		st.idx = cells.New(n.sub.Len())
	}
	if n.sub.Len() == st.idx.Arity() {
		n.slot = st.idx.Add(int64(n.id), n.sub)
	} else {
		st.mismatched++
	}
}

// deactivate removes n from the sorted active caches and the index.
// Draining the active set resets the index entirely, so a store
// repopulated under a different attribute count regains pruning.
func (st *Store) deactivate(n *node) {
	pos, ok := slices.BinarySearch(st.activeIDs, n.id)
	if !ok {
		return
	}
	st.activeIDs = slices.Delete(st.activeIDs, pos, pos+1)
	st.activeSubs = slices.Delete(st.activeSubs, pos, pos+1)
	if n.sub.Len() == st.idx.Arity() {
		st.idx.Remove(n.slot)
	} else {
		st.mismatched--
	}
	if len(st.activeIDs) == 0 {
		st.idx = nil
		st.mismatched = 0
	}
}

// candidates returns the IDs and subscriptions the coverage decision
// for s must consider: when indexed(s), exactly the active rows whose
// boxes intersect s — or, with cover set, contain s — in no particular
// order, with candKeys set to their IDs; otherwise the full active set,
// sorted by ID. The returned slices are store-owned scratch, valid
// until the next call.
func (st *Store) candidates(s subscription.Subscription, cover bool) ([]ID, []subscription.Subscription) {
	if !st.indexed(s) {
		return st.activeIDs, st.activeSubs
	}
	ids, subs, keys := st.candIDs[:0], st.candSubs[:0], st.candKeys[:0]
	for _, slot := range st.idx.Query(&st.scratch, s, cover) {
		id, sub := st.idx.Row(slot)
		ids, subs, keys = append(ids, ID(id)), append(subs, sub), append(keys, id)
	}
	st.candIDs, st.candSubs, st.candKeys = ids, subs, keys
	return ids, subs
}

// indexed reports whether the candidate index answers for s: pruning
// is on, the active set is non-empty, and it and s agree with the
// index's attribute count.
func (st *Store) indexed(s subscription.Subscription) bool {
	return st.pruning && st.mismatched == 0 && st.idx != nil && s.Len() == st.idx.Arity()
}

// ActiveIDs returns the sorted IDs of the active set.
func (st *Store) ActiveIDs() []ID {
	out := make([]ID, len(st.activeIDs))
	copy(out, st.activeIDs)
	return out
}

// ActiveSubscriptions returns the active subscriptions ordered by ID.
func (st *Store) ActiveSubscriptions() []subscription.Subscription {
	out := make([]subscription.Subscription, len(st.activeSubs))
	copy(out, st.activeSubs)
	return out
}

// ActiveLen returns the active set size.
func (st *Store) ActiveLen() int { return len(st.activeIDs) }

// CoveredLen returns the covered set size.
func (st *Store) CoveredLen() int { return len(st.nodes) - st.ActiveLen() }

// Len returns the total number of stored subscriptions.
func (st *Store) Len() int { return len(st.nodes) }

// Get returns the subscription and status for id.
func (st *Store) Get(id ID) (subscription.Subscription, Status, bool) {
	n, ok := st.nodes[id]
	if !ok {
		return subscription.Subscription{}, 0, false
	}
	return n.sub, n.status, true
}

// decideCoverage classifies s against the current active set. With
// pruning enabled the pairwise scan sees only the rows containing s and
// the probabilistic checker only the rows intersecting s — sound,
// because a pairwise coverer contains s and a subscription disjoint
// from s contributes nothing to any cover of s.
func (st *Store) decideCoverage(s subscription.Subscription) (Status, []ID, core.Result, error) {
	switch st.policy {
	case PolicyNone:
		return StatusActive, nil, core.Result{}, nil
	case PolicyPairwise:
		ids, subs := st.candidates(s, true)
		i := pairwise.CoveredBySingle(s, subs)
		if i < 0 {
			return StatusActive, nil, core.Result{}, nil
		}
		// The coverer is the lowest-ID row containing s. The active set
		// is in ID order, so that is its first; the index's hits are in
		// slot order, and each contains s.
		if st.indexed(s) {
			for j, id := range ids {
				if id < ids[i] {
					i = j
				}
			}
		}
		return StatusCovered, []ID{ids[i]}, core.Result{}, nil
	default: // PolicyGroup
		ids, subs := st.candidates(s, false)
		var keys []int64 // nil: the active set is already in ID order
		if st.indexed(s) {
			// The index's hits come in slot order; the checker orders
			// them by ID itself, as if they were sorted.
			keys = st.candKeys
		}
		if err := st.checker.CoveredIntoKeyed(&st.checkRes, s, subs, keys); err != nil {
			return 0, nil, core.Result{}, err
		}
		st.stats.Calls++
		st.stats.CandidateRows += uint64(len(subs))
		st.stats.Decisions[st.checkRes.Reason]++
		st.stats.Trials += uint64(st.checkRes.ExecutedTrials)
		if st.checkRes.Decision == core.CoveredProbably && st.checkRes.DCapped {
			st.stats.Capped++
		}
		// Copy the result: checkRes and its ReducedSet are reused by
		// the next check, while SubscribeResult.Checker escapes to the
		// caller.
		res := st.checkRes
		res.ReducedSet = slices.Clone(res.ReducedSet)
		coverers := st.resolveCoverers(ids, &res)
		// Remap CoveringRow/ReducedSet from candidate positions to
		// positions in the ID-ordered active set, the documented frame
		// of reference for SubscribeResult.Checker (the candidate
		// shortlist is internal scratch a caller can never see).
		if res.CoveringRow >= 0 {
			res.CoveringRow = st.activePos(ids[res.CoveringRow])
		}
		for j, idx := range res.ReducedSet {
			res.ReducedSet[j] = st.activePos(ids[idx])
		}
		slices.Sort(res.ReducedSet)
		if !res.Decision.IsCovered() {
			return StatusActive, nil, res, nil
		}
		return StatusCovered, coverers, res, nil
	}
}

// resolveCoverers maps a group-coverage result's candidate indices to
// subscription IDs, in ascending ID order.
func (st *Store) resolveCoverers(ids []ID, res *core.Result) []ID {
	if !res.Decision.IsCovered() {
		return nil
	}
	if res.Reason == core.ReasonPairwiseCover {
		return []ID{ids[res.CoveringRow]}
	}
	coverers := make([]ID, 0, len(res.ReducedSet))
	for _, idx := range res.ReducedSet {
		coverers = append(coverers, ids[idx])
	}
	if len(coverers) == 0 {
		// MCS was disabled or returned no detail; fall back to the
		// whole candidate set as the covering group.
		coverers = append(coverers, ids...)
	}
	slices.Sort(coverers)
	return coverers
}

// activePos returns id's position in the ID-ordered active set.
func (st *Store) activePos(id ID) int {
	pos, _ := slices.BinarySearch(st.activeIDs, id)
	return pos
}

// Subscribe inserts a subscription under a fresh ID and classifies it.
func (st *Store) Subscribe(id ID, s subscription.Subscription) (SubscribeResult, error) {
	if _, dup := st.nodes[id]; dup {
		return SubscribeResult{}, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	if !s.IsSatisfiable() {
		return SubscribeResult{}, core.ErrUnsatisfiable
	}
	status, coverers, checkRes, err := st.decideCoverage(s)
	if err != nil {
		return SubscribeResult{}, err
	}
	n := &node{
		id:       id,
		sub:      s,
		status:   status,
		coverers: make(map[ID]struct{}, len(coverers)),
		children: make(map[ID]struct{}),
	}
	for _, c := range coverers {
		n.coverers[c] = struct{}{}
		st.nodes[c].children[id] = struct{}{}
	}
	st.nodes[id] = n
	res := SubscribeResult{Status: status, Coverers: coverers, Checker: checkRes}
	if status == StatusActive {
		st.activate(n)
		if st.reversePrune {
			res.Demoted = st.demoteCoveredBy(n)
		}
	}
	return res, nil
}

// demoteCoveredBy moves active subscriptions covered by the new node
// into the covered set beneath it, preserving their own children
// (multi-level forest). A subscription covered by n.sub is contained
// in it, hence intersects it, so the candidate index narrows the scan.
func (st *Store) demoteCoveredBy(n *node) []ID {
	var demoted []ID
	ids, subs := st.candidates(n.sub, false)
	for i, id := range ids {
		if id == n.id {
			continue
		}
		if n.sub.Covers(subs[i]) {
			old := st.nodes[id]
			old.status = StatusCovered
			old.coverers = map[ID]struct{}{n.id: {}}
			n.children[id] = struct{}{}
			demoted = append(demoted, id)
		}
	}
	// Deactivate after the scan: ids may alias the live active caches.
	for _, id := range demoted {
		st.deactivate(st.nodes[id])
	}
	slices.Sort(demoted)
	return demoted
}

// Unsubscribe removes id. When an active subscription leaves, covered
// subscriptions that depended on it are re-checked against the
// remaining active set and promoted when no longer covered, as Section
// 5 of the paper prescribes.
func (st *Store) Unsubscribe(id ID) (UnsubscribeResult, error) {
	n, ok := st.nodes[id]
	if !ok {
		return UnsubscribeResult{}, nil
	}
	res := UnsubscribeResult{Existed: true, WasActive: n.status == StatusActive}
	st.stats.Unsubscribes++

	// Unlink from coverers.
	for c := range n.coverers {
		delete(st.nodes[c].children, id)
	}
	delete(st.nodes, id)
	if res.WasActive {
		st.deactivate(n)
	}

	// Children losing a coverer must be re-validated; process in ID
	// order for determinism. Promotions can cascade: a promoted child
	// re-enters the active set and may itself keep others covered, so
	// each child is checked against the then-current active set.
	children := make([]ID, 0, len(n.children))
	for c := range n.children {
		children = append(children, c)
	}
	sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })

	for _, cid := range children {
		child := st.nodes[cid]
		delete(child.coverers, id)
		promoted, err := st.revalidate(child)
		if err != nil {
			return res, err
		}
		if promoted {
			res.Promoted = append(res.Promoted, cid)
		}
	}
	return res, nil
}

// revalidate re-decides coverage for a covered node that lost a
// coverer (already deleted from child.coverers) against the current
// active set: it is rewired to the new cover, or promoted to active
// when there is none.
func (st *Store) revalidate(child *node) (promoted bool, err error) {
	status, coverers, _, err := st.decideCoverage(child.sub)
	if err != nil {
		return false, err
	}
	if st.policy == PolicyGroup {
		st.stats.RecheckCalls++
	}
	// Detach from remaining coverers before rewiring.
	for c := range child.coverers {
		delete(st.nodes[c].children, child.id)
	}
	child.coverers = make(map[ID]struct{}, len(coverers))
	if status == StatusCovered {
		for _, c := range coverers {
			child.coverers[c] = struct{}{}
			st.nodes[c].children[child.id] = struct{}{}
		}
		child.status = StatusCovered
		return false, nil
	}
	child.status = StatusActive
	st.activate(child)
	return true, nil
}

// Match implements the multi-level optimization of Section 4.4: match
// the active set, then descend through the cover forest, testing a
// covered subscription only when one of its coverers (transitively)
// matched. Results are sorted by ID.
func (st *Store) Match(p subscription.Publication) []ID {
	var out []ID
	frontier := make([]ID, 0, 8)
	for i, sub := range st.activeSubs {
		if sub.Matches(p) {
			out = append(out, st.activeIDs[i])
			frontier = append(frontier, st.activeIDs[i])
		}
	}
	visited := make(map[ID]bool, len(frontier))
	for _, id := range frontier {
		visited[id] = true
	}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		children := make([]ID, 0, len(st.nodes[id].children))
		for c := range st.nodes[id].children {
			children = append(children, c)
		}
		sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
		for _, cid := range children {
			if visited[cid] {
				continue
			}
			visited[cid] = true
			if st.nodes[cid].sub.Matches(p) {
				out = append(out, cid)
				frontier = append(frontier, cid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MatchTwoPhase is the literal Algorithm 5: match the active set; if
// any active subscription matched, additionally scan the entire
// covered set. It exists as the paper-faithful reference; Match is the
// optimized variant and returns identical results.
func (st *Store) MatchTwoPhase(p subscription.Publication) []ID {
	var out []ID
	matched := false
	for i, sub := range st.activeSubs {
		if sub.Matches(p) {
			out = append(out, st.activeIDs[i])
			matched = true
		}
	}
	if matched {
		for id, n := range st.nodes {
			if n.status == StatusCovered && n.sub.Matches(p) {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
