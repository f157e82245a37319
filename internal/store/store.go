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
	"probsum/internal/subscription"
)

// ID identifies a subscription within a store.
type ID int64

// Policy selects how arriving subscriptions are reduced: the paper's
// three ways to forward subscriptions (§6.4). It is the one policy type
// of the library; subsume.Policy and pubsub.Policy are aliases of it.
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

// String returns the policy name: "flood", "pairwise" or "group".
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "flood"
	case PolicyPairwise:
		return "pairwise"
	case PolicyGroup:
		return "group"
	default:
		return "unknown"
	}
}

// Validate reports whether p is one of the three policies.
func (p Policy) Validate() error {
	if p < PolicyNone || p > PolicyGroup {
		return fmt.Errorf("invalid policy %d", p)
	}
	return nil
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
	coverers map[ID]struct{} // nodes whose union covers this one; nil while none
	children map[ID]struct{} // nodes listing this one as coverer; nil until the first
	slot     int32           // position in its attribute count's index while active
}

// SubscribeResult reports what Subscribe did.
type SubscribeResult struct {
	// Status is where the new subscription was placed.
	Status Status
	// Coverers lists the subscriptions that jointly cover it (empty
	// when active), in ascending ID order. For pairwise coverage it has
	// exactly one element.
	Coverers []ID
	// Checker carries the probabilistic decision detail under
	// PolicyGroup; zero otherwise. Its CoveringRow is -1 and its
	// ReducedSet nil: they would index the candidate rows the store
	// handed the checker, which are internal scratch, and Coverers
	// already names those rows by ID.
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
	// Calls counts coverage decisions: admissions plus the re-checks
	// counted in RecheckCalls. Probed counts those the point walk
	// decided before any row was gathered (see walk); CandidateRows sums
	// the rows gathered for the rest, so a walk decision adds none.
	Calls         uint64
	Probed        uint64
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
	s.Probed += o.Probed
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

// WithCheckerOptions appends options (error probability, trial cap,
// seed, …) for the checker New builds under PolicyGroup; a later
// option overrides an earlier one of the same kind. Ignored by other
// policies, and when WithChecker supplies the checker.
func WithCheckerOptions(opts ...core.Option) Option {
	return func(st *Store) { st.copts = append(st.copts, opts...) }
}

// Store is a broker-local subscription table. It is not safe for
// concurrent use; brokers own one store each and serialize access.
//
// nodes holds every subscription, active and covered. The active set
// is held once more, in active: one cell-bitset index (package cells)
// per attribute count. Every status change adds or removes the row in
// its count's index, and an index is dropped once empty. The ID-ordered
// views (ActiveIDs, ActiveSubscriptions) are derived from nodes on
// demand, so Subscribe never rescans or re-sorts the whole set.
type Store struct {
	policy  Policy
	checker *core.Checker
	copts   []core.Option // for the checker New builds
	nodes   map[ID]*node
	active  map[int]*cells.Index // by attribute count; none is empty
	// unpruned makes candidates return every active row of the
	// arrival's attribute count: the reference tests compare against.
	unpruned bool

	// Reusable hot-path buffers.
	scratch  cells.Scratch
	candIDs  []int64
	candSubs []subscription.Subscription
	checkRes core.Result
	point    []int64 // the walk's point
	// witnesses is the chunk the walk's kept witnesses are carved from
	// (see witness).
	witnesses []int64

	stats CheckerStats
}

// New returns an empty store with the given policy. PolicyGroup
// requires a checker: unless WithChecker supplies one, New builds it
// from the WithCheckerOptions options. The checker becomes
// store-owned: it carries a random stream and reusable scratch, so it
// must not be shared with another store or goroutine.
func New(policy Policy, opts ...Option) (*Store, error) {
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{policy: policy, nodes: make(map[ID]*node), active: make(map[int]*cells.Index)}
	for _, opt := range opts {
		opt(st)
	}
	if policy == PolicyGroup && st.checker == nil {
		c, err := core.NewChecker(st.copts...)
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

// activate adds n to its attribute count's index.
func (st *Store) activate(n *node) {
	m := n.sub.Len()
	ix := st.active[m]
	if ix == nil {
		ix = cells.New(m)
		st.active[m] = ix
	}
	n.slot = ix.Add(int64(n.id), n.sub)
}

// deactivate removes n from its attribute count's index, dropping the
// index once it is empty so a later population starts from a fresh grid.
func (st *Store) deactivate(n *node) {
	m := n.sub.Len()
	ix := st.active[m]
	ix.Remove(n.slot)
	if ix.Len() == 0 {
		delete(st.active, m)
	}
}

// candidates returns the IDs and subscriptions the coverage decision
// for s must consider: exactly the active rows whose boxes intersect s
// — or, with cover set, contain s — in no particular order; with
// unpruned set, every active row of s's attribute count. A row of
// another attribute count neither intersects nor contains s. The
// returned slices are store-owned scratch, valid until the next call.
func (st *Store) candidates(s subscription.Subscription, cover bool) ([]int64, []subscription.Subscription) {
	ids, subs := st.candIDs[:0], st.candSubs[:0]
	if st.unpruned {
		for id, n := range st.nodes {
			if n.status == StatusActive && n.sub.Len() == s.Len() {
				ids, subs = append(ids, int64(id)), append(subs, n.sub)
			}
		}
	} else if ix := st.active[s.Len()]; ix != nil {
		for _, slot := range ix.Query(&st.scratch, s, cover) {
			id, sub := ix.Row(slot)
			ids, subs = append(ids, id), append(subs, sub)
		}
	}
	st.candIDs, st.candSubs = ids, subs
	return ids, subs
}

// ActiveIDs returns the sorted IDs of the active set.
func (st *Store) ActiveIDs() []ID {
	ids := make([]ID, 0, st.ActiveLen())
	for id, n := range st.nodes {
		if n.status == StatusActive {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// ActiveSubscriptions returns the active subscriptions ordered by ID.
func (st *Store) ActiveSubscriptions() []subscription.Subscription {
	ids := st.ActiveIDs()
	out := make([]subscription.Subscription, len(ids))
	for i, id := range ids {
		out[i] = st.nodes[id].sub
	}
	return out
}

// ActiveLen returns the active set size.
func (st *Store) ActiveLen() int {
	n := 0
	for _, ix := range st.active {
		n += ix.Len()
	}
	return n
}

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

// decideCoverage classifies s against the current active set. The
// pairwise scan sees only the rows containing s and the probabilistic
// checker only the rows intersecting s — sound, because a pairwise
// coverer contains s and a subscription disjoint from s contributes
// nothing to any cover of s. Under PolicyGroup the point walk answers
// first, and the checker runs only when the walk ends undecided. keep
// says the caller hands the result on: only then is a walk's witness
// copied out of the walk's scratch.
func (st *Store) decideCoverage(s subscription.Subscription, keep bool) (Status, []ID, core.Result, error) {
	switch st.policy {
	case PolicyNone:
		return StatusActive, nil, core.Result{}, nil
	case PolicyPairwise:
		// The coverer is the lowest-ID row containing s: the one a scan
		// of the active set in ID order finds first.
		ids, subs := st.candidates(s, true)
		best := -1
		for i, sub := range subs {
			if sub.Covers(s) && (best < 0 || ids[i] < ids[best]) {
				best = i
			}
		}
		if best < 0 {
			return StatusActive, nil, core.Result{}, nil
		}
		return StatusCovered, []ID{ID(ids[best])}, core.Result{}, nil
	default: // PolicyGroup
		if status, coverers, res, ok := st.walk(s); ok {
			if keep && res.PointWitness != nil {
				res.PointWitness = st.witness(res.PointWitness)
			}
			st.stats.Calls++
			st.stats.Probed++
			st.stats.Decisions[res.Reason]++
			return status, coverers, res, nil
		}
		// The candidates are rows of s's attribute count alone, so each
		// count is decided as if the store held no other. They come in
		// slot order; the checker orders them by ID itself, as if they
		// were sorted.
		ids, subs := st.candidates(s, false)
		if err := st.checker.CoveredIntoKeyed(&st.checkRes, s, subs, ids); err != nil {
			return 0, nil, core.Result{}, err
		}
		st.stats.Calls++
		st.stats.CandidateRows += uint64(len(subs))
		st.stats.Decisions[st.checkRes.Reason]++
		st.stats.Trials += uint64(st.checkRes.ExecutedTrials)
		if st.checkRes.Decision == core.CoveredProbably && st.checkRes.DCapped {
			st.stats.Capped++
		}
		coverers := st.resolveCoverers(ids, &st.checkRes)
		// CoveringRow and ReducedSet index the candidate scratch, and
		// ReducedSet aliases checkRes, which the next check reuses;
		// coverers names those rows by ID instead.
		res := st.checkRes
		res.CoveringRow, res.ReducedSet = -1, nil
		if !res.Decision.IsCovered() {
			return StatusActive, nil, res, nil
		}
		return StatusCovered, coverers, res, nil
	}
}

// walk decides s's group coverage with a few point stabs into the
// active index, before any row is gathered: the cheapest exact answers
// of Algorithm 4. A point p starts at the centre of s. A p that no
// active row contains is a point witness: s is not covered. A row
// containing p that also contains s makes s pairwise covered, and the
// coverer is named as the checker names it: the lowest-ID row
// containing s. Otherwise p moves just outside that row, on the first
// attribute where the row ends inside s, trying attributes from the
// step's (mod m) on: to the row's Hi+1, or else its Lo-1, so p stays
// inside s. After 2m+1 stabs the walk gives up (ok false) and the
// checker decides. Both answers are exact, so they are the checker's
// status and coverers; a NO's reason and witness may differ from the
// checker's, a YES's do not. A NO's witness is the walk's point, which
// the next walk overwrites. The unpruned reference never walks, so the
// equivalence tests check the walk against the checker.
func (st *Store) walk(s subscription.Subscription) (Status, []ID, core.Result, bool) {
	m := s.Len()
	ix := st.active[m]
	if ix == nil || st.unpruned {
		return 0, nil, core.Result{}, false
	}
	p := slices.Grow(st.point[:0], m)[:m]
	st.point = p
	for a, b := range s.Bounds {
		// Unsigned, so a full-int64 bound cannot overflow.
		p[a] = b.Lo + int64((uint64(b.Hi)-uint64(b.Lo))/2)
	}
	for step := range 2*m + 1 {
		slot := ix.Hit(&st.scratch, p)
		if slot < 0 {
			res := core.Result{Decision: core.NotCovered, Reason: core.ReasonPointWitness, CoveringRow: -1, PointWitness: p}
			return StatusActive, nil, res, true
		}
		_, row := ix.Row(slot)
		if row.Covers(s) {
			ids, _ := st.candidates(s, true)
			res := core.Result{Decision: core.Covered, Reason: core.ReasonPairwiseCover, CoveringRow: -1}
			return StatusCovered, []ID{ID(slices.Min(ids))}, res, true
		}
		for j := range m {
			a := (step + j) % m
			r, b := row.Bounds[a], s.Bounds[a]
			if r.Hi < b.Hi {
				p[a] = r.Hi + 1
				break
			}
			if r.Lo > b.Lo {
				p[a] = r.Lo - 1
				break
			}
		}
	}
	return 0, nil, core.Result{}, false
}

// witness returns a copy of the walk's witness p, carved from the
// store's witness chunk: one allocation per 64 witnesses. A full chunk
// is replaced, never reused, and each copy's capacity ends at its
// length, so no later witness or append overwrites a copy handed out.
func (st *Store) witness(p []int64) []int64 {
	if cap(st.witnesses)-len(st.witnesses) < len(p) {
		st.witnesses = make([]int64, 0, 64*len(p))
	}
	n := len(st.witnesses)
	st.witnesses = append(st.witnesses, p...)
	return st.witnesses[n:len(st.witnesses):len(st.witnesses)]
}

// resolveCoverers maps a group-coverage result's candidate indices to
// subscription IDs, in ascending ID order.
func (st *Store) resolveCoverers(ids []int64, res *core.Result) []ID {
	if !res.Decision.IsCovered() {
		return nil
	}
	if res.Reason == core.ReasonPairwiseCover {
		return []ID{ID(ids[res.CoveringRow])}
	}
	coverers := make([]ID, 0, len(res.ReducedSet))
	for _, idx := range res.ReducedSet {
		coverers = append(coverers, ID(ids[idx]))
	}
	if len(coverers) == 0 {
		// MCS was disabled or returned no detail; fall back to the
		// whole candidate set as the covering group.
		for _, id := range ids {
			coverers = append(coverers, ID(id))
		}
	}
	slices.Sort(coverers)
	return coverers
}

// Subscribe inserts a subscription under a fresh ID and classifies it.
func (st *Store) Subscribe(id ID, s subscription.Subscription) (SubscribeResult, error) {
	if _, dup := st.nodes[id]; dup {
		return SubscribeResult{}, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	if !s.IsSatisfiable() {
		return SubscribeResult{}, core.ErrUnsatisfiable
	}
	status, coverers, checkRes, err := st.decideCoverage(s, true)
	if err != nil {
		return SubscribeResult{}, err
	}
	n := &node{id: id, sub: s, status: status}
	st.link(n, coverers)
	st.nodes[id] = n
	if status == StatusActive {
		st.activate(n)
	}
	return SubscribeResult{Status: status, Coverers: coverers, Checker: checkRes}, nil
}

// link makes coverers n's coverers and n their child. Both maps are
// made on first need: most subscriptions are active and cover nothing.
func (st *Store) link(n *node, coverers []ID) {
	n.coverers = nil
	if len(coverers) == 0 {
		return
	}
	n.coverers = make(map[ID]struct{}, len(coverers))
	for _, c := range coverers {
		n.coverers[c] = struct{}{}
		p := st.nodes[c]
		if p.children == nil {
			p.children = make(map[ID]struct{})
		}
		p.children[n.id] = struct{}{}
	}
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
	slices.Sort(children)

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
	status, coverers, _, err := st.decideCoverage(child.sub, false)
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
	st.link(child, coverers)
	if status == StatusCovered {
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
	if ix := st.active[len(p.Values)]; ix != nil {
		hits, _ := ix.Stab(&st.scratch, p)
		for _, slot := range hits {
			id, _ := ix.Row(slot)
			out = append(out, ID(id))
			frontier = append(frontier, ID(id))
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
	for id, n := range st.nodes {
		if n.status == StatusActive && n.sub.Matches(p) {
			out = append(out, id)
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
