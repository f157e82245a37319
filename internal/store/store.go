// Package store maintains a broker's subscription state under a
// coverage policy: the active (uncovered) set that drives routing and
// matching, and the passive (covered) set organized as a cover forest.
// It implements the paper's Algorithm 5 — match publications against
// the active set first and descend into covered subscriptions only on
// a match — together with the Section 4.4 multi-level optimization and
// the Section 5 cancellation rule (promote covered subscriptions when
// their coverer unsubscribes).
//
// The forest is one level deep. A coverage decision names only active
// rows, no path demotes an active subscription, and a promoted one
// keeps no coverers, so every coverer is active and no active
// subscription has one: the roots are the active set, and each
// covered subscription hangs directly under the roots that cover it.
package store

import (
	"errors"
	"fmt"
	"slices"

	"probsum/internal/cells"
	"probsum/internal/core"
	"probsum/internal/interval"
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

// node is one subscription in the cover forest. The forest is
// bipartite (see the package doc): a covered node links to its
// coverers, all active, and an active node to its children, all
// covered. So one list serves both, and the slot says which. Its box
// is the pointer the index reads (cells.First) and the attribute
// count, not a slice header: the fields fill the 48-byte size class
// exactly, and a second list would take a node to 80.
type node struct {
	id    ID
	first *interval.Interval
	links []ID   // ascending: its coverers while covered, its children while active
	m     uint32 // attribute count
	slot  int32  // position in its attribute count's index; -1 while covered
}

// sub returns n's box.
func (n *node) sub() subscription.Subscription { return cells.Box(n.first, n.m) }

// status says where n lives, read from its slot.
func (n *node) status() Status {
	if n.slot < 0 {
		return StatusCovered
	}
	return StatusActive
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
	// decided before the checker read any row (see walk); CandidateRows
	// sums the rows the checker decided the rest over, the active rows
	// meeting the arrival, so a walk decision adds none.
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
// is indexed in active: one cell-bitset index (package cells) per
// attribute count, whose slots hold the active nodes themselves. Every
// status change adds or removes the node in its count's index, and an
// index is dropped once empty. The ID-ordered
// views (ActiveIDs, ActiveSubscriptions) are derived from nodes on
// demand, so Subscribe never rescans or re-sorts the whole set.
type Store struct {
	policy  Policy
	checker *core.Checker
	copts   []core.Option // for the checker New builds
	nodes   map[ID]*node
	active  map[int]*cells.Index[node] // by attribute count; none is empty
	// unpruned makes containing and check scan every active row of the
	// arrival's attribute count instead of querying the index, check
	// decide over all of them, and the walk step aside: the reference
	// tests compare against.
	unpruned bool

	// Reusable hot-path buffers.
	scratch  cells.Scratch
	candIDs  []int64
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
	st := &Store{policy: policy, nodes: make(map[ID]*node), active: make(map[int]*cells.Index[node])}
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
	m := int(n.m)
	ix := st.active[m]
	if ix == nil {
		ix = cells.New(m, func(n *node) **interval.Interval { return &n.first })
		st.active[m] = ix
	}
	n.slot = ix.Add(n)
}

// deactivate removes n from its attribute count's index, dropping the
// index once it is empty so a later population starts from a fresh grid.
func (st *Store) deactivate(n *node) {
	m := int(n.m)
	ix := st.active[m]
	ix.Remove(n.slot)
	if ix.Len() == 0 {
		delete(st.active, m)
	}
}

// containing returns the IDs of the active rows whose boxes contain s,
// in no particular order. A row of another attribute count does not
// contain s. The result is store-owned scratch, valid until the next
// call.
func (st *Store) containing(s subscription.Subscription) []int64 {
	ids := st.candIDs[:0]
	if st.unpruned {
		for id, n := range st.nodes {
			if n.slot >= 0 && int(n.m) == s.Len() && n.sub().Covers(s) {
				ids = append(ids, int64(id))
			}
		}
	} else if ix := st.active[s.Len()]; ix != nil {
		for _, slot := range ix.Containing(&st.scratch, s) {
			ids = append(ids, int64(ix.Row(slot).id))
		}
	}
	st.candIDs = ids
	return ids
}

// check runs the checker on s against the active rows of s's
// attribute count and returns how many rows it decided over, and the
// IDs its result's row positions index, as store-owned scratch valid
// until the next call. Every row the cell filter passes goes straight
// to the checker, keyed by ID, in slot order, and the checker drops
// those disjoint from s as it reads them: the IDs are the rows handed
// over, in the order handed. With unpruned set, CoveredInto decides
// over every active row of the count in ID order, disjoint rows
// included, and the IDs are that set's.
func (st *Store) check(s subscription.Subscription) ([]int64, int, error) {
	c := st.checker
	ids := st.candIDs[:0]
	if st.unpruned {
		for id, n := range st.nodes {
			if n.slot >= 0 && int(n.m) == s.Len() {
				ids = append(ids, int64(id))
			}
		}
		slices.Sort(ids)
		set := make([]subscription.Subscription, len(ids))
		for i, id := range ids {
			set[i] = st.nodes[ID(id)].sub()
		}
		st.candIDs = ids
		return ids, len(set), c.CoveredInto(&st.checkRes, s, set)
	}
	if err := c.Begin(s); err != nil {
		return nil, 0, err
	}
	if ix := st.active[s.Len()]; ix != nil {
		for _, slot := range ix.Candidates(&st.scratch, s) {
			n := ix.Row(slot)
			c.Add(n.sub().Bounds, int64(n.id))
			ids = append(ids, int64(n.id))
		}
	}
	st.candIDs = ids
	return ids, c.Rows(), c.Decide(&st.checkRes)
}

// ActiveIDs returns the sorted IDs of the active set.
func (st *Store) ActiveIDs() []ID {
	ids := make([]ID, 0, st.ActiveLen())
	for id, n := range st.nodes {
		if n.slot >= 0 {
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
		out[i] = st.nodes[id].sub()
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
	return n.sub(), n.status(), true
}

// Coverers returns the IDs of the subscriptions whose union covers id,
// in ascending order: nil when id is active or absent.
func (st *Store) Coverers(id ID) []ID {
	n := st.nodes[id]
	if n == nil || n.slot >= 0 {
		return nil
	}
	return slices.Clone(n.links)
}

// decideCoverage classifies s against the current active set. The
// pairwise scan sees only the rows containing s and the probabilistic
// checker only the rows intersecting s — sound, because a pairwise
// coverer contains s and a subscription disjoint from s contributes
// nothing to any cover of s. Under PolicyGroup the point walk answers
// first, and the checker runs only when the walk ends undecided. keep
// says the caller hands the result on: only then is a witness copied
// out of the walk's or the checker's scratch.
func (st *Store) decideCoverage(s subscription.Subscription, keep bool) (Status, []ID, core.Result, error) {
	switch st.policy {
	case PolicyNone:
		return StatusActive, nil, core.Result{}, nil
	case PolicyPairwise:
		// The coverer is the lowest-ID row containing s: the one a scan
		// of the active set in ID order finds first.
		ids := st.containing(s)
		if len(ids) == 0 {
			return StatusActive, nil, core.Result{}, nil
		}
		return StatusCovered, []ID{ID(slices.Min(ids))}, core.Result{}, nil
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
		ids, rows, err := st.check(s)
		if err != nil {
			return 0, nil, core.Result{}, err
		}
		st.stats.Calls++
		st.stats.CandidateRows += uint64(rows)
		st.stats.Decisions[st.checkRes.Reason]++
		st.stats.Trials += uint64(st.checkRes.ExecutedTrials)
		if st.checkRes.Decision == core.CoveredProbably && st.checkRes.DCapped {
			st.stats.Capped++
		}
		coverers := st.resolveCoverers(s, ids, &st.checkRes)
		// CoveringRow and ReducedSet index the candidate scratch, and
		// ReducedSet and PointWitness alias checkRes, which the next
		// check reuses; coverers names those rows by ID instead, and a
		// kept witness is copied out like the walk's.
		res := st.checkRes
		res.CoveringRow, res.ReducedSet, res.PointWitness = -1, nil, nil
		if keep && len(st.checkRes.PointWitness) > 0 {
			res.PointWitness = st.witness(st.checkRes.PointWitness)
		}
		if !res.Decision.IsCovered() {
			return StatusActive, nil, res, nil
		}
		return StatusCovered, coverers, res, nil
	}
}

// walk decides s's group coverage with a few point stabs into the
// active index, before the checker reads any row: the cheapest exact
// answers of Algorithm 4. A point p starts at the centre of s. A p that no
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
		row := ix.Row(slot).sub()
		if row.Covers(s) {
			ids := st.containing(s)
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

// witness returns a copy of the witness p, carved from the
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

// resolveCoverers maps a group-coverage result's row positions, which
// index ids, to subscription IDs, in ascending ID order.
func (st *Store) resolveCoverers(s subscription.Subscription, ids []int64, res *core.Result) []ID {
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
		// candidate rows meeting s as the covering group.
		for _, id := range ids {
			if st.nodes[ID(id)].sub().Intersects(s) {
				coverers = append(coverers, ID(id))
			}
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
	n := &node{id: id, first: cells.First(s), m: uint32(s.Len()), slot: -1}
	st.link(n, coverers)
	st.nodes[id] = n
	if status == StatusActive {
		st.activate(n)
	}
	return SubscribeResult{Status: status, Coverers: coverers, Checker: checkRes}, nil
}

// link gives n a copy of coverers, ascending, as its links, and inserts
// n into each coverer's links; nil coverers leave n with none. The copy
// keeps a caller's slice, such as a SubscribeResult's Coverers, apart
// from the node's list, which unlink edits in place.
func (st *Store) link(n *node, coverers []ID) {
	n.links = slices.Clone(coverers)
	for _, c := range coverers {
		p := st.nodes[c]
		i, _ := slices.BinarySearch(p.links, n.id)
		p.links = slices.Insert(p.links, i, n.id)
	}
}

// unlink removes id from n's links.
func unlink(n *node, id ID) {
	if i, ok := slices.BinarySearch(n.links, id); ok {
		n.links = slices.Delete(n.links, i, i+1)
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
	res := UnsubscribeResult{Existed: true, WasActive: n.slot >= 0}
	st.stats.Unsubscribes++
	delete(st.nodes, id)
	if !res.WasActive {
		for _, c := range n.links {
			unlink(st.nodes[c], id)
		}
		return res, nil
	}
	st.deactivate(n)

	// Its children lost a coverer and are re-validated in ID order, the
	// order of its links, for determinism. Promotions can cascade: a
	// promoted child re-enters the active set and may itself cover the
	// children after it, so each is checked against the then-current
	// active set. None of that touches n's links: n is out of the store,
	// so no decision names it.
	for _, cid := range n.links {
		child := st.nodes[cid]
		unlink(child, id)
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
// coverer (already unlinked) against the current active set: it is
// rewired to the new cover, or promoted to active, with no links, when
// there is none.
func (st *Store) revalidate(child *node) (promoted bool, err error) {
	status, coverers, _, err := st.decideCoverage(child.sub(), false)
	if err != nil {
		return false, err
	}
	if st.policy == PolicyGroup {
		st.stats.RecheckCalls++
	}
	// Detach from remaining coverers before rewiring.
	for _, c := range child.links {
		unlink(st.nodes[c], child.id)
	}
	st.link(child, coverers)
	if status == StatusCovered {
		return false, nil
	}
	st.activate(child)
	return true, nil
}

// Match implements the multi-level optimization of Section 4.4: match
// the active set, then test a covered subscription only when one of its
// coverers matched. The forest being one level deep, that is one pass
// over the matched roots' children, with no deeper frontier; a child
// under several matched roots is tested once per root and kept once.
// Results are sorted by ID.
func (st *Store) Match(p subscription.Publication) []ID {
	var out []ID
	if ix := st.active[len(p.Values)]; ix != nil {
		hits, _ := ix.Stab(&st.scratch, p)
		for _, slot := range hits {
			n := ix.Row(slot)
			out = append(out, n.id)
			for _, cid := range n.links {
				if st.nodes[cid].sub().Matches(p) {
					out = append(out, cid)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// MatchTwoPhase is the literal Algorithm 5: match the active set; if
// any active subscription matched, additionally scan the entire
// covered set. It exists as the paper-faithful reference; Match is the
// optimized variant and returns identical results.
func (st *Store) MatchTwoPhase(p subscription.Publication) []ID {
	var out []ID
	matched := false
	for id, n := range st.nodes {
		if n.slot >= 0 && n.sub().Matches(p) {
			out = append(out, id)
			matched = true
		}
	}
	if matched {
		for id, n := range st.nodes {
			if n.slot < 0 && n.sub().Matches(p) {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}
