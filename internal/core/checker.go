package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"probsum/internal/conflict"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// Checker defaults.
const (
	// DefaultErrorProbability is the δ used when none is configured;
	// the paper's comparison experiment uses 1e-6.
	DefaultErrorProbability = 1e-6
	// DefaultMaxTrials caps executed RSPC guesses. The paper observes
	// that d below 10^5 is practically feasible while theoretical
	// bounds can reach 10^50; runs that hit the cap are flagged in the
	// result.
	DefaultMaxTrials = 100_000
)

// ErrUnsatisfiable is returned when the tested subscription is empty:
// coverage of an empty subscription is vacuous and almost certainly a
// caller bug, so it is reported instead of silently answering YES.
var ErrUnsatisfiable = errors.New("core: tested subscription is unsatisfiable")

// Option configures a Checker.
type Option func(*Checker)

// WithErrorProbability sets the acceptable probability δ of a false
// YES. Must be in (0, 1).
func WithErrorProbability(delta float64) Option {
	return func(c *Checker) { c.delta = delta }
}

// WithMaxTrials caps the number of RSPC guesses per query.
func WithMaxTrials(n int) Option {
	return func(c *Checker) { c.maxTrials = n }
}

// WithSeed fixes the PCG seed of the checker's random stream, making
// every decision sequence reproducible.
func WithSeed(seed1, seed2 uint64) Option {
	return func(c *Checker) { c.rng = rand.New(rand.NewPCG(seed1, seed2)) }
}

// WithMCS enables or disables the Minimized Cover Set reduction.
// Disabling it reproduces the paper's "RSPC without MCS" ablation.
func WithMCS(enabled bool) Option {
	return func(c *Checker) { c.useMCS = enabled }
}

// WithFastPaths enables or disables the deterministic short-circuits of
// Algorithm 4 (pairwise cover and greedy polyhedron witness).
func WithFastPaths(enabled bool) Option {
	return func(c *Checker) { c.useFast = enabled }
}

// WithResidual enables or disables the exact residual stage that
// decides dense instances by bounded box subtraction before MCS and
// RSPC run. Disabling it reproduces the paper's pipeline decision for
// decision, which is what the figure runs measure.
func WithResidual(enabled bool) Option {
	return func(c *Checker) { c.useResidual = enabled }
}

// Checker answers group-subsumption questions with the full pipeline of
// Algorithm 4. The zero value is not usable; construct with NewChecker.
// A Checker is not safe for concurrent use (it owns a random stream and
// the reusable hot-path buffers); create one per goroutine or table.
type Checker struct {
	delta       float64
	maxTrials   int
	useMCS      bool
	useFast     bool
	useResidual bool
	rng         *rand.Rand

	// sc holds the per-checker scratch the zero-allocation path writes
	// into; buffers grow to the workload's high-water mark and are
	// reused across Covered/CoveredInto calls.
	sc scratch
}

// scratch aggregates every buffer the Algorithm 4 pipeline needs, so a
// steady-state CoveredInto call performs no heap allocations.
type scratch struct {
	table conflict.Table
	cs    conflict.Scratch
	alive []bool
	point []int64
	flat  flatSet
	resid residual
}

// NewChecker returns a Checker with the paper's defaults: δ = 1e-6,
// MCS, fast paths and the residual stage enabled, trial cap 100 000,
// and an unseeded (process-random) PCG stream unless WithSeed is given.
func NewChecker(opts ...Option) (*Checker, error) {
	c := &Checker{
		delta:       DefaultErrorProbability,
		maxTrials:   DefaultMaxTrials,
		useMCS:      true,
		useFast:     true,
		useResidual: true,
		rng:         rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.delta <= 0 || c.delta >= 1 {
		return nil, fmt.Errorf("core: error probability must be in (0,1), got %g", c.delta)
	}
	if c.maxTrials < 1 {
		return nil, fmt.Errorf("core: max trials must be positive, got %d", c.maxTrials)
	}
	return c, nil
}

// Delta returns the configured error probability δ.
func (c *Checker) Delta() float64 { return c.delta }

// Covered decides whether s ⊑ (set[0] ∨ … ∨ set[k-1]) following
// Algorithm 4:
//
//  1. one pass over the set (O(m·k)) checks attribute counts, drops
//     the rows disjoint from s and sizes the rest;
//  2. Corollary 1 — a row containing s, i.e. a fully undefined row of
//     the conflict table, means a single subscription covers s:
//     definite YES, read off the pass;
//  3. Corollary 3 — if the sorted-row condition holds, greedily build
//     and verify a polyhedron witness: definite NO. The condition
//     needs the j-th smallest row count to be at least j, and a row
//     has at most 2m defined entries, so for k > 2m it cannot hold
//     and the conflict table is not built;
//  4. residual stage (not in the paper) — subtract the rows from s
//     depth-first, at most MaxTrials fragment-vs-row tests: nothing
//     left is a definite YES with the rows that did the cutting as the
//     cover, a fragment outside every row is a definite NO; an
//     exhausted bound decides nothing and the pipeline continues;
//  5. Algorithm 3 — build the conflict table if step 3 did not, and
//     reduce to the minimized cover set S'; if S' is empty: definite
//     NO;
//  6. Algorithms 2+1 — estimate ρw on S', derive the trial bound d for
//     δ, cap it at MaxTrials, and run RSPC: a point witness is a
//     definite NO, otherwise a probabilistic YES.
func (c *Checker) Covered(s subscription.Subscription, set []subscription.Subscription) (Result, error) {
	var res Result
	if err := c.CoveredInto(&res, s, set); err != nil {
		return Result{}, err
	}
	return res, nil
}

// CoveredInto is Covered writing the outcome into res, reusing res's
// slice capacity and the checker's internal scratch. A caller that
// keeps one Result per checker performs zero heap allocations in
// steady state (covered answers, and point witnesses the residual stage
// finds once res holds room for one); other definite-NO answers
// allocate, to copy their witness out of the scratch. Decisions are
// identical to Covered's for the same random stream.
//
// It is Begin, an Add per row of set keyed by its index, and Decide,
// with one difference: a row of set disjoint from s still takes part
// in the conflict table (Corollary 3, MCS and ρw read it), as the set
// is the caller's. CoveringRow and ReducedSet are indices into set.
//
// res is overwritten entirely; any slices previously returned from it
// (ReducedSet and PointWitness in particular) are invalidated by the
// next call.
func (c *Checker) CoveredInto(res *Result, s subscription.Subscription, set []subscription.Subscription) error {
	if err := c.Begin(s); err != nil {
		return err
	}
	flat := &c.sc.flat
	for i := range set {
		if c.useFast && flat.cover >= 0 {
			// A row containing s decides (Corollary 1), and no later row
			// has a lower key: the rest need only the right attribute
			// count.
			for j := i; j < len(set) && flat.err == nil; j++ {
				if n := set[j].Len(); n != flat.m {
					flat.err = arityError(j, n, flat.m)
				}
			}
			break
		}
		c.Add(set[i].Bounds, int64(i))
	}
	return c.decide(res, set)
}

// Begin starts a check of s against rows handed over one at a time:
// Add each, then Decide. s must not change until Decide returns. The
// rows may come in any order; the decision is CoveredInto's on the
// rows that meet s sorted by ascending key (equal keys in the order
// added), with every decision, witness, cost figure and random draw
// the same. A caller that orders its rows by key only to check them,
// as the store does by ID, hands them over as it finds them instead.
func (c *Checker) Begin(s subscription.Subscription) error {
	if !s.IsSatisfiable() {
		return ErrUnsatisfiable
	}
	c.sc.flat.begin(s)
	return nil
}

// Add hands the check Begin started its next row: the row's bounds,
// which are copied, and its sort key. A row disjoint from s is dropped
// as if never added. A row with another attribute count than s makes
// Decide return an error naming its position among the rows added.
func (c *Checker) Add(bounds []interval.Interval, key int64) {
	c.sc.flat.add(bounds, key)
}

// Rows returns the number of rows added since Begin that meet s: the
// set Decide decides over.
func (c *Checker) Rows() int { return len(c.sc.flat.cand) }

// Decide decides the check Begin started and writes the outcome into
// res as CoveredInto does. CoveringRow and ReducedSet name rows by
// their position among the rows added (the first Add is 0);
// ReducedSet stays in ascending position order.
func (c *Checker) Decide(res *Result) error {
	return c.decide(res, nil)
}

// decide runs Algorithm 4 over the rows added: the conflict table is
// built over set, or when set is nil over the kept rows in key order.
func (c *Checker) decide(res *Result, set []subscription.Subscription) error {
	res.resetForReuse()
	flat := &c.sc.flat
	if flat.err != nil {
		return flat.err
	}
	keyed := set == nil
	k := len(set)
	if keyed {
		k = len(flat.cand)
	}
	if k == 0 {
		res.Decision = NotCovered
		res.Reason = ReasonEmptyMCS
		return nil
	}

	var table *conflict.Table // built on first need: the rare path
	var err error
	if c.useFast {
		if flat.cover >= 0 {
			res.Decision = Covered
			res.Reason = ReasonPairwiseCover
			res.CoveringRow = flat.cover
			return nil
		}
		if k <= 2*flat.m {
			if table, err = c.buildTable(set); err != nil {
				return err
			}
			if table.SortedRowConditionScratch(nil, &c.sc.cs) {
				if witness, ok := table.GreedyWitnessScratch(nil, &c.sc.cs); ok {
					res.Decision = NotCovered
					res.Reason = ReasonPolyhedronWitness
					res.PolyhedronWitness = witness
					return nil
				}
			}
		}
	}

	flat.sortRows(flat.cand)
	if c.useResidual {
		verdict, tests := c.sc.resid.subtract(flat, c.maxTrials)
		res.ResidualTests = tests
		switch {
		case verdict == residualCovered:
			res.Decision = Covered
			res.Reason = ReasonResidualCover
			res.ReducedSet = c.sc.resid.appendUsed(res.ReducedSet, flat)
			return nil
		case verdict == residualWitness && !flat.contains(c.sc.resid.curLo):
			res.Decision = NotCovered
			res.Reason = ReasonPointWitness
			res.PointWitness = append(res.PointWitness, c.sc.resid.curLo...)
			return nil
		}
	}

	if table == nil {
		if table, err = c.buildTable(set); err != nil {
			return err
		}
	}
	var alive []bool
	if c.useMCS {
		c.sc.alive = slices.Grow(c.sc.alive[:0], table.K())[:table.K()]
		mcs := MCSInto(table, c.sc.alive, &c.sc.cs.An)
		for t, ok := range mcs.Alive {
			if ok {
				res.ReducedSet = append(res.ReducedSet, flat.position(t, keyed))
			}
		}
		slices.Sort(res.ReducedSet) // keyed rows map back out of order
		if mcs.AliveCount == 0 {
			res.Decision = NotCovered
			res.Reason = ReasonEmptyMCS
			return nil
		}
		alive = mcs.Alive
		flat.keepAlive(alive, keyed)
	}

	res.LogRho = EstimateLogRho(table, alive)
	res.Rho = math.Exp(res.LogRho)
	res.Log10D = Log10TrialBound(c.delta, res.LogRho)
	trials := c.maxTrials
	if d := TrialBound(c.delta, res.LogRho); d < float64(trials) {
		trials = int(math.Ceil(d))
	} else {
		res.DCapped = true
	}

	if cap(c.sc.point) < flat.m {
		c.sc.point = make([]int64, flat.m)
	} else {
		c.sc.point = c.sc.point[:flat.m]
	}
	out := rspcFlat(flat.s, flat, trials, c.rng, c.sc.point)
	res.ExecutedTrials = out.Trials
	if out.Found() {
		res.Decision = NotCovered
		res.Reason = ReasonPointWitness
		res.PointWitness = out.Witness
		return nil
	}
	res.Decision = CoveredProbably
	res.Reason = ReasonTrialsExhausted
	return nil
}

// buildTable builds the conflict table over set or, when set is nil,
// over views of the kept rows in key order: MCS's fixpoint and the
// greedy witness depend on row order, so they must see the rows as
// CoveredInto would on the sorted set.
func (c *Checker) buildTable(set []subscription.Subscription) (*conflict.Table, error) {
	if set == nil {
		set = c.sc.flat.keyViews()
	}
	return &c.sc.table, c.sc.table.Reset(c.sc.flat.s, set)
}
