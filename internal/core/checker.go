package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"probsum/internal/conflict"
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

	// For keyed input the table is built over sorted, the set permuted
	// into key order: sorted[p] is set[perm[p]]. aliveBySet is MCS's
	// survivor mask mapped back to positions in the set.
	perm       []int
	sorted     []subscription.Subscription
	aliveBySet []bool
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
// res is overwritten entirely; any slices previously returned from it
// (ReducedSet and PointWitness in particular) are invalidated by the
// next call.
func (c *Checker) CoveredInto(res *Result, s subscription.Subscription, set []subscription.Subscription) error {
	return c.CoveredIntoKeyed(res, s, set, nil)
}

// CoveredIntoKeyed is CoveredInto for a set in no particular order:
// keys[i] is set[i]'s sort key, and keys is as long as set (nil keys
// make it CoveredInto). Every decision, witness, cost figure and
// random draw is what CoveredInto gives for the set sorted by
// ascending key (equal keys in set order), with CoveringRow and
// ReducedSet mapped back to positions in set; ReducedSet stays in
// ascending position order. A caller that orders its rows by key only
// to check them, as the store does by ID, hands them over unsorted
// instead: the checker orders its flat layout by key anyway, and only
// the rare path that builds the conflict table permutes the set.
func (c *Checker) CoveredIntoKeyed(res *Result, s subscription.Subscription, set []subscription.Subscription, keys []int64) error {
	if !s.IsSatisfiable() {
		return ErrUnsatisfiable
	}
	res.resetForReuse()
	if len(set) == 0 {
		res.Decision = NotCovered
		res.Reason = ReasonEmptyMCS
		return nil
	}

	flat := &c.sc.flat
	cover, err := flat.scan(s, set, keys, c.useFast)
	if err != nil {
		return err
	}
	var table *conflict.Table // built on first need: the rare path
	if c.useFast {
		if cover >= 0 {
			res.Decision = Covered
			res.Reason = ReasonPairwiseCover
			res.CoveringRow = cover
			return nil
		}
		if len(set) <= 2*s.Len() {
			if table, err = c.buildTable(s, set, keys); err != nil {
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

	flat.sortRows()
	if c.useResidual {
		flat.fill(set, nil)
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
		if table, err = c.buildTable(s, set, keys); err != nil {
			return err
		}
	}
	var alive []bool
	if c.useMCS {
		c.sc.alive = slices.Grow(c.sc.alive[:0], table.K())[:table.K()]
		mcs := MCSInto(table, c.sc.alive, &c.sc.cs.An)
		for i, ok := range mcs.Alive {
			if ok {
				res.ReducedSet = append(res.ReducedSet, c.setIndex(i, keys))
			}
		}
		slices.Sort(res.ReducedSet) // keyed rows map back out of order
		if mcs.AliveCount == 0 {
			res.Decision = NotCovered
			res.Reason = ReasonEmptyMCS
			return nil
		}
		alive = mcs.Alive
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

	if cap(c.sc.point) < s.Len() {
		c.sc.point = make([]int64, s.Len())
	} else {
		c.sc.point = c.sc.point[:s.Len()]
	}
	flat.fill(set, c.aliveBySet(alive, keys))
	out := rspcFlat(s, flat, trials, c.rng, c.sc.point)
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

// buildTable builds the conflict table over set or, for keyed input,
// over a copy of set permuted into key order: MCS's fixpoint and the
// greedy witness depend on row order, so they must see the rows as
// CoveredInto would on the sorted set.
func (c *Checker) buildTable(s subscription.Subscription, set []subscription.Subscription, keys []int64) (*conflict.Table, error) {
	sc := &c.sc
	if keys == nil {
		return &sc.table, sc.table.Reset(s, set)
	}
	perm := sc.perm[:0]
	for i := range set {
		perm = append(perm, i)
	}
	slices.SortFunc(perm, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sorted := sc.sorted[:0]
	for _, i := range perm {
		sorted = append(sorted, set[i])
	}
	sc.perm, sc.sorted = perm, sorted
	return &sc.table, sc.table.Reset(s, sorted)
}

// setIndex maps table row p to its position in the set.
func (c *Checker) setIndex(p int, keys []int64) int {
	if keys == nil {
		return p
	}
	return c.sc.perm[p]
}

// aliveBySet maps a survivor mask over table rows to one over set
// positions (nil stays nil).
func (c *Checker) aliveBySet(alive []bool, keys []int64) []bool {
	if alive == nil || keys == nil {
		return alive
	}
	out := slices.Grow(c.sc.aliveBySet[:0], len(alive))[:len(alive)]
	for p, ok := range alive {
		out[c.sc.perm[p]] = ok
	}
	c.sc.aliveBySet = out
	return out
}
