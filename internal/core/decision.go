// Package core implements the paper's primary contribution: the
// probabilistic cover algorithm for the general subsumption problem.
// It decides whether a subscription s is covered by the disjunction of
// a set of subscriptions S = {s1 … sk} by combining
//
//   - fast deterministic decisions read off the conflict table
//     (Algorithm 4: Corollary 1 pairwise cover, Corollary 3 polyhedron
//     witness, empty minimized cover set),
//   - an exact residual stage that subtracts the candidate boxes from
//     s under a work bound and decides the dense instances outright,
//   - the Minimized Cover Set reduction (Algorithm 3, MCS), and
//   - the Monte-Carlo Random Simple Predicates Cover (Algorithm 1,
//     RSPC) whose trial budget d is derived from a caller-chosen error
//     probability δ via the witness-density estimate ρw (Algorithm 2).
//
// A NO answer is always exact: it is backed by an explicit point or
// polyhedron witness. A YES answer is exact on the pairwise path and
// whenever the residual stage decides; only when that stage runs out
// of its work bound is the YES probabilistic, wrong with probability
// at most δ ≤ (1-ρw)^d (Proposition 1) — and that only when d was not
// capped (Result.DCapped).
package core

import (
	"probsum/internal/subscription"
)

// Decision is the outcome of a subsumption check.
type Decision int

// Decision values.
const (
	// NotCovered is a definite NO: a witness proves s ⋢ S.
	NotCovered Decision = iota + 1
	// Covered is a definite YES: a single subscription covers s, or
	// the residual stage subtracted the set from s and nothing was left.
	Covered
	// CoveredProbably is RSPC's probabilistic YES: no witness was found
	// in d trials, so s ⊑ S with error probability at most δ.
	CoveredProbably
)

// String returns a human-readable decision name.
func (d Decision) String() string {
	switch d {
	case NotCovered:
		return "not-covered"
	case Covered:
		return "covered"
	case CoveredProbably:
		return "covered-probably"
	default:
		return "unknown"
	}
}

// IsCovered reports whether the decision treats s as covered (exactly
// or probabilistically), i.e. whether a broker would suppress it.
func (d Decision) IsCovered() bool { return d == Covered || d == CoveredProbably }

// Reason records which stage of the pipeline produced the decision.
type Reason int

// Reason values, in pipeline order.
const (
	// ReasonPairwiseCover: some row of the conflict table is entirely
	// undefined, so that subscription alone covers s (Corollary 1).
	ReasonPairwiseCover Reason = iota + 1
	// ReasonPolyhedronWitness: the sorted-row condition held and the
	// greedy construction produced a verified polyhedron witness
	// (Corollary 3).
	ReasonPolyhedronWitness
	// ReasonEmptyMCS: the minimized cover set is empty — no candidate
	// subscriptions could jointly cover s.
	ReasonEmptyMCS
	// ReasonPointWitness: RSPC guessed a point inside s that no
	// subscription contains (Definition 4).
	ReasonPointWitness
	// ReasonTrialsExhausted: RSPC performed all d trials without
	// finding a witness.
	ReasonTrialsExhausted
	// ReasonResidualCover: the residual stage subtracted the set from
	// s and nothing was left — an exact YES. Appended after the
	// paper's reasons (it runs between the polyhedron witness and
	// MCS) so their values stay what earlier builds recorded.
	ReasonResidualCover
)

// String returns a human-readable reason name.
func (r Reason) String() string {
	switch r {
	case ReasonPairwiseCover:
		return "pairwise-cover"
	case ReasonPolyhedronWitness:
		return "polyhedron-witness"
	case ReasonEmptyMCS:
		return "empty-mcs"
	case ReasonPointWitness:
		return "point-witness"
	case ReasonTrialsExhausted:
		return "trials-exhausted"
	case ReasonResidualCover:
		return "residual-cover"
	default:
		return "unknown"
	}
}

// Result carries the decision together with the evidence and cost
// accounting the evaluation experiments need.
type Result struct {
	Decision Decision
	Reason   Reason

	// CoveringRow is the index (into the checked set) of the single
	// subscription that covers s on the pairwise path; -1 otherwise.
	CoveringRow int

	// PointWitness is the witness point when Reason is
	// ReasonPointWitness; empty otherwise. Found by the residual stage
	// (ExecutedTrials is 0) it lies inside s and outside every
	// subscription of the set. Found by RSPC it lies inside s and
	// outside every subscription of the minimized cover set
	// (ReducedSet); by Proposition 4 that proves s is not covered by
	// the full set either, although the point itself may lie inside a
	// subscription MCS removed as redundant.
	PointWitness []int64

	// PolyhedronWitness is the verified witness box when Reason is
	// ReasonPolyhedronWitness.
	PolyhedronWitness subscription.Subscription

	// ReducedSet lists, in ascending order, the indices surviving MCS
	// (the non-reducible cover set S'); nil when MCS was disabled or
	// not reached. When Reason is ReasonResidualCover it lists instead
	// the subscriptions that cut or swallowed a fragment of s — their
	// union alone covers s, and it is typically far smaller than S'.
	ReducedSet []int

	// Rho is the witness-density estimate ρw computed by Algorithm 2
	// over the reduced set; LogRho is its natural logarithm, exact even
	// when Rho underflows to zero.
	Rho    float64
	LogRho float64

	// Log10D is log10 of the theoretical trial bound d from Equation 1
	// (can reach ~50 in the paper's plots). ExecutedTrials is the
	// number of RSPC guesses actually performed; DCapped reports that
	// the theoretical d exceeded the checker's MaxTrials.
	Log10D         float64
	ExecutedTrials int
	DCapped        bool

	// ResidualTests is the number of fragment-vs-row tests the residual
	// stage performed (0 when it is disabled or was not reached); it
	// is the checker's MaxTrials when the stage gave up.
	ResidualTests int
}

// resetForReuse clears the result for the next CoveredInto call while
// keeping the ReducedSet and PointWitness capacity, so a reused Result
// stops allocating once it has seen the workload's largest reduced set
// and its first point witness.
func (r *Result) resetForReuse() {
	*r = Result{CoveringRow: -1, ReducedSet: r.ReducedSet[:0], PointWitness: r.PointWitness[:0]}
}
