// Package subsume is the public API for probabilistic subsumption
// checking in content-based publish/subscribe systems, implementing
// Ouksel, Jurca, Podnar & Aberer, "Efficient Probabilistic Subsumption
// Checking for Content-Based Publish/Subscribe Systems" (Middleware
// 2006).
//
// A Subscription is a conjunction of range predicates over integer
// attributes — geometrically an axis-aligned box; a Publication is a
// point. The central operation is the group-subsumption question: is a
// subscription covered by the UNION of a set of subscriptions? The
// problem is co-NP complete, and Checker answers it with the paper's
// Monte-Carlo pipeline: deterministic fast paths, the minimized cover
// set reduction, and randomized point-witness search with a
// caller-chosen error probability δ. NO answers are always exact and
// carry an explicit witness; YES answers are exact (Covered) when a
// single subscription covers s or when subtracting the set from s box
// by box leaves nothing within the work bound, and otherwise
// probabilistic (CoveredProbably), wrong with probability at most δ.
//
// Basic use:
//
//	schema := subsume.NewSchema(
//		subsume.Attr("price", 0, 10_000),
//		subsume.Attr("qty", 0, 1_000),
//	)
//	s1 := subsume.NewSubscription(schema).Range("price", 0, 500).Build()
//	s2 := subsume.NewSubscription(schema).Range("price", 400, 900).Build()
//	s := subsume.NewSubscription(schema).Range("price", 100, 800).Build()
//
//	chk, _ := subsume.NewChecker(subsume.WithErrorProbability(1e-6))
//	res, _ := chk.Covered(s, []subsume.Subscription{s1, s2})
//	if res.Covered() {
//		// s need not be propagated: s1 ∨ s2 already covers it.
//	}
package subsume

import (
	"fmt"

	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// Subscription is a conjunction of range predicates (a box in the
// attribute space). Build one with NewSubscription or FromIntervals.
type Subscription = subscription.Subscription

// Publication is a point in the attribute space.
type Publication = subscription.Publication

// Schema declares attribute names and their (ordered, finite) domains.
type Schema = subscription.Schema

// ErrUnsatisfiable is returned when a checked subscription is empty.
var ErrUnsatisfiable = core.ErrUnsatisfiable

// Attribute declares one schema attribute.
type Attribute struct {
	Name   string
	Lo, Hi int64
}

// Attr is shorthand for an Attribute literal.
func Attr(name string, lo, hi int64) Attribute {
	return Attribute{Name: name, Lo: lo, Hi: hi}
}

// NewSchema builds a schema from attribute declarations. It panics on
// invalid declarations (empty names, duplicate names, empty domains):
// schemas are static program structure, not runtime input.
func NewSchema(attrs ...Attribute) *Schema {
	names := make([]string, len(attrs))
	domains := make([]interval.Interval, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
		domains[i] = interval.New(a.Lo, a.Hi)
	}
	s, err := subscription.NewSchema(names, domains)
	if err != nil {
		panic(fmt.Sprintf("subsume: invalid schema: %v", err))
	}
	return s
}

// UniformSchema builds a schema with m attributes x1..xm over [lo, hi],
// the shape used throughout the paper's evaluation.
func UniformSchema(m int, lo, hi int64) *Schema {
	return subscription.UniformSchema(m, lo, hi)
}

// Builder constructs a subscription against a schema. Attributes not
// constrained default to their full domain ("not significant" in the
// paper's terms).
type Builder struct {
	schema *Schema
	sub    Subscription
	err    error
}

// NewSubscription starts a builder over the schema.
func NewSubscription(schema *Schema) *Builder {
	return &Builder{schema: schema, sub: subscription.FullOver(schema)}
}

// Range constrains the named attribute to [lo, hi].
func (b *Builder) Range(attr string, lo, hi int64) *Builder {
	if b.err != nil {
		return b
	}
	i, ok := b.schema.AttributeIndex(attr)
	if !ok {
		b.err = fmt.Errorf("subsume: unknown attribute %q", attr)
		return b
	}
	b.sub.Bounds[i] = interval.New(lo, hi)
	return b
}

// Eq constrains the named attribute to a single value.
func (b *Builder) Eq(attr string, v int64) *Builder { return b.Range(attr, v, v) }

// Build validates and returns the subscription, panicking on builder
// misuse (unknown attribute, bound outside the domain). Use Checked
// when the input is untrusted.
func (b *Builder) Build() Subscription {
	s, err := b.Checked()
	if err != nil {
		panic(fmt.Sprintf("subsume: %v", err))
	}
	return s
}

// Checked validates and returns the subscription and any error.
func (b *Builder) Checked() (Subscription, error) {
	if b.err != nil {
		return Subscription{}, b.err
	}
	if err := b.sub.Validate(b.schema); err != nil {
		return Subscription{}, err
	}
	return b.sub.Clone(), nil
}

// FromIntervals builds a subscription directly from [lo, hi] pairs, one
// per attribute in schema order.
func FromIntervals(pairs ...[2]int64) Subscription {
	bounds := make([]interval.Interval, len(pairs))
	for i, p := range pairs {
		bounds[i] = interval.New(p[0], p[1])
	}
	return Subscription{Bounds: bounds}
}

// NewPublication builds a publication from attribute values in schema
// order.
func NewPublication(values ...int64) Publication {
	return subscription.NewPublication(values...)
}

// Decision classifies a coverage answer.
type Decision = core.Decision

// Decision values.
const (
	// NotCovered is a definite NO backed by a witness.
	NotCovered = core.NotCovered
	// Covered is a definite YES (a single subscription covers s, or
	// exact box subtraction left nothing of it).
	Covered = core.Covered
	// CoveredProbably is a probabilistic YES with error at most δ.
	CoveredProbably = core.CoveredProbably
)

// Result carries the decision, its evidence, and cost accounting; see
// the fields of core.Result.
type Result struct {
	inner core.Result
}

// Decision returns the three-valued outcome.
func (r Result) Decision() Decision { return r.inner.Decision }

// Covered reports whether the subscription may be suppressed (exact or
// probabilistic YES).
func (r Result) Covered() bool { return r.inner.Decision.IsCovered() }

// PointWitness returns the witness point proving non-coverage, or nil.
// The point lies inside the tested subscription and outside every
// member of ReducedSet; by the paper's Proposition 4 that proves
// non-coverage by the full set, though the point itself may fall
// inside a subscription the reduction removed as redundant.
func (r Result) PointWitness() []int64 {
	if len(r.inner.PointWitness) == 0 {
		return nil // a reused Result keeps its witness room
	}
	return r.inner.PointWitness
}

// PolyhedronWitness returns the witness box proving non-coverage; the
// zero Subscription when none was produced.
func (r Result) PolyhedronWitness() Subscription { return r.inner.PolyhedronWitness }

// CoveringIndex returns the index of the single covering subscription
// for a pairwise YES, or -1.
func (r Result) CoveringIndex() int { return r.inner.CoveringRow }

// ReducedSet returns the indices surviving the minimized-cover-set
// reduction (the paper's S'), or nil. For an exact YES found by box
// subtraction it is instead the (usually much smaller) set of
// subscriptions whose union was shown to cover s.
func (r Result) ReducedSet() []int { return r.inner.ReducedSet }

// Trials returns the number of Monte-Carlo guesses executed.
func (r Result) Trials() int { return r.inner.ExecutedTrials }

// ErrorBoundExponent returns log10 of the theoretical trial bound d
// (Equation 1 of the paper).
func (r Result) ErrorBoundExponent() float64 { return r.inner.Log10D }

// Detail exposes the full internal result for diagnostics.
func (r Result) Detail() core.Result { return r.inner }

// Option configures a Checker.
type Option = core.Option

// WithErrorProbability sets the acceptable false-YES probability δ
// (default 1e-6).
func WithErrorProbability(delta float64) Option { return core.WithErrorProbability(delta) }

// WithMaxTrials caps Monte-Carlo guesses per query (default 100 000).
func WithMaxTrials(n int) Option { return core.WithMaxTrials(n) }

// WithSeed makes the checker's randomness reproducible.
func WithSeed(s1, s2 uint64) Option { return core.WithSeed(s1, s2) }

// Checker answers group-subsumption questions. Create one per
// goroutine; a Checker is not safe for concurrent use.
type Checker struct {
	inner *core.Checker
}

// NewChecker builds a checker with the paper's default configuration.
func NewChecker(opts ...Option) (*Checker, error) {
	c, err := core.NewChecker(opts...)
	if err != nil {
		return nil, err
	}
	return &Checker{inner: c}, nil
}

// Covered decides whether s ⊑ (set[0] ∨ … ∨ set[k-1]).
func (c *Checker) Covered(s Subscription, set []Subscription) (Result, error) {
	res, err := c.inner.Covered(s, set)
	if err != nil {
		return Result{}, err
	}
	return Result{inner: res}, nil
}

// CoveredInto is Covered for the hot path: the outcome is written into
// res, reusing its storage and the checker's internal scratch, so a
// caller that keeps one Result per checker performs zero steady-state
// heap allocations (only definite-NO answers may allocate, to copy
// their witness out). res is overwritten entirely; slices previously read
// from it are invalidated by the next call.
func (c *Checker) CoveredInto(res *Result, s Subscription, set []Subscription) error {
	return c.inner.CoveredInto(&res.inner, s, set)
}

// CoveredBySingle reports whether one subscription covers another —
// the classical pairwise check, exact and fast (O(m)).
func CoveredBySingle(s, by Subscription) bool { return by.Covers(s) }

// BoxMatchMode selects matching semantics for imprecise (box)
// publications: MatchCertain requires the subscription to cover the
// whole box, MatchPossible only an intersection (the paper's Section 1
// approximate-matching setting).
type BoxMatchMode = subscription.BoxMatchMode

// Box-publication matching modes.
const (
	MatchCertain  = subscription.MatchCertain
	MatchPossible = subscription.MatchPossible
)

// MatchesBox reports whether subscription s matches an imprecise
// publication represented as a box, under the given mode.
func MatchesBox(s Subscription, box Subscription, mode BoxMatchMode) bool {
	return s.MatchesBox(box, mode)
}

// Exact answers the subsumption question exactly, over domains of any
// size, by subtracting the set from s box by box (the checker's
// residual stage run without a work bound). Its cost depends on how
// the boxes overlap, not on how many points s has; the problem is
// co-NP complete, so adversarial inputs (fine tilings in many
// attributes) can take exponential time. Intended for auditing
// decisions and for tests.
func Exact(s Subscription, set []Subscription) (bool, error) {
	covered, _, err := core.ExactCover(s, set)
	return covered, err
}
