package workload

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"probsum/internal/dist"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// ComparisonConfig parameterizes the paper's Section 6.4 comparison
// workload: subscription attributes are chosen by popularity
// (Zipf, skew 2.0), range centers cluster around popular values
// (Pareto, skew 1.0 — "similar interests"), and range sizes are
// normally distributed.
type ComparisonConfig struct {
	// M is the number of attributes in the schema.
	M int
	// Domain is the per-attribute value range (default [0, 9999]).
	Domain interval.Interval
	// AttrSkew is the Zipf skew for attribute popularity (paper: 2.0).
	AttrSkew float64
	// CenterSkew is the Pareto shape for range centers (paper: 1.0).
	CenterSkew float64
	// WidthMeanFrac and WidthStdFrac set the normal distribution of
	// range widths as fractions of the domain extent.
	WidthMeanFrac, WidthStdFrac float64
	// MinAttrs/MaxAttrs bound how many attributes a subscription
	// constrains (unconstrained attributes take the full domain).
	MinAttrs, MaxAttrs int
}

// DefaultComparisonConfig returns the parameters used for the Figure
// 13/14 reproduction. Width fractions are calibrated so that the
// popular corner of the attribute space is densely covered, matching
// the paper's "moderately populated, overlapping interests" setting.
func DefaultComparisonConfig(m int) ComparisonConfig {
	return ComparisonConfig{
		M:             m,
		Domain:        interval.New(0, 9999),
		AttrSkew:      2.0,
		CenterSkew:    1.0,
		WidthMeanFrac: 0.15,
		WidthStdFrac:  0.10,
		MinAttrs:      1,
		MaxAttrs:      5,
	}
}

// NarrowComparisonConfig is the comparison mix narrowed to what a
// broker under churn sees and the system benchmark admits: three to
// five constrained attributes per subscription, ranges of 4% ± 2% of
// the domain. The candidate index cannot shed rows here (every
// arrival meets hundreds of actives) and ρw comes out near 1e-15, so
// it is the dense regime where RSPC alone runs into its trial cap.
func NarrowComparisonConfig(m int) ComparisonConfig {
	cfg := DefaultComparisonConfig(m)
	cfg.WidthMeanFrac, cfg.WidthStdFrac = 0.04, 0.02
	cfg.MinAttrs, cfg.MaxAttrs = 3, 5
	return cfg
}

// ComparisonStream generates the subscription arrival sequence.
type ComparisonStream struct {
	cfg    ComparisonConfig
	rng    *rand.Rand
	zipf   *dist.Zipf
	pareto *dist.Pareto
	normal *dist.Normal
}

// NewComparisonStream validates the config and builds the stream.
func NewComparisonStream(rng *rand.Rand, cfg ComparisonConfig) (*ComparisonStream, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("workload: comparison needs at least one attribute")
	}
	if cfg.Domain.IsEmpty() || (cfg.Domain == interval.Interval{}) {
		cfg.Domain = interval.New(0, 9999)
	}
	if cfg.MinAttrs < 1 {
		cfg.MinAttrs = 1
	}
	if cfg.MaxAttrs < cfg.MinAttrs {
		cfg.MaxAttrs = cfg.MinAttrs
	}
	if cfg.MaxAttrs > cfg.M {
		cfg.MaxAttrs = cfg.M
	}
	z, err := dist.NewZipf(rng, cfg.AttrSkew, uint64(cfg.M))
	if err != nil {
		return nil, err
	}
	p, err := dist.NewPareto(rng, cfg.CenterSkew)
	if err != nil {
		return nil, err
	}
	span := float64(cfg.Domain.Count())
	n, err := dist.NewNormal(rng, cfg.WidthMeanFrac*span, cfg.WidthStdFrac*span)
	if err != nil {
		return nil, err
	}
	return &ComparisonStream{cfg: cfg, rng: rng, zipf: z, pareto: p, normal: n}, nil
}

// Schema returns the uniform schema the stream's subscriptions live in.
func (cs *ComparisonStream) Schema() *subscription.Schema {
	return subscription.UniformSchema(cs.cfg.M, cs.cfg.Domain.Lo, cs.cfg.Domain.Hi)
}

// Next generates the next subscription.
func (cs *ComparisonStream) Next() subscription.Subscription {
	cfg := cs.cfg
	bounds := make([]interval.Interval, cfg.M)
	for a := range bounds {
		bounds[a] = cfg.Domain
	}
	nAttrs := cfg.MinAttrs
	if cfg.MaxAttrs > cfg.MinAttrs {
		nAttrs += cs.rng.IntN(cfg.MaxAttrs - cfg.MinAttrs + 1)
	}
	chosen := make(map[int]bool, nAttrs)
	for len(chosen) < nAttrs {
		a := int(cs.zipf.Draw())
		if chosen[a] {
			// Collision on a popular attribute: fall back to a uniform
			// draw so the loop terminates quickly even for small m.
			a = cs.rng.IntN(cfg.M)
		}
		chosen[a] = true
	}
	// Draw bounds in ascending attribute order: iterating the map
	// directly would consume the rng in map order, making the stream
	// nondeterministic across runs despite a fixed seed.
	attrs := make([]int, 0, len(chosen))
	for a := range chosen {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	for _, a := range attrs {
		center := cs.pareto.DrawInDomain(cfg.Domain.Lo, cfg.Domain.Hi)
		width := cs.normal.DrawWidth(cfg.Domain.Count())
		lo := center - width/2
		hi := lo + width - 1
		if lo < cfg.Domain.Lo {
			lo = cfg.Domain.Lo
		}
		if hi > cfg.Domain.Hi {
			hi = cfg.Domain.Hi
		}
		if hi < lo {
			hi = lo
		}
		bounds[a] = interval.New(lo, hi)
	}
	return subscription.Subscription{Bounds: bounds}
}
