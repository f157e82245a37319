package experiments

import (
	"fmt"
	"math/rand/v2"

	"probsum/internal/core"
	"probsum/internal/stats"
	"probsum/internal/store"
	"probsum/internal/workload"
)

// ComparisonConfig parameterizes the Figure 13/14 comparison of
// pairwise versus group coverage on a popularity-skewed stream.
type ComparisonConfig struct {
	// Total is the number of incoming subscriptions (paper: 5000).
	Total int
	// Checkpoint is the sampling interval for the growth curves.
	Checkpoint int
	// MValues are the attribute counts (paper: 10, 15, 20).
	MValues []int
	// Delta is the checker error probability (paper: 1e-6).
	Delta float64
	// MaxTrials caps RSPC guesses per arrival; covered arrivals always
	// execute their full budget, so this bounds the experiment's cost.
	MaxTrials int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultComparisonConfig returns the paper's parameters.
func DefaultComparisonConfig() ComparisonConfig {
	return ComparisonConfig{
		Total:      5000,
		Checkpoint: 250,
		MValues:    []int{10, 15, 20},
		Delta:      1e-6,
		MaxTrials:  5000,
		Seed:       1,
	}
}

// comparisonSeries holds the growth curves for one m.
type comparisonSeries struct {
	checkpoints []int
	pairSize    []int
	groupSize   []int
}

var comparisonCache = map[string]map[int]comparisonSeries{}

// runComparison feeds the same subscription stream to a pairwise
// store and to a probabilistic group store — the tables a broker keeps
// per neighbor — recording active-set sizes at checkpoints.
func runComparison(cfg ComparisonConfig) (map[int]comparisonSeries, error) {
	key := fmt.Sprintf("%+v", cfg)
	if got, ok := comparisonCache[key]; ok {
		return got, nil
	}
	out := make(map[int]comparisonSeries, len(cfg.MValues))
	for _, m := range cfg.MValues {
		seed := cfg.Seed ^ uint64(m)<<32
		rng := rand.New(rand.NewPCG(seed, seed^0xc0ffee))
		stream, err := workload.NewComparisonStream(rng, workload.DefaultComparisonConfig(m))
		if err != nil {
			return nil, err
		}
		checker, err := core.NewChecker(
			core.WithErrorProbability(cfg.Delta),
			core.WithSeed(seed|1, seed^0xbeef),
			core.WithMaxTrials(cfg.MaxTrials),
			core.WithResidual(false),
		)
		if err != nil {
			return nil, err
		}

		pair, err := store.New(store.PolicyPairwise)
		if err != nil {
			return nil, err
		}
		group, err := store.New(store.PolicyGroup, store.WithChecker(checker))
		if err != nil {
			return nil, err
		}
		series := comparisonSeries{}
		for i := 1; i <= cfg.Total; i++ {
			s := stream.Next()
			if _, err := pair.Subscribe(store.ID(i), s); err != nil {
				return nil, err
			}
			if _, err := group.Subscribe(store.ID(i), s); err != nil {
				return nil, err
			}
			if i%cfg.Checkpoint == 0 || i == cfg.Total {
				series.checkpoints = append(series.checkpoints, i)
				series.pairSize = append(series.pairSize, pair.ActiveLen())
				series.groupSize = append(series.groupSize, group.ActiveLen())
			}
		}
		out[m] = series
	}
	comparisonCache[key] = out
	return out, nil
}

// Fig13 reproduces Figure 13: active subscription set growth under
// pairwise versus group coverage.
func Fig13(cfg ComparisonConfig) (*Table, error) {
	series, err := runComparison(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig13",
		Title: fmt.Sprintf("active set size growth over %d incoming subscriptions", cfg.Total),
	}
	t.Columns = []string{"subs"}
	for _, m := range cfg.MValues {
		t.Columns = append(t.Columns,
			fmt.Sprintf("pairwise(m=%d)", m), fmt.Sprintf("group(m=%d)", m))
	}
	first := series[cfg.MValues[0]]
	for ci, n := range first.checkpoints {
		row := []string{fi(n)}
		for _, m := range cfg.MValues {
			sr := series[m]
			row = append(row, fi(sr.pairSize[ci]), fi(sr.groupSize[ci]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig14 reproduces Figure 14: the ratio of group to pairwise set sizes.
func Fig14(cfg ComparisonConfig) (*Table, error) {
	series, err := runComparison(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig14",
		Title: "group/pairwise active-set size ratio",
	}
	t.Columns = []string{"subs"}
	for _, m := range cfg.MValues {
		t.Columns = append(t.Columns, fmt.Sprintf("ratio(m=%d)", m))
	}
	first := series[cfg.MValues[0]]
	for ci, n := range first.checkpoints {
		row := []string{fi(n)}
		for _, m := range cfg.MValues {
			sr := series[m]
			row = append(row, f(stats.Ratio(float64(sr.groupSize[ci]), float64(sr.pairSize[ci]))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
