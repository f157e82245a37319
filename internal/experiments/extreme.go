package experiments

import (
	"fmt"
	"math/rand/v2"

	"probsum/internal/core"
	"probsum/internal/stats"
	"probsum/internal/workload"
)

// ExtremeConfig parameterizes the extreme non-cover experiment
// (Figures 11 and 12).
type ExtremeConfig struct {
	// K and M are fixed by the paper at 50 subscriptions and 5
	// attributes.
	K, M int
	// GapFracs sweeps the uncovered range size (paper: 0.5%..4.5% in
	// 0.5% steps).
	GapFracs []float64
	// Deltas are the error probabilities (paper: 1e-3, 1e-6, 1e-10).
	Deltas []float64
	// Runs per point (paper: 3000).
	Runs int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultExtremeConfig returns the paper's parameters.
func DefaultExtremeConfig() ExtremeConfig {
	gaps := make([]float64, 0, 9)
	for g := 0.005; g < 0.0475; g += 0.005 {
		gaps = append(gaps, g)
	}
	return ExtremeConfig{
		K:        50,
		M:        5,
		GapFracs: gaps,
		Deltas:   []float64{1e-3, 1e-6, 1e-10},
		Runs:     3000,
		Seed:     1,
	}
}

// extremePoint aggregates one (gap, delta) cell.
type extremePoint struct {
	meanTrials float64
	falseYes   int
}

var extremeCache = map[string]map[[2]int]extremePoint{}

// runExtreme evaluates the RSPC-only pipeline (MCS and fast paths
// disabled — with them enabled the tiled construction is solved
// deterministically in zero trials; Figures 11/12 characterize the
// probabilistic part in isolation, see DESIGN.md).
func runExtreme(cfg ExtremeConfig) (map[[2]int]extremePoint, error) {
	key := fmt.Sprintf("%+v", cfg)
	if got, ok := extremeCache[key]; ok {
		return got, nil
	}
	out := make(map[[2]int]extremePoint)
	for gi, gap := range cfg.GapFracs {
		for di, delta := range cfg.Deltas {
			trials := make([]float64, 0, cfg.Runs)
			falseYes := 0
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed ^ uint64(gi)<<40 ^ uint64(di)<<20 ^ uint64(run)
				rng := rand.New(rand.NewPCG(seed, seed^0x51f15e))
				in := workload.ExtremeNonCover(rng, workload.Config{K: cfg.K, M: cfg.M}, gap)

				checker, err := core.NewChecker(
					core.WithErrorProbability(delta),
					core.WithSeed(seed|1, seed^0xfeed),
					core.WithMCS(false),
					core.WithFastPaths(false),
					core.WithResidual(false),
					core.WithMaxTrials(core.DefaultMaxTrials),
				)
				if err != nil {
					return nil, err
				}
				res, err := checker.Covered(in.S, in.Set)
				if err != nil {
					return nil, err
				}
				trials = append(trials, float64(res.ExecutedTrials))
				if res.Decision.IsCovered() {
					falseYes++ // ground truth is non-cover by construction
				}
			}
			out[[2]int{gi, di}] = extremePoint{meanTrials: stats.Mean(trials), falseYes: falseYes}
		}
	}
	extremeCache[key] = out
	return out, nil
}

// Fig11 reproduces Figure 11: average RSPC guesses versus gap size for
// each error probability.
func Fig11(cfg ExtremeConfig) (*Table, error) {
	points, err := runExtreme(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig11",
		Title: fmt.Sprintf("average actual iterations, extreme non-cover (k=%d, m=%d, %d runs)", cfg.K, cfg.M, cfg.Runs),
		Notes: []string{"RSPC-only pipeline: MCS/fast paths disabled (they solve this scenario deterministically; see fig11x ablation)"},
	}
	t.Columns = []string{"gap%"}
	for _, d := range cfg.Deltas {
		t.Columns = append(t.Columns, fmt.Sprintf("iters(err=%.0e)", d))
	}
	for gi, gap := range cfg.GapFracs {
		row := []string{fmt.Sprintf("%.1f", gap*100)}
		for di := range cfg.Deltas {
			row = append(row, f(points[[2]int{gi, di}].meanTrials))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 reproduces Figure 12: the number of false YES decisions (a
// non-covered subscription declared covered) per Runs runs.
func Fig12(cfg ExtremeConfig) (*Table, error) {
	points, err := runExtreme(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig12",
		Title: fmt.Sprintf("false decisions in %d runs, extreme non-cover (k=%d, m=%d)", cfg.Runs, cfg.K, cfg.M),
		Notes: []string{"Algorithm 2 overestimates rho by a fixed 0.5% edge offset, so the false rate is delta^(rho/(rho+0.005)) — sqrt(delta) at the smallest gap, decaying toward delta (see DESIGN.md)"},
	}
	t.Columns = []string{"gap%"}
	for _, d := range cfg.Deltas {
		t.Columns = append(t.Columns, fmt.Sprintf("false(err=%.0e)", d))
	}
	for gi, gap := range cfg.GapFracs {
		row := []string{fmt.Sprintf("%.1f", gap*100)}
		for di := range cfg.Deltas {
			row = append(row, fi(points[[2]int{gi, di}].falseYes))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig11x is an ablation beyond the paper: the same extreme scenario
// with the full pipeline enabled. MCS empties the set (every entry is
// conflict-free across the gap), so the answer is deterministic with
// zero RSPC trials — evidence for the paper's Section 6.5 conclusion
// that the combination of MCS and RSPC beats either alone.
func Fig11x(cfg ExtremeConfig) (*Table, error) {
	t := &Table{
		ID:    "fig11x",
		Title: "ablation: extreme non-cover with the full pipeline (MCS + fast paths)",
	}
	t.Columns = []string{"gap%", "meanIters", "falseYes", "emptyMCSRate"}
	for gi, gap := range cfg.GapFracs {
		trials := make([]float64, 0, cfg.Runs)
		falseYes, emptyMCS := 0, 0
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed ^ uint64(gi)<<40 ^ 0xa ^ uint64(run)
			rng := rand.New(rand.NewPCG(seed, seed^0x51f15e))
			in := workload.ExtremeNonCover(rng, workload.Config{K: cfg.K, M: cfg.M}, gap)
			checker, err := core.NewChecker(
				core.WithErrorProbability(cfg.Deltas[0]),
				core.WithSeed(seed|1, seed^0xfeed),
				core.WithResidual(false),
			)
			if err != nil {
				return nil, err
			}
			res, err := checker.Covered(in.S, in.Set)
			if err != nil {
				return nil, err
			}
			trials = append(trials, float64(res.ExecutedTrials))
			if res.Decision.IsCovered() {
				falseYes++
			}
			if res.Reason == core.ReasonEmptyMCS {
				emptyMCS++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", gap*100),
			f(stats.Mean(trials)),
			fi(falseYes),
			f(float64(emptyMCS) / float64(cfg.Runs)),
		})
	}
	return t, nil
}
