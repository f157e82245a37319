package experiments

import (
	"fmt"
	"math/rand/v2"

	"probsum/internal/conflict"
	"probsum/internal/core"
	"probsum/internal/stats"
	"probsum/internal/workload"
)

// SweepConfig parameterizes the redundant-covering and non-cover
// sweeps (Figures 6–10).
type SweepConfig struct {
	// KValues and MValues are the subscription-set sizes and attribute
	// counts to sweep; the paper uses k = 10..310 step 30 and
	// m ∈ {10, 15, 20}.
	KValues []int
	MValues []int
	// Runs is the number of instances averaged per (k, m) point
	// (paper: 1000).
	Runs int
	// Delta is the error probability (paper: 1e-10 for these sweeps).
	Delta float64
	// Seed drives all randomness.
	Seed uint64
	// GapFrac is the uncovered fraction for the non-cover scenario.
	GapFrac float64
}

// DefaultSweepConfig returns the paper's parameters for Figures 6–10.
func DefaultSweepConfig() SweepConfig {
	ks := make([]int, 0, 11)
	for k := 10; k <= 310; k += 30 {
		ks = append(ks, k)
	}
	return SweepConfig{
		KValues: ks,
		MValues: []int{10, 15, 20},
		Runs:    1000,
		Delta:   1e-10,
		Seed:    1,
		GapFrac: 0.05,
	}
}

// sweepPoint aggregates one (k, m) cell of a sweep.
type sweepPoint struct {
	reduction    float64 // recognized redundant / total redundant
	log10DBefore float64 // Equation 1 bound on the full set
	log10DAfter  float64 // Equation 1 bound on the MCS survivors
	actualTrials float64 // RSPC guesses executed by the full pipeline
}

// runSweep evaluates one scenario family over the (k, m) grid.
// gen builds an instance for a given k, m and per-run RNG.
// measureTrials additionally runs the full checker pipeline to record
// executed RSPC guesses; it is enabled only for the non-cover sweep
// (Figure 10) — on covered instances the pipeline would execute the
// full trial budget by design, which is the paper's point about d
// feasibility, not something to average over thousands of runs.
func runSweep(cfg SweepConfig, measureTrials bool, gen func(rng *rand.Rand, k, m int) workload.Instance) (map[[2]int]sweepPoint, error) {
	out := make(map[[2]int]sweepPoint, len(cfg.KValues)*len(cfg.MValues))
	for _, m := range cfg.MValues {
		for _, k := range cfg.KValues {
			reds := make([]float64, 0, cfg.Runs)
			dBefore := make([]float64, 0, cfg.Runs)
			dAfter := make([]float64, 0, cfg.Runs)
			trials := make([]float64, 0, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed ^ uint64(k)<<40 ^ uint64(m)<<20 ^ uint64(run)
				rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
				in := gen(rng, k, m)

				tbl, err := conflict.Build(in.S, in.Set)
				if err != nil {
					return nil, err
				}
				dBefore = append(dBefore, core.Log10TrialBound(cfg.Delta, core.EstimateLogRho(tbl, nil)))

				mcs := core.MCS(tbl)
				dAfter = append(dAfter, core.Log10TrialBound(cfg.Delta, core.EstimateLogRho(tbl, mcs.Alive)))

				// Reduction metric: removed ground-truth-redundant
				// members over total redundant members.
				removedRedundant := 0
				for _, idx := range in.RedundantIdx {
					if !mcs.Alive[idx] {
						removedRedundant++
					}
				}
				reds = append(reds, stats.Ratio(float64(removedRedundant), float64(len(in.RedundantIdx))))

				if measureTrials {
					// Full pipeline for the actual-iterations metric.
					checker, err := core.NewChecker(
						core.WithErrorProbability(cfg.Delta),
						core.WithSeed(seed|1, seed^0xabcdef),
						core.WithMaxTrials(core.DefaultMaxTrials),
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
				}
			}
			out[[2]int{k, m}] = sweepPoint{
				reduction:    stats.Mean(reds),
				log10DBefore: stats.Mean(dBefore),
				log10DAfter:  stats.Mean(dAfter),
				actualTrials: stats.Mean(trials),
			}
		}
	}
	return out, nil
}

// sweepCache memoizes sweep results so the figure pairs sharing a
// scenario (6/7 and 8/9/10) run it once per configuration.
var sweepCache = map[string]map[[2]int]sweepPoint{}

func cacheKey(name string, cfg SweepConfig) string {
	return fmt.Sprintf("%s|%v|%v|%d|%g|%d|%g", name, cfg.KValues, cfg.MValues, cfg.Runs, cfg.Delta, cfg.Seed, cfg.GapFrac)
}

func redundantSweep(cfg SweepConfig) (map[[2]int]sweepPoint, error) {
	key := cacheKey("redundant", cfg)
	if got, ok := sweepCache[key]; ok {
		return got, nil
	}
	res, err := runSweep(cfg, false, func(rng *rand.Rand, k, m int) workload.Instance {
		return workload.RedundantCovering(rng, workload.Config{K: k, M: m})
	})
	if err == nil {
		sweepCache[key] = res
	}
	return res, err
}

func nonCoverSweep(cfg SweepConfig) (map[[2]int]sweepPoint, error) {
	key := cacheKey("noncover", cfg)
	if got, ok := sweepCache[key]; ok {
		return got, nil
	}
	res, err := runSweep(cfg, true, func(rng *rand.Rand, k, m int) workload.Instance {
		return workload.NonCover(rng, workload.Config{K: k, M: m}, cfg.GapFrac)
	})
	if err == nil {
		sweepCache[key] = res
	}
	return res, err
}

// sweepTable renders one metric of a sweep into a figure table.
func sweepTable(id, title string, cfg SweepConfig, points map[[2]int]sweepPoint,
	cols func(m int) []string, cells func(p sweepPoint) []string) *Table {
	t := &Table{ID: id, Title: title, Columns: []string{"k"}}
	for _, m := range cfg.MValues {
		t.Columns = append(t.Columns, cols(m)...)
	}
	for _, k := range cfg.KValues {
		row := []string{fi(k)}
		for _, m := range cfg.MValues {
			row = append(row, cells(points[[2]int{k, m}])...)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6 reproduces Figure 6: the fraction of redundant subscriptions
// MCS removes in the redundant covering scenario.
func Fig6(cfg SweepConfig) (*Table, error) {
	points, err := redundantSweep(cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("fig6", "MCS redundant-subscription reduction, redundant covering scenario",
		cfg, points,
		func(m int) []string { return []string{fmt.Sprintf("reduction(m=%d)", m)} },
		func(p sweepPoint) []string { return []string{f(p.reduction)} },
	), nil
}

// Fig7 reproduces Figure 7: the theoretical log10 d (Equation 1)
// before and after MCS for the redundant covering scenario.
func Fig7(cfg SweepConfig) (*Table, error) {
	points, err := redundantSweep(cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("fig7", "theoretical log10(d), redundant covering scenario",
		cfg, points,
		func(m int) []string {
			return []string{fmt.Sprintf("log10d(m=%d)", m), fmt.Sprintf("log10d(m=%d,MCS)", m)}
		},
		func(p sweepPoint) []string { return []string{f(p.log10DBefore), f(p.log10DAfter)} },
	), nil
}

// Fig8 reproduces Figure 8: MCS reduction for the non-cover scenario
// (the entire set is redundant).
func Fig8(cfg SweepConfig) (*Table, error) {
	points, err := nonCoverSweep(cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("fig8", "MCS redundant-subscription reduction, non-cover scenario",
		cfg, points,
		func(m int) []string { return []string{fmt.Sprintf("reduction(m=%d)", m)} },
		func(p sweepPoint) []string { return []string{f(p.reduction)} },
	), nil
}

// Fig9 reproduces Figure 9: theoretical log10 d before/after MCS for
// the non-cover scenario.
func Fig9(cfg SweepConfig) (*Table, error) {
	points, err := nonCoverSweep(cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("fig9", "theoretical log10(d), non-cover scenario",
		cfg, points,
		func(m int) []string {
			return []string{fmt.Sprintf("log10d(m=%d)", m), fmt.Sprintf("log10d(m=%d,MCS)", m)}
		},
		func(p sweepPoint) []string { return []string{f(p.log10DBefore), f(p.log10DAfter)} },
	), nil
}

// Fig10 reproduces Figure 10: the RSPC guesses the full pipeline
// actually executes in the non-cover scenario (near zero: MCS usually
// empties the set first).
func Fig10(cfg SweepConfig) (*Table, error) {
	points, err := nonCoverSweep(cfg)
	if err != nil {
		return nil, err
	}
	return sweepTable("fig10", "actual RSPC iterations, non-cover scenario",
		cfg, points,
		func(m int) []string { return []string{fmt.Sprintf("iters(m=%d)", m)} },
		func(p sweepPoint) []string { return []string{f(p.actualTrials)} },
	), nil
}
