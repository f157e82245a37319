package experiments

import (
	"bytes"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// smallSweep returns a fast sweep configuration for tests.
func smallSweep() SweepConfig {
	return SweepConfig{
		KValues: []int{10, 70, 130},
		MValues: []int{5, 10},
		Runs:    30,
		Delta:   1e-10,
		Seed:    42,
		GapFrac: 0.05,
	}
}

// cell parses a table cell as a float.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestFig6ReductionIsHigh(t *testing.T) {
	tbl, err := Fig6(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || len(tbl.Columns) != 3 {
		t.Fatalf("table shape = %dx%d", len(tbl.Rows), len(tbl.Columns))
	}
	// The paper's headline: MCS removes 70-100% of redundant
	// subscriptions across the sweep.
	for r := range tbl.Rows {
		for c := 1; c < len(tbl.Columns); c++ {
			if v := cell(t, tbl, r, c); v < 0.6 || v > 1.0 {
				t.Errorf("reduction at row %d col %d = %g, want within [0.6, 1]", r, c, v)
			}
		}
	}
}

func TestFig7MCSReducesTrialBound(t *testing.T) {
	tbl, err := Fig7(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: k, before(m=5), after(m=5), before(m=10), after(m=10).
	for r := range tbl.Rows {
		for _, base := range []int{1, 3} {
			before, after := cell(t, tbl, r, base), cell(t, tbl, r, base+1)
			if after > before+1e-9 {
				t.Errorf("row %d: MCS increased log10(d): %g -> %g", r, before, after)
			}
		}
	}
}

func TestFig8NonCoverReductionNearTotal(t *testing.T) {
	tbl, err := Fig8(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		for c := 1; c < len(tbl.Columns); c++ {
			if v := cell(t, tbl, r, c); v < 0.85 {
				t.Errorf("non-cover reduction = %g, want >= 0.85 (paper: 0.88-1.0)", v)
			}
		}
	}
}

func TestFig10ActualIterationsTiny(t *testing.T) {
	tbl, err := Fig10(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		for c := 1; c < len(tbl.Columns); c++ {
			if v := cell(t, tbl, r, c); v > 2 {
				t.Errorf("actual iterations = %g, want < 2 (paper: < 0.5)", v)
			}
		}
	}
}

func smallExtreme() ExtremeConfig {
	return ExtremeConfig{
		K: 50, M: 5,
		GapFracs: []float64{0.005, 0.02, 0.045},
		Deltas:   []float64{1e-3, 1e-10},
		Runs:     200,
		Seed:     7,
	}
}

func TestFig11IterationsScaleInverselyWithGap(t *testing.T) {
	tbl, err := Fig11(smallExtreme())
	if err != nil {
		t.Fatal(err)
	}
	// Iterations at gap 0.5% must exceed those at 4.5% by roughly the
	// gap ratio (geometric hitting time ~ 1/gap).
	first, last := cell(t, tbl, 0, 1), cell(t, tbl, 2, 1)
	if first < 3*last {
		t.Errorf("iterations: gap 0.5%% = %g, gap 4.5%% = %g; want ~9x separation", first, last)
	}
	// Means are similar across error probabilities (paper's
	// observation): within a factor 2.
	for r := range tbl.Rows {
		a, b := cell(t, tbl, r, 1), cell(t, tbl, r, 2)
		if a > 2*b+10 || b > 2*a+10 {
			t.Errorf("row %d: iteration means diverge across deltas: %g vs %g", r, a, b)
		}
	}
}

func TestFig12FalseDecisionsOrderedByDelta(t *testing.T) {
	tbl, err := Fig12(smallExtreme())
	if err != nil {
		t.Fatal(err)
	}
	totalLoose, totalTight := 0.0, 0.0
	for r := range tbl.Rows {
		totalLoose += cell(t, tbl, r, 1) // delta = 1e-3
		totalTight += cell(t, tbl, r, 2) // delta = 1e-10
	}
	if totalTight > totalLoose {
		t.Errorf("false decisions: delta=1e-10 (%g) exceeded delta=1e-3 (%g)", totalTight, totalLoose)
	}
	if totalTight != 0 {
		t.Errorf("delta=1e-10 should produce no false decisions at this scale, got %g", totalTight)
	}
}

func TestFig11xFullPipelineSolvesExtreme(t *testing.T) {
	cfg := smallExtreme()
	cfg.Runs = 50
	tbl, err := Fig11x(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		if iters := cell(t, tbl, r, 1); iters != 0 {
			t.Errorf("row %d: full pipeline used %g trials, want 0 (MCS empties the set)", r, iters)
		}
		if falseYes := cell(t, tbl, r, 2); falseYes != 0 {
			t.Errorf("row %d: full pipeline made %g false decisions", r, falseYes)
		}
	}
}

func TestComparisonGroupBeatsPairwise(t *testing.T) {
	cfg := ComparisonConfig{
		Total: 600, Checkpoint: 200, MValues: []int{10},
		Delta: 1e-6, MaxTrials: 2000, Seed: 3,
	}
	tbl, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastRow := len(tbl.Rows) - 1
	pairSize, groupSize := cell(t, tbl, lastRow, 1), cell(t, tbl, lastRow, 2)
	if groupSize >= pairSize {
		t.Errorf("group set (%g) not smaller than pairwise (%g)", groupSize, pairSize)
	}
	ratioTbl, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The ratio column must match fig13's sizes and stay below 1.
	for r := range ratioTbl.Rows {
		ratio := cell(t, ratioTbl, r, 1)
		want := cell(t, tbl, r, 2) / cell(t, tbl, r, 1)
		if math.Abs(ratio-want) > 0.01 {
			t.Errorf("row %d: ratio %g, want %g", r, ratio, want)
		}
		if ratio >= 1 {
			t.Errorf("row %d: group/pairwise ratio %g >= 1", r, ratio)
		}
	}
}

func TestEq2ClosedFormMatchesSimulation(t *testing.T) {
	cfg := DefaultEq2Config()
	cfg.Runs = 60_000
	tbl, err := Eq2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tbl.Rows {
		closed, sim := cell(t, tbl, r, 1), cell(t, tbl, r, 2)
		if math.Abs(closed-sim) > 0.02 {
			t.Errorf("row %d: closed form %g vs simulation %g", r, closed, sim)
		}
		ceiling := cell(t, tbl, r, 3)
		if closed > ceiling+1e-9 {
			t.Errorf("row %d: Eq.2 %g exceeds the no-error ceiling %g", r, closed, ceiling)
		}
	}
	// Monotone non-decreasing in chain length.
	prev := 0.0
	for r := range tbl.Rows {
		v := cell(t, tbl, r, 1)
		if v < prev-1e-12 {
			t.Errorf("Eq.2 decreased at row %d: %g < %g", r, v, prev)
		}
		prev = v
	}
}

func TestEq2Validation(t *testing.T) {
	cfg := DefaultEq2Config()
	cfg.Rho = 0
	if _, err := Eq2(cfg); err == nil {
		t.Error("rho=0 accepted")
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	for _, id := range IDs() {
		tbl, err := Run(id, 0.003)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tbl.ID != id {
			t.Errorf("table id = %q, want %q", tbl.ID, id)
		}
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
	if _, err := Run("nope", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t: demo ==", "long-column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,long-column\n1,2\n333,4\n" {
		t.Errorf("CSV = %q", got)
	}
}

// TestFiguresRunThePaperPipeline pins the figure runs to the paper's
// Algorithm 4: they build their checkers with the residual stage off,
// so the RSPC curves keep their meaning. The hash is of every
// checker-driven table's CSV at a small scale, computed at the build
// before the stage existed.
func TestFiguresRunThePaperPipeline(t *testing.T) {
	const want = "23e38eb7e47d8425"
	h := fnv.New64a()
	for _, id := range []string{"fig10", "fig11", "fig11x", "fig12", "fig13", "fig14"} {
		tbl, err := Run(id, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := tbl.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := strconv.FormatUint(h.Sum64(), 16); got != want {
		t.Fatalf("figure output hash = %s, want %s: a figure run no longer follows the paper's pipeline", got, want)
	}
}
