package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// pick returns the members of set at the given indices.
func pick(set []subscription.Subscription, idx []int) []subscription.Subscription {
	out := make([]subscription.Subscription, len(idx))
	for i, j := range idx {
		out[i] = set[j]
	}
	return out
}

// TestResidualMatchesExhaustive is the stage's contract on instances
// small enough to enumerate: the default pipeline and ExactCover give
// the oracle's answer, every NO carries a point inside s and outside
// every row, and the rows a residual YES names cover s on their own.
func TestResidualMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewPCG(201, 202))
	c := mustChecker(t, WithSeed(1, 2))
	var res Result
	yes, no, byResidual := 0, 0, 0
	for i := 0; i < 5000; i++ {
		s, set := genInstance(r, 1+r.IntN(4), 1+r.IntN(8), 2+r.Int64N(11))
		truth, err := ExhaustiveCover(s, set)
		if err != nil {
			t.Fatal(err)
		}

		covered, witness, err := ExactCover(s, set)
		if err != nil {
			t.Fatal(err)
		}
		if covered != truth {
			t.Fatalf("instance %d: ExactCover = %v, oracle = %v (s=%v set=%v)", i, covered, truth, s, set)
		}
		if !covered && (!s.ContainsPoint(witness) || pointInAnyAlive(witness, set, nil)) {
			t.Fatalf("instance %d: ExactCover witness %v is not in s minus the set (s=%v set=%v)", i, witness, s, set)
		}

		if err := c.CoveredInto(&res, s, set); err != nil {
			t.Fatal(err)
		}
		if res.Decision == CoveredProbably || res.Decision.IsCovered() != truth {
			t.Fatalf("instance %d: %v/%v, oracle = %v (s=%v set=%v)", i, res.Decision, res.Reason, truth, s, set)
		}
		switch res.Reason {
		case ReasonPointWitness:
			if !s.ContainsPoint(res.PointWitness) || pointInAnyAlive(res.PointWitness, set, nil) {
				t.Fatalf("instance %d: witness %v is not in s minus the set (s=%v set=%v)", i, res.PointWitness, s, set)
			}
		case ReasonResidualCover:
			byResidual++
			if ok, _ := ExhaustiveCover(s, pick(set, res.ReducedSet)); !ok || len(res.ReducedSet) == 0 {
				t.Fatalf("instance %d: cover witness %v does not cover s (s=%v set=%v)", i, res.ReducedSet, s, set)
			}
		}
		if truth {
			yes++
		} else {
			no++
		}
	}
	if yes < 500 || no < 500 || byResidual < 100 {
		t.Fatalf("lost its teeth: %d covered, %d not, %d residual covers", yes, no, byResidual)
	}
}

// TestResidualWideAndDeep runs the stage at m = 20 over attributes
// spanning all of int64: no fixed-size arrays, and the off-cuts at
// Lo-1 and Hi+1 sit exactly on the representable extremes.
func TestResidualWideAndDeep(t *testing.T) {
	const m = 20
	box := func(lo, hi int64) subscription.Subscription {
		b := make([]interval.Interval, m)
		for a := range b {
			b[a] = interval.New(lo, hi)
		}
		return subscription.Subscription{Bounds: b}
	}
	halves := func(a int, hiOfLow, loOfHigh int64) []subscription.Subscription {
		low, high := box(math.MinInt64, math.MaxInt64), box(math.MinInt64, math.MaxInt64)
		low.Bounds[a].Hi = hiOfLow
		high.Bounds[a].Lo = loOfHigh
		return []subscription.Subscription{low, high}
	}
	full := box(math.MinInt64, math.MaxInt64)
	c := mustChecker(t, WithSeed(1, 2))

	// Two half-spaces meeting at 0 on the last attribute: exact YES.
	res, err := c.Covered(full, halves(m-1, -1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Covered || res.Reason != ReasonResidualCover || len(res.ReducedSet) != 2 {
		t.Fatalf("half-spaces: %v/%v cover %v, want covered/residual-cover by both", res.Decision, res.Reason, res.ReducedSet)
	}

	// Leave the hyperplane x = 0 out: exact NO, witness on it.
	res, err = c.Covered(full, halves(m-1, -1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonPointWitness || res.ExecutedTrials != 0 || res.PointWitness[m-1] != 0 {
		t.Fatalf("missing hyperplane: %v/%v witness %v after %d trials", res.Decision, res.Reason, res.PointWitness, res.ExecutedTrials)
	}

	// A box one short of full on every side leaves a one-point-thick
	// shell; the slabs peeled off it are [Min, Min] and [Max, Max].
	inner := box(math.MinInt64+1, math.MaxInt64-1)
	covered, witness, err := ExactCover(full, []subscription.Subscription{inner})
	if err != nil {
		t.Fatal(err)
	}
	if covered || !full.ContainsPoint(witness) || inner.ContainsPoint(witness) {
		t.Fatalf("shell: covered = %v, witness %v", covered, witness)
	}
	// Closing the shell takes the two extreme slabs of every attribute.
	set := []subscription.Subscription{inner}
	for a := 0; a < m; a++ {
		set = append(set, halves(a, math.MinInt64, math.MaxInt64)...)
	}
	res, err = c.Covered(full, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Covered || res.Reason != ReasonResidualCover || len(res.ReducedSet) != 2*m+1 {
		t.Fatalf("closed shell: %v/%v cover of %d rows, want covered/residual-cover by all %d",
			res.Decision, res.Reason, len(res.ReducedSet), 2*m+1)
	}
}

// TestResidualBoundFallsThrough: when the work bound runs out the
// stage decides nothing and the paper's pipeline answers, with every
// field it always filled.
func TestResidualBoundFallsThrough(t *testing.T) {
	// A 40x40 grid of cells tiles s: subtracting cell after cell takes
	// far more than 2000 tests.
	const n, cell = 40, 10
	s := subscription.New(interval.New(0, n*cell-1), interval.New(0, n*cell-1))
	var tiling []subscription.Subscription
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			tiling = append(tiling, subscription.New(
				interval.New(i*cell, i*cell+cell-1), interval.New(j*cell, j*cell+cell-1)))
		}
	}
	paperS, paperSet := paperCoverExample()
	for _, tc := range []struct {
		name   string
		budget int
		s      subscription.Subscription
		set    []subscription.Subscription
	}{
		{"tiling", 2000, s, tiling},
		{"tiny-budget", 1, paperS, paperSet},
	} {
		on := mustChecker(t, WithSeed(5, 6), WithMaxTrials(tc.budget))
		off := mustChecker(t, WithSeed(5, 6), WithMaxTrials(tc.budget), WithResidual(false))
		got, err := on.Covered(tc.s, tc.set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.Covered(tc.s, tc.set)
		if err != nil {
			t.Fatal(err)
		}
		if got.ResidualTests != tc.budget {
			t.Errorf("%s: stage ran %d tests, want the whole budget %d", tc.name, got.ResidualTests, tc.budget)
		}
		if got.Decision != CoveredProbably || got.Reason != ReasonTrialsExhausted || got.ExecutedTrials == 0 {
			t.Errorf("%s: %v/%v after %d trials, want RSPC's probabilistic YES", tc.name, got.Decision, got.Reason, got.ExecutedTrials)
		}
		got.ResidualTests = 0
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("%s: fall-through result differs from the paper pipeline's:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// interiorSliver builds DESIGN.md §2 scenario 2.c at full strength:
// over every attribute pair a pinwheel of four boxes covers all of the
// pair's plane but the single point (c, c), so the union over the
// pairs covers all of s but the one point (c, …, c) out of span^m.
// Every row keeps two defined entries that conflict within its
// pinwheel, so neither the polyhedron witness nor MCS sees the hole,
// and the one-sided gaps Algorithm 2 multiplies are each about half
// of s.
func interiorSliver(pairs int, span, c int64) (subscription.Subscription, []subscription.Subscription) {
	m := 2 * pairs
	full := func() subscription.Subscription {
		b := make([]interval.Interval, m)
		for a := range b {
			b[a] = interval.New(0, span-1)
		}
		return subscription.Subscription{Bounds: b}
	}
	var set []subscription.Subscription
	for p := 0; p < pairs; p++ {
		x, y := 2*p, 2*p+1
		for _, w := range [4][2]interval.Interval{
			{interval.New(0, c), interval.New(0, c-1)},
			{interval.New(c+1, span-1), interval.New(0, c)},
			{interval.New(c, span-1), interval.New(c+1, span-1)},
			{interval.New(0, c-1), interval.New(c, span-1)},
		} {
			row := full()
			row.Bounds[x], row.Bounds[y] = w[0], w[1]
			set = append(set, row)
		}
	}
	return full(), set
}

// TestResidualFindsInteriorSliver: scenario 2.c was the pipeline's
// blind spot — one uncovered point in 10^50, a ρw estimate near 1e-3,
// and so a "δ = 1e-6" YES after a few thousand trials that is simply
// wrong. The residual stage answers it exactly.
func TestResidualFindsInteriorSliver(t *testing.T) {
	const c = 41_234
	s, set := interiorSliver(5, 100_000, c)

	paper := mustChecker(t, WithSeed(1, 2), WithResidual(false))
	res, err := paper.Covered(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != CoveredProbably || res.DCapped {
		t.Fatalf("paper pipeline: %v/%v capped=%v; the scenario should draw an uncapped false YES", res.Decision, res.Reason, res.DCapped)
	}
	t.Logf("paper pipeline: false YES after %d trials (d = 10^%.1f, true witness density 10^-50)", res.ExecutedTrials, res.Log10D)

	res, err = mustChecker(t, WithSeed(1, 2)).Covered(s, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != NotCovered || res.Reason != ReasonPointWitness || res.ExecutedTrials != 0 {
		t.Fatalf("default pipeline: %v/%v after %d trials, want an exact NO from the residual stage", res.Decision, res.Reason, res.ExecutedTrials)
	}
	for a, v := range res.PointWitness {
		if v != c {
			t.Fatalf("witness %v, want %d on every attribute (attribute %d)", res.PointWitness, c, a)
		}
	}
}

// fingerprint hashes every field of a Result.
func fingerprint(r Result) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	capped := int64(0)
	if r.DCapped {
		capped = 1
	}
	put(int64(r.Decision), int64(r.Reason), int64(r.CoveringRow), int64(r.ExecutedTrials), capped,
		int64(math.Float64bits(r.Rho)), int64(math.Float64bits(r.LogRho)), int64(math.Float64bits(r.Log10D)),
		int64(r.ResidualTests))
	put(int64(len(r.PointWitness)))
	put(r.PointWitness...)
	put(int64(len(r.ReducedSet)))
	for _, i := range r.ReducedSet {
		put(int64(i))
	}
	put(int64(r.PolyhedronWitness.Len()))
	for _, b := range r.PolyhedronWitness.Bounds {
		put(b.Lo, b.Hi)
	}
	return h.Sum64()
}

// TestResidualOffIsThePaperPipeline pins the ablation switch: with the
// stage off a seeded checker makes the decisions, fills the fields and
// consumes the random stream exactly as the build before the stage
// did. The constant was computed by this loop at that build (where
// WithResidual and Result.ResidualTests did not exist; the latter
// hashes as 0).
func TestResidualOffIsThePaperPipeline(t *testing.T) {
	const want uint64 = 0xfec3ba8997e6f49c
	rng := rand.New(rand.NewPCG(301, 302))
	c := mustChecker(t, WithSeed(7, 8), WithMaxTrials(500), WithResidual(false))
	var res Result
	sum := uint64(0)
	for i := 0; i < 400; i++ {
		var s subscription.Subscription
		var set []subscription.Subscription
		switch i % 4 {
		case 0:
			in := workload.RedundantCovering(rng, workload.Config{K: 40, M: 6})
			s, set = in.S, in.Set
		case 1:
			in := workload.NonCover(rng, workload.Config{K: 40, M: 6}, 0.05)
			s, set = in.S, in.Set
		case 2:
			in := workload.ExtremeNonCover(rng, workload.Config{K: 20, M: 4}, 0.01)
			s, set = in.S, in.Set
		default:
			s, set = genInstance(rng, 1+rng.IntN(4), 1+rng.IntN(12), 40)
		}
		if err := c.CoveredInto(&res, s, set); err != nil {
			t.Fatal(err)
		}
		sum = sum*0x100000001b3 ^ fingerprint(res)
	}
	sum = sum*0x100000001b3 ^ c.rng.Uint64()
	if sum != want {
		t.Fatalf("paper-pipeline fingerprint = %#x, want %#x", sum, want)
	}
}
