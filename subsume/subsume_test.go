package subsume_test

import (
	"testing"

	"probsum/subsume"
)

func schema2D(t *testing.T) *subsume.Schema {
	t.Helper()
	return subsume.NewSchema(
		subsume.Attr("x1", 0, 10000),
		subsume.Attr("x2", 0, 10000),
	)
}

func TestBuilderAndChecker(t *testing.T) {
	schema := schema2D(t)
	// The paper's Table 3 example through the public API.
	s1 := subsume.NewSubscription(schema).Range("x1", 820, 850).Range("x2", 1001, 1007).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 840, 880).Range("x2", 1002, 1009).Build()
	s := subsume.NewSubscription(schema).Range("x1", 830, 870).Range("x2", 1003, 1006).Build()

	chk, err := subsume.NewChecker(subsume.WithSeed(1, 2), subsume.WithErrorProbability(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chk.Covered(s, []subsume.Subscription{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered() {
		t.Fatalf("Table 3 example must be covered, got %v", res.Decision())
	}
	exact, err := subsume.Exact(s, []subsume.Subscription{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("exact oracle disagrees")
	}
}

func TestCheckerNonCoverWitness(t *testing.T) {
	schema := schema2D(t)
	s1 := subsume.NewSubscription(schema).Range("x1", 820, 850).Range("x2", 1002, 1009).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 840, 870).Range("x2", 1001, 1007).Build()
	s := subsume.NewSubscription(schema).Range("x1", 830, 890).Range("x2", 1003, 1006).Build()

	chk, err := subsume.NewChecker(subsume.WithSeed(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chk.Covered(s, []subsume.Subscription{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered() {
		t.Fatal("Table 6 example must not be covered")
	}
	w := res.PolyhedronWitness()
	if !w.IsSatisfiable() {
		t.Fatal("expected a polyhedron witness")
	}
	if !s.Covers(w) || w.Intersects(s1) || w.Intersects(s2) {
		t.Errorf("witness %v is not genuine", w)
	}
}

func TestBuilderErrors(t *testing.T) {
	schema := schema2D(t)
	if _, err := subsume.NewSubscription(schema).Range("nope", 0, 1).Checked(); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := subsume.NewSubscription(schema).Range("x1", 0, 99999).Checked(); err == nil {
		t.Error("out-of-domain bound accepted")
	}
	if _, err := subsume.NewSubscription(schema).Range("x1", 9, 3).Checked(); err == nil {
		t.Error("empty range accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("Build did not panic on builder misuse")
		}
	}()
	subsume.NewSubscription(schema).Range("nope", 0, 1).Build()
}

func TestNewSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchema did not panic on duplicate names")
		}
	}()
	subsume.NewSchema(subsume.Attr("a", 0, 1), subsume.Attr("a", 0, 1))
}

func TestEqAndPublication(t *testing.T) {
	schema := schema2D(t)
	s := subsume.NewSubscription(schema).Eq("x1", 42).Build()
	if !s.Matches(subsume.NewPublication(42, 7)) {
		t.Error("Eq constraint should match")
	}
	if s.Matches(subsume.NewPublication(43, 7)) {
		t.Error("Eq constraint should reject other values")
	}
}

func TestFromIntervalsAndCoveredBySingle(t *testing.T) {
	a := subsume.FromIntervals([2]int64{0, 10}, [2]int64{0, 10})
	b := subsume.FromIntervals([2]int64{2, 8}, [2]int64{2, 8})
	if !subsume.CoveredBySingle(b, a) {
		t.Error("b should be covered by a")
	}
	if subsume.CoveredBySingle(a, b) {
		t.Error("a should not be covered by b")
	}
}

func TestUniformSchema(t *testing.T) {
	sc := subsume.UniformSchema(3, 0, 99)
	if sc.Len() != 3 {
		t.Fatalf("Len = %d", sc.Len())
	}
	s := subsume.NewSubscription(sc).Range("x2", 5, 10).Build()
	if s.Bounds[1].Lo != 5 || s.Bounds[1].Hi != 10 {
		t.Errorf("bounds = %v", s.Bounds)
	}
}

func TestResultAccessors(t *testing.T) {
	schema := schema2D(t)
	big := subsume.NewSubscription(schema).Build() // full space
	s := subsume.NewSubscription(schema).Range("x1", 10, 20).Build()
	chk, err := subsume.NewChecker(subsume.WithSeed(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chk.Covered(s, []subsume.Subscription{big})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision() != subsume.Covered {
		t.Fatalf("decision = %v", res.Decision())
	}
	if res.CoveringIndex() != 0 {
		t.Errorf("covering index = %d", res.CoveringIndex())
	}
	if res.Trials() != 0 {
		t.Errorf("pairwise path should not guess, trials = %d", res.Trials())
	}
}

func TestCheckerUnsatisfiable(t *testing.T) {
	chk, err := subsume.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	bad := subsume.FromIntervals([2]int64{5, 1})
	if _, err := chk.Covered(bad, nil); err == nil {
		t.Error("unsatisfiable subscription accepted")
	}
}

func TestCoveredIntoAndPool(t *testing.T) {
	schema := schema2D(t)
	s1 := subsume.NewSubscription(schema).Range("x1", 820, 850).Range("x2", 1001, 1007).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 840, 880).Range("x2", 1002, 1009).Build()
	s := subsume.NewSubscription(schema).Range("x1", 830, 870).Range("x2", 1003, 1006).Build()
	set := []subsume.Subscription{s1, s2}

	pool, err := subsume.NewCheckerPool(7, subsume.WithErrorProbability(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	chk := pool.Get()
	defer pool.Put(chk)
	var res subsume.Result
	for i := 0; i < 3; i++ {
		if err := chk.CoveredInto(&res, s, set); err != nil {
			t.Fatal(err)
		}
		if !res.Covered() {
			t.Fatalf("iteration %d: Table 3 example must be covered, got %v", i, res.Decision())
		}
	}
}

// TestExactAuditsRealisticDomains: Exact is the audit oracle, so it
// must answer over domains no enumeration can walk (here 10^24
// points) and still reject malformed input.
func TestExactAuditsRealisticDomains(t *testing.T) {
	schema := subsume.UniformSchema(6, 0, 9999)
	half := func(lo, hi int64) subsume.Subscription {
		return subsume.NewSubscription(schema).Range("x3", lo, hi).Build()
	}
	s := subsume.NewSubscription(schema).Build()

	covered, err := subsume.Exact(s, []subsume.Subscription{half(0, 4999), half(5000, 9999)})
	if err != nil || !covered {
		t.Fatalf("two halves: covered = %v, err = %v; want an exact YES", covered, err)
	}
	covered, err = subsume.Exact(s, []subsume.Subscription{half(0, 4999), half(5001, 9999)})
	if err != nil || covered {
		t.Fatalf("missing hyperplane: covered = %v, err = %v; want an exact NO", covered, err)
	}
	if _, err := subsume.Exact(s, []subsume.Subscription{subsume.FromIntervals([2]int64{0, 9999})}); err == nil {
		t.Fatal("a 1-attribute row against a 6-attribute subscription was accepted")
	}
}
