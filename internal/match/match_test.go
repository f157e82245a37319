package match

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

func TestBruteForceAddRemove(t *testing.T) {
	var b BruteForce
	s1 := subscription.New(interval.New(0, 10), interval.New(0, 10))
	s2 := subscription.New(interval.New(5, 15), interval.New(5, 15))
	b.Add(1, s1)
	b.Add(2, s2)
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	p := subscription.NewPublication(7, 7)
	got := b.Match(p)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Match = %v, want [1 2]", got)
	}
	b.Remove(1)
	got = b.Match(p)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("after Remove: Match = %v, want [2]", got)
	}
	b.Remove(99) // no-op
	if b.Len() != 1 {
		t.Errorf("Len = %d after removing unknown id", b.Len())
	}
	// Replacing an existing id updates in place.
	b.Add(2, s1)
	if b.Len() != 1 {
		t.Errorf("Len = %d after replace", b.Len())
	}
	if got := b.Match(subscription.NewPublication(0, 0)); len(got) != 1 || got[0] != 2 {
		t.Errorf("replaced subscription not matching: %v", got)
	}
}

// TestITreeIndexTrivialPredicates: a full-domain predicate spans its
// attribute's hull and lands in the wild row, so it matches every
// value the hull admits.
func TestITreeIndexTrivialPredicates(t *testing.T) {
	schema := subscription.UniformSchema(2, 0, 99)
	idx := NewITreeIndex()
	idx.Add(1, subscription.FullOver(schema))
	idx.Add(2, subscription.New(interval.New(10, 20), schema.Domain(1)))
	if got := idx.Match(subscription.NewPublication(15, 50)); len(got) != 2 {
		t.Fatalf("Match = %v, want both", got)
	}
	if got := idx.Match(subscription.NewPublication(50, 50)); len(got) != 1 || got[0] != 1 {
		t.Errorf("Match = %v, want only the unconstrained subscription", got)
	}
}

// genWorkload builds a random subscription population where roughly a
// third of the predicates are trivial (full domain), mimicking the
// paper's partially specified subscriptions.
func genWorkload(r *rand.Rand, schema *subscription.Schema, k int) []subscription.Subscription {
	m := schema.Len()
	subs := make([]subscription.Subscription, k)
	for i := range subs {
		bounds := make([]interval.Interval, m)
		for a := 0; a < m; a++ {
			dom := schema.Domain(a)
			if r.IntN(3) == 0 {
				bounds[a] = dom
				continue
			}
			lo := dom.Lo + r.Int64N(dom.Count())
			hi := lo + r.Int64N(dom.Hi-lo+1)
			bounds[a] = interval.New(lo, hi)
		}
		subs[i] = subscription.Subscription{Bounds: bounds}
	}
	return subs
}

func TestITreeIndexMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		m := 1 + r.IntN(4)
		schema := subscription.UniformSchema(m, 0, 60)
		k := 1 + r.IntN(40)
		idx := NewITreeIndex()
		var brute BruteForce
		for i, s := range genWorkload(r, schema, k) {
			idx.Add(ID(i+1), s)
			brute.Add(ID(i+1), s)
		}
		for trial := 0; trial < 40; trial++ {
			vals := make([]int64, m)
			for a := range vals {
				vals[a] = r.Int64N(61)
			}
			p := subscription.Publication{Values: vals}
			want := brute.Match(p)
			if got := idx.Match(p); !slices.Equal(got, want) {
				t.Logf("mismatch: got %v want %v for %v", got, want, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestITreeIndexScratchReuse: pooled scratch must not leak state
// across calls, including from an index with more words to one with
// fewer.
func TestITreeIndexScratchReuse(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.New(0, 4), interval.New(0, 4)))
	idx.Add(2, subscription.New(interval.New(5, 9), interval.New(5, 9)))
	for id := ID(10); id < 300; id++ {
		idx.Add(id, subscription.New(interval.New(0, 9)))
	}
	inside := subscription.NewPublication(2, 2)
	half := subscription.NewPublication(2, 9) // only the x1 predicate hits
	for i := 0; i < 100; i++ {
		if got := idx.Match(subscription.NewPublication(3)); len(got) != 290 {
			t.Fatalf("iteration %d: 1-D match found %d, want 290", i, len(got))
		}
		if got := idx.Match(half); len(got) != 0 {
			t.Fatalf("iteration %d: half-matching publication matched: %v", i, got)
		}
	}
	if got := idx.Match(inside); !slices.Equal(got, []ID{1}) {
		t.Fatalf("inside publication = %v, want [1]", got)
	}
}
