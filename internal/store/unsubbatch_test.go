package store

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// randomBoxes builds a deterministic mixed workload of broad parents
// and narrow children over a 2-D domain.
func randomBoxes(seed uint64, n int) []subscription.Subscription {
	rng := rand.New(rand.NewPCG(seed, seed|1))
	out := make([]subscription.Subscription, n)
	for i := range out {
		if i%4 == 0 { // broad parent
			lo1, lo2 := rng.Int64N(40), rng.Int64N(40)
			out[i] = subscription.New(
				interval.New(lo1, lo1+40+rng.Int64N(20)),
				interval.New(lo2, lo2+40+rng.Int64N(20)))
		} else { // narrow child
			lo1, lo2 := rng.Int64N(80), rng.Int64N(80)
			out[i] = subscription.New(
				interval.New(lo1, lo1+rng.Int64N(15)),
				interval.New(lo2, lo2+rng.Int64N(15)))
		}
	}
	return out
}

// TestUnsubscribeBatchMatchesPerItem removes the same burst through
// UnsubscribeBatch and through a per-item loop on an identically
// populated pairwise store, then cross-checks membership and Match
// behavior. Forest shapes may differ; the stored set and the answers
// must not.
func TestUnsubscribeBatchMatchesPerItem(t *testing.T) {
	subs := randomBoxes(7, 200)
	build := func() *Store {
		st, err := New(PolicyPairwise)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range subs {
			if _, err := st.Subscribe(ID(i), s); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	burst := make([]ID, 0, 60)
	for i := 0; i < 60; i++ {
		burst = append(burst, ID(i*3)) // hits parents and children alike
	}

	batch := build()
	bres, err := batch.UnsubscribeBatch(burst)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Removed != len(burst) {
		t.Fatalf("Removed = %d, want %d", bres.Removed, len(burst))
	}

	loop := build()
	for _, id := range burst {
		if _, err := loop.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}

	if batch.Len() != loop.Len() {
		t.Fatalf("Len: batch %d, loop %d", batch.Len(), loop.Len())
	}
	for i := range subs {
		_, _, okB := batch.Get(ID(i))
		_, _, okL := loop.Get(ID(i))
		if okB != okL {
			t.Fatalf("id %d: batch present=%v, loop present=%v", i, okB, okL)
		}
	}
	// Match must agree everywhere: same stored membership, and every
	// stored subscription reachable through either forest.
	rng := rand.New(rand.NewPCG(99, 100))
	for p := 0; p < 200; p++ {
		pub := subscription.NewPublication(rng.Int64N(100), rng.Int64N(100))
		got := fmt.Sprint(batch.Match(pub))
		want := fmt.Sprint(loop.Match(pub))
		if got != want {
			t.Fatalf("Match(%v): batch %v, loop %v", pub, got, want)
		}
	}
}

// TestUnsubscribeBatchPromotes checks the core cancellation semantics:
// removing a coverer promotes its children, unless the burst removes
// them too.
func TestUnsubscribeBatchPromotes(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	parent := box(0, 100, 0, 100)
	childA := box(10, 20, 10, 20)
	childB := box(30, 40, 30, 40)
	for id, s := range []subscription.Subscription{parent, childA, childB} {
		if _, err := st.Subscribe(ID(id+1), s); err != nil {
			t.Fatal(err)
		}
	}
	if st.ActiveLen() != 1 {
		t.Fatalf("setup: active = %d, want 1 (children covered)", st.ActiveLen())
	}

	res, err := st.UnsubscribeBatch([]ID{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 {
		t.Fatalf("Removed = %d, want 2", res.Removed)
	}
	if fmt.Sprint(res.Promoted) != "[2]" {
		t.Fatalf("Promoted = %v, want [2] (childB was removed with the burst)", res.Promoted)
	}
	if _, status, ok := st.Get(2); !ok || status != StatusActive {
		t.Fatalf("childA: ok=%v status=%v, want active", ok, status)
	}
	if _, _, ok := st.Get(3); ok {
		t.Fatal("childB still present after burst removal")
	}
}

// TestUnsubscribeBatchSharedFrontier verifies the batch re-validates a
// child that lost several coverers only once: a child covered by the
// union of two parents (group policy) survives their joint removal
// only if something else still covers it.
func TestUnsubscribeBatchEdgeCases(t *testing.T) {
	st, err := New(PolicyPairwise)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Subscribe(1, box(0, 50, 0, 50)); err != nil {
		t.Fatal(err)
	}
	// Unknown IDs and duplicates are skipped, not errors.
	res, err := st.UnsubscribeBatch([]ID{9, 1, 1, 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || len(res.Promoted) != 0 {
		t.Fatalf("res = %+v, want Removed=1, no promotions", res)
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d, want 0", st.Len())
	}
	// Empty burst is a no-op.
	if res, err := st.UnsubscribeBatch(nil); err != nil || res.Removed != 0 {
		t.Fatalf("empty burst: res=%+v err=%v", res, err)
	}
}
