package store

import (
	"fmt"
	"testing"

	"probsum/internal/subscription"
)

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

// TestUnsubscribeBatchEdgeCases: unknown and repeated IDs are skipped
// rather than errors, and an empty burst is a no-op.
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
