package broker

import (
	"fmt"
	"testing"

	"probsum/internal/store"
	"probsum/internal/subscription"
)

// TestPubDedupBounded is the ISSUE 4 soak test: a long-running broker
// fed far more distinct publications than its dedup limit must keep
// its duplicate-suppression memory bounded (~2·limit entries) while
// still catching duplicates inside the horizon.
func TestPubDedupBounded(t *testing.T) {
	const limit = 512
	b, err := New("B1", store.PolicyNone, withDedupLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	b.AttachClient("pub")

	publish := func(id string) Metrics {
		if _, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: id,
			Pub: subscription.NewPublication(1)}); err != nil {
			t.Fatal(err)
		}
		return b.Metrics()
	}

	const total = 20 * limit
	for i := 0; i < total; i++ {
		publish(fmt.Sprintf("p%d", i))
		if size := b.dedupSize(); size > 2*limit {
			t.Fatalf("after %d pubs the dedup set holds %d entries (> 2×%d)", i+1, size, limit)
		}
	}
	if got := b.Metrics().PubsReceived; got != total {
		t.Fatalf("PubsReceived = %d, want %d", got, total)
	}

	// A duplicate inside the horizon is still suppressed, even when a
	// rotation happened between the two arrivals: publish a fresh ID,
	// rotate by filling a full generation, then repeat it.
	before := publish("dup-probe").DupPubsDropped
	for i := 0; i < limit; i++ {
		publish(fmt.Sprintf("fill%d", i))
	}
	if got := publish("dup-probe").DupPubsDropped; got != before+1 {
		t.Fatalf("duplicate within the horizon not suppressed: drops %d -> %d", before, got)
	}

	// Beyond the horizon (2×limit newer IDs) the ID has been forgotten
	// — the documented at-least-once trade for the memory bound.
	for i := 0; i < 2*limit; i++ {
		publish(fmt.Sprintf("flush%d", i))
	}
	pubsBefore := b.Metrics().PubsReceived
	if got := publish("dup-probe").PubsReceived; got != pubsBefore+1 {
		t.Fatal("a publication beyond the dedup horizon should be processed again")
	}
}

// TestPubDedupRotationBoundary pins the horizon at its exact edge: an
// ID re-sighted while the current generation sits one insert short of
// rotation must survive the NEXT rotation too, because the documented
// horizon — at least limit newer distinct IDs — restarts from the
// LAST sighting. Without refreshing previous-generation hits into the
// current generation, the re-sighted ID rotates away with its old
// generation and a duplicate slips through after exactly limit newer
// IDs.
func TestPubDedupRotationBoundary(t *testing.T) {
	const limit = 8
	b, err := New("B1", store.PolicyNone, withDedupLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	b.AttachClient("pub")

	publish := func(id string) Metrics {
		if _, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: id,
			Pub: subscription.NewPublication(1)}); err != nil {
			t.Fatal(err)
		}
		if size := b.dedupSize(); size > 2*limit {
			t.Fatalf("dedup set holds %d entries (> 2×%d)", size, limit)
		}
		return b.Metrics()
	}

	publish("X")
	// Fill to the rotation: X's generation becomes previous.
	for i := 0; i < limit-1; i++ {
		publish(fmt.Sprintf("a%d", i))
	}
	// Re-sight X out of the previous generation — still a duplicate,
	// and the horizon restarts here.
	before := b.Metrics().DupPubsDropped
	if got := publish("X").DupPubsDropped; got != before+1 {
		t.Fatalf("X not suppressed from the previous generation: drops %d -> %d", before, got)
	}
	// Exactly limit newer distinct IDs — the minimum horizon from the
	// re-sighting.
	for i := 0; i < limit; i++ {
		publish(fmt.Sprintf("b%d", i))
	}
	before = b.Metrics().DupPubsDropped
	if got := publish("X").DupPubsDropped; got != before+1 {
		t.Fatalf("X processed again after exactly %d newer IDs since its last sighting (horizon must be ≥ %d): drops %d -> %d",
			limit, limit, before, got)
	}
}

// TestPubDedupDefaultUnchanged pins that within the default horizon
// the broker behaves exactly as the old unbounded set.
func TestPubDedupDefaultUnchanged(t *testing.T) {
	b, err := New("B1", store.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	b.AttachClient("pub")
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("p%d", i%100) // every ID repeated 10 times
		if _, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: id,
			Pub: subscription.NewPublication(1)}); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Metrics()
	if m.PubsReceived != 100 || m.DupPubsDropped != 900 {
		t.Fatalf("received %d / dropped %d, want 100 / 900", m.PubsReceived, m.DupPubsDropped)
	}
}
