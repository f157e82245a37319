package pubsub_test

// End-to-end observability: a two-broker TCP overlay must surface
// per-link frame counts by kind, nonzero publish-stage histograms,
// queue depths, and the route-table footprint through the registry —
// and the same traffic must land in an attached ClientStats as
// publish-to-notify latency.

import (
	"context"
	"strings"
	"testing"
	"time"

	"probsum/pubsub"
	"probsum/subsume"
)

func TestTCPObservabilityEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr, err := pubsub.NewTCPTransport(pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Shutdown(context.Background())

	b1, err := tr.AddBroker("B1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddBroker("B2"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Connect("B1", "B2"); err != nil {
		t.Fatal(err)
	}

	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 100),
		subsume.Attr("x2", 0, 100),
	)
	sub, err := tr.Open(ctx, "S", "B2")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := tr.Open(ctx, "P", "B1")
	if err != nil {
		t.Fatal(err)
	}

	stats := pubsub.NewClientStats(pubsub.WithRawSamples())
	sub.SetStats(stats)
	pub.SetStats(stats)

	s := subsume.NewSubscription(schema).Range("x1", 0, 100).Range("x2", 0, 100).Build()
	if err := sub.Subscribe(ctx, "s1", s); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	// One lone publication, which B1 forwards as a publish frame, then
	// a batch of the rest, which it forwards as one publish-batch frame.
	const pubs = 20
	if err := pub.Publish(ctx, "pa", subsume.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	batch := make([]pubsub.BatchPub, pubs-1)
	for i := range batch {
		batch[i] = pubsub.BatchPub{PubID: "p" + string(rune('b'+i)), Pub: subsume.NewPublication(50, 50)}
	}
	if err := pub.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pubs; i++ {
		select {
		case <-sub.Notifications():
		case <-ctx.Done():
			t.Fatal("timed out waiting for notifications")
		}
	}

	// Client-side latency: every publication was delivered, so every
	// stamp must be resolved with a nonzero latency.
	if got := stats.Snapshot().Count; got != pubs {
		t.Errorf("client latency samples = %d, want %d", got, pubs)
	}
	if stats.Pending() != 0 {
		t.Errorf("pending publish stamps = %d, want 0", stats.Pending())
	}
	if raw := stats.RawSamples(); len(raw) != pubs {
		t.Errorf("raw samples = %d, want %d", len(raw), pubs)
	} else {
		for _, d := range raw {
			if d <= 0 {
				t.Errorf("non-positive latency sample %v", d)
			}
		}
	}

	reg := b1.Observability()
	if reg == nil {
		t.Fatal("TCP broker returned nil registry")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Core series the CI smoke also greps for: broker counters,
	// per-link frames by kind, stage histograms, queue depth.
	for _, want := range []string{
		"probsum_broker_pubs_received",
		"probsum_broker_match_candidates",
		"probsum_broker_match_hits",
		`probsum_link_frames_sent_total{link="B2",kind="publish"}`,
		`probsum_link_frames_sent_total{link="B2",kind="publish-batch"}`,
		"probsum_publish_stage_match_ns_count",
		"probsum_publish_stage_route_ns_count",
		"probsum_publish_stage_enqueue_ns_count",
		"probsum_publish_stage_write_ns_count",
		"probsum_publish_stage_decode_ns_count",
		"probsum_send_queue_depth_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}

	j := reg.JSON()
	if j.Counters["broker_pubs_received"] < pubs {
		t.Errorf("broker_pubs_received = %d, want >= %d", j.Counters["broker_pubs_received"], pubs)
	}
	for _, h := range []string{"publish_stage_match_ns", "publish_stage_route_ns",
		"publish_stage_enqueue_ns", "publish_stage_write_ns", "publish_stage_decode_ns"} {
		if j.Histograms[h].Count == 0 {
			t.Errorf("histogram %s has zero observations", h)
		}
	}
	if link := j.Links["B2"]; link.Sent["publish"] != 1 || link.Sent["publish-batch"] != 1 {
		t.Errorf("link B2 frames %+v, want one publish and one publish-batch", j.Links)
	}

	// The simulator transport carries no registry by design.
	sim, err := pubsub.NewSimTransport(pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb1, err := sim.AddBroker("S1")
	if err != nil {
		t.Fatal(err)
	}
	if sb1.Observability() != nil {
		t.Error("sim broker should have nil registry")
	}
}

func TestClientStatsUnknownDeliveryIgnored(t *testing.T) {
	now := time.Unix(0, 0)
	cs := pubsub.NewClientStats(pubsub.WithStatsClock(func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}))
	cs.MarkPublished("p1")
	// Unknown ID: ignored. Known ID: observed once; repeat ignored.
	cs.MarkDelivered("nope")
	if got := cs.Snapshot().Count; got != 0 {
		t.Fatalf("unknown delivery counted: %d", got)
	}
	cs.MarkDelivered("p1")
	cs.MarkDelivered("p1")
	if got := cs.Snapshot().Count; got != 1 {
		t.Fatalf("samples = %d, want 1 (duplicate delivery must not re-count)", got)
	}
	if cs.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", cs.Pending())
	}
}

// TestTCPCheckerAccountingExposed: the coverage checker's accounting —
// decisions by reason, RSPC trials, capped answers, re-checks per
// removal, decisions the point walk took without gathering rows — is
// scraped from the broker that takes the decisions, under fixed names.
func TestTCPCheckerAccountingExposed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tr, err := pubsub.NewTCPTransport(pubsub.Group, pubsub.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Shutdown(context.Background())
	if _, err := tr.AddBroker("B1"); err != nil {
		t.Fatal(err)
	}
	b2, err := tr.AddBroker("B2")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Connect("B1", "B2"); err != nil {
		t.Fatal(err)
	}
	sub, err := tr.Open(ctx, "S", "B2")
	if err != nil {
		t.Fatal(err)
	}

	// B2's table toward B1 sees: two actives, then s3 covered by their
	// union (no single one covers it), then the retirement of s1, which
	// re-checks s3 — named s1 as a coverer — and promotes it. The walk
	// finds a point of s2, and of s3 on its re-check, outside every row;
	// for s3 against both rows it steps back and forth until the
	// checker takes over.
	schema := subsume.UniformSchema(2, 0, 100)
	box := func(lo, hi int64) subsume.Subscription {
		return subsume.NewSubscription(schema).Range("x1", lo, hi).Build()
	}
	for id, s := range map[string]subsume.Subscription{"s1": box(0, 60), "s2": box(40, 100)} {
		if err := sub.Subscribe(ctx, id, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sub.Subscribe(ctx, "s3", box(10, 90)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	got := b2.Observability().JSON().Counters
	for name, want := range map[string]int64{
		"broker_checker_calls":                        4, // s1, s2, s3, s3 again
		"broker_checker_probed":                       2, // s2 and the re-check of s3
		"broker_checker_candidate_rows":               0 + 0 + 2 + 0,
		"broker_checker_recheck_calls":                1,
		"broker_table_unsubscribes":                   1,
		"broker_checker_rspc_trials":                  0,
		"broker_checker_capped":                       0,
		"broker_checker_decisions_residual_cover":     1,
		"broker_checker_decisions_trials_exhausted":   0,
		"broker_checker_decisions_pairwise_cover":     0,
		"broker_checker_decisions_polyhedron_witness": 0,
		"broker_checker_decisions_empty_mcs":          1, // s1 against the empty table
		"broker_checker_decisions_point_witness":      2, // the walk's NOs for s2 and s3 again
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("counter %s is not registered", name)
		} else if v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
	if t.Failed() {
		t.Logf("counters: %v", got)
	}
}
