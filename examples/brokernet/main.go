// Broker network: the paper's Figure 1 walkthrough, on either
// transport.
//
// Nine brokers, two subscribers (S1 at B1, S2 at B6 with s2 ⊑ s1) and
// two publishers (P1 at B9, P2 at B5). The example reproduces the
// delivery trees the paper traces and prints per-broker publication
// traffic so the reverse-path + covering behavior is visible.
//
// The same client program runs on the deterministic in-process
// simulator or over real TCP sockets — that is the point of the
// transport abstraction. Run with:
//
//	go run ./examples/brokernet                  # both, compare results
//	go run ./examples/brokernet -transport sim   # simulator only
//	go run ./examples/brokernet -transport tcp   # real sockets only
//	go run ./examples/brokernet -policy group    # probabilistic coverage
//
// The scenario ends with a subscription burst sent as ONE batch frame
// (SUBBATCH): the brokers admit it into each coverage table as a
// single batch call, so the broad member suppresses the narrow ones
// before anything extra crosses a link.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"probsum/pubsub"
	"probsum/subsume"
)

func main() {
	transport := flag.String("transport", "both", "sim | tcp | both")
	policyIn := flag.String("policy", "pairwise", "coverage policy: flood | pairwise | group")
	flag.Parse()

	policy, err := pubsub.ParsePolicy(*policyIn)
	if err != nil {
		log.Fatal(err)
	}
	cfg := pubsub.Config{Seed: 7}

	newTransport := func(kind string) pubsub.Transport {
		switch kind {
		case "sim":
			tr, err := pubsub.NewSimTransport(policy, cfg)
			if err != nil {
				log.Fatal(err)
			}
			return tr
		case "tcp":
			tr, err := pubsub.NewTCPTransport(policy, cfg)
			if err != nil {
				log.Fatal(err)
			}
			return tr
		default:
			log.Fatalf("unknown transport %q (want sim | tcp | both)", kind)
			return nil
		}
	}

	kinds := []string{*transport}
	if *transport == "both" {
		kinds = []string{"sim", "tcp"}
	}
	results := make(map[string]map[string][]string)
	for _, kind := range kinds {
		fmt.Printf("=== %s transport (policy %s) ===\n", kind, policy)
		results[kind] = run(newTransport(kind))
		fmt.Println()
	}
	if *transport == "both" {
		a, b := fmt.Sprint(results["sim"]), fmt.Sprint(results["tcp"])
		if a == b {
			fmt.Println("sim and tcp delivered identical notification sets ✓")
		} else {
			fmt.Printf("MISMATCH:\n  sim: %s\n  tcp: %s\n", a, b)
		}
	}
}

// run drives the Figure 1 scenario on any transport and returns each
// subscriber's notification set.
func run(tr pubsub.Transport) map[string][]string {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 100),
		subsume.Attr("x2", 0, 100),
	)

	for i := 1; i <= 9; i++ {
		if _, err := tr.AddBroker(fmt.Sprintf("B%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	// Figure 1's overlay (see DESIGN.md for the edge derivation).
	for _, e := range [][2]string{
		{"B1", "B3"}, {"B2", "B3"}, {"B3", "B4"},
		{"B4", "B5"}, {"B4", "B6"}, {"B4", "B7"},
		{"B7", "B8"}, {"B7", "B9"},
	} {
		must(tr.Connect(e[0], e[1]))
	}
	s1c := open(tr, ctx, "S1", "B1")
	s2c := open(tr, ctx, "S2", "B6")
	p1c := open(tr, ctx, "P1", "B9")
	p2c := open(tr, ctx, "P2", "B5")

	// s1 is broad; s2 ⊑ s1 is S2's narrower interest.
	s1 := subsume.NewSubscription(schema).Range("x1", 0, 100).Range("x2", 0, 100).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 40, 60).Range("x2", 40, 60).Build()

	must(s1c.Subscribe(ctx, "s1", s1))
	must(tr.Settle(ctx))
	before := totalMetrics(tr)
	must(s2c.Subscribe(ctx, "s2", s2))
	must(tr.Settle(ctx))
	after := totalMetrics(tr)
	fmt.Printf("s1 flooded over %d links\n", before.SubsForwarded)
	fmt.Printf("s2 (covered by s1) travelled only %d links; %d forwards suppressed\n",
		after.SubsForwarded-before.SubsForwarded, after.SubsSuppressed)

	// n1 matches s2 (and therefore s1): the paper's delivery tree is
	// B9, B7, B4, B3, B1, B6.
	must(p1c.Publish(ctx, "n1", subsume.NewPublication(50, 50)))
	must(tr.Settle(ctx))
	printTree(tr, "n1 (from P1@B9, matches s1 and s2)")

	// n2 matches only s1: delivery tree B5, B4, B3, B1.
	must(p2c.Publish(ctx, "n2", subsume.NewPublication(10, 10)))
	must(tr.Settle(ctx))
	printTree(tr, "n2 (from P2@B5, matches s1 only)")

	// Batch phase: S2 announces a burst as ONE SUBBATCH frame. The
	// brokers admit it with a single batch call per coverage table, so
	// the broad member (b-wide) suppresses the narrow ones within the
	// burst and only it crosses further links.
	preBatch := totalMetrics(tr)
	must(s2c.SubscribeBatch(ctx, []pubsub.BatchSub{
		{SubID: "b-narrow1", Sub: subsume.NewSubscription(schema).Range("x1", 10, 20).Range("x2", 10, 20).Build()},
		{SubID: "b-wide", Sub: subsume.NewSubscription(schema).Range("x1", 0, 30).Range("x2", 0, 30).Build()},
		{SubID: "b-narrow2", Sub: subsume.NewSubscription(schema).Range("x1", 12, 18).Range("x2", 12, 18).Build()},
	}))
	must(tr.Settle(ctx))
	postBatch := totalMetrics(tr)
	fmt.Printf("\nbatch of 3: %d forwards, %d suppressed (within-burst coverage)\n",
		postBatch.SubsForwarded-preBatch.SubsForwarded,
		postBatch.SubsSuppressed-preBatch.SubsSuppressed)

	// n3 lands inside all three burst members (and s1).
	must(p1c.Publish(ctx, "n3", subsume.NewPublication(15, 15)))
	must(tr.Settle(ctx))

	// Cancel the whole burst as one UNSUBBATCH frame, then prove it.
	must(s2c.UnsubscribeBatch(ctx, []string{"b-narrow1", "b-wide", "b-narrow2"}))
	must(tr.Settle(ctx))
	must(p2c.Publish(ctx, "n4", subsume.NewPublication(15, 15)))
	must(tr.Settle(ctx))

	// Collect the deliveries: S1 sees every publication; S2 sees n1
	// (s2) and n3 three times (each burst member matches).
	out := map[string][]string{
		"S1": collect(s1c, 4),
		"S2": collect(s2c, 4),
	}
	fmt.Printf("\nS1 notifications: %d (expected 4)\n", len(out["S1"]))
	fmt.Printf("S2 notifications: %d (expected 4)\n", len(out["S2"]))

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	must(tr.Shutdown(sctx))
	return out
}

func open(tr pubsub.Transport, ctx context.Context, name, brokerID string) *pubsub.Client {
	c, err := tr.Open(ctx, name, brokerID)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// collect reads want notifications (with a deadline) and returns them
// as sorted "subID/pubID" strings.
func collect(c *pubsub.Client, want int) []string {
	var got []string
	for len(got) < want {
		select {
		case n, ok := <-c.Notifications():
			if !ok {
				log.Fatalf("%s: stream closed after %d notifications", c.Name(), len(got))
			}
			got = append(got, n.SubID+"/"+n.PubID)
		case <-time.After(5 * time.Second):
			log.Fatalf("%s: timed out after %d notifications", c.Name(), len(got))
		}
	}
	sort.Strings(got)
	return got
}

// totalMetrics sums the per-broker counters.
func totalMetrics(tr pubsub.Transport) pubsub.Metrics {
	var sum pubsub.Metrics
	for _, id := range tr.Brokers() {
		b, _ := tr.Broker(id)
		sum.Add(b.Metrics())
	}
	return sum
}

// printTree lists the brokers that have seen publications so far —
// i.e. the cumulative delivery trees.
func printTree(tr pubsub.Transport, label string) {
	fmt.Printf("\ndelivery tree for %s:\n  ", label)
	for _, id := range tr.Brokers() {
		b, _ := tr.Broker(id)
		if m := b.Metrics(); m.PubsReceived > 0 {
			fmt.Printf("%s(saw %d) ", id, m.PubsReceived)
		}
	}
	fmt.Println()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
