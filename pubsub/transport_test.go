package pubsub_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"probsum/pubsub"
	"probsum/subsume"
)

// runBrokernet drives the Figure 1 scenario (the brokernet example's
// topology) against any transport and returns each subscriber's
// notification set as sorted "subID/pubID" pairs. The scenario is
// sequenced with Settle between causally dependent phases, so both
// transports see the same arrival structure.
func runBrokernet(t *testing.T, tr pubsub.Transport) map[string][]string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 100),
		subsume.Attr("x2", 0, 100),
	)
	for i := 1; i <= 9; i++ {
		if _, err := tr.AddBroker(fmt.Sprintf("B%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{
		{"B1", "B3"}, {"B2", "B3"}, {"B3", "B4"},
		{"B4", "B5"}, {"B4", "B6"}, {"B4", "B7"},
		{"B7", "B8"}, {"B7", "B9"},
	} {
		if err := tr.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s1c, err := tr.Open(ctx, "S1", "B1")
	if err != nil {
		t.Fatal(err)
	}
	s2c, err := tr.Open(ctx, "S2", "B6")
	if err != nil {
		t.Fatal(err)
	}
	p1c, err := tr.Open(ctx, "P1", "B9")
	if err != nil {
		t.Fatal(err)
	}
	p2c, err := tr.Open(ctx, "P2", "B5")
	if err != nil {
		t.Fatal(err)
	}

	s1 := subsume.NewSubscription(schema).Range("x1", 0, 100).Range("x2", 0, 100).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 40, 60).Range("x2", 40, 60).Build()

	if err := s1c.Subscribe(ctx, "s1", s1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s2c.Subscribe(ctx, "s2", s2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	if err := p1c.Publish(ctx, "n1", subsume.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	if err := p2c.Publish(ctx, "n2", subsume.NewPublication(10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	// Batch phase: S2 announces a burst as one SUBBATCH frame, a
	// publication probes it, a partial UNSUBBATCH cancels two of the
	// three, and a final probe hits the survivor.
	t1 := subsume.NewSubscription(schema).Range("x1", 0, 10).Range("x2", 0, 10).Build()
	t2 := subsume.NewSubscription(schema).Range("x1", 20, 30).Range("x2", 20, 30).Build()
	t3 := subsume.NewSubscription(schema).Range("x1", 70, 90).Range("x2", 70, 90).Build()
	err = s2c.SubscribeBatch(ctx, []pubsub.BatchSub{
		{SubID: "t1", Sub: t1}, {SubID: "t2", Sub: t2}, {SubID: "t3", Sub: t3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p1c.Publish(ctx, "n3", subsume.NewPublication(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s2c.UnsubscribeBatch(ctx, []string{"t1", "t3"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p2c.Publish(ctx, "n4", subsume.NewPublication(25, 25)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	// s1 matches every publication; s2 only n1, t1 only n3 (then it is
	// cancelled), t2 only n4.
	want := map[string]int{"S1": 4, "S2": 3}
	out := make(map[string][]string)
	for name, c := range map[string]*pubsub.Client{"S1": s1c, "S2": s2c} {
		var got []string
		for len(got) < want[name] {
			select {
			case n, ok := <-c.Notifications():
				if !ok {
					t.Fatalf("%s: channel closed after %d notifications", name, len(got))
				}
				got = append(got, n.SubID+"/"+n.PubID)
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: timed out after %d notifications (%v)", name, len(got), got)
			}
		}
		// No extras beyond the expected set.
		select {
		case n := <-c.Notifications():
			t.Fatalf("%s: unexpected extra notification %+v", name, n)
		case <-time.After(200 * time.Millisecond):
		}
		sort.Strings(got)
		out[name] = got
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := tr.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTransportEquivalence is the acceptance check of the transport
// redesign: the same client program — including SUBBATCH/UNSUBBATCH
// bursts — produces identical notification sets on the deterministic
// simulator and over real TCP sockets, for every coverage policy.
func TestTransportEquivalence(t *testing.T) {
	cfg := pubsub.Config{ErrorProbability: 1e-9, Seed: 7}
	for _, policy := range []pubsub.Policy{pubsub.Flood, pubsub.Pairwise, pubsub.Group} {
		t.Run(policy.String(), func(t *testing.T) {
			sim, err := pubsub.NewSimTransport(policy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			simOut := runBrokernet(t, sim)

			t.Run("tcp-binary", func(t *testing.T) {
				tcp, err := pubsub.NewTCPTransport(policy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tcpOut := runBrokernet(t, tcp)

				for client, wantSet := range simOut {
					gotSet := tcpOut[client]
					if fmt.Sprint(wantSet) != fmt.Sprint(gotSet) {
						t.Errorf("%s: sim %v != tcp %v", client, wantSet, gotSet)
					}
				}
				if len(tcpOut) != len(simOut) {
					t.Errorf("client sets differ: sim %v, tcp %v", simOut, tcpOut)
				}
			})
		})
	}
}
