package subsume_test

// TestTableOracleEquivalence (ISSUE 4): randomized subscribe /
// unsubscribe / batch workloads checked against the exact pairwise
// oracle — brute-force interval mathematics over the live set — and
// then re-checked over the wire: the same workload fed through a TCP
// broker as SUBBATCH/UNSUBBATCH frames must notify exactly the
// brute-force matching set for every probe. It extends the per-op
// store oracle tests (internal/store) to the batch and wire-fed paths.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"probsum/pubsub"
	"probsum/subsume"
)

// oracleWorkload scripts one deterministic randomized run: the mix of
// per-item and batch operations applied identically to every table
// under test.
type oracleOp struct {
	subscribe   []subsume.ID // batch when >1
	unsubscribe []subsume.ID
}

func oracleBox(rng *rand.Rand) subsume.Subscription {
	lo1, lo2 := rng.Int64N(80), rng.Int64N(80)
	w1, w2 := 1+rng.Int64N(40), 1+rng.Int64N(40)
	return subsume.NewSubscription(oracleSchema).
		Range("x1", lo1, min64(lo1+w1, 100)).
		Range("x2", lo2, min64(lo2+w2, 100)).
		Build()
}

var oracleSchema = subsume.NewSchema(
	subsume.Attr("x1", 0, 100),
	subsume.Attr("x2", 0, 100),
)

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// buildOracleWorkload generates ops and the subscription bodies; the
// same rng seed yields the same workload for every table and for the
// wire-fed run.
func buildOracleWorkload(seed uint64, steps int) (ops []oracleOp, subs map[subsume.ID]subsume.Subscription) {
	rng := rand.New(rand.NewPCG(seed, seed|1))
	subs = make(map[subsume.ID]subsume.Subscription)
	var live []subsume.ID
	next := subsume.ID(1)
	for i := 0; i < steps; i++ {
		switch r := rng.IntN(10); {
		case r < 4: // single subscribe
			id := next
			next++
			subs[id] = oracleBox(rng)
			live = append(live, id)
			ops = append(ops, oracleOp{subscribe: []subsume.ID{id}})
		case r < 7: // batch subscribe, 2..8 items
			n := 2 + rng.IntN(7)
			var ids []subsume.ID
			for j := 0; j < n; j++ {
				id := next
				next++
				subs[id] = oracleBox(rng)
				live = append(live, id)
				ids = append(ids, id)
			}
			ops = append(ops, oracleOp{subscribe: ids})
		case r < 9: // single unsubscribe
			if len(live) == 0 {
				continue
			}
			j := rng.IntN(len(live))
			id := live[j]
			live = slices.Delete(live, j, j+1)
			ops = append(ops, oracleOp{unsubscribe: []subsume.ID{id}})
		default: // batch unsubscribe, up to 6 items
			if len(live) == 0 {
				continue
			}
			n := 1 + rng.IntN(min(6, len(live)))
			var ids []subsume.ID
			for j := 0; j < n; j++ {
				k := rng.IntN(len(live))
				ids = append(ids, live[k])
				live = slices.Delete(live, k, k+1)
			}
			ops = append(ops, oracleOp{unsubscribe: ids})
		}
	}
	return ops, subs
}

// oracleMatch is the exact pairwise oracle for publication matching:
// brute force over the live set.
func oracleMatch(live map[subsume.ID]subsume.Subscription, p subsume.Publication) []subsume.ID {
	var out []subsume.ID
	for id, s := range live {
		if s.Matches(p) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// checkTableAgainstOracle verifies the order-independent exact
// invariants: stored set == live set, Match == brute force, and every
// covered subscription has an active coverer (pairwise soundness).
func checkTableAgainstOracle(t *testing.T, step int, tbl *subsume.Table, live map[subsume.ID]subsume.Subscription, rng *rand.Rand) {
	t.Helper()
	if got := tbl.Len(); got != len(live) {
		t.Fatalf("step %d: table holds %d subscriptions, oracle %d", step, got, len(live))
	}
	actives := tbl.ActiveIDs()
	activeSet := make(map[subsume.ID]bool, len(actives))
	for _, id := range actives {
		activeSet[id] = true
	}
	for id, want := range live {
		s, status, ok := tbl.Get(id)
		if !ok {
			t.Fatalf("step %d: live id %d missing from table", step, id)
		}
		if !s.Equal(want) {
			t.Fatalf("step %d: id %d stored %v, oracle %v", step, id, s, want)
		}
		if status == subsume.StatusCovered {
			coverer := false
			for _, a := range actives {
				as, _, _ := tbl.Get(a)
				if a != id && as.Covers(want) {
					coverer = true
					break
				}
			}
			if !coverer {
				t.Fatalf("step %d: id %d is covered but no active subscription covers %v", step, id, want)
			}
		} else if !activeSet[id] {
			t.Fatalf("step %d: id %d has status %v but is not in ActiveIDs", step, id, status)
		}
	}
	for probe := 0; probe < 8; probe++ {
		p := subsume.NewPublication(rng.Int64N(101), rng.Int64N(101))
		got := tbl.Match(p)
		want := oracleMatch(live, p)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Match(%v) = %v, oracle %v", step, p, got, want)
		}
	}
}

func TestTableOracleEquivalence(t *testing.T) {
	const steps = 120
	ops, subs := buildOracleWorkload(0xC0DEC, steps)

	t.Run("table", func(t *testing.T) {
		tbl, err := subsume.NewTable(subsume.Pairwise)
		if err != nil {
			t.Fatal(err)
		}
		probeRNG := rand.New(rand.NewPCG(99, 7))
		live := make(map[subsume.ID]subsume.Subscription)
		for step, op := range ops {
			switch {
			case len(op.subscribe) == 1:
				id := op.subscribe[0]
				if _, err := tbl.Subscribe(id, subs[id]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				live[id] = subs[id]
			case len(op.subscribe) > 1:
				bodies := make([]subsume.Subscription, len(op.subscribe))
				for i, id := range op.subscribe {
					bodies[i] = subs[id]
					live[id] = subs[id]
				}
				if _, err := tbl.SubscribeBatch(op.subscribe, bodies); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			case len(op.unsubscribe) == 1:
				if _, err := tbl.Unsubscribe(op.unsubscribe[0]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				delete(live, op.unsubscribe[0])
			default:
				if _, err := tbl.UnsubscribeBatch(op.unsubscribe); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, id := range op.unsubscribe {
					delete(live, id)
				}
			}
			checkTableAgainstOracle(t, step, tbl, live, probeRNG)
		}
	})

	t.Run("wire-fed", func(t *testing.T) { oracleOverWire(t, ops, subs) })
}

// oracleOverWire replays the workload through a real TCP broker as
// SUBBATCH/UNSUBBATCH frames and checks every probe publication
// notifies exactly the oracle's matching set.
func oracleOverWire(t *testing.T, ops []oracleOp, subs map[subsume.ID]subsume.Subscription) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr, err := pubsub.NewTCPTransport(pubsub.Pairwise, pubsub.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		tr.Shutdown(sctx)
	}()
	if _, err := tr.AddBroker("B1"); err != nil {
		t.Fatal(err)
	}
	sub, err := tr.Open(ctx, "sub", "B1")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := tr.Open(ctx, "pub", "B1")
	if err != nil {
		t.Fatal(err)
	}

	b, _ := tr.Broker("B1")
	subName := func(id subsume.ID) string { return fmt.Sprintf("w%d", id) }
	probeRNG := rand.New(rand.NewPCG(4242, 17))
	live := make(map[subsume.ID]subsume.Subscription)
	wantReceived, fences, probes := 0, 0, 0

	// fence orders a subscriber-connection frame behind everything the
	// subscriber sent before it: readers handle a connection's frames
	// in order, so once the fence subscription is admitted, every
	// earlier subscribe/unsubscribe on that connection has been too.
	// The fence box lies far outside the probe domain.
	fence := func() {
		fences++
		id := fmt.Sprintf("fence%d", fences)
		fenceBox := subsume.FromIntervals([2]int64{9999, 9999}, [2]int64{9999, 9999})
		if err := sub.Subscribe(ctx, id, fenceBox); err != nil {
			t.Fatal(err)
		}
		wantReceived++
		deadline := time.Now().Add(10 * time.Second)
		for b.Metrics().SubsReceived < wantReceived {
			if time.Now().After(deadline) {
				t.Fatalf("fence %d never admitted (metrics %+v)", fences, b.Metrics())
			}
			time.Sleep(500 * time.Microsecond)
		}
	}

	for step, op := range ops {
		switch {
		case len(op.subscribe) > 0:
			batch := make([]pubsub.BatchSub, len(op.subscribe))
			for i, id := range op.subscribe {
				batch[i] = pubsub.BatchSub{SubID: subName(id), Sub: subs[id]}
				live[id] = subs[id]
			}
			if err := sub.SubscribeBatch(ctx, batch); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			wantReceived += len(batch)
		default:
			ids := make([]string, len(op.unsubscribe))
			for i, id := range op.unsubscribe {
				ids[i] = subName(id)
				delete(live, id)
			}
			if err := sub.UnsubscribeBatch(ctx, ids); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		// Probe every few steps (each probe costs a fence round trip).
		if step%5 != 4 {
			continue
		}
		fence()
		p := subsume.NewPublication(probeRNG.Int64N(101), probeRNG.Int64N(101))
		probes++
		pubID := fmt.Sprintf("probe%d", probes)
		if err := pub.Publish(ctx, pubID, p); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := oracleMatch(live, p)
		got := make([]string, 0, len(want))
		for len(got) < len(want) {
			select {
			case n, ok := <-sub.Notifications():
				if !ok {
					t.Fatalf("step %d: notification stream closed", step)
				}
				if n.PubID != pubID {
					t.Fatalf("step %d: unexpected notification %+v while probing %s", step, n, pubID)
				}
				got = append(got, n.SubID)
			case <-time.After(5 * time.Second):
				t.Fatalf("step %d: probe %s delivered %d of %d notifications (got %v, want %v)",
					step, pubID, len(got), len(want), got, want)
			}
		}
		wantNames := make([]string, len(want))
		for i, id := range want {
			wantNames[i] = subName(id)
		}
		slices.Sort(wantNames)
		slices.Sort(got)
		if !slices.Equal(got, wantNames) {
			t.Fatalf("step %d: probe %v notified %v, oracle %v", step, p, got, wantNames)
		}
		// No strays beyond the oracle set.
		select {
		case n := <-sub.Notifications():
			t.Fatalf("step %d: extra notification %+v beyond the oracle set", step, n)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
