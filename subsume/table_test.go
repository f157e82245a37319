package subsume_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"probsum/internal/core"
	"probsum/internal/store"
	"probsum/subsume"
)

func tableSchema() *subsume.Schema {
	return subsume.NewSchema(
		subsume.Attr("x", 0, 999),
		subsume.Attr("y", 0, 999),
	)
}

func randomTableSub(rng *rand.Rand, schema *subsume.Schema) subsume.Subscription {
	loX, loY := rng.Int64N(800), rng.Int64N(800)
	return subsume.NewSubscription(schema).
		Range("x", loX, loX+10+rng.Int64N(180)).
		Range("y", loY, loY+10+rng.Int64N(180)).
		Build()
}

// TestTableStoreParity drives a churn script with subscribe and
// unsubscribe batches through the public Table (explicit seed) and a
// raw internal store with an identically seeded checker: statuses,
// active sets, promotions, Match results and checker accounting must
// agree exactly — the acceptance pin that a Table is the sequential
// coverage table behind a lock.
func TestTableStoreParity(t *testing.T) {
	schema := tableSchema()
	tbl, err := subsume.NewTable(subsume.Group,
		subsume.WithTableChecker(subsume.WithSeed(7, 8), subsume.WithMaxTrials(5000)),
	)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := core.NewChecker(core.WithSeed(7, 8), core.WithMaxTrials(5000))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := store.New(store.PolicyGroup, store.WithChecker(chk))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(81, 82))
	var live []subsume.ID
	next := subsume.ID(0)
	removed := 0
	for step := 0; step < 200; step++ {
		switch op := rng.IntN(10); {
		case op < 4:
			next++
			s := randomTableSub(rng, schema)
			got, err := tbl.Subscribe(next, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Subscribe(next, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status || !slices.Equal(got.Coverers, want.Coverers) {
				t.Fatalf("step %d: %+v vs oracle %+v", step, got, want)
			}
			live = append(live, next)
		case op < 7:
			n := 2 + rng.IntN(6)
			ids := make([]subsume.ID, n)
			subs := make([]subsume.Subscription, n)
			for i := range ids {
				next++
				ids[i] = next
				subs[i] = randomTableSub(rng, schema)
			}
			got, err := tbl.SubscribeBatch(ids, subs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.SubscribeBatch(ids, subs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Status != want[i].Status {
					t.Fatalf("step %d item %d: %+v vs oracle %+v", step, i, got[i], want[i])
				}
			}
			live = append(live, ids...)
		case op < 9 && len(live) > 0:
			i := rng.IntN(len(live))
			id := live[i]
			live = slices.Delete(live, i, i+1)
			removed++
			got, err := tbl.Unsubscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Unsubscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Existed != want.Existed || !slices.Equal(got.Promoted, want.Promoted) {
				t.Fatalf("step %d: %+v vs oracle %+v", step, got, want)
			}
		case len(live) >= 4:
			burst := make([]subsume.ID, 2+rng.IntN(3))
			for i := range burst {
				j := rng.IntN(len(live))
				burst[i] = live[j]
				live = slices.Delete(live, j, j+1)
			}
			removed += len(burst)
			got, err := tbl.UnsubscribeBatch(burst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.UnsubscribeBatch(burst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Removed != want.Removed || !slices.Equal(got.Promoted, want.Promoted) {
				t.Fatalf("step %d: %+v vs oracle %+v", step, got, want)
			}
		}
		if got, want := tbl.ActiveIDs(), oracle.ActiveIDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: active %v vs oracle %v", step, got, want)
		}
		p := subsume.NewPublication(rng.Int64N(1000), rng.Int64N(1000))
		if got, want := tbl.Match(p), oracle.Match(p); !slices.Equal(got, want) {
			t.Fatalf("step %d: Match %v vs oracle %v", step, got, want)
		}
	}
	if tbl.Len() != oracle.Len() || tbl.ActiveLen() != oracle.ActiveLen() || tbl.CoveredLen() != oracle.CoveredLen() {
		t.Fatalf("sizes diverged: table %d/%d/%d oracle %d/%d/%d",
			tbl.Len(), tbl.ActiveLen(), tbl.CoveredLen(),
			oracle.Len(), oracle.ActiveLen(), oracle.CoveredLen())
	}
	m := tbl.Metrics()
	if m.Subscribes != uint64(next) || m.Unsubscribes != uint64(removed) {
		t.Fatalf("metrics count %d subscribes, %d unsubscribes; script made %d and %d",
			m.Subscribes, m.Unsubscribes, next, removed)
	}
	if m.Checker != oracle.CheckerStats() {
		t.Fatalf("checker accounting diverged: table %+v oracle %+v", m.Checker, oracle.CheckerStats())
	}
}

// TestTableConcurrent exercises the full public surface from
// concurrent goroutines on a Group table (run under -race) and checks
// the accounting afterwards: every operation is atomic under the
// table's lock, so the counters are exact.
func TestTableConcurrent(t *testing.T) {
	schema := tableSchema()
	tbl, err := subsume.NewTable(subsume.Group,
		subsume.WithTableChecker(subsume.WithMaxTrials(2000)),
	)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	counts := make([]int, goroutines)    // surviving subscriptions per goroutine
	submitted := make([]int, goroutines) // IDs subscribed per goroutine
	cancelled := make([]int, goroutines) // IDs unsubscribed per goroutine
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g)+7, uint64(g)+11))
			base := subsume.ID(g * 1_000_000)
			var mine []subsume.ID
			for i := 0; i < 120; i++ {
				switch op := rng.IntN(10); {
				case op < 4:
					id := base + subsume.ID(i)
					if _, err := tbl.Subscribe(id, randomTableSub(rng, schema)); err != nil {
						t.Errorf("g%d subscribe: %v", g, err)
						return
					}
					mine = append(mine, id)
					submitted[g]++
				case op < 6:
					n := 2 + rng.IntN(4)
					ids := make([]subsume.ID, n)
					subs := make([]subsume.Subscription, n)
					for j := range ids {
						ids[j] = base + subsume.ID(10_000+i*10+j)
						subs[j] = randomTableSub(rng, schema)
					}
					if _, err := tbl.SubscribeBatch(ids, subs); err != nil {
						t.Errorf("g%d batch: %v", g, err)
						return
					}
					mine = append(mine, ids...)
					submitted[g] += n
				case op < 7 && len(mine) > 0:
					j := rng.IntN(len(mine))
					if _, err := tbl.Unsubscribe(mine[j]); err != nil {
						t.Errorf("g%d unsubscribe: %v", g, err)
						return
					}
					mine = slices.Delete(mine, j, j+1)
					cancelled[g]++
				case op == 7 && len(mine) > 3:
					// Cancellation burst through the batch path.
					n := 2 + rng.IntN(2)
					burst := make([]subsume.ID, n)
					for j := range burst {
						burst[j] = mine[len(mine)-1-j]
					}
					res, err := tbl.UnsubscribeBatch(burst)
					if err != nil {
						t.Errorf("g%d unsubscribe batch: %v", g, err)
						return
					}
					if res.Removed != n {
						t.Errorf("g%d unsubscribe batch removed %d, want %d", g, res.Removed, n)
						return
					}
					mine = mine[:len(mine)-n]
					cancelled[g] += n
				case op < 9:
					tbl.Match(subsume.NewPublication(rng.Int64N(1000), rng.Int64N(1000)))
				default:
					tbl.Snapshot()
				}
			}
			counts[g] = len(mine)
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want, subscribed, unsubscribed := 0, 0, 0
	for g := range counts {
		want += counts[g]
		subscribed += submitted[g]
		unsubscribed += cancelled[g]
	}
	snap := tbl.Snapshot()
	if snap.Len != want {
		t.Fatalf("Len = %d, want %d survivors", snap.Len, want)
	}
	if snap.Active+snap.Covered != snap.Len {
		t.Fatalf("active %d + covered %d != %d", snap.Active, snap.Covered, snap.Len)
	}
	m := tbl.Metrics()
	if m.Subscribes != uint64(subscribed) || m.Unsubscribes != uint64(unsubscribed) {
		t.Fatalf("metrics count %d subscribes, %d unsubscribes; goroutines made %d and %d",
			m.Subscribes, m.Unsubscribes, subscribed, unsubscribed)
	}
	if m.Batches == 0 || m.Matches == 0 {
		t.Fatalf("metrics missed activity: %+v", m)
	}
	if m.BatchItems < m.Batches*2 {
		t.Fatalf("batch accounting off: %+v", m)
	}
}

// TestTableBatchSuppression pins what the batch path buys on bursts:
// processed largest-first, the burst's broad subscriptions admit first
// and the narrow ones are suppressed, whereas per-item admission in
// arrival order activates narrow subscriptions that arrived early.
func TestTableBatchSuppression(t *testing.T) {
	schema := tableSchema()
	parent := subsume.NewSubscription(schema).Range("x", 0, 900).Range("y", 0, 900).Build()
	children := make([]subsume.Subscription, 8)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range children {
		lo := rng.Int64N(700)
		children[i] = subsume.NewSubscription(schema).
			Range("x", lo, lo+50).Range("y", lo, lo+50).Build()
	}
	// Arrival order: children first, parent last.
	burst := append(slices.Clone(children), parent)
	ids := make([]subsume.ID, len(burst))
	for i := range ids {
		ids[i] = subsume.ID(i + 1)
	}

	newTable := func() *subsume.Table {
		tbl, err := subsume.NewTable(subsume.Pairwise)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	perItem := newTable()
	for i, s := range burst {
		if _, err := perItem.Subscribe(ids[i], s); err != nil {
			t.Fatal(err)
		}
	}
	batched := newTable()
	if _, err := batched.SubscribeBatch(ids, burst); err != nil {
		t.Fatal(err)
	}
	if got := perItem.ActiveLen(); got != len(burst) {
		t.Fatalf("per-item in arrival order should keep all active (no reverse prune), got %d", got)
	}
	if got := batched.ActiveLen(); got != 1 {
		t.Fatalf("batch should admit only the parent active, got %d", got)
	}
	if got := batched.Metrics().Suppressed; got != uint64(len(children)) {
		t.Fatalf("Suppressed = %d, want %d", got, len(children))
	}
}

// TestTableValidation covers the public error paths.
func TestTableValidation(t *testing.T) {
	if _, err := subsume.NewTable(subsume.Policy(42)); err == nil {
		t.Error("invalid policy accepted")
	}
	// Checker options are checked where the checker is built: under
	// Group only.
	badChecker := subsume.WithTableChecker(subsume.WithErrorProbability(2))
	if _, err := subsume.NewTable(subsume.Group, badChecker); err == nil {
		t.Error("invalid checker option accepted under Group")
	}
	if _, err := subsume.NewTable(subsume.Pairwise, badChecker); err != nil {
		t.Errorf("checker option not ignored under Pairwise: %v", err)
	}
	tbl, err := subsume.NewTable(subsume.Flood)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Policy() != subsume.Flood {
		t.Fatalf("defaults off: policy=%v", tbl.Policy())
	}
	s := subsume.FromIntervals([2]int64{0, 9})
	if _, err := tbl.Subscribe(1, s); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Subscribe(1, s); !errors.Is(err, subsume.ErrDuplicateID) {
		t.Errorf("duplicate ID: err = %v, want ErrDuplicateID", err)
	}
	if _, _, ok := tbl.Get(1); !ok {
		t.Error("Get lost the subscription")
	}
	bad := subsume.FromIntervals([2]int64{9, 0})
	if _, err := tbl.Subscribe(2, bad); !errors.Is(err, subsume.ErrUnsatisfiable) {
		t.Errorf("unsatisfiable subscription: err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := tbl.Subscribe(2, s); err != nil {
		t.Errorf("ID 2 should be usable after a rejected admission: %v", err)
	}
	if _, err := tbl.SubscribeBatch([]subsume.ID{3, 3}, []subsume.Subscription{s, s}); !errors.Is(err, subsume.ErrDuplicateID) {
		t.Errorf("in-batch duplicate: err = %v, want ErrDuplicateID", err)
	}
	if _, err := tbl.SubscribeBatch([]subsume.ID{4, 5}, []subsume.Subscription{s, bad}); !errors.Is(err, subsume.ErrUnsatisfiable) {
		t.Errorf("unsatisfiable batch item: err = %v, want ErrUnsatisfiable", err)
	}
	if _, err := tbl.SubscribeBatch([]subsume.ID{4}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if tbl.Len() != 2 {
		t.Errorf("rejected batches left state behind: Len = %d, want 2", tbl.Len())
	}
	if res, err := tbl.Unsubscribe(999); err != nil || res.Existed {
		t.Errorf("unknown unsubscribe = (%+v, %v)", res, err)
	}
	if m := tbl.Metrics(); m.Subscribes != 2 || m.Unsubscribes != 0 {
		t.Errorf("rejected operations were counted: %+v", m)
	}
}
