package broker

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"probsum/internal/store"
	"probsum/internal/subscription"
)

// TestConcurrentPublish drives the concurrency contract the TCP
// transport relies on: publications from many goroutines run in
// parallel (shared lock) while subscribes/unsubscribes interleave
// (exclusive lock), with duplicate suppression and metrics staying
// exact. The neighbor's coverage table has no lock of its own, so its
// readers — LinkDigest, LinkSync (NeighborRoots), CheckerStats and a
// sync request — run beside bursts that admit covered subscriptions
// and promote them by retiring their coverer, under each policy that
// covers. Run under -race in CI.
func TestConcurrentPublish(t *testing.T) {
	for _, policy := range []store.Policy{store.PolicyPairwise, store.PolicyGroup} {
		t.Run(policy.String(), func(t *testing.T) { testConcurrentPublish(t, policy) })
	}
}

func testConcurrentPublish(t *testing.T, policy store.Policy) {
	b := newBroker(t, policy)
	if err := b.ConnectNeighbor("N1"); err != nil {
		t.Fatal(err)
	}
	b.AttachClient("C0")
	for g := 0; g < 4; g++ {
		b.AttachClient(fmt.Sprintf("P%d", g))
	}
	// A standing subscription so publishes do real matching work.
	if _, err := b.Handle("C0", Message{Kind: MsgSubscribe, SubID: "base", Sub: box(0, 100, 0, 100)}); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 4
		pubsEach   = 200
	)
	// The table's readers, on the shared lock, until the writers stop.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := b.LinkDigest("N1"); !ok {
				t.Error("LinkDigest: N1 is not a neighbor")
				return
			}
			b.LinkSync("N1")
			b.CheckerStats()
			if _, err := b.Handle("N1", Message{Kind: MsgSyncRequest, Buckets: make([]uint64, DigestBuckets)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var notified atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			port := fmt.Sprintf("P%d", g)
			for i := 0; i < pubsEach; i++ {
				// Every 8th operation is a subscription churn on the
				// exclusive path, racing the shared publish path.
				if i%8 == 0 {
					subID := fmt.Sprintf("s%d-%d", g, i)
					if _, err := b.Handle(port, Message{Kind: MsgSubscribe, SubID: subID, Sub: box(10, 20, 10, 20)}); err != nil {
						t.Error(err)
						return
					}
					if _, err := b.Handle(port, Message{Kind: MsgUnsubscribe, SubID: subID}); err != nil {
						t.Error(err)
						return
					}
				}
				// Every 8th another is a burst in this goroutine's own
				// region, away from the publications: a root and two
				// disjoint boxes it covers, whose retirement promotes both.
				if i%8 == 4 {
					x := int64(200 + 100*g)
					root := fmt.Sprintf("r%d-%d", g, i)
					kids := []string{root + "a", root + "b"}
					for _, m := range []Message{
						{Kind: MsgSubscribeBatch, Subs: []BatchSub{
							{SubID: root, Sub: box(x, x+50, 0, 50)},
							{SubID: kids[0], Sub: box(x+10, x+20, 10, 20)},
							{SubID: kids[1], Sub: box(x+30, x+40, 10, 20)},
						}},
						{Kind: MsgUnsubscribeBatch, SubIDs: []string{root}},
						{Kind: MsgUnsubscribeBatch, SubIDs: kids},
					} {
						if _, err := b.Handle(port, m); err != nil {
							t.Error(err)
							return
						}
					}
				}
				outs, err := b.Handle(port, Message{
					Kind:  MsgPublish,
					PubID: fmt.Sprintf("p%d-%d", g, i),
					Pub:   subscription.NewPublication(50, 50),
				})
				if err != nil {
					t.Error(err)
					return
				}
				for _, o := range outs {
					if o.Msg.Kind == MsgNotifyBatch && o.To == "C0" {
						notified.Add(int64(len(o.Msg.SubIDs)))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	total := goroutines * pubsEach
	m := b.Metrics()
	if m.PubsReceived != total {
		t.Errorf("PubsReceived = %d, want %d", m.PubsReceived, total)
	}
	// Every publication matched the standing subscription exactly once.
	if got := notified.Load(); got != int64(total) {
		t.Errorf("notifications to C0 = %d, want %d", got, total)
	}
	if m.Notifications != total {
		t.Errorf("Notifications metric = %d, want %d", m.Notifications, total)
	}
	// Each burst's two covered boxes were promoted in N1's table.
	if want := goroutines * pubsEach / 8 * 2; m.Promotions != want {
		t.Errorf("Promotions = %d, want %d", m.Promotions, want)
	}
	if roots := b.NeighborRoots("N1"); len(roots) != 1 || roots[0].SubID != "base" {
		t.Errorf("N1's roots after the churn = %v, want only base", roots)
	}

	// Duplicate suppression is exact under racing re-publishes.
	var dupWg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		dupWg.Add(1)
		go func(g int) {
			defer dupWg.Done()
			for i := 0; i < 50; i++ {
				if _, err := b.Handle(fmt.Sprintf("P%d", g), Message{Kind: MsgPublish, PubID: "dup", Pub: subscription.NewPublication(1, 1)}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	dupWg.Wait()
	m = b.Metrics()
	if m.PubsReceived != total+1 {
		t.Errorf("after dup storm: PubsReceived = %d, want %d", m.PubsReceived, total+1)
	}
	if m.DupPubsDropped != goroutines*50-1 {
		t.Errorf("DupPubsDropped = %d, want %d", m.DupPubsDropped, goroutines*50-1)
	}
}

// TestConcurrentSlotReuse retires and re-admits routes of two attribute
// counts over and over, so their slots are freed and taken again, while
// publications of both counts read the slot tables under the shared
// lock. Every publication notifies C of its standing route exactly once,
// and W of churn routes only, each named once. Run under -race in CI.
func TestConcurrentSlotReuse(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	if err := b.ConnectNeighbor("N1"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"C", "W", "P0", "P1"} {
		b.AttachClient(c)
	}
	points := []subscription.Publication{
		subscription.NewPublication(50, 50),
		subscription.NewPublication(50, 50, 50),
	}
	for i, p := range points {
		base := BatchSub{SubID: fmt.Sprintf("base%d", i), Sub: boxM(len(p.Values), 0, 100, 100)}
		if _, err := b.Handle("C", Message{Kind: MsgSubscribeBatch, Subs: []BatchSub{base}}); err != nil {
			t.Fatal(err)
		}
	}

	const cycles, pubsEach = 200, 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the churn: 8 routes of each count per cycle, all matching
		defer wg.Done()
		defer close(done)
		for c := range cycles {
			var burst []BatchSub
			var ids []string
			for k := range 16 {
				id := fmt.Sprintf("w%d-%d", c, k)
				burst = append(burst, BatchSub{SubID: id, Sub: boxM(2+k%2, int64(k), 100, 100)})
				ids = append(ids, id)
			}
			for _, m := range []Message{
				{Kind: MsgSubscribeBatch, Subs: burst},
				{Kind: MsgUnsubscribeBatch, SubIDs: ids},
			} {
				if _, err := b.Handle("W", m); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := range 2 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			port := fmt.Sprintf("P%d", g)
			// At least pubsEach publications, and on until the churn ends.
			for i := 0; ; i++ {
				if i >= pubsEach {
					select {
					case <-done:
						return
					default:
					}
				}
				p := points[(g+i)%2]
				out, err := b.Handle(port, Message{Kind: MsgPublish, PubID: fmt.Sprintf("%s-%d", port, i), Pub: p})
				if err != nil {
					t.Error(err)
					return
				}
				base := 0
				for _, o := range out {
					switch {
					case o.To == "C":
						base += len(o.Msg.SubIDs)
						if want := fmt.Sprintf("base%d", len(p.Values)-2); !slices.Equal(o.Msg.SubIDs, []string{want}) {
							t.Errorf("publication %v notified C of %v, want [%s]", p.Values, o.Msg.SubIDs, want)
						}
					case o.To == "W":
						if len(o.Msg.SubIDs) > 8 || !slices.IsSorted(o.Msg.SubIDs) || slices.ContainsFunc(o.Msg.SubIDs, func(id string) bool { return id[0] != 'w' }) {
							t.Errorf("publication %v notified W of %v", p.Values, o.Msg.SubIDs)
						}
					}
				}
				if base != 1 {
					t.Errorf("publication %v notified C %d times", p.Values, base)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Only the standing routes are left, in two tables whose slots were
	// reused rather than grown per admission.
	if n := b.SubscriptionCount(); n != 2 {
		t.Fatalf("%d routes left, want 2", n)
	}
	for _, tbl := range b.tables {
		if tbl.Len() != 1 || tbl.Slots() > 9 {
			t.Errorf("count %d: %d live routes in %d slots, want 1 in at most 9", tbl.Attrs(), tbl.Len(), tbl.Slots())
		}
	}
}
