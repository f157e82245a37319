package broker

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// narrowPopulation draws n subscriptions of the narrow comparison mix
// over 8 attributes, and per subscription one publication inside its
// box, so publications land where the subscriptions cluster.
func narrowPopulation(tb testing.TB, n int) ([]BatchSub, []subscription.Publication) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(21, 22))
	stream, err := workload.NewComparisonStream(rng, workload.NarrowComparisonConfig(8))
	if err != nil {
		tb.Fatal(err)
	}
	subs := make([]BatchSub, n)
	pubs := make([]subscription.Publication, n)
	for i := range subs {
		s := stream.Next()
		vals := make([]int64, s.Len())
		for a, b := range s.Bounds {
			vals[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
		}
		subs[i] = BatchSub{SubID: "s" + strconv.Itoa(i), Sub: s}
		pubs[i] = subscription.Publication{Values: vals}
	}
	return subs, pubs
}

// subscribeSpread subscribes subs round-robin over the client ports,
// one SUBBATCH per port.
func subscribeSpread(tb testing.TB, b *Broker, clients []string, subs []BatchSub) {
	tb.Helper()
	per := make([][]BatchSub, len(clients))
	for i, s := range subs {
		per[i%len(clients)] = append(per[i%len(clients)], s)
	}
	for i, c := range clients {
		if _, err := b.Handle(c, Message{Kind: MsgSubscribeBatch, Subs: per[i]}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkBrokerPublish publishes through Broker.Handle into 20k
// narrow-mix subscriptions spread over N client ports. Every case
// delivers the same notifications for the same publications, so the
// ns/op spread across N is what the number of ports costs; run with a
// fixed -benchtime Nx to compare notifications/op across cases.
func BenchmarkBrokerPublish(b *testing.B) {
	subs, pubs := narrowPopulation(b, 20_000)
	for _, n := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("clients-%d", n), func(b *testing.B) {
			br := newBroker(b, store.PolicyNone)
			clients := make([]string, n)
			for i := range clients {
				clients[i] = fmt.Sprintf("c%04d", i)
				br.AttachClient(clients[i])
			}
			br.AttachClient("pub")
			subscribeSpread(b, br, clients, subs)
			before := br.Metrics().Notifications
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				msg := Message{Kind: MsgPublish, PubID: strconv.Itoa(i), Pub: pubs[i%len(pubs)]}
				if _, err := br.Handle("pub", msg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(br.Metrics().Notifications-before)/float64(b.N), "notifications/op")
		})
	}
}

// BenchmarkBrokerHeapPerSub reports the heap a broker holds per
// subscription — boxes, IDs and routing state included — after 20k
// narrow-mix subscriptions from one client, with 0, 1 and 2 neighbour
// coverage tables, under each coverage policy. Every table holds every
// subscription; under pairwise and group a covered one also holds its
// coverer links.
func BenchmarkBrokerHeapPerSub(b *testing.B) {
	for _, policy := range []store.Policy{store.PolicyNone, store.PolicyPairwise, store.PolicyGroup} {
		for _, tables := range []int{0, 1, 2} {
			b.Run(fmt.Sprintf("%s/tables-%d", policy, tables), func(b *testing.B) {
				var perSub float64
				for b.Loop() {
					perSub = heapPerSub(b, policy, tables, 20_000)
				}
				b.ReportMetric(perSub, "B/sub")
			})
		}
	}
}

// heapPerSub returns the heap a broker under policy with the given
// number of neighbour tables holds per subscription once n narrow-mix
// subscriptions from one client are admitted.
func heapPerSub(tb testing.TB, policy store.Policy, tables, n int) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	br := newBroker(tb, policy)
	for i := range tables {
		if err := br.ConnectNeighbor(fmt.Sprintf("n%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	br.AttachClient("c")
	subs, _ := narrowPopulation(tb, n)
	subscribeSpread(tb, br, []string{"c"}, subs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(br)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// TestBrokerHeapPerRoute pins what BenchmarkBrokerHeapPerSub's
// flood/tables-0 case reads, 404.5 B a route, within 5 %: a map keyed
// by route ID costs ~28 B a route at this size, so one coming back
// fails the pin.
func TestBrokerHeapPerRoute(t *testing.T) {
	if raceEnabled {
		t.Skip("the pin holds for the plain build; -race builds allocate differently")
	}
	const pinned = 404.5
	if got := heapPerSub(t, store.PolicyNone, 0, 20_000); got > pinned*1.05 {
		t.Errorf("%.1f B a route, want at most %.1f (%.1f + 5 %%)", got, pinned*1.05, pinned)
	}
}

// BenchmarkBrokerAdmit reports the cost of admitting 3,000 narrow-mix
// subscriptions from one client, in SUBBATCHes of 100, into a broker
// with 1, 2, 4 and 8 neighbour coverage tables, under each coverage
// policy: ns/sub and allocs/sub over the admissions alone. Every table
// takes every arrival, so the spread across table counts is what each
// table's own decision costs.
func BenchmarkBrokerAdmit(b *testing.B) {
	const n, batch = 3000, 100
	subs, _ := narrowPopulation(b, n)
	for _, policy := range []store.Policy{store.PolicyNone, store.PolicyPairwise, store.PolicyGroup} {
		for _, tables := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/tables-%d", policy, tables), func(b *testing.B) {
				var mallocs uint64
				for b.Loop() {
					b.StopTimer()
					br := newBroker(b, policy)
					for i := range tables {
						if err := br.ConnectNeighbor(fmt.Sprintf("n%d", i)); err != nil {
							b.Fatal(err)
						}
					}
					br.AttachClient("c")
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.StartTimer()
					for i := 0; i < n; i += batch {
						if _, err := br.Handle("c", Message{Kind: MsgSubscribeBatch, Subs: subs[i : i+batch]}); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					mallocs += after.Mallocs - before.Mallocs
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sub")
				b.ReportMetric(float64(mallocs)/float64(b.N*n), "allocs/sub")
			})
		}
	}
}

// TestCollectsAfterShedding checks that the broker asks for one
// collection when an unsubscription burst leaves it half the routes of
// its peak, and none while its peak is under shedCollectMin. Automatic
// collection is off, so every cycle counted is one the broker asked
// for.
func TestCollectsAfterShedding(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	br := newBroker(t, store.PolicyNone)
	br.AttachClient("c")
	subs, _ := narrowPopulation(t, shedCollectMin)
	subscribeSpread(t, br, []string{"c"}, subs)
	// unsubscribe retires subs[from:to] in one burst and returns the
	// number of collections that ran meanwhile.
	unsubscribe := func(from, to int) uint32 {
		t.Helper()
		ids := make([]string, 0, to-from)
		for _, s := range subs[from:to] {
			ids = append(ids, s.SubID)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := br.Handle("c", Message{Kind: MsgUnsubscribeBatch, SubIDs: ids}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.NumGC - before.NumGC
	}
	half, quarter := shedCollectMin/2, shedCollectMin/4
	if n := unsubscribe(0, half-1); n != 0 {
		t.Errorf("%d routes of %d left: %d collections, want 0", shedCollectMin-half+1, shedCollectMin, n)
	}
	if n := unsubscribe(half-1, half); n != 1 {
		t.Errorf("%d routes of %d left: %d collections, want 1", half, shedCollectMin, n)
	}
	if n := unsubscribe(half, shedCollectMin-quarter); n != 0 {
		t.Errorf("%d routes of a %d peak left: %d collections, want 0", quarter, half, n)
	}
}

// TestPublishAllocs pins the allocations of one publication through
// Handle: a broker with one subscriber client and 20 matching routes,
// and a broker with neighbours only, where a publication from one is
// forwarded to the two that announced its 2 matching routes. The
// counts are the outbound slice and, when a client matched, its
// SubIDs: the stab's hits live in a pooled scratch, and up to 64 of
// their routes on the stack. The message stays on the stack, since
// only the state-changing kinds hand it to the journal, and the dedup
// window's insert allocates nothing once its tables have grown. A
// publish run pays its allocations once, not per publication.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const runs = 500
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = "p" + strconv.Itoa(i)
	}
	measure := func(b *Broker, from string, pub subscription.Publication, wantOut int) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			out, err := b.Handle(from, Message{Kind: MsgPublish, PubID: ids[i], Pub: pub})
			i++
			if err != nil || len(out) != wantOut {
				t.Fatalf("publish: %d outbound, err %v; want %d", len(out), err, wantOut)
			}
		})
	}
	// boxes returns k boxes containing (50, 50) and k that do not.
	boxes := func(prefix string, k int) []BatchSub {
		var subs []BatchSub
		for i := range k {
			lo := int64(i % 40)
			subs = append(subs,
				BatchSub{SubID: fmt.Sprintf("%s-in%d", prefix, i), Sub: box(lo, 60+lo, 10+lo, 70+lo)},
				BatchSub{SubID: fmt.Sprintf("%s-out%d", prefix, i), Sub: box(lo, 40+lo, 0, 100)})
		}
		return subs
	}
	pub := subscription.NewPublication(50, 50)

	client := newBroker(t, store.PolicyNone)
	client.AttachClient("S")
	client.AttachClient("P")
	if _, err := client.Handle("S", Message{Kind: MsgSubscribeBatch, Subs: boxes("s", 20)}); err != nil {
		t.Fatal(err)
	}
	if got, want := measure(client, "P", pub, 1), 2.0; got != want {
		t.Errorf("one client, 20 hits: %.1f allocs per publication, want %.1f", got, want)
	}

	neighbours := newBroker(t, store.PolicyNone)
	for _, n := range []string{"N1", "N2", "N3"} {
		if err := neighbours.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"N2", "N3"} {
		if _, err := neighbours.Handle(n, Message{Kind: MsgSubscribeBatch, Subs: boxes(n, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := measure(neighbours, "N1", pub, 2), 1.0; got != want {
		t.Errorf("neighbours only, 2 hits: %.1f allocs per publication, want %.1f", got, want)
	}

	// A run of 32 publications from N1 that each hit N2 alone leaves as
	// one PUBBATCH. The run's allocations do not grow with its length:
	// the per-neighbour index of batches, N2's batch and the outbound
	// slice, each once.
	const runLen, runRuns = 32, 100
	run := newBroker(t, store.PolicyNone)
	for _, n := range []string{"N1", "N2"} {
		if err := run.ConnectNeighbor(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.Handle("N2", Message{Kind: MsgSubscribeBatch, Subs: boxes("N2", 1)}); err != nil {
		t.Fatal(err)
	}
	batches := make([][]BatchPub, runRuns+1)
	for i := range batches {
		batches[i] = make([]BatchPub, runLen)
		for k := range batches[i] {
			batches[i][k] = BatchPub{PubID: fmt.Sprintf("r%d-%d", i, k), Pub: pub}
		}
	}
	i := 0
	got := testing.AllocsPerRun(runRuns, func() {
		out, err := run.Handle("N1", Message{Kind: MsgPublishBatch, Pubs: batches[i]})
		i++
		if err != nil || len(out) != 1 || len(out[0].Msg.Pubs) != runLen {
			t.Fatalf("publish run: %d outbound, err %v; want one batch of %d", len(out), err, runLen)
		}
	})
	if want := 3.0; got != want {
		t.Errorf("a run of %d, each hitting one neighbour: %.1f allocs per run, want %.1f", runLen, got, want)
	}
}
