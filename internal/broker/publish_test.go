package broker

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// narrowPopulation draws n subscriptions of the narrow comparison mix
// over 8 attributes, and per subscription one publication inside its
// box, so publications land where the subscriptions cluster.
func narrowPopulation(tb testing.TB, n int) ([]BatchSub, []subscription.Publication) {
	tb.Helper()
	return narrowPopulationOf(tb, n, 8)
}

// narrowPopulationOf is narrowPopulation over m attributes.
func narrowPopulationOf(tb testing.TB, n, m int) ([]BatchSub, []subscription.Publication) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(21, 22))
	stream, err := workload.NewComparisonStream(rng, workload.NarrowComparisonConfig(m))
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
// 8-attribute narrow-mix subscriptions from one client, with 0, 1 and
// 2 neighbour coverage tables, under each coverage policy. Every table
// holds every subscription; under pairwise and group a covered one also
// holds its coverer links. In the received case the subscriptions
// arrive over the one neighbour port instead, so no table takes them
// and each sits in that link's received set. The fanout-peak case is a
// lone broker at psbench fanout-1hop's peak: 120k 6-attribute
// subscriptions from one client.
func BenchmarkBrokerHeapPerSub(b *testing.B) {
	run := func(name string, policy store.Policy, tables int, from string, n, m int) {
		b.Run(name, func(b *testing.B) {
			var perSub float64
			for b.Loop() {
				perSub = heapPerSub(b, policy, tables, from, n, m)
			}
			b.ReportMetric(perSub, "B/sub")
		})
	}
	for _, policy := range []store.Policy{store.PolicyNone, store.PolicyPairwise, store.PolicyGroup} {
		for _, tables := range []int{0, 1, 2} {
			run(fmt.Sprintf("%s/tables-%d", policy, tables), policy, tables, "c", 20_000, 8)
		}
	}
	run("received", store.PolicyNone, 1, "n0", 20_000, 8)
	run("fanout-peak", store.PolicyNone, 0, "c", 120_000, 6)
}

// heapPerSub returns the heap a broker under policy with neighbour
// tables n0, n1, … and one client c holds per subscription once n
// narrow-mix subscriptions of m attributes from port from are admitted.
func heapPerSub(tb testing.TB, policy store.Policy, tables int, from string, n, m int) float64 {
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
	subs, _ := narrowPopulationOf(tb, n, m)
	subscribeSpread(tb, br, []string{from}, subs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(br)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// TestBrokerHeapPerRoute pins five figures BenchmarkBrokerHeapPerSub
// reads, each within 5 %: flood/tables-0, 326.0 B a route; received,
// 340.8 B a route that also sits in a link's received set; and what one
// neighbour table adds to flood/tables-0 (tables-1 less tables-0) under
// each policy: 197.5 B under flood, 147.7 under pairwise and 220.6
// under group. At this size a map keyed by route ID costs ~28 B a
// route, a map keyed by SubID ~43 B (with the route table and the
// received set such maps, the first two figures read 367.2 and 411.0),
// a copy of each row's ID and box in a cell index's slots ~37 B, and a
// box held as a slice header, or a port as a string, in the route or
// the store node 16 B (the figures read 342.0, 356.8, 213.3, 163.7 and
// 236.5 with both), so any of them coming back, into the broker or
// into a table, fails a pin; so does a map per forest node, which made
// a group table add 445.6 B. TestRouteNodeLayout names the record that
// grew.
func TestBrokerHeapPerRoute(t *testing.T) {
	if raceEnabled {
		t.Skip("the pins hold for the plain build; -race builds allocate differently")
	}
	const route, received = 326.0, 340.8
	base := heapPerSub(t, store.PolicyNone, 0, "c", 20_000, 8)
	if base > route*1.05 {
		t.Errorf("%.1f B a route, want at most %.1f (%.1f + 5 %%)", base, route*1.05, route)
	}
	if got := heapPerSub(t, store.PolicyNone, 1, "n0", 20_000, 8); got > received*1.05 {
		t.Errorf("%.1f B a received route, want at most %.1f (%.1f + 5 %%)", got, received*1.05, received)
	}
	for _, c := range []struct {
		policy store.Policy
		table  float64
	}{{store.PolicyNone, 197.5}, {store.PolicyPairwise, 147.7}, {store.PolicyGroup, 220.6}} {
		if got := heapPerSub(t, c.policy, 1, "c", 20_000, 8) - base; got > c.table*1.05 {
			t.Errorf("a %s table adds %.1f B a route, want at most %.1f (%.1f + 5 %%)", c.policy, got, c.table*1.05, c.table)
		}
	}
}

// TestRouteNodeLayout requires a route to fit the 48-byte size class,
// so that a field creeping back fails by name, not through a heap
// figure. The test of the same name in package store does the same for
// a coverage-table node.
func TestRouteNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(route{}); got > 48 {
		t.Errorf("a route takes %d B, want at most 48", got)
	}
}

// BenchmarkBrokerAdmit reports the cost of admitting 3,000 narrow-mix
// subscriptions from one client, in SUBBATCHes of 100, into a broker
// with 0, 1, 2, 4 and 8 neighbour coverage tables, under each coverage
// policy: ns/sub and allocs/sub over the admissions alone. Every table
// takes every arrival, so the spread across table counts is what each
// table's own decision costs; tables-0, the same under every policy,
// is the broker's own routing state alone, a single broker's
// admission. Under group it also reports the shape of
// the checker's work from CheckerStats: walked/op, the fraction of
// decisions the point walk settled, and rows/fallthrough, the candidate
// rows the checker decided over per decision the walk left to it.
func BenchmarkBrokerAdmit(b *testing.B) {
	const n, batch = 3000, 100
	subs, _ := narrowPopulation(b, n)
	for _, policy := range []store.Policy{store.PolicyNone, store.PolicyPairwise, store.PolicyGroup} {
		for _, tables := range []int{0, 1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/tables-%d", policy, tables), func(b *testing.B) {
				var mallocs uint64
				var stats store.CheckerStats
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
					stats.Add(br.CheckerStats())
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sub")
				b.ReportMetric(float64(mallocs)/float64(b.N*n), "allocs/sub")
				if stats.Calls > 0 {
					b.ReportMetric(float64(stats.Probed)/float64(stats.Calls), "walked/op")
					if fell := stats.Calls - stats.Probed; fell > 0 {
						b.ReportMetric(float64(stats.CandidateRows)/float64(fell), "rows/fallthrough")
					}
				}
			})
		}
	}
}

// A burst admission in the shape of psbench's fanout-1hop: burstBase
// routes of burstAttrs attributes on a lone broker, then burstSize more
// in SUBBATCHes of burstBatch.
const burstAttrs, burstBase, burstSize, burstBatch = 6, 20_000, 100_000, 100

// admitBurst admits burstBase routes, then the burst, cycles times,
// retiring it between cycles, and returns what the burst admissions
// cost: their garbage per route — what they allocated (TotalAlloc) less
// what the broker still holds after them (HeapAlloc, each read after a
// collection) — and their allocations. timer, when non-nil, is turned
// on around the burst admissions alone.
func admitBurst(tb testing.TB, subs []BatchSub, cycles int, timer func(on bool)) (garbage float64, mallocs uint64) {
	tb.Helper()
	br := newBroker(tb, store.PolicyGroup)
	br.AttachClient("c")
	handle := func(msg Message) {
		if _, err := br.Handle("c", msg); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < burstBase; i += burstBatch {
		handle(Message{Kind: MsgSubscribeBatch, Subs: subs[i : i+burstBatch]})
	}
	burst := subs[burstBase:]
	ids := make([]string, len(burst))
	for i, s := range burst {
		ids[i] = s.SubID
	}
	var before, after runtime.MemStats
	for c := range cycles {
		if c > 0 {
			for i := 0; i < len(ids); i += burstBatch {
				handle(Message{Kind: MsgUnsubscribeBatch, SubIDs: ids[i : i+burstBatch]})
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		if timer != nil {
			timer(true)
		}
		for i := 0; i < len(burst); i += burstBatch {
			handle(Message{Kind: MsgSubscribeBatch, Subs: burst[i : i+burstBatch]})
		}
		if timer != nil {
			timer(false)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		garbage += float64(int64(after.TotalAlloc-before.TotalAlloc) - (int64(after.HeapAlloc) - int64(before.HeapAlloc)))
		mallocs += after.Mallocs - before.Mallocs
	}
	runtime.KeepAlive(br)
	return garbage / float64(cycles*len(burst)), mallocs
}

// BenchmarkBrokerAdmitBurst reports fanout-1hop's admission on one
// broker: burstSize routes admitted onto burstBase, retired and
// admitted again, as ns/sub, allocs/sub and garbage B/route over the
// two burst admissions (see admitBurst). The second admission reuses
// the slots the retirement freed.
func BenchmarkBrokerAdmitBurst(b *testing.B) {
	subs, _ := narrowPopulationOf(b, burstBase+burstSize, burstAttrs)
	var garbage float64
	var mallocs uint64
	for b.Loop() {
		b.StopTimer()
		g, m := admitBurst(b, subs, 2, func(on bool) {
			if on {
				b.StartTimer()
			} else {
				b.StopTimer()
			}
		})
		garbage += g
		mallocs += m
		b.StartTimer()
	}
	admitted := float64(b.N * 2 * burstSize)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/admitted, "ns/sub")
	b.ReportMetric(float64(mallocs)/admitted, "allocs/sub")
	b.ReportMetric(garbage/float64(b.N), "garbage-B/route")
}

// TestBrokerBurstGarbage pins the garbage of fanout-1hop's first burst,
// burstSize routes admitted onto burstBase, at 30 B a route. The cell
// index grows by blocks it never copies and the route index probes
// once per fresh SubID, so what is left is the index's first block
// doubling and the routes' own growth; an index whose bitsets double
// and are copied, as they were, read 110.7 B a route.
func TestBrokerBurstGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("the pin holds for the plain build; -race builds allocate differently")
	}
	const pin = 30
	subs, _ := narrowPopulationOf(t, burstBase+burstSize, burstAttrs)
	got, _ := admitBurst(t, subs, 1, nil)
	t.Logf("%.1f B of garbage a route", got)
	if got > pin {
		t.Errorf("%.1f B of garbage a route, want at most %d", got, pin)
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

// TestNotifyOrderByClientName attaches two clients in reverse name
// order, with overlapping subscriptions admitted out of SubID order,
// and requires each publication's NOTIFYBATCH frames to leave in
// client-name order, each naming its SubIDs in ascending order. A
// client whose connection drops keeps its routes, and attaching again
// under its name, after a collection, keeps them grouping with the new
// ones: every route from one port carries the same interned handle.
func TestNotifyOrderByClientName(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	b.AttachClient("zed")
	b.AttachClient("amy")
	b.AttachClient("pub")
	box := func(lo, hi int64) subscription.Subscription {
		return subscription.New(interval.New(lo, hi), interval.New(0, 100))
	}
	subscribe := func(port string, subs ...BatchSub) {
		t.Helper()
		if _, err := b.Handle(port, Message{Kind: MsgSubscribeBatch, Subs: subs}); err != nil {
			t.Fatal(err)
		}
	}
	publish := func(pubID string, want ...string) {
		t.Helper()
		out, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: pubID, Pub: subscription.NewPublication(25, 50)})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(out))
		for i, o := range out {
			if o.Msg.Kind != MsgNotifyBatch {
				t.Fatalf("%s: output %d is a %v to %s, want a notify-batch", pubID, i, o.Msg.Kind, o.To)
			}
			got[i] = fmt.Sprintf("%s %v", o.To, o.Msg.SubIDs)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: frames %q, want %q", pubID, got, want)
		}
	}
	subscribe("zed", BatchSub{"z3", box(0, 50)}, BatchSub{"z10", box(10, 60)}, BatchSub{"z2", box(40, 100)})
	subscribe("amy", BatchSub{"a9", box(20, 80)}, BatchSub{"a1", box(0, 30)})
	publish("p1", "amy [a1 a9]", "zed [z10 z3]")

	runtime.GC()
	b.AttachClient("zed")
	subscribe("zed", BatchSub{"z1", box(20, 30)})
	if old, fresh := b.routes.get("z3"), b.routes.get("z1"); old.src != fresh.src {
		t.Fatalf("zed's routes from before and after it attached again carry different handles")
	}
	publish("p2", "amy [a1 a9]", "zed [z1 z10 z3]")
}
