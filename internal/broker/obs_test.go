package broker

// Observability pins: the publish-stage observer must add zero
// allocations to the publish hot path, Metrics snapshots must be
// torn-free under concurrent mutation (-race), and the observer must
// actually time both stages.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"probsum/internal/obs"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

func TestPublishObserverTimesStages(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	b.AttachClient("C1")
	if _, err := b.Handle("C1", Message{Kind: MsgSubscribe, SubID: "s", Sub: box(0, 100, 0, 100)}); err != nil {
		t.Fatal(err)
	}
	// Manual clock: each call advances 1µs, so every stage measures a
	// deterministic nonzero duration.
	var now time.Duration
	po := &PublishObserver{
		Clock: func() time.Duration { now += time.Microsecond; return now },
		Match: obs.NewHistogram(),
		Route: obs.NewHistogram(),
	}
	b.SetPublishObserver(po)
	for i := 0; i < 5; i++ {
		if _, err := b.Handle("C2", Message{Kind: MsgPublish, PubID: fmt.Sprintf("p%d", i),
			Pub: subscription.NewPublication(5, 5)}); err != nil {
			t.Fatal(err)
		}
	}
	if c := po.Match.Snapshot().Count; c != 5 {
		t.Errorf("match observations = %d, want 5", c)
	}
	if c := po.Route.Snapshot().Count; c != 5 {
		t.Errorf("route observations = %d, want 5", c)
	}
	// Detach: further publishes must not observe (or read the clock).
	b.SetPublishObserver(nil)
	calls := 0
	po.Clock = func() time.Duration { calls++; return 0 }
	if _, err := b.Handle("C2", Message{Kind: MsgPublish, PubID: "pX",
		Pub: subscription.NewPublication(5, 5)}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || po.Match.Snapshot().Count != 5 {
		t.Error("detached observer still invoked")
	}
}

func TestSetPublishObserverValidates(t *testing.T) {
	b := newBroker(t, store.PolicyNone)
	defer func() {
		if recover() == nil {
			t.Error("incomplete observer accepted")
		}
	}()
	b.SetPublishObserver(&PublishObserver{Clock: func() time.Duration { return 0 }})
}

// TestPublishObserverZeroAlloc pins the acceptance criterion:
// attaching the stage observer adds zero allocations per publish. The
// means are compared unrounded: testing.AllocsPerRun truncates, and
// under -race, where sync.Pool drops items at random, a mean within a
// few hundredths of a whole number truncates to either side. An
// allocation the observer made on even half the publications would
// raise its mean by 0.5.
func TestPublishObserverZeroAlloc(t *testing.T) {
	mkBroker := func() *Broker {
		b := newBroker(t, store.PolicyPairwise)
		b.AttachClient("C1")
		if _, err := b.Handle("C1", Message{Kind: MsgSubscribe, SubID: "s", Sub: box(0, 100, 0, 100)}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Pre-generate distinct PubIDs so dedup never short-circuits and
	// ID formatting stays out of the measured region.
	const runs = 2000
	ids := make([]string, runs+10)
	for i := range ids {
		ids[i] = fmt.Sprintf("pub-%06d", i)
	}
	measure := func(b *Broker) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		publish := func(i int) {
			msg := Message{Kind: MsgPublish, PubID: ids[i], Pub: subscription.NewPublication(5, 5)}
			if _, err := b.Handle("C2", msg); err != nil {
				t.Fatal(err)
			}
		}
		publish(0) // warm-up, as in testing.AllocsPerRun
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= runs; i++ {
			publish(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	base := measure(mkBroker())
	withObs := mkBroker()
	epoch := time.Now()
	withObs.SetPublishObserver(&PublishObserver{
		Clock: func() time.Duration { return time.Since(epoch) },
		Match: obs.NewHistogram(),
		Route: obs.NewHistogram(),
	})
	observed := measure(withObs)
	if observed-base >= 0.5 {
		t.Fatalf("observer adds allocations on the publish path: %.2f with vs %.2f without", observed, base)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPublishAllocsFlatInFanout pins the batched notification path:
// a client holding 5 or 40 matching subscriptions gets one frame per
// publication either way, so Handle allocates the same number of
// times regardless of fan-out.
func TestPublishAllocsFlatInFanout(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const runs = 500
	ids := make([]string, runs+10)
	for i := range ids {
		ids[i] = fmt.Sprintf("pub-%06d", i)
	}
	measure := func(fanout int) float64 {
		b := newBroker(t, store.PolicyNone)
		b.AttachClient("S")
		for i := 0; i < fanout; i++ {
			if _, err := b.Handle("S", Message{Kind: MsgSubscribe, SubID: fmt.Sprintf("s%02d", i), Sub: box(0, 100, 0, 100)}); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			out, err := b.Handle("P", Message{Kind: MsgPublish, PubID: ids[i], Pub: subscription.NewPublication(5, 5)})
			i++
			if err != nil || len(out) != 1 || len(out[0].Msg.SubIDs) != fanout {
				t.Fatalf("publish: %d outbound, err %v; want one frame naming %d subscriptions", len(out), err, fanout)
			}
		})
	}
	if few, many := measure(5), measure(40); few != many {
		t.Fatalf("Handle allocates %.2f times at fan-out 5 but %.2f at fan-out 40", few, many)
	}
}

// TestMetricsSnapshotTornFree hammers every counter from concurrent
// writers while snapshotting and Add-ing; under -race this pins that
// counters.snapshot and Metrics.Add are data-race free, and it checks
// the final sums are exact (no lost increments).
func TestMetricsSnapshotTornFree(t *testing.T) {
	var c counters
	const (
		writers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var total Metrics
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.snapshot()
				// Counters only move forward; a torn read could not be
				// negative, but Add must also be race-free.
				total.Add(s)
				if s.PubsReceived < 0 || s.Notifications < 0 {
					t.Error("negative snapshot")
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.pubsReceived.Add(1)
				c.notifications.Add(1)
				c.subsReceived.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s := c.snapshot()
	want := writers * perW
	if s.PubsReceived != want || s.Notifications != want || s.SubsReceived != want {
		t.Fatalf("lost increments: %+v, want %d each", s, want)
	}
	var sum Metrics
	sum.Add(s)
	sum.Add(s)
	if sum.PubsReceived != 2*want {
		t.Fatalf("Add = %d, want %d", sum.PubsReceived, 2*want)
	}
}
