package drive

import (
	"context"
	"slices"
	"testing"
	"time"

	"probsum/bench/gen"
	"probsum/pubsub"
)

var spec = gen.Spec{Base: 300, FanMin: 1, FanMax: 6, Pool: 64, Burst: 200, Singles: 20, Churn: 40, Retire: 50}

// chain builds B1–B2–B3 on an in-process TCP transport with P at B1
// holding the sentinel subscription and S at B3.
func chain(t *testing.T, policy pubsub.Policy) (*Engine, *pubsub.TCPTransport) {
	t.Helper()
	in, err := gen.New(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pubsub.NewTCPTransport(policy, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tr.Shutdown(ctx)
	})
	for _, id := range []string{"B1", "B2", "B3"} {
		if _, err := tr.AddBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]string{{"B1", "B2"}, {"B2", "B3"}} {
		if err := tr.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := opCtx()
	defer cancel()
	p, err := tr.Open(ctx, "P", "B1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.Open(ctx, "S", "B3")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe(ctx, sentinelID, gen.SentinelSub()); err != nil {
		t.Fatal(err)
	}
	return &Engine{In: in, P: p, S: s, Live: gen.NewMatcher(), Timeout: 5 * time.Second}, tr
}

// The admission barrier rests on one property: frames are handled in
// order per connection and per link, so when P holds the sentinel that
// S published after its subscriptions, every broker on the way has
// handled those subscriptions. Under the flood policy nothing is
// suppressed, so B1 must by then have received every one of them.
func TestBarrierOrdersAdmission(t *testing.T) {
	e, tr := chain(t, pubsub.Flood)
	if err := e.AwaitPath(); err != nil {
		t.Fatal(err)
	}
	b1, _ := tr.Broker("B1")
	before := b1.Metrics().SubsReceived // P's sentinel subscription
	sent := 0
	for _, step := range []struct {
		refs  []gen.Ref
		batch int
	}{{e.In.Refs(gen.Base), 100}, {e.In.Refs(gen.Burst), 7}, {e.In.Refs(gen.Single), 1}} {
		if err := e.Subscribe(step.refs, step.batch); err != nil {
			t.Fatal(err)
		}
		sent += len(step.refs)
		if err := e.Barrier(); err != nil {
			t.Fatal(err)
		}
		if got := b1.Metrics().SubsReceived - before; got != sent {
			t.Fatalf("after the barrier B1 has received %d of the %d subscriptions sent", got, sent)
		}
	}
	if e.Failed != 0 || e.BarrierTimeouts != 0 {
		t.Fatalf("tally reports failures: %+v", e.Tally)
	}
}

// A full pass over the phases of a round against brokers that reduce
// with the group policy: every delivery set must equal the brute-force
// reference, before and after churn.
func TestPhasesDeliverTheReference(t *testing.T) {
	e, _ := chain(t, pubsub.Group)
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}
	lat, err := e.Publish(PubPhase{Count: 100, Window: 1, Points: e.In.Pool, Slice: 30, KeepLatencies: true})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Completed != 100 || len(lat.Latencies) != 100 || len(lat.ScaledLatencies) != 100 {
		t.Fatalf("latency phase completed %d with %d samples, %d scaled", lat.Completed, len(lat.Latencies), len(lat.ScaledLatencies))
	}
	// Slices of 30, 30, 30 and 10: a speed sample before the first and
	// after each.
	if len(lat.Slowdowns) != 5 {
		t.Errorf("%d speed samples around four slices, want 5", len(lat.Slowdowns))
	}
	lo, hi := slices.Min(lat.Slowdowns), slices.Max(lat.Slowdowns)
	if lo <= 0 || float64(lat.Scaled) < float64(lat.Elapsed)/hi*0.999 || float64(lat.Scaled) > float64(lat.Elapsed)/lo*1.001 {
		t.Errorf("scaled time %v outside elapsed %v over the slow-downs seen [%v, %v]", lat.Scaled, lat.Elapsed, lo, hi)
	}
	if whole, err := e.Publish(PubPhase{Count: 40, Window: Window, Points: e.In.Pool}); err != nil || whole.Scaled != whole.Elapsed || len(whole.Slowdowns) != 0 {
		t.Errorf("a phase without slices: %v, scaled %v of %v, %d speed samples", err, whole.Scaled, whole.Elapsed, len(whole.Slowdowns))
	}
	thr, err := e.Publish(PubPhase{Count: 300, Window: Window, Points: e.In.Pool, ChurnEvery: 5, Slice: 70})
	if err != nil {
		t.Fatal(err)
	}
	if thr.Completed != 300 || len(thr.Slowdowns) != 6 || thr.Scaled <= 0 {
		t.Errorf("throughput phase: %d completed, %d speed samples, scaled %v", thr.Completed, len(thr.Slowdowns), thr.Scaled)
	}
	elapsed, scaled, err := e.Admit(e.In.Refs(gen.Burst), 50, 80)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 || scaled <= 0 || e.Live.Len() != len(e.In.Refs(gen.Base))+len(e.In.Refs(gen.Burst))+churnLive(e) {
		t.Errorf("admission: %v elapsed, %v scaled, %d live", elapsed, scaled, e.Live.Len())
	}
	if _, err := e.SingleLatencies(e.In.Refs(gen.Single)); err != nil {
		t.Fatal(err)
	}
	if err := e.Unsubscribe(e.In.Retire, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	audit := e.AuditPoints(64)
	if len(audit) == 0 {
		t.Fatal("no audit point has a delivery set")
	}
	grew := false
	for i, p := range audit {
		grew = grew || len(p.Expect) != len(e.In.Pool[i].Expect)
	}
	if !grew {
		t.Error("the audit reference equals the base reference: the churn changed nothing")
	}
	if _, err := e.Publish(PubPhase{Count: len(audit), Window: Window, Points: audit}); err != nil {
		t.Fatal(err)
	}
	if e.Failed != 0 || e.DeliveriesMissing != 0 || e.DeliveriesSpurious != 0 {
		t.Fatalf("deliveries differ from the reference: %+v", e.Tally)
	}
	if e.DeliveriesExpected == 0 || e.Attempted < 400 {
		t.Fatalf("nothing was checked: %+v", e.Tally)
	}
}

// churnLive counts the churn subscriptions the reference holds.
func churnLive(e *Engine) int {
	n := 0
	for i := range e.In.Subs[gen.Churn] {
		if e.Live.Has(gen.MakeRef(gen.Churn, i)) {
			n++
		}
	}
	return n
}

// The oracle must notice both kinds of wrong delivery set.
func TestOracleCountsWrongDeliveries(t *testing.T) {
	e, _ := chain(t, pubsub.Group)
	if err := e.Setup(); err != nil {
		t.Fatal(err)
	}

	// Spurious: the reference leaves out a subscription S does hold.
	short := make([]gen.Point, 0, 8)
	for _, p := range e.In.Pool {
		if len(p.Expect) >= 2 && len(short) < 8 {
			short = append(short, gen.Point{Pub: p.Pub, Expect: p.Expect[:len(p.Expect)-1]})
		}
	}
	if len(short) == 0 {
		t.Skip("no pool point with two matches")
	}
	if _, err := e.Publish(PubPhase{Count: len(short), Window: 1, Points: short}); err != nil {
		t.Fatal(err)
	}
	// The surplus delivery may arrive after its publication completed;
	// one more correct publication drains it.
	if _, err := e.Publish(PubPhase{Count: 1, Window: 1, Points: e.In.Pool[:1]}); err != nil {
		t.Fatal(err)
	}
	if e.DeliveriesSpurious == 0 || e.Failed == 0 {
		t.Fatalf("surplus deliveries went unnoticed: %+v", e.Tally)
	}

	// Missing: the reference names a subscription S never announced.
	e.Timeout = 300 * time.Millisecond // the phase below ends by stalling this long
	failed := e.Failed
	ghost := gen.Point{Pub: e.In.Pool[0].Pub, Expect: append(append([]gen.Ref(nil), e.In.Pool[0].Expect...), gen.MakeRef(gen.Burst, 0))}
	if _, err := e.Publish(PubPhase{Count: 1, Window: 1, Points: []gen.Point{ghost}}); err == nil {
		t.Fatal("a publication that can never complete did not fail its phase")
	}
	if e.DeliveriesMissing != 1 || e.Failed != failed+1 {
		t.Fatalf("the missing delivery was not counted once: %+v", e.Tally)
	}
}

func TestBarrierTimesOutWithoutSentinelPath(t *testing.T) {
	e, _ := chain(t, pubsub.Group)
	e.Timeout = 200 * time.Millisecond
	ctx, cancel := opCtx()
	defer cancel()
	if err := e.P.Unsubscribe(ctx, sentinelID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the retraction travel; nothing can confirm it
	if err := e.Barrier(); err == nil {
		t.Fatal("a barrier without a sentinel subscription returned")
	}
	if e.BarrierTimeouts != 1 || e.Failed != 1 {
		t.Fatalf("the time-out was not counted: %+v", e.Tally)
	}
}
