package benchcases

// Wire benchmarks: codec micro-benchmarks and end-to-end
// TCP bodies shared between pubsub's bench tests and cmd/paperbench's
// benchjson snapshot, so the BENCH_*.json trajectory lines up with
// `go test -bench` output.
//
// WireCodecEncode/Decode are pure CPU and feed the regression gate;
// the TCP bodies measure wall clock over real sockets (scheduler and
// loopback noise included) and stay informational in the gate.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/pubsub"
)

// wireFrame builds the benchmark frame shapes: "pub" is the
// wire-dominant publish frame (8 attributes), "subbatch" a 64-item
// subscription burst.
func wireFrame(shape string) *pubsub.Frame {
	switch shape {
	case "pub":
		return &pubsub.Frame{Msg: &broker.Message{
			Kind:  broker.MsgPublish,
			PubID: "bench-client/pub-123456",
			Pub:   subscription.NewPublication(17, 4211, 998877, 3, 52, 0, 1<<40, 100),
		}}
	case "subbatch":
		subs := make([]broker.BatchSub, 64)
		for i := range subs {
			lo := int64(i * 13)
			subs[i] = broker.BatchSub{
				SubID: fmt.Sprintf("bench-client/sub-%d", i),
				Sub: subscription.New(
					interval.New(lo, lo+50), interval.New(0, 1000),
					interval.New(lo*7, lo*7+3), interval.New(-500, 500),
				),
			}
		}
		return &pubsub.Frame{Msg: &broker.Message{Kind: broker.MsgSubscribeBatch, Subs: subs}}
	default:
		panic("unknown wire frame shape " + shape)
	}
}

// WireCodecEncode measures marshaling one frame into a reused buffer.
func WireCodecEncode(b *testing.B, shape string) {
	fr := wireFrame(shape)
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = pubsub.MarshalFrame(pubsub.CodecBinary5, buf[:0], fr)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// WireCodecDecode measures decoding one pre-encoded frame.
func WireCodecDecode(b *testing.B, shape string) {
	data, err := pubsub.MarshalFrame(pubsub.CodecBinary5, nil, wireFrame(shape))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pubsub.UnmarshalFrame(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TCPPublishPublishers is the concurrent publisher connection count of
// the TCPPublish body.
const TCPPublishPublishers = 4

// TCPPublish is the end-to-end wire benchmark: publish throughput
// through one TCP broker with 4 subscriber connections × 256 random
// boxes and 4 concurrent publisher connections. The reported µs/pub
// covers client encode, socket, broker decode + coalesced dispatch,
// matching, and notification fan-out.
func TCPPublish(b *testing.B) {
	ctx := context.Background()
	hub, err := pubsub.ListenBroker("HUB", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hub.Shutdown(sctx)
	}()

	rng := rand.New(rand.NewPCG(11, 12))
	const (
		subClients    = 4
		subsPerClient = 256
	)
	var drainers sync.WaitGroup
	for i := 0; i < subClients; i++ {
		sub, err := pubsub.Dial(ctx, hub.Addr(), fmt.Sprintf("sub%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		for j := 0; j < subsPerClient; j++ {
			lo1, lo2 := rng.Int64N(90), rng.Int64N(90)
			s := subscription.New(interval.New(lo1, lo1+10), interval.New(lo2, lo2+10))
			if err := sub.Subscribe(ctx, fmt.Sprintf("s%d-%d", i, j), s); err != nil {
				b.Fatal(err)
			}
		}
		drainers.Add(1)
		go func(c *pubsub.Client) {
			defer drainers.Done()
			for range c.Notifications() {
			}
		}(sub)
	}
	want := subClients * subsPerClient
	waitFor(b, 10*time.Second, func() bool { return hub.Metrics().SubsReceived == want })

	pubs := make([]*pubsub.Client, TCPPublishPublishers)
	for i := range pubs {
		c, err := pubsub.Dial(ctx, hub.Addr(), fmt.Sprintf("pub%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		pubs[i] = c
	}

	before := hub.Metrics().PubsReceived
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, c := range pubs {
		wg.Add(1)
		go func(i int, c *pubsub.Client) {
			defer wg.Done()
			prng := rand.New(rand.NewPCG(uint64(i), 99))
			for n := i; n < b.N; n += TCPPublishPublishers {
				p := subscription.NewPublication(prng.Int64N(101), prng.Int64N(101))
				if err := c.Publish(ctx, fmt.Sprintf("b%d-%d", i, n), p); err != nil {
					b.Error(err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	// The op ends when the broker has processed the publication, not
	// merely when the frame left the client.
	waitFor(b, 60*time.Second, func() bool { return hub.Metrics().PubsReceived >= before+b.N })
	b.StopTimer()
}

// TCPPublishBatchSize is the per-frame burst of the pubbatch variant.
const TCPPublishBatchSize = 16

// TCPPublishBatch is the deliberate producer-side batching variant of
// TCPPublish: the same subscriber population and publisher count, but
// each publisher sends its publications as PUBBATCH frames of
// TCPPublishBatchSize through Client.PublishBatch — one frame encode,
// one socket write, and one broker lock acquisition per batch instead
// of per publication. The reported time is still per publication.
func TCPPublishBatch(b *testing.B) {
	ctx := context.Background()
	hub, err := pubsub.ListenBroker("HUB", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hub.Shutdown(sctx)
	}()

	rng := rand.New(rand.NewPCG(11, 12))
	const (
		subClients    = 4
		subsPerClient = 256
	)
	var drainers sync.WaitGroup
	for i := 0; i < subClients; i++ {
		sub, err := pubsub.Dial(ctx, hub.Addr(), fmt.Sprintf("sub%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		for j := 0; j < subsPerClient; j++ {
			lo1, lo2 := rng.Int64N(90), rng.Int64N(90)
			s := subscription.New(interval.New(lo1, lo1+10), interval.New(lo2, lo2+10))
			if err := sub.Subscribe(ctx, fmt.Sprintf("s%d-%d", i, j), s); err != nil {
				b.Fatal(err)
			}
		}
		drainers.Add(1)
		go func(c *pubsub.Client) {
			defer drainers.Done()
			for range c.Notifications() {
			}
		}(sub)
	}
	want := subClients * subsPerClient
	waitFor(b, 10*time.Second, func() bool { return hub.Metrics().SubsReceived == want })

	pubs := make([]*pubsub.Client, TCPPublishPublishers)
	for i := range pubs {
		c, err := pubsub.Dial(ctx, hub.Addr(), fmt.Sprintf("pub%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		pubs[i] = c
	}

	before := hub.Metrics().PubsReceived
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, c := range pubs {
		wg.Add(1)
		go func(i int, c *pubsub.Client) {
			defer wg.Done()
			prng := rand.New(rand.NewPCG(uint64(i), 99))
			batch := make([]pubsub.BatchPub, 0, TCPPublishBatchSize)
			for n := i; n < b.N; n += TCPPublishPublishers {
				batch = append(batch, pubsub.BatchPub{
					PubID: fmt.Sprintf("b%d-%d", i, n),
					Pub:   subscription.NewPublication(prng.Int64N(101), prng.Int64N(101)),
				})
				if len(batch) == TCPPublishBatchSize {
					if err := c.PublishBatch(ctx, batch); err != nil {
						b.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				if err := c.PublishBatch(ctx, batch); err != nil {
					b.Error(err)
				}
			}
		}(i, c)
	}
	wg.Wait()
	waitFor(b, 60*time.Second, func() bool { return hub.Metrics().PubsReceived >= before+b.N })
	b.StopTimer()
}

// TCPSubscribeBurst measures a subscription burst (256 tiles) plus
// its cancellation through one TCP broker: per item (512 frames per
// op) or batched (one SUBBATCH + one UNSUBBATCH per op, admitted as
// one Table batch call each). The table returns to empty every
// iteration, so ops are steady state.
func TCPSubscribeBurst(b *testing.B, batch bool) {
	ctx := context.Background()
	hub, err := pubsub.ListenBroker("HUB", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hub.Shutdown(sctx)
	}()
	// A peer link so the burst exercises coverage-table admission and
	// forwarding, not just reverse-path bookkeeping.
	peer, err := pubsub.ListenBroker("PEER", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		peer.Shutdown(sctx)
	}()
	if err := hub.ConnectPeer("PEER", peer.Addr()); err != nil {
		b.Fatal(err)
	}
	if err := peer.ConnectPeer("HUB", hub.Addr()); err != nil {
		b.Fatal(err)
	}
	c, err := pubsub.Dial(ctx, hub.Addr(), "burster")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const burst = 256
	subs := make([]pubsub.BatchSub, burst)
	ids := make([]string, burst)
	received := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range subs {
			// Non-overlapping tiles: every item admits active and
			// forwards, the worst case for per-frame overhead.
			lo := int64(j * 10)
			ids[j] = fmt.Sprintf("i%d-s%d", i, j)
			subs[j] = pubsub.BatchSub{
				SubID: ids[j],
				Sub:   subscription.New(interval.New(lo, lo+5), interval.New(0, 5)),
			}
		}
		if batch {
			if err := c.SubscribeBatch(ctx, subs); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, it := range subs {
				if err := c.Subscribe(ctx, it.SubID, it.Sub); err != nil {
					b.Fatal(err)
				}
			}
		}
		received += burst
		waitFor(b, 30*time.Second, func() bool { return hub.Metrics().SubsReceived >= received })
		if batch {
			if err := c.UnsubscribeBatch(ctx, ids); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, id := range ids {
				if err := c.Unsubscribe(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
		}
		waitFor(b, 30*time.Second, func() bool { return hub.Metrics().UnsubsForwarded >= received })
	}
	b.StopTimer()
}

func waitFor(b *testing.B, d time.Duration, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatal("benchmark condition not reached")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
