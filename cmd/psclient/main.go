// Command psclient is a publish/subscribe client for brokerd — a thin
// wrapper over pubsub.Dial.
//
// Usage:
//
//	# subscribe and stream notifications (Ctrl-C to stop)
//	psclient -broker localhost:7001 -name alice \
//	         -subscribe '{"x1":[0,500]}' \
//	         -schema '[{"name":"x1","lo":0,"hi":10000},{"name":"x2","lo":0,"hi":10000}]'
//
//	# a burst: repeated -subscribe flags travel as ONE SUBBATCH frame
//	# and are admitted by the broker as one batch
//	psclient -broker localhost:7001 -name alice \
//	         -subscribe '{"x1":[0,500]}' -subscribe '{"x1":[100,200]}' -schema '...'
//
//	# publish one event
//	psclient -broker localhost:7002 -name bob \
//	         -publish '{"x1":42,"x2":7}' -schema '...'
//
//	# self-probe latency: subscribe, publish -count probes that match,
//	# and print the publish-to-notify latency histogram
//	psclient -broker localhost:7001 -name probe -stats -count 50 \
//	         -subscribe '{"x1":[0,500]}' -publish '{"x1":42,"x2":7}' -schema '...'
//
// The connection speaks the broker's one binary frame dialect; a
// broker on another frame version refuses the handshake and psclient
// exits with the error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probsum/internal/obs"
	"probsum/pubsub"
	"probsum/subsume"
)

// jsonList collects repeated -subscribe flags.
type jsonList []string

func (l *jsonList) String() string { return fmt.Sprint([]string(*l)) }

func (l *jsonList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "psclient: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var subsIn jsonList
	var (
		brokerAddr = flag.String("broker", "127.0.0.1:7001", "broker address")
		name       = flag.String("name", "", "client name (required, unique per broker)")
		schemaIn   = flag.String("schema", "", "schema JSON (required)")
		pubIn      = flag.String("publish", "", "publication JSON: publish once and exit")
		subID      = flag.String("sub-id", "", "subscription id prefix (default <name>/1..N)")
		pubID      = flag.String("pub-id", "", "publication id (default <name>/p1)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-operation deadline")
		stats      = flag.Bool("stats", false, "self-probe latency mode: subscribe, publish -count probes matching the subscription, print the publish-to-notify latency histogram")
		count      = flag.Int("count", 20, "probe publications to send in -stats mode")
	)
	flag.Var(&subsIn, "subscribe", "subscription JSON: stream notifications until interrupted (repeatable; several travel as one batch frame)")
	flag.Parse()

	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	if *schemaIn == "" {
		return fmt.Errorf("-schema is required")
	}
	schema, err := subsume.UnmarshalSchema([]byte(*schemaIn))
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	client, err := pubsub.Dial(ctx, *brokerAddr, *name)
	cancel()
	if err != nil {
		return err
	}
	defer client.Close()

	opCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), *timeout)
	}

	switch {
	case *stats:
		// The broker never notifies a publication's own source port, so
		// the self-probe publishes through a second connection.
		ctx, cancel := opCtx()
		pubClient, err := pubsub.Dial(ctx, *brokerAddr, *name+"-pub")
		cancel()
		if err != nil {
			return err
		}
		defer pubClient.Close()
		return runStats(client, pubClient, schema, subsIn, *pubIn, *name, *count, opCtx)
	case len(subsIn) > 0:
		batch := make([]pubsub.BatchSub, len(subsIn))
		for i, in := range subsIn {
			sub, err := subsume.UnmarshalSubscription([]byte(in), schema)
			if err != nil {
				return fmt.Errorf("subscription %d: %w", i+1, err)
			}
			id := fmt.Sprintf("%s/%d", *name, i+1)
			if *subID != "" {
				if len(subsIn) == 1 {
					id = *subID
				} else {
					id = fmt.Sprintf("%s/%d", *subID, i+1)
				}
			}
			batch[i] = pubsub.BatchSub{SubID: id, Sub: sub}
		}
		ctx, cancel := opCtx()
		if len(batch) == 1 {
			err = client.Subscribe(ctx, batch[0].SubID, batch[0].Sub)
		} else {
			// A burst travels as one SUBBATCH frame and is admitted by
			// the broker's coverage tables as one batch.
			err = client.SubscribeBatch(ctx, batch)
		}
		cancel()
		if err != nil {
			return err
		}
		for _, it := range batch {
			fmt.Printf("subscribed as %s: %v\n", it.SubID, it.Sub)
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		for {
			select {
			case n, ok := <-client.Notifications():
				if !ok {
					return fmt.Errorf("connection closed")
				}
				fmt.Printf("notify %s: %v (matched %s)\n", n.PubID, n.Pub, n.SubID)
			case <-sig:
				return nil
			}
		}
	case *pubIn != "":
		pub, err := subsume.UnmarshalPublication([]byte(*pubIn), schema)
		if err != nil {
			return err
		}
		id := *pubID
		if id == "" {
			id = *name + "/p1"
		}
		ctx, cancel := opCtx()
		err = client.Publish(ctx, id, pub)
		cancel()
		if err != nil {
			return err
		}
		fmt.Printf("published %s: %v\n", id, pub)
		return nil
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -subscribe or -publish")
	}
}

// runStats is the -stats self-probe loop: the subscribing connection
// installs the probe subscription, the publishing connection sends
// probe events that match it, and every delivery resolves against its
// publish stamp in a shared ClientStats — the same histogram code the
// broker registry uses — which is printed as a latency profile on
// exit.
func runStats(subClient, pubClient *pubsub.Client, schema *subsume.Schema, subsIn jsonList, pubIn, name string, count int,
	opCtx func() (context.Context, context.CancelFunc)) error {
	if len(subsIn) == 0 || pubIn == "" {
		return fmt.Errorf("-stats needs both -subscribe (the probe target) and -publish (the probe event)")
	}
	sub, err := subsume.UnmarshalSubscription([]byte(subsIn[0]), schema)
	if err != nil {
		return err
	}
	pub, err := subsume.UnmarshalPublication([]byte(pubIn), schema)
	if err != nil {
		return err
	}
	ctx, cancel := opCtx()
	err = subClient.Subscribe(ctx, name+"/probe", sub)
	cancel()
	if err != nil {
		return err
	}
	if err := awaitProbeRoute(subClient, pubClient, pub, name, opCtx); err != nil {
		return err
	}
	cs := pubsub.NewClientStats()
	subClient.SetStats(cs)
	pubClient.SetStats(cs)
	for i := 0; i < count; i++ {
		ctx, cancel := opCtx()
		err := pubClient.Publish(ctx, fmt.Sprintf("%s/p%d", name, i+1), pub)
		cancel()
		if err != nil {
			return err
		}
		// Drain until this probe's notification arrives so probes do not
		// queue behind each other and inflate the measurement.
		for cs.Pending() > 0 {
			if _, ok := <-subClient.Notifications(); !ok {
				return fmt.Errorf("connection closed after %d probes", i)
			}
		}
	}
	printHistogram(cs.Snapshot(), count)
	return nil
}

// awaitProbeRoute publishes unmeasured warm-up events until one is
// delivered. The subscription and the probes leave over two
// connections, and a send returns before its frame is on the wire, so
// the broker may see the first probe before the subscription it
// should match; the measured probes start once the route is in place.
func awaitProbeRoute(subClient, pubClient *pubsub.Client, pub subsume.Publication, name string,
	opCtx func() (context.Context, context.CancelFunc)) error {
	ctx, cancel := opCtx()
	defer cancel()
	retry := time.NewTicker(50 * time.Millisecond)
	defer retry.Stop()
	for i := 1; ; i++ {
		if err := pubClient.Publish(ctx, fmt.Sprintf("%s/warm%d", name, i), pub); err != nil {
			return err
		}
		select {
		case _, ok := <-subClient.Notifications():
			if !ok {
				return fmt.Errorf("connection closed before the probe subscription took effect")
			}
			return nil
		case <-retry.C:
		case <-ctx.Done():
			return fmt.Errorf("probe subscription never took effect: %w", ctx.Err())
		}
	}
}

// printHistogram renders one latency profile: headline quantiles plus
// the populated log2 buckets.
func printHistogram(s obs.HistSnapshot, probes int) {
	fmt.Printf("publish-to-notify latency over %d probes (%d measured):\n", probes, s.Count)
	fmt.Printf("  mean %v  p50 %v  p99 %v  max %v\n",
		time.Duration(s.MeanNs()), time.Duration(s.Quantile(0.50)),
		time.Duration(s.Quantile(0.99)), time.Duration(s.MaxNs))
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		fmt.Printf("  <= %12v  %d\n", time.Duration(obs.BucketUpperNs(i)), n)
	}
}
