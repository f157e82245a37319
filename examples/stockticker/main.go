// Stock ticker: a concurrent subscription feed against one shared
// coverage table.
//
// A subsume.Table is safe for concurrent callers, so one table can
// serve many trading desks at once: each desk goroutine registers its
// interests as a burst through SubscribeBatch — a broad desk-level
// subscription plus many narrow per-trader refinements — while ticker
// goroutines concurrently route trades with Match. The batch path
// admits each burst largest-first, so the desk-level subscription
// suppresses the per-trader ones on arrival and the active set (what
// a broker would forward upstream) stays a fraction of the population.
//
// Run with: go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"probsum/subsume"
)

const (
	symbols  = 400 // symbol universe, attribute "sym"
	desks    = 8   // concurrent subscriber goroutines
	traders  = 48  // per-trader subscriptions per desk
	tickers  = 4   // concurrent publisher goroutines
	tickerN  = 500 // trades per ticker goroutine
	priceMax = 100_000
)

func main() {
	schema := subsume.NewSchema(
		subsume.Attr("sym", 0, symbols-1),
		subsume.Attr("price", 0, priceMax), // cents
		subsume.Attr("size", 0, 1_000_000),
	)
	table, err := subsume.NewTable(subsume.Group,
		subsume.WithTableChecker(subsume.WithSeed(2026, 1)))
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: every desk subscribes concurrently, one burst each.
	var wg sync.WaitGroup
	for d := 0; d < desks; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(d), 99))
			// The desk watches a contiguous symbol block end to end.
			symLo := int64(d * symbols / desks)
			symHi := int64((d+1)*symbols/desks - 1)
			ids := []subsume.ID{subsume.ID(d * 10_000)}
			subs := []subsume.Subscription{
				subsume.NewSubscription(schema).Range("sym", symLo, symHi).Build(),
			}
			// Traders refine: single symbol, a price band, a size floor.
			for tr := 1; tr <= traders; tr++ {
				sym := symLo + rng.Int64N(symHi-symLo+1)
				lo := rng.Int64N(priceMax / 2)
				ids = append(ids, subsume.ID(d*10_000+tr))
				subs = append(subs, subsume.NewSubscription(schema).
					Range("sym", sym, sym).
					Range("price", lo, lo+rng.Int64N(priceMax-lo)).
					Range("size", rng.Int64N(10_000), 1_000_000).
					Build())
			}
			if _, err := table.SubscribeBatch(ids, subs); err != nil {
				log.Fatalf("desk %d: %v", d, err)
			}
		}(d)
	}
	wg.Wait()

	snap := table.Snapshot()
	fmt.Printf("subscriptions: %d total, %d active, %d covered (%.0f%% suppressed)\n",
		snap.Len, snap.Active, snap.Covered, 100*float64(snap.Covered)/float64(snap.Len))

	// Phase 2: tickers publish trades concurrently while a churn
	// goroutine cancels and re-adds desk subscriptions (promoting and
	// re-suppressing traders under the feed).
	var delivered atomic.Int64
	for g := 0; g < tickers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < tickerN; i++ {
				trade := subsume.NewPublication(
					rng.Int64N(symbols), rng.Int64N(priceMax+1), rng.Int64N(1_000_001),
				)
				delivered.Add(int64(len(table.Match(trade))))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := 0; d < desks; d++ {
			if _, err := table.Unsubscribe(subsume.ID(d * 10_000)); err != nil {
				log.Fatalf("churn: %v", err)
			}
			sub, err := subsume.NewSubscription(schema).
				Range("sym", int64(d*symbols/desks), int64((d+1)*symbols/desks-1)).
				Checked()
			if err != nil {
				log.Fatalf("churn: %v", err)
			}
			if _, err := table.Subscribe(subsume.ID(d*10_000+9_999), sub); err != nil {
				log.Fatalf("churn: %v", err)
			}
		}
	}()
	wg.Wait()

	m := table.Metrics()
	fmt.Printf("routed %d trades, %d matches delivered\n", tickers*tickerN, delivered.Load())
	fmt.Printf("table metrics: %d subscribes (%d batched), %d suppressed, %d promotions\n",
		m.Subscribes, m.BatchItems, m.Suppressed, m.Promotions)
}
