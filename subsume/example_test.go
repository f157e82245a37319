package subsume_test

import (
	"fmt"

	"probsum/subsume"
)

// The paper's running example: two subscriptions jointly cover a third
// that neither covers alone.
func ExampleChecker_Covered() {
	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 10000),
		subsume.Attr("x2", 0, 10000),
	)
	s1 := subsume.NewSubscription(schema).Range("x1", 820, 850).Range("x2", 1001, 1007).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 840, 880).Range("x2", 1002, 1009).Build()
	s := subsume.NewSubscription(schema).Range("x1", 830, 870).Range("x2", 1003, 1006).Build()

	chk, _ := subsume.NewChecker(
		subsume.WithErrorProbability(1e-6),
		subsume.WithSeed(1, 2),
	)
	res, _ := chk.Covered(s, []subsume.Subscription{s1, s2})
	fmt.Println("covered:", res.Covered())
	// Output:
	// covered: true
}

// A definite NO always carries a geometric witness.
func ExampleResult_PolyhedronWitness() {
	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 10000),
		subsume.Attr("x2", 0, 10000),
	)
	s1 := subsume.NewSubscription(schema).Range("x1", 820, 850).Range("x2", 1002, 1009).Build()
	s2 := subsume.NewSubscription(schema).Range("x1", 840, 870).Range("x2", 1001, 1007).Build()
	s := subsume.NewSubscription(schema).Range("x1", 830, 890).Range("x2", 1003, 1006).Build()

	chk, _ := subsume.NewChecker(subsume.WithSeed(1, 2))
	res, _ := chk.Covered(s, []subsume.Subscription{s1, s2})
	fmt.Println("covered:", res.Covered())
	fmt.Println("uncovered region:", res.PolyhedronWitness())
	// Output:
	// covered: false
	// uncovered region: [871,890]x[1003,1006]
}

// Publications are points; matching a single subscription is exact.
func ExampleSubscription_Matches() {
	schema := subsume.NewSchema(
		subsume.Attr("price", 0, 1000),
		subsume.Attr("qty", 0, 100),
	)
	s := subsume.NewSubscription(schema).Range("price", 100, 500).Build()
	fmt.Println(s.Matches(subsume.NewPublication(250, 7)))
	fmt.Println(s.Matches(subsume.NewPublication(800, 7)))
	// Output:
	// true
	// false
}

// A Table is the maintained form of the coverage question a broker
// actually asks: admit a burst of subscriptions, suppress the ones the
// active set already covers, route publications, and promote covered
// subscriptions when their coverer cancels. Tables are safe for
// concurrent callers.
func ExampleTable() {
	schema := subsume.NewSchema(
		subsume.Attr("price", 0, 10_000),
		subsume.Attr("qty", 0, 1_000),
	)
	tbl, _ := subsume.NewTable(subsume.Group)

	broad := subsume.NewSubscription(schema).Range("price", 0, 5000).Build()
	mid := subsume.NewSubscription(schema).Range("price", 4000, 8000).Build()
	narrow := subsume.NewSubscription(schema).
		Range("price", 1000, 2000).Range("qty", 0, 500).Build()

	// One arrival burst: the batch path admits the broad subscriptions
	// first, so narrow is suppressed on arrival.
	results, _ := tbl.SubscribeBatch(
		[]subsume.ID{1, 2, 3},
		[]subsume.Subscription{broad, mid, narrow},
	)
	for i, r := range results {
		fmt.Printf("sub %d: %v %v\n", i+1, r.Status, r.Coverers)
	}
	fmt.Println("active:", tbl.ActiveLen(), "covered:", tbl.CoveredLen())

	// Publications match against the whole table (Algorithm 5).
	fmt.Println("match (1500, 100):", tbl.Match(subsume.NewPublication(1500, 100)))

	// When the coverer cancels, the suppressed subscription surfaces.
	ures, _ := tbl.Unsubscribe(1)
	fmt.Println("promoted:", ures.Promoted)
	// Output:
	// sub 1: active []
	// sub 2: active []
	// sub 3: covered [1]
	// active: 2 covered: 1
	// match (1500, 100): [1 3]
	// promoted: [3]
}
