package match

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// TestITreeIndexCrossCheck churns a dynamic index and cross-checks
// every Match against the brute-force scan.
func TestITreeIndexCrossCheck(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewPCG(3, 4))
	randomSub := func() subscription.Subscription {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := rng.Int64N(900)
			bounds[a] = interval.New(lo, lo+rng.Int64N(1000-lo))
		}
		return subscription.Subscription{Bounds: bounds}
	}

	idx := NewITreeIndex()
	var bf BruteForce
	live := map[ID]subscription.Subscription{}
	next := ID(0)
	for step := 0; step < 60; step++ {
		// Mutate: a few adds, sometimes a removal or replacement.
		for i := 0; i < 1+rng.IntN(20); i++ {
			next++
			s := randomSub()
			idx.Add(next, s)
			bf.Add(next, s)
			live[next] = s
		}
		if len(live) > 0 && rng.IntN(2) == 0 {
			for id := range live {
				idx.Remove(id)
				bf.Remove(id)
				delete(live, id)
				break
			}
		}
		if len(live) > 0 && rng.IntN(3) == 0 {
			for id := range live {
				s := randomSub()
				idx.Add(id, s) // replacement
				bf.Add(id, s)
				live[id] = s
				break
			}
		}
		if idx.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, idx.Len(), len(live))
		}
		for probe := 0; probe < 20; probe++ {
			vals := make([]int64, m)
			for a := range vals {
				vals[a] = rng.Int64N(1000)
			}
			p := subscription.Publication{Values: vals}
			if got, want := idx.Match(p), bf.Match(p); !slices.Equal(got, want) {
				t.Fatalf("step %d: index %v, brute force %v", step, got, want)
			}
		}
	}
}

// TestITreeIndexMixedSchemas pins the bucketing: subscriptions with
// different attribute counts coexist, and a publication consults only
// its own arity — the same contract as Subscription.Matches.
func TestITreeIndexMixedSchemas(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.New(0, 10)))
	idx.Add(2, subscription.New(interval.New(0, 10), interval.New(0, 10)))
	idx.Add(3, subscription.New(interval.New(5, 20)))

	if got := idx.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{1, 3}) {
		t.Fatalf("1-D match = %v, want [1 3]", got)
	}
	if got := idx.Match(subscription.NewPublication(7, 7)); !slices.Equal(got, []ID{2}) {
		t.Fatalf("2-D match = %v, want [2]", got)
	}
	if got := idx.Match(subscription.NewPublication(7, 7, 7)); got != nil {
		t.Fatalf("3-D match = %v, want nil", got)
	}
	idx.Remove(1)
	idx.Remove(99) // absent: no-op
	if got := idx.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{3}) {
		t.Fatalf("after remove = %v, want [3]", got)
	}
	idx.Remove(2) // the last of its arity: its index goes
	if len(idx.byArity) != 1 {
		t.Fatalf("%d arity indexes after the 2-D subscription left, want 1", len(idx.byArity))
	}
}

// TestITreeIndexEmptyBounds: a subscription with an empty bound
// (lo > hi) must be tolerated — it matches nothing. The broker feeds
// this index unvalidated wire input, so this is a hostile-input test.
func TestITreeIndexEmptyBounds(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.New(0, 100)))
	idx.Add(2, subscription.New(interval.Empty())) // lo > hi
	if got := idx.Match(subscription.NewPublication(7)); !slices.Equal(got, []ID{1}) {
		t.Fatalf("Match = %v, want [1]", got)
	}
	if idx.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (stored, even if unmatchable)", idx.Len())
	}
}

// oracle is the reference state of a churned index: the live set and
// the brute-force scan over it.
type oracle struct {
	live map[ID]subscription.Subscription
	bf   BruteForce
}

func newOracle() *oracle {
	return &oracle{live: map[ID]subscription.Subscription{}}
}

func (o *oracle) add(idx *ITreeIndex, id ID, s subscription.Subscription) {
	idx.Add(id, s)
	o.bf.Add(id, s)
	o.live[id] = s
}

func (o *oracle) remove(idx *ITreeIndex, id ID) {
	idx.Remove(id)
	o.bf.Remove(id)
	delete(o.live, id)
}

// check cross-checks Len, and Match on every probe, against the live
// set.
func (o *oracle) check(t *testing.T, idx *ITreeIndex, step int, probes []subscription.Publication) {
	t.Helper()
	if idx.Len() != len(o.live) {
		t.Fatalf("step %d: Len = %d, want %d", step, idx.Len(), len(o.live))
	}
	for _, p := range probes {
		got := idx.Match(p)
		want := o.bf.Match(p)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d, %v: index %v, brute force %v", step, p.Values, got, want)
		}
	}
}

// TestITreeIndexChurnBursts alternates bursts of adds and removals with
// long runs of single changes (adds, removals and replacements), and
// cross-checks every step against the brute-force scan.
func TestITreeIndexChurnBursts(t *testing.T) {
	const m = 2
	rng := rand.New(rand.NewPCG(11, 12))
	randomSub := func() subscription.Subscription {
		bounds := make([]interval.Interval, m)
		for a := range bounds {
			lo := rng.Int64N(180)
			bounds[a] = interval.New(lo, lo+rng.Int64N(200-lo))
		}
		if rng.IntN(4) == 0 { // hull-spanning on one attribute
			bounds[rng.IntN(m)] = interval.New(0, 199)
		}
		return subscription.Subscription{Bounds: bounds}
	}
	probes := func() []subscription.Publication {
		ps := make([]subscription.Publication, 12)
		for i := range ps {
			ps[i] = subscription.NewPublication(rng.Int64N(200), rng.Int64N(200))
		}
		return ps
	}
	pick := func(live map[ID]subscription.Subscription) ID {
		ids := make([]ID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[rng.IntN(len(ids))]
	}

	idx := NewITreeIndex()
	o := newOracle()
	next := ID(0)
	step := 0
	for round := 0; round < 8; round++ {
		// Burst: 150–300 adds and 40 removals in one go.
		for i := 0; i < 150+rng.IntN(150); i++ {
			next++
			o.add(idx, next, randomSub())
		}
		for i := 0; i < 40 && len(o.live) > 1; i++ {
			o.remove(idx, pick(o.live))
		}
		o.check(t, idx, step, probes())
		step++
		// Long run of single changes, each followed by a check.
		for i := 0; i < 90; i++ {
			switch op := rng.IntN(3); {
			case op == 0 || len(o.live) < 2:
				next++
				o.add(idx, next, randomSub())
			case op == 1:
				o.remove(idx, pick(o.live))
			default:
				o.add(idx, pick(o.live), randomSub()) // replacement
			}
			o.check(t, idx, step, probes())
			step++
		}
	}
}

// TestITreeIndexChurnCases pins the states churn reaches. Each case
// churns a 100-entry index and is cross-checked against the oracle,
// then takes a 100-entry burst beyond the first hull, which grows the
// bitsets, and is checked again.
func TestITreeIndexChurnCases(t *testing.T) {
	sub1 := func(lo, hi int64) subscription.Subscription { return subscription.New(interval.New(lo, hi)) }
	sub2 := func(lo, hi int64) subscription.Subscription {
		return subscription.New(interval.New(lo, hi), interval.New(lo, hi))
	}
	var probes []subscription.Publication
	for v := int64(0); v <= 1000; v += 10 {
		probes = append(probes, subscription.NewPublication(v), subscription.NewPublication(v, v))
	}
	for _, tc := range []struct {
		name  string
		churn func(idx *ITreeIndex, o *oracle)
	}{
		{"outside the hull", func(idx *ITreeIndex, o *oracle) {
			o.add(idx, 500, sub1(800, 900))
			o.add(idx, 501, sub1(0, 50))
		}},
		{"second arity", func(idx *ITreeIndex, o *oracle) {
			o.add(idx, 500, sub2(0, 1000))
			o.add(idx, 501, sub2(600, 700))
		}},
		{"replace an ID", func(idx *ITreeIndex, o *oracle) {
			o.add(idx, 7, sub1(900, 950))  // moves outside the hull
			o.add(idx, 8, sub2(100, 300))  // changes arity
			o.add(idx, 9, sub1(150, 160))  // narrows in place
			o.add(idx, 9, sub1(140, 1000)) // replaced again
		}},
		{"remove then re-add", func(idx *ITreeIndex, o *oracle) {
			o.remove(idx, 10)
			o.add(idx, 10, sub1(110, 210))
			o.add(idx, 500, sub1(600, 610))
			o.add(idx, 501, sub1(640, 650))
			o.remove(idx, 500) // frees the slot the next add reuses
			o.add(idx, 500, sub1(620, 630))
			o.remove(idx, 10)
		}},
		{"unsatisfiable", func(idx *ITreeIndex, o *oracle) {
			o.add(idx, 500, subscription.New(interval.Empty()))
			o.add(idx, 11, subscription.New(interval.Empty())) // over a satisfiable ID
			o.add(idx, 502, subscription.Subscription{})       // zero attributes
			o.add(idx, 503, sub1(0, 1000))
			o.remove(idx, 500)
		}},
		{"after removals", func(idx *ITreeIndex, o *oracle) {
			for id := ID(1); id <= 40; id++ {
				o.remove(idx, id) // the low end goes dark
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := NewITreeIndex()
			o := newOracle()
			for id := ID(1); id <= 100; id++ {
				o.add(idx, id, sub1(100+int64(id), 200+int64(id)))
			}
			o.check(t, idx, 0, probes)
			tc.churn(idx, o)
			o.check(t, idx, 1, probes)
			for id := ID(1000); id < 1100; id++ {
				o.add(idx, id, sub1(990, 1000))
			}
			o.check(t, idx, 2, probes)
		})
	}
}

// TestITreeIndexConcurrentChurn runs four readers against one writer
// that churns the index in place, and checks every answer against
// the writer's operation log. Subscriptions derive from their IDs and
// IDs are never reused, so an answer must hold every matching ID that
// was live for the whole call and nothing removed before the call
// began. Run it under -race.
func TestITreeIndexConcurrentChurn(t *testing.T) {
	const (
		stable  = 200 // IDs 1..stable are added first and never change
		ops     = 3000
		readers = 4
	)
	maxID := ID(stable + ops)
	subs := make([]subscription.Subscription, maxID+1)
	rng := rand.New(rand.NewPCG(31, 32))
	for id := range subs {
		lo1, lo2 := rng.Int64N(90), rng.Int64N(90)
		subs[id] = subscription.New(interval.New(lo1, lo1+rng.Int64N(30)), interval.New(lo2, lo2+rng.Int64N(30)))
	}
	// added and removed hold the operation number that added or removed
	// an ID (0: not yet); started and done bracket the operation in
	// flight. Every completed read ticks read, which paces the writer.
	added := make([]atomic.Int64, maxID+1)
	removed := make([]atomic.Int64, maxID+1)
	var started, done atomic.Int64
	read := make(chan struct{}, 1)

	idx := NewITreeIndex()
	for id := ID(1); id <= stable; id++ {
		added[id].Store(1)
		idx.Add(id, subs[id])
	}
	started.Store(1)
	done.Store(1)

	var wg sync.WaitGroup
	finished := make(chan struct{})
	wg.Add(1)
	go func() { // the writer: single changes, with a 150-add burst every 600 operations
		defer wg.Done()
		defer close(finished)
		r := rand.New(rand.NewPCG(33, 34))
		var live []ID
		next := ID(stable)
		for k := int64(2); k < ops+2; k++ {
			started.Store(k)
			if len(live) == 0 || k%600 < 150 || r.IntN(2) == 0 {
				next++
				added[next].Store(k)
				idx.Add(next, subs[next])
				live = append(live, next)
			} else {
				i := r.IntN(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				removed[id].Store(k)
				idx.Remove(id)
			}
			done.Store(k)
			<-read // let a read complete after every operation
		}
	}()
	// verify checks one answer against the log read around the call: s0
	// operations had completed before it, at most s1 had started after.
	verify := func(p subscription.Publication, got []ID, s0, s1 int64) error {
		var required, allowed []ID
		for id := ID(1); id <= maxID; id++ {
			a := added[id].Load()
			if a == 0 || !subs[id].Matches(p) {
				continue
			}
			rm := removed[id].Load()
			if rm == 0 || rm > s0 {
				allowed = append(allowed, id)
			}
			if a <= s0 && (rm == 0 || rm > s1) {
				required = append(required, id)
			}
		}
		if !slices.IsSorted(got) {
			return fmt.Errorf("Match(%v) = %v: not ascending", p.Values, got)
		}
		for _, id := range required {
			if _, ok := slices.BinarySearch(got, id); !ok {
				return fmt.Errorf("Match(%v) = %v misses %d, live throughout", p.Values, got, id)
			}
		}
		for _, id := range got {
			if _, ok := slices.BinarySearch(allowed, id); !ok {
				return fmt.Errorf("Match(%v) = %v holds %d, never live during the call", p.Values, got, id)
			}
		}
		return nil
	}
	var failed atomic.Bool
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 35))
			for {
				select {
				case <-finished:
					return
				default:
				}
				p := subscription.NewPublication(r.Int64N(125), r.Int64N(125))
				s0 := done.Load()
				got := idx.Match(p)
				s1 := started.Load()
				select {
				case read <- struct{}{}:
					runtime.Gosched() // hand the CPU to the writer
				default:
				}
				// Keep reading after a failure, or the writer starves;
				// report only the first.
				if err := verify(p, got, s0, s1); err != nil && failed.CompareAndSwap(false, true) {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// narrowPopulation draws n subscriptions of the narrow comparison mix
// over six attributes — the population psbench admits — and, for
// each, a publication inside it.
func narrowPopulation(tb testing.TB, n int) ([]subscription.Subscription, []subscription.Publication) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(21, 22))
	stream, err := workload.NewComparisonStream(rng, workload.NarrowComparisonConfig(6))
	if err != nil {
		tb.Fatal(err)
	}
	subs := make([]subscription.Subscription, n)
	pubs := make([]subscription.Publication, n)
	for i := range subs {
		s := stream.Next()
		vals := make([]int64, s.Len())
		for a, b := range s.Bounds {
			vals[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
		}
		subs[i], pubs[i] = s, subscription.Publication{Values: vals}
	}
	return subs, pubs
}

// TestITreeIndexAllocs pins the read path's allocations after churn has
// freed and reused slots: Match makes one, the exact-size result (the
// hits collect in pooled scratch).
func TestITreeIndexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const n = 600
	subs, pubs := narrowPopulation(t, n+20)
	idx := NewITreeIndex()
	for i := 0; i < n; i++ {
		idx.Add(ID(i), subs[i])
	}
	idx.Match(pubs[0])
	for i := 0; i < 20; i++ {
		idx.Remove(ID(7 * i))
		idx.Add(ID(n+i), subs[n+i])
	}
	idx.Add(ID(1), subs[2]) // a replaced entry
	i := 0
	if a := testing.AllocsPerRun(500, func() { idx.Match(pubs[i%len(pubs)]); i++ }); a > 1 {
		t.Errorf("Match allocates %.1f per call, want <= 1", a)
	}
}

// BenchmarkITreeIndexChurn is the broker's publish path under churn:
// 600 narrow-mix subscriptions, one Add or Remove per 10 Match calls.
func BenchmarkITreeIndexChurn(b *testing.B) {
	const n = 600
	subs, pubs := narrowPopulation(b, 2*n)
	idx := NewITreeIndex()
	for i := 0; i < n; i++ {
		idx.Add(ID(i), subs[i])
	}
	idx.Match(pubs[0])
	oldest, next := 0, n // live IDs are [oldest, next)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i%10 == 0 {
			if i%20 == 0 {
				idx.Remove(ID(oldest))
				oldest++
			} else {
				idx.Add(ID(next), subs[next%len(subs)])
				next++
			}
		}
		idx.Match(pubs[i%len(pubs)])
	}
}

// BenchmarkITreeIndexFanout is the fanout-1hop publish path: 20,000
// narrow-mix subscriptions, each publication drawn inside one of them.
// candidates/op is what the cell filter passes to the exact check.
func BenchmarkITreeIndexFanout(b *testing.B) {
	const n = 20_000
	subs, pubs := narrowPopulation(b, n)
	idx := NewITreeIndex()
	for i, s := range subs {
		idx.Add(ID(i), s)
	}
	idx.Match(pubs[0])
	c0, h0 := idx.FilterCounts()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		idx.Match(pubs[i%len(pubs)])
	}
	c1, h1 := idx.FilterCounts()
	b.ReportMetric(float64(c1-c0)/float64(b.N), "candidates/op")
	b.ReportMetric(float64(h1-h0)/float64(b.N), "hits/op")
}
