package match

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

func TestITreeEmpty(t *testing.T) {
	idx := NewITreeIndex()
	p := subscription.NewPublication(5)
	if got := idx.Match(p); got != nil {
		t.Errorf("empty index: Match = %v", got)
	}
	idx.Add(1, subscription.New(interval.Empty()))
	if got := idx.Match(p); got != nil {
		t.Errorf("unsatisfiable only: Match = %v", got)
	}
}

func TestITreeSingleAndPointIntervals(t *testing.T) {
	idx := NewITreeIndex()
	idx.Add(1, subscription.New(interval.Point(5)))
	idx.Add(2, subscription.New(interval.Point(5))) // duplicate point interval
	idx.Add(3, subscription.New(interval.New(3, 7)))
	idx.Add(4, subscription.New(interval.New(9, 9)))
	for _, tc := range []struct {
		v    int64
		want []ID
	}{
		{v: 5, want: []ID{1, 2, 3}},
		{v: 3, want: []ID{3}},
		{v: 9, want: []ID{4}},
		{v: 8, want: nil},
		{v: -100, want: nil},
	} {
		if got := idx.Match(subscription.NewPublication(tc.v)); !slices.Equal(got, tc.want) {
			t.Errorf("Match(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestITreeMatchesLinearScan(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed1, seed2 uint64) bool {
		r := rand.New(rand.NewPCG(seed1, seed2))
		idx := NewITreeIndex()
		ivs := make([]interval.Interval, 1+r.IntN(60))
		for i := range ivs {
			lo := r.Int64N(100)
			ivs[i] = interval.New(lo, lo+r.Int64N(100-lo))
			idx.Add(ID(i), subscription.New(ivs[i]))
		}
		for probe := 0; probe < 30; probe++ {
			v := r.Int64N(120) - 10
			var want []ID
			for i, iv := range ivs {
				if iv.Contains(v) {
					want = append(want, ID(i))
				}
			}
			if !slices.Equal(idx.Match(subscription.NewPublication(v)), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestITreeDeepSkewedInput(t *testing.T) {
	// Nested intervals all overlap the middle cells; a staircase of
	// points puts about three in each cell. Both must stay exact.
	nested, stairs := NewITreeIndex(), NewITreeIndex()
	for i := 0; i < 200; i++ {
		nested.Add(ID(i), subscription.New(interval.New(int64(i), int64(400-i))))
		stairs.Add(ID(i), subscription.New(interval.Point(int64(2*i))))
	}
	if got := nested.Match(subscription.NewPublication(200)); len(got) != 200 {
		t.Errorf("nested Match(200) found %d of 200", len(got))
	}
	if got := nested.Match(subscription.NewPublication(0)); len(got) != 1 {
		t.Errorf("nested Match(0) found %d, want 1", len(got))
	}
	for _, v := range []int64{0, 100, 398} {
		if got := stairs.Match(subscription.NewPublication(v)); len(got) != 1 {
			t.Errorf("stairs Match(%d) found %d, want 1", v, len(got))
		}
	}
	if got := stairs.Match(subscription.NewPublication(399)); len(got) != 0 {
		t.Errorf("stairs Match(399) found %d, want 0", len(got))
	}
}

// TestITreeIndexGridEdges cross-checks the cell arithmetic where it can
// go wrong. Each case indexes IDs 1..n
// (slot i holds ID i+1), removes some of them, and probes the rest.
func TestITreeIndexGridEdges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	iv := interval.New
	pub := subscription.NewPublication
	rng := rand.New(rand.NewPCG(41, 42))
	cross := func(a, b []int64) (ps []subscription.Publication) {
		for _, u := range a {
			for _, v := range b {
				ps = append(ps, pub(u, v))
			}
		}
		return ps
	}
	// random draws n subscriptions of arity m over [0, 999], one
	// attribute in four hull-spanning, and a probe inside each.
	random := func(n, m int) (subs []subscription.Subscription, ps []subscription.Publication) {
		for range n {
			bounds, vals := make([]interval.Interval, m), make([]int64, m)
			for a := range bounds {
				l := rng.Int64N(990)
				bounds[a] = iv(l, l+rng.Int64N(10))
				if rng.IntN(4) == 0 {
					bounds[a] = iv(0, 999)
				}
				vals[a] = bounds[a].Lo + rng.Int64N(bounds[a].Hi-bounds[a].Lo+1)
			}
			subs = append(subs, subscription.Subscription{Bounds: bounds})
			ps = append(ps, subscription.Publication{Values: vals})
		}
		return subs, ps
	}
	// lastWord returns the IDs in the slots of an n-slot index's last
	// bitset word.
	lastWord := func(n int) (ids []ID) {
		for pos := (n - 1) / 64 * 64; pos < n; pos++ {
			ids = append(ids, ID(pos+1))
		}
		return ids
	}
	type gridCase struct {
		name   string
		subs   []subscription.Subscription
		probes []subscription.Publication
		tomb   []ID
	}
	cell := int64(1) << 58 // the cell width of a [MinInt64, MaxInt64] hull
	cases := []gridCase{
		{
			name: "full int64 hull",
			subs: []subscription.Subscription{
				subscription.New(iv(lo, -5), iv(0, 9)),
				subscription.New(iv(10, hi), iv(0, 9)),
				subscription.New(iv(lo, hi), iv(3, 4)),
				subscription.New(iv(-1, 1), iv(0, 9)),
				subscription.New(iv(lo+cell, lo+2*cell-1), iv(0, 9)),
				subscription.New(iv(hi-1, hi), iv(5, 9)),
			},
			probes: cross([]int64{lo, lo + 1, lo + cell - 1, lo + cell, lo + 2*cell - 1, lo + 2*cell,
				-5, -4, -1, 0, 1, 9, 10, hi - 1, hi}, []int64{0, 3, 5, 9, 10}),
		},
		{
			name: "point hull",
			subs: []subscription.Subscription{
				subscription.New(iv(7, 7), iv(0, 5)),
				subscription.New(iv(7, 7), iv(5, 9)),
				subscription.New(iv(7, 7), iv(2, 2)),
			},
			probes: cross([]int64{6, 7, 8}, []int64{-1, 0, 2, 5, 9, 10}),
		},
		{
			// Hull [0, 6399] on x1: cells are 100 wide, edges at
			// multiples of 100.
			name: "cell and hull edges",
			subs: []subscription.Subscription{
				subscription.New(iv(0, 99), iv(0, 9)),
				subscription.New(iv(99, 100), iv(0, 9)),
				subscription.New(iv(100, 199), iv(0, 9)),
				subscription.New(iv(101, 200), iv(0, 9)),
				subscription.New(iv(199, 201), iv(0, 9)),
				subscription.New(iv(200, 200), iv(0, 9)),
				subscription.New(iv(6299, 6300), iv(0, 9)),
				subscription.New(iv(6300, 6399), iv(0, 9)),
				subscription.New(iv(0, 6399), iv(4, 4)),
			},
			probes: cross([]int64{-1, 0, 1, 98, 99, 100, 101, 198, 199, 200, 201, 202,
				6298, 6299, 6300, 6301, 6398, 6399, 6400}, []int64{-1, 0, 4, 9, 10}),
		},
	}
	subs, ps := random(100, 20)
	cases = append(cases, gridCase{name: "arity 20", subs: subs, probes: ps})
	for _, n := range []int{63, 64, 65} {
		subs, ps := random(n, 2)
		cases = append(cases, gridCase{name: fmt.Sprintf("%d positions, last word tombstoned", n), subs: subs, probes: ps, tomb: lastWord(n)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx, o := NewITreeIndex(), newOracle()
			for i, s := range tc.subs {
				o.add(idx, ID(i+1), s)
			}
			for _, id := range tc.tomb {
				o.remove(idx, id)
			}
			o.check(t, idx, 0, tc.probes)
		})
	}
}

// TestITreeIndexOutlierHull is the documented worst case: one outlier
// stretches x1's hull so far that every other predicate falls in cell
// 0 and x1 filters nothing. The answer stays exact; the filter counts
// show the waste.
func TestITreeIndexOutlierHull(t *testing.T) {
	idx, o := NewITreeIndex(), newOracle()
	for i := int64(0); i < 300; i++ {
		o.add(idx, ID(i), subscription.New(interval.New(i, i+10)))
	}
	o.add(idx, 300, subscription.New(interval.Point(1<<60)))
	var probes []subscription.Publication
	for v := int64(-1); v <= 312; v++ {
		probes = append(probes, subscription.NewPublication(v))
	}
	probes = append(probes, subscription.NewPublication(1<<60))
	o.check(t, idx, 0, probes)

	c0, h0 := idx.FilterCounts()
	if got := idx.Match(subscription.NewPublication(5)); len(got) != 6 {
		t.Fatalf("Match(5) = %v, want IDs 0..5", got)
	}
	if c1, h1 := idx.FilterCounts(); c1-c0 != 300 || h1-h0 != 6 {
		t.Fatalf("one Match checked %d candidates for %d hits, want 300 for 6", c1-c0, h1-h0)
	}
}
