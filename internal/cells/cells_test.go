package cells

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// row is a caller's row: an ID and its box, as the index reads it (the
// first bound) and as the model reads it.
type row struct {
	id    int64
	first *interval.Interval
	sub   subscription.Subscription
}

func rowBox(r *row) **interval.Interval { return &r.first }

// model is the reference state of an index: its live rows by slot.
type model map[int32]*row

func (mo model) add(t *testing.T, ix *Index[row], id int64, s subscription.Subscription) int32 {
	t.Helper()
	r := &row{id, First(s), s}
	slot := ix.Add(r)
	if _, taken := mo[slot]; taken {
		t.Fatalf("Add(%d) got slot %d, which holds a live row", id, slot)
	}
	mo[slot] = r
	return slot
}

// remove frees slot and requires it to hold the zero row after.
func (mo model) remove(t *testing.T, ix *Index[row], slot int32) {
	t.Helper()
	ix.Remove(slot)
	if r := ix.Row(slot); r != nil {
		t.Fatalf("Row(%d) after Remove = %+v, want the zero row", slot, *r)
	}
	delete(mo, slot)
}

// want returns the live slots whose rows keep accepts, ascending.
func (mo model) want(keep func(subscription.Subscription) bool) []int32 {
	var slots []int32
	for slot, r := range mo {
		if keep(r.sub) {
			slots = append(slots, slot)
		}
	}
	slices.Sort(slots)
	return slots
}

// check requires every query for s — intersection (Candidates, with
// the exact check its callers make), containment, and a stab at each
// of s's two corners in full and first-hit form — to equal a
// brute-force scan of the live rows, Len to count them, the queries'
// reach to end one past the highest live slot, and Row to return each
// live slot's row as added (the same pointer) and the zero row past
// the last slot handed out.
func (mo model) check(t *testing.T, ix *Index[row], s subscription.Subscription) {
	t.Helper()
	if ix.Len() != len(mo) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(mo))
	}
	top := int32(0)
	for slot, r := range mo {
		if got := ix.Row(slot); got != r {
			t.Fatalf("Row(%d) = %p, want the row added, %p (%d %v)", slot, got, r, r.id, r.sub)
		}
		top = max(top, slot+1)
	}
	if ix.top != top {
		t.Fatalf("top = %d, want %d, one past the highest live slot", ix.top, top)
	}
	if r := ix.Row(int32(ix.Slots())); r != nil {
		t.Fatalf("Row(%d), past the last slot, = %+v, want the zero row", ix.Slots(), *r)
	}
	var sc Scratch
	if got, want := ix.Containing(&sc, s), mo.want(func(r subscription.Subscription) bool { return r.Covers(s) }); !slices.Equal(got, want) {
		t.Fatalf("Containing(%v) = %v, want %v", s, got, want)
	}
	// Candidates passes, in slot order, no free slot and every
	// intersecting row: the exact check leaves exactly those.
	var meeting []int32
	for _, slot := range ix.Candidates(&sc, s) {
		r := mo[slot]
		if r == nil {
			t.Fatalf("Candidates(%v) passed the free slot %d", s, slot)
		}
		if r.sub.Intersects(s) {
			meeting = append(meeting, slot)
		}
	}
	if want := mo.want(func(r subscription.Subscription) bool { return r.Intersects(s) }); !slices.Equal(meeting, want) {
		t.Fatalf("Candidates(%v) less the rows missing s = %v, want %v", s, meeting, want)
	}
	for _, hi := range []bool{false, true} {
		p := subscription.Publication{Values: make([]int64, s.Len())}
		for a, b := range s.Bounds {
			p.Values[a] = b.Lo
			if hi {
				p.Values[a] = b.Hi
			}
		}
		want := mo.want(func(r subscription.Subscription) bool { return r.Matches(p) })
		got, candidates := ix.Stab(&sc, p)
		if !slices.Equal(got, want) || candidates < len(want) {
			t.Fatalf("Stab(%v) = %v from %d candidates, want %v", p, got, candidates, want)
		}
		first := int32(-1)
		if len(want) > 0 {
			first = want[0]
		}
		if got := ix.Hit(&sc, p.Values); got != first {
			t.Fatalf("Hit(%v) = %d, want %d (first of %v)", p, got, first, want)
		}
	}
}

// boxN builds a subscription from (lo, hi) pairs.
func boxN(bounds ...int64) subscription.Subscription {
	s := subscription.Subscription{Bounds: make([]interval.Interval, len(bounds)/2)}
	for a := range s.Bounds {
		s.Bounds[a] = interval.New(bounds[2*a], bounds[2*a+1])
	}
	return s
}

// TestIndexEdges drives the index through the cases a steady population
// never reaches — rows outside the grid hull, reused slots, bounds at
// the int64 limits, bitsets grown past removals — and requires exact
// answers after each step and no more slots than rows were ever live at
// once.
func TestIndexEdges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	type step struct {
		add    []subscription.Subscription // under the next IDs
		remove []int64                     // IDs
	}
	spread := func(n, m int) step {
		var s step
		for i := 0; i < n; i++ {
			b := make([]int64, 0, 2*m)
			for a := 0; a < m; a++ {
				v := int64((i*37 + a*11) % 1000)
				b = append(b, v, v+int64(i%50))
			}
			s.add = append(s.add, boxN(b...))
		}
		return s
	}
	ids := func(from, to, stride int) step {
		var s step
		for i := from; i < to; i += stride {
			s.remove = append(s.remove, int64(i))
		}
		return s
	}
	cases := []struct {
		name   string
		m      int
		steps  []step
		probes []subscription.Subscription
	}{{
		name: "outside the hull after the population",
		m:    2,
		steps: []step{
			spread(200, 2),
			{add: []subscription.Subscription{boxN(1100, 1500, 0, 10)}},    // past the population on x1
			{add: []subscription.Subscription{boxN(-400, -300, 990, 999)}}, // below it on x1
			{add: []subscription.Subscription{boxN(90_000, 90_001, 5, 5)}}, // far outside
		},
		probes: []subscription.Subscription{
			boxN(1200, 1300, 0, 2000), boxN(999, 1100, 0, 0), boxN(-350, -350, 995, 995),
			boxN(-250, 1050, 0, 2000), boxN(-250, 1050, 0, 995), // contain the population, yet miss both rows past it
			boxN(2000, 80_000, 0, 999), boxN(90_001, 95_000, 0, 5), boxN(lo, hi, 5, 5), boxN(0, 0, 0, 0),
		},
	}, {
		name:  "slot reuse after churn",
		m:     3,
		steps: []step{spread(150, 3), ids(0, 150, 3), spread(60, 3), ids(1, 150, 2), {add: []subscription.Subscription{boxN(0, 999, 0, 999, 500, 500)}}},
		probes: []subscription.Subscription{
			boxN(0, 100, 0, 100, 0, 100), boxN(400, 600, 0, 999, 500, 500), boxN(0, 999, 0, 999, 0, 999), boxN(999, 999, 999, 999, 999, 999),
		},
	}, {
		// Growth copies each bitset into the wider layout: rows marked
		// before it stay findable, removed ones stay gone.
		name:  "bitsets grow past removals",
		m:     2,
		steps: []step{spread(100, 2), ids(0, 100, 4), spread(200, 2), ids(100, 300, 5)},
		probes: []subscription.Subscription{
			boxN(0, 100, 0, 1100), boxN(500, 500, 500, 500), boxN(0, 1100, 30, 40), boxN(990, 1100, 0, 1100),
		},
	}, {
		name: "bounds at the int64 limits",
		m:    2,
		steps: []step{{add: []subscription.Subscription{
			boxN(lo, hi, 0, 0), boxN(lo, lo, lo, hi), boxN(hi, hi, hi, hi),
			boxN(-1, 1, lo, -1), boxN(lo+1, hi-1, 0, hi), boxN(0, hi, lo, 0),
		}}},
		probes: []subscription.Subscription{
			boxN(lo, lo, 0, 0), boxN(hi, hi, hi, hi), boxN(lo, hi, lo, hi), boxN(0, 0, 1, 1),
			boxN(hi-1, hi, lo, lo), boxN(lo, lo+1, hi, hi), boxN(-1, -1, -1, -1),
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, mo := New(tc.m, rowBox), model{}
			slotOf := map[int64]int32{}
			next, peak := int64(0), 0
			for i, st := range tc.steps {
				for _, s := range st.add {
					slotOf[next] = mo.add(t, ix, next, s)
					next++
				}
				peak = max(peak, ix.Len())
				for _, id := range st.remove {
					if slot, ok := slotOf[id]; ok {
						mo.remove(t, ix, slot)
						delete(slotOf, id)
					}
				}
				if ix.Slots() > peak {
					t.Fatalf("step %d: %d slots for at most %d live rows: freed slots are not reused", i, ix.Slots(), peak)
				}
				for _, p := range tc.probes {
					mo.check(t, ix, p)
				}
			}
		})
	}
}

// TestIndexRecut pins when the grid is re-cut: a row lying outside the
// grid but within twice its width is clamped to an edge cell, and one
// that stretches the hull past twice the grid's width re-cuts the grid
// over the hull of every row indexed. Between the two, a query that
// contains the grid but not the hull must still filter on x1.
func TestIndexRecut(t *testing.T) {
	ix, mo := New(2, rowBox), model{}
	check := func() {
		t.Helper()
		for _, p := range []subscription.Subscription{boxN(995, 1000, 0, 9), boxN(-5, 999, 0, 4)} {
			mo.check(t, ix, p)
		}
	}
	mo.add(t, ix, 0, boxN(0, 999, 0, 9))
	for i := int64(1); i < 100; i++ {
		mo.add(t, ix, i, boxN(10*i, 10*i+9, 0, 9))
	}
	if got, want := ix.grid[0], interval.New(0, 999); got != want {
		t.Fatalf("grid %v after the population, want %v", got, want)
	}
	mo.add(t, ix, 100, boxN(1000, 1998, 0, 9)) // hull [0, 1998]: exactly twice the grid's width
	if got, want := ix.grid[0], interval.New(0, 999); got != want {
		t.Fatalf("grid %v after a row within twice its width, want it unchanged at %v", got, want)
	}
	check()
	mo.add(t, ix, 101, boxN(-1, -1, 0, 9)) // hull [-1, 1998]: past twice the width
	if got, want := ix.grid[0], interval.New(-1, 1998); got != want {
		t.Fatalf("grid %v after the hull outgrew it, want %v", got, want)
	}
	check()
}

// TestNewRefusesForeignBox requires New to refuse a box accessor that
// does not return a field of the row: the exact checks read a box at
// the offset New measures.
func TestNewRefusesForeignBox(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a box outside the row")
		}
	}()
	New(1, func(*row) **interval.Interval { return new(*interval.Interval) })
}

// fuzzExtremes are the bound values a fuzz byte below len(fuzzExtremes)
// selects; every other byte is a small signed value.
var fuzzExtremes = []int64{
	math.MinInt64, math.MinInt64 + 1, -1 << 40, -1 << 20,
	1 << 20, 1 << 40, math.MaxInt64 - 1, math.MaxInt64,
}

// FuzzCandidateIndex decodes the input into add, remove and probe steps
// over one attribute count and, at every probe, requires the
// intersection and containment queries and the point stabs at the
// probe's corners, in full and first-hit form, to equal a brute-force
// scan of the live rows, and Row to return each live slot's row as
// added; after every remove, Row must return the zero row.
//
// Byte 0 picks the attribute count m (1–3). Each step is an opcode byte
// and its operands: opcode%4 of 0 or 1 adds the next ID (negated for 1,
// so IDs do not arrive in order) with m (lo, hi) byte pairs; 2 removes
// the live row the next byte selects; 3 probes with m byte pairs.
func FuzzCandidateIndex(f *testing.F) {
	f.Add([]byte{1, 0, 20, 30, 40, 50, 1, 25, 35, 0, 0, 3, 22, 28, 45, 45, 2, 0, 3, 22, 28, 45, 45})
	f.Add([]byte{0, 0, 0, 7, 0, 3, 3, 1, 6, 7, 3, 0, 0, 3, 7, 7, 2, 1, 3, 100, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0]%3)
		data = data[1:]
		ix, mo := New(m, rowBox), model{}
		nextBox := func() (subscription.Subscription, bool) {
			if len(data) < 2*m {
				return subscription.Subscription{}, false
			}
			s := subscription.Subscription{Bounds: make([]interval.Interval, m)}
			for a := range s.Bounds {
				x, y := fuzzBound(data[2*a]), fuzzBound(data[2*a+1])
				s.Bounds[a] = interval.New(min(x, y), max(x, y))
			}
			data = data[2*m:]
			return s, true
		}
		var live []int32
		for n := int64(1); len(data) > 0; n++ {
			op := data[0] % 4
			data = data[1:]
			switch op {
			case 0, 1:
				s, ok := nextBox()
				if !ok {
					return
				}
				id := n
				if op == 1 {
					id = -n
				}
				live = append(live, mo.add(t, ix, id, s))
			case 2:
				if len(live) == 0 || len(data) == 0 {
					continue
				}
				j := int(data[0]) % len(live)
				data = data[1:]
				mo.remove(t, ix, live[j])
				live = slices.Delete(live, j, j+1)
			case 3:
				s, ok := nextBox()
				if !ok {
					return
				}
				// An index answers queries once it has held a row.
				if len(ix.slots) > 0 {
					mo.check(t, ix, s)
				}
			}
		}
	})
}

func fuzzBound(b byte) int64 {
	if int(b) < len(fuzzExtremes) {
		return fuzzExtremes[b]
	}
	return int64(int8(b))
}

// TestIndexBlocks drives an index past three blocks of slots, then
// churns it — removals spread over every block, reused slots, and a
// re-cut of the grid once the blocks exist — and requires every query
// to equal a brute-force scan, with probes aimed at rows of each block.
// Each block's rows sit further along x1 than the last block's, so a
// first hit often lies past the first block. Growth past the first
// block must copy nothing: the full blocks' bitsets stay where they
// were allocated, and at most one block lies beyond the slots handed
// out.
func TestIndexBlocks(t *testing.T) {
	const n, m = 40_000, 3
	rng := rand.New(rand.NewPCG(1, 2))
	// randBox draws a narrow box, or now and then one wide on an
	// attribute, with x1 in [off, off+1000).
	randBox := func(off int64) subscription.Subscription {
		b := make([]int64, 0, 2*m)
		for a := range int64(m) {
			if a > 0 {
				off = 0
			}
			if rng.IntN(20) == 0 {
				b = append(b, off, off+999)
				continue
			}
			lo := rng.Int64N(1000)
			b = append(b, off+lo, off+min(lo+rng.Int64N(60), 999))
		}
		return boxN(b...)
	}
	ix, mo := New(m, rowBox), model{}
	id := int64(0)
	add := func() {
		id++
		mo.add(t, ix, id, randBox(500*int64(ix.Slots()/blockSlots)))
	}
	for range blockSlots {
		add()
	}
	first := &ix.rows[0][0]
	for ix.Slots() < n {
		add()
	}
	if len(ix.rows) < 3 || len(ix.slots) != len(ix.rows) {
		t.Fatalf("%d slots in %d bitset blocks and %d slot blocks, want at least 3", ix.Slots(), len(ix.rows), len(ix.slots))
	}
	if &ix.rows[0][0] != first {
		t.Fatal("the first block's bitsets moved when later blocks were added")
	}
	if unused := len(ix.rows)*blockSlots - ix.Slots(); unused >= blockSlots {
		t.Fatalf("%d slots of bitsets unused, want under one block (%d)", unused, blockSlots)
	}
	// probe checks queries aimed at a few live rows of every block: their
	// own boxes, and boxes shifted off them.
	probe := func(step string) {
		t.Helper()
		for b := range ix.slots {
			aimed := 0
			for try := 0; try < 200 && aimed < 4; try++ {
				r := mo[int32(b<<blockShift+rng.IntN(len(ix.slots[b])))]
				if r == nil {
					continue
				}
				aimed++
				mo.check(t, ix, r.sub)
				shifted := r.sub.Clone()
				for a, iv := range shifted.Bounds {
					shifted.Bounds[a] = interval.New(iv.Lo+5, iv.Hi+30)
				}
				mo.check(t, ix, shifted)
			}
			if aimed == 0 {
				t.Fatalf("%s: no live row found in block %d", step, b)
			}
		}
		mo.check(t, ix, randBox(500))
	}
	probe("grown")
	// Remove a third of the rows at random, over every block, then add
	// as many again: they must land in the freed slots.
	slots := ix.Slots()
	live := make([]int32, 0, len(mo))
	for slot := range mo {
		live = append(live, slot)
	}
	slices.Sort(live)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, slot := range live[:len(live)/3] {
		mo.remove(t, ix, slot)
	}
	probe("after removals")
	for range len(live) / 3 {
		add()
	}
	if ix.Slots() != slots {
		t.Fatalf("%d slots after re-adding into %d freed ones, want %d", ix.Slots(), len(live)/3, slots)
	}
	probe("after reuse")
	// A row far past the hull on x2 re-cuts the grid over every block.
	grid := ix.grid[1]
	id++
	mo.add(t, ix, id, boxN(10, 20, 5_000, 5_010, 30, 40))
	if ix.grid[1] == grid {
		t.Fatalf("grid %v unchanged after the hull outgrew it", grid)
	}
	probe("after the re-cut")
	mo.check(t, ix, boxN(0, 2_000, 4_000, 6_000, 0, 999))
}

// TestRetiredBurstShrinksQueries admits a burst of rows over a base
// population, retires it — first every row of the second block, then
// the rest in random order — and requires every query to equal a
// brute-force scan and to read only the words up to the base's highest
// slot: the emptied second block is skipped, not scanned. Re-admitting
// the burst must reuse the freed slots last in, first out, as before.
func TestRetiredBurstShrinksQueries(t *testing.T) {
	const base, burst, m = 20_000, 30_000, 3
	rng := rand.New(rand.NewPCG(3, 4))
	randBox := func() subscription.Subscription {
		b := make([]int64, 0, 2*m)
		for range m {
			lo := rng.Int64N(1000)
			b = append(b, lo, min(lo+rng.Int64N(80), 999))
		}
		return boxN(b...)
	}
	ix, mo := New(m, rowBox), model{}
	for id := range int64(base + burst) {
		mo.add(t, ix, id, randBox())
	}
	wide := ix.used()
	probe := func(step string) {
		t.Helper()
		for range 8 {
			mo.check(t, ix, randBox())
		}
		if t.Failed() {
			t.Fatalf("after %s", step)
		}
	}
	probe("the burst")
	// Every slot of the second block goes, base rows among them, then
	// the rest of the burst in random order.
	var rest []int32
	for slot := range mo {
		if slot>>blockShift == 1 {
			mo.remove(t, ix, slot)
		} else if slot >= base {
			rest = append(rest, slot)
		}
	}
	slices.Sort(rest)
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i, slot := range rest {
		mo.remove(t, ix, slot)
		if i%5_000 == 0 {
			probe("a partial retirement")
		}
	}
	if ix.live[1] != 0 || ix.top != blockSlots {
		t.Fatalf("top %d with %d live slots in block 1, want %d and 0", ix.top, ix.live[1], blockSlots)
	}
	if got, want := ix.used(), blockWords; got != want || got >= wide {
		t.Fatalf("queries read %d words after the retirement, want %d (%d before)", got, want, wide)
	}
	probe("the retirement")
	// The freed slots are handed out again last in, first out.
	slots := ix.Slots()
	for i := range rest {
		want := rest[len(rest)-1-i]
		if got := mo.add(t, ix, int64(base+i), randBox()); got != want {
			t.Fatalf("re-admission %d took slot %d, want %d", i, got, want)
		}
	}
	if ix.Slots() != slots {
		t.Fatalf("%d slots after re-admission, want %d", ix.Slots(), slots)
	}
	probe("re-admission")
}

// BenchmarkStabAfterBurst stabs 20,000 narrow rows of 6 attributes as
// admitted (fresh), and after 100,000 more were admitted and retired
// (retired): the two read the same words.
func BenchmarkStabAfterBurst(b *testing.B) {
	const base, burst, m = 20_000, 100_000, 6
	rng := rand.New(rand.NewPCG(5, 6))
	randBox := func() subscription.Subscription {
		s := subscription.Subscription{Bounds: make([]interval.Interval, m)}
		for a := range s.Bounds {
			lo := rng.Int64N(1000)
			s.Bounds[a] = interval.New(lo, min(lo+200+rng.Int64N(400), 999))
		}
		return s
	}
	rows := make([]row, base+burst)
	for i := range rows {
		s := randBox()
		rows[i] = row{int64(i), First(s), s}
	}
	pubs := make([]subscription.Publication, 1024)
	for i := range pubs {
		pubs[i].Values = make([]int64, m)
		for a := range pubs[i].Values {
			pubs[i].Values[a] = rng.Int64N(1000)
		}
	}
	for _, retired := range []bool{false, true} {
		name := "fresh"
		if retired {
			name = "retired"
		}
		b.Run(name, func(b *testing.B) {
			ix := New(m, rowBox)
			for i := range rows[:base] {
				ix.Add(&rows[i])
			}
			if retired {
				for i := range rows[base:] {
					ix.Add(&rows[base+i])
				}
				for slot := int32(base + burst - 1); slot >= base; slot-- {
					ix.Remove(slot)
				}
			}
			var sc Scratch
			hits := 0
			b.ResetTimer()
			for i := range b.N {
				h, _ := ix.Stab(&sc, pubs[i%len(pubs)])
				hits += len(h)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}
