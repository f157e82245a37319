package broker

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
)

// boxM returns the box [lo, hi] on the first attribute and [0, side]
// on the other m-1.
func boxM(m int, lo, hi, side int64) subscription.Subscription {
	bounds := []interval.Interval{interval.New(lo, hi)}
	for range m - 1 {
		bounds = append(bounds, interval.New(0, side))
	}
	return subscription.New(bounds...)
}

// centre returns the point at the centre of s.
func centre(s subscription.Subscription) subscription.Publication {
	vals := make([]int64, s.Len())
	for a, b := range s.Bounds {
		vals[a] = (b.Lo + b.Hi) / 2
	}
	return subscription.Publication{Values: vals}
}

// slotModel is what TestRouteSlotReuse expects a broker to hold: the
// live routes in admission order, and for a covered child the family
// root that alone covers it.
type slotModel struct {
	order []string
	subs  map[string]subscription.Subscription
	root  map[string]string
}

func (m *slotModel) add(subID string, s subscription.Subscription, root string) {
	m.order = append(m.order, subID)
	m.subs[subID] = s
	if root != "" {
		m.root[subID] = root
	}
}

func (m *slotModel) remove(subID string) {
	m.order = slices.DeleteFunc(m.order, func(id string) bool { return id == subID })
	delete(m.subs, subID)
	delete(m.root, subID)
}

// active returns the live routes the neighbour's table holds active:
// every one but a child whose root is live, in admission order.
func (m *slotModel) active() []string {
	var out []string
	for _, id := range m.order {
		if _, covered := m.subs[m.root[id]]; !covered {
			out = append(out, id)
		}
	}
	return out
}

// TestRouteSlotReuse admits, retires and re-admits routes of two
// attribute counts until freed slots hold new routes. After every round,
// each lookup that goes through a route's ID names exactly the live
// routes: a publication's notifications, the promotions a coverer's
// retirement announces, NeighborRoots and LinkDigest; and a retired
// route's ID resolves to nothing, though its slot may be taken. Then,
// with seq one short of its limit, a burst of two is refused and leaves
// the routes, the slot tables and the neighbour's table as they were.
func TestRouteSlotReuse(t *testing.T) {
	b := newBroker(t, store.PolicyPairwise)
	if err := b.ConnectNeighbor("N"); err != nil {
		t.Fatal(err)
	}
	b.AttachClient("C")
	b.AttachClient("P")
	handle := func(from string, msg Message) []Outbound {
		t.Helper()
		out, err := b.Handle(from, msg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	model := &slotModel{subs: map[string]subscription.Subscription{}, root: map[string]string{}}
	type place struct{ m, slot int }
	freed := map[place]bool{}
	var retired []store.ID
	reused := map[int]int{} // by attribute count
	retire := func(subIDs ...string) []Outbound {
		t.Helper()
		for _, id := range subIDs {
			r := b.routes.get(id)
			freed[place{int(r.m), int(slotOf(r.id))}] = true
			retired = append(retired, r.id)
			model.remove(id)
		}
		return handle("C", Message{Kind: MsgUnsubscribeBatch, SubIDs: subIDs})
	}

	var fillers []string
	filler := 0
	for round := range 8 {
		// One burst: three disjoint fillers of each count, and a family
		// far from them: a root and two children only it covers.
		var burst []BatchSub
		for _, m := range []int{2, 3} {
			for range 3 {
				id := fmt.Sprintf("f%d", filler)
				s := boxM(m, int64(10*filler), int64(10*filler+5), 5)
				burst = append(burst, BatchSub{SubID: id, Sub: s})
				fillers = append(fillers, id)
				filler++
			}
		}
		m, x := 2+round%2, int64(1_000_000+1_000*round)
		root := fmt.Sprintf("r%d", round)
		kids := []string{root + "a", root + "b"}
		burst = append(burst,
			BatchSub{SubID: root, Sub: boxM(m, x, x+100, 100)},
			BatchSub{SubID: kids[0], Sub: boxM(m, x+10, x+20, 10)},
			BatchSub{SubID: kids[1], Sub: boxM(m, x+30, x+40, 10)})
		handle("C", Message{Kind: MsgSubscribeBatch, Subs: burst})
		for _, it := range burst {
			r := b.routes.get(it.SubID)
			if p := (place{int(r.m), int(slotOf(r.id))}); freed[p] {
				reused[p.m]++
				delete(freed, p)
			}
			if it.SubID == kids[0] || it.SubID == kids[1] {
				model.add(it.SubID, it.Sub, root)
			} else {
				model.add(it.SubID, it.Sub, "")
			}
		}

		// Retire the older half of the fillers, then the previous
		// round's root: its retirement promotes its two children, named
		// through their IDs.
		half := len(fillers) / 2
		retire(fillers[:half]...)
		fillers = fillers[half:]
		if round > 0 {
			prev := fmt.Sprintf("r%d", round-1)
			out := retire(prev)
			want := []Outbound{
				{To: "N", Msg: Message{Kind: MsgUnsubscribeBatch, SubIDs: []string{prev}}},
				{To: "N", Msg: Message{Kind: MsgSubscribeBatch, Subs: []BatchSub{
					{SubID: prev + "a", Sub: model.subs[prev+"a"]},
					{SubID: prev + "b", Sub: model.subs[prev+"b"]},
				}}},
			}
			if !slices.EqualFunc(out, want, func(x, y Outbound) bool { return fmt.Sprint(x) == fmt.Sprint(y) }) {
				t.Fatalf("round %d: retiring %s sent %+v, want %+v", round, prev, out, want)
			}
		}
		if round > 1 {
			old := fmt.Sprintf("r%d", round-2)
			retire(old+"a", old+"b")
		}

		// Every live route's centre: the notifications name exactly the
		// live routes containing it.
		for i, id := range model.order {
			pub := centre(model.subs[id])
			var want []string
			for other, s := range model.subs {
				if s.Matches(pub) {
					want = append(want, other)
				}
			}
			slices.Sort(want)
			out := handle("P", Message{Kind: MsgPublish, PubID: fmt.Sprintf("p%d-%d", round, i), Pub: pub})
			var got []string
			for _, o := range out {
				if o.To == "C" {
					got = append(got, o.Msg.SubIDs...)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: publication %v notified %v, want %v", round, pub.Values, got, want)
			}
		}
		var roots []string
		for _, it := range b.NeighborRoots("N") {
			roots = append(roots, it.SubID)
		}
		if want := model.active(); !slices.Equal(roots, want) {
			t.Fatalf("round %d: N's roots %v, want %v", round, roots, want)
		}
		var buckets [DigestBuckets]uint64
		for _, id := range roots {
			h := subDigestHash(id)
			buckets[h>>58] ^= h
		}
		if got, ok := b.LinkDigest("N"); !ok || got != foldDigest(len(roots), &buckets) {
			t.Fatalf("round %d: LinkDigest %+v, want the digest of %v", round, got, roots)
		}
		for _, id := range retired {
			if r := b.routeByID(id); r != nil {
				t.Fatalf("round %d: retired ID %#x resolves to %s", round, id, r.subID)
			}
		}
		for _, id := range model.order {
			if r := b.routes.get(id); b.routeByID(r.id) != r {
				t.Fatalf("round %d: %s's ID %#x does not resolve to it", round, id, r.id)
			}
		}
	}
	if reused[2] == 0 || reused[3] == 0 {
		t.Fatalf("slots reused by count: %v, want some of both", reused)
	}

	// One short of the limit, a burst of two is refused whole.
	type tableState struct{ m, live, slots int }
	state := func() (int, []tableState, []BatchSub, LinkDigest) {
		var ts []tableState
		for _, t := range b.tables {
			ts = append(ts, tableState{t.Attrs(), t.Len(), t.Slots()})
		}
		d, _ := b.LinkDigest("N")
		return b.SubscriptionCount(), ts, b.NeighborRoots("N"), d
	}
	n0, ts0, roots0, d0 := state()
	b.seq = maxSeq - 1
	two := []BatchSub{{SubID: "late1", Sub: box(0, 1, 0, 1)}, {SubID: "late2", Sub: box(2, 3, 0, 1)}}
	if out, err := b.Handle("C", Message{Kind: MsgSubscribeBatch, Subs: two}); err == nil {
		t.Fatalf("a burst of two at seq %d was admitted: %+v", b.seq, out)
	}
	n1, ts1, roots1, d1 := state()
	if b.seq != maxSeq-1 || n1 != n0 || !slices.Equal(ts1, ts0) || fmt.Sprint(roots1) != fmt.Sprint(roots0) || d1 != d0 {
		t.Fatalf("the refused burst left a trace: seq %d, %d routes %v, roots %v, digest %+v; before %d routes %v, roots %v, digest %+v",
			b.seq, n1, ts1, roots1, d1, n0, ts0, roots0, d0)
	}
	// The last ID there is still fits, and is positive.
	handle("C", Message{Kind: MsgSubscribeBatch, Subs: two[:1]})
	if id := b.routes.get("late1").id; id <= 0 || int64(id)>>slotBits != maxSeq {
		t.Fatalf("the last route's ID is %#x, want seq %#x in its top bits", id, int64(maxSeq))
	}
}

// TestRetiredRouteUnreachable requires a freed slot to retain nothing:
// a route retired from a slot table that lives on, under a neighbour
// table that held it too, is collected once the broker lets go of it.
func TestRetiredRouteUnreachable(t *testing.T) {
	b := newBroker(t, store.PolicyGroup)
	if err := b.ConnectNeighbor("N"); err != nil {
		t.Fatal(err)
	}
	b.AttachClient("C")
	handle := func(msg Message) {
		t.Helper()
		if _, err := b.Handle("C", msg); err != nil {
			t.Fatal(err)
		}
	}
	handle(Message{Kind: MsgSubscribe, SubID: "stay", Sub: box(0, 10, 0, 10)})
	handle(Message{Kind: MsgSubscribe, SubID: "gone", Sub: box(20, 30, 0, 10)})
	gone := weak.Make(b.routes.get("gone"))
	handle(Message{Kind: MsgUnsubscribe, SubID: "gone"})
	runtime.GC()
	if r := gone.Value(); r != nil {
		t.Fatalf("retired route %s (ID %#x) is still reachable", r.subID, r.id)
	}
	if t2 := b.table(2); t2 == nil || t2.Len() != 1 {
		t.Fatalf("slot table of count 2 is %+v, want one live route", t2)
	}
}
