package broker

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// brokerView is what a step may change in a broker, read through its
// exported surface.
type brokerView struct {
	Count   int
	Sources map[string]string
	Recv    map[string][]string
	Ops     []SnapshotOp
	Metrics Metrics
}

// observe reads b's view; subIDs are the subscriptions whose sources it
// records.
func observe(b *Broker, subIDs []string) brokerView {
	v := brokerView{
		Count:   b.SubscriptionCount(),
		Sources: make(map[string]string),
		Recv:    make(map[string][]string),
		Ops:     b.SnapshotOps(),
		Metrics: b.Metrics(),
	}
	for _, id := range subIDs {
		if src, ok := b.KnowsSubscription(id); ok {
			v.Sources[id] = src
		}
	}
	for _, n := range b.Neighbors() {
		v.Recv[n] = b.ReceivedFrom(n)
	}
	return v
}

// refModel is the routing rules of Section 2 written out plainly: one
// owner port per subscription, and per port the subscriptions with a
// reverse path over it.
type refModel struct {
	src   map[string]string
	box   map[string]subscription.Subscription
	paths map[string]map[string]bool
	seen  map[string]bool // publication IDs
}

func (m *refModel) subscribe(from string, neighbor bool, items []BatchSub) {
	for _, it := range items {
		if _, known := m.src[it.SubID]; !known {
			m.src[it.SubID], m.box[it.SubID] = from, it.Sub
		} else if !neighbor {
			continue // only a neighbor's duplicate is a reverse path
		}
		if m.paths[from] == nil {
			m.paths[from] = make(map[string]bool)
		}
		m.paths[from][it.SubID] = true
	}
}

func (m *refModel) unsubscribe(from string, subIDs []string) {
	for _, id := range subIDs {
		src, ok := m.src[id]
		switch {
		case !ok:
		case src != from:
			delete(m.paths[from], id)
		default:
			delete(m.src, id)
			delete(m.box, id)
			for _, set := range m.paths {
				delete(set, id)
			}
		}
	}
}

// publish returns the frames a publication from port from must produce:
// one notify-batch per other client naming its matching subscriptions,
// then one forward per other neighbor with a matching reverse path.
func (m *refModel) publish(from, pubID string, p subscription.Publication, clients, neighbors []string) []string {
	if m.seen[pubID] {
		return nil
	}
	m.seen[pubID] = true
	var out []string
	for _, c := range clients {
		var ids []string
		for id := range m.paths[c] {
			if c != from && m.box[id].Matches(p) {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			slices.Sort(ids)
			out = append(out, fmt.Sprintf("%s %v %v", c, MsgNotifyBatch, ids))
		}
	}
	for _, n := range neighbors {
		for id := range m.paths[n] {
			if n != from && m.box[id].Matches(p) {
				out = append(out, fmt.Sprintf("%s %v", n, MsgPublish))
				break
			}
		}
	}
	return out
}

// replaySnapshot rebuilds a broker from ops the way recovery does.
func replaySnapshot(t *testing.T, policy store.Policy, ops []SnapshotOp) *Broker {
	t.Helper()
	b := newBroker(t, policy)
	for _, op := range ops {
		switch {
		case op.Attach && op.Client:
			b.AttachClient(op.Port)
		case op.Attach:
			if err := b.ConnectNeighbor(op.Port); err != nil {
				t.Fatal(err)
			}
		case op.Msg != nil:
			if _, err := b.Handle(op.From, *op.Msg); err != nil {
				t.Fatalf("replaying %v from %s: %v", op.Msg.Kind, op.From, err)
			}
		default:
			b.MarkPubsSeen(op.PubIDs)
		}
	}
	return b
}

// digestOf folds subscription IDs the way the receiver side does.
func digestOf(subIDs []string) LinkDigest {
	var buckets [DigestBuckets]uint64
	for _, id := range subIDs {
		h := subDigestHash(id)
		buckets[h>>58] ^= h
	}
	return foldDigest(len(subIDs), &buckets)
}

// checkCoverage checks every neighbor table of b against the model m:
// the table holds every subscription not sourced from its neighbor,
// its active ones are NeighborRoots, and each of the others is held
// covered, so subsume.Exact must find it covered by the active ones of
// its own attribute count. Boxes this small must be decided without
// RSPC: an input that exhausts its trials is a finding.
func checkCoverage(t *testing.T, step int, b *Broker, m *refModel, neighbors []string) {
	t.Helper()
	for _, n := range neighbors {
		roots := make(map[string]bool)
		byCount := make(map[int][]subscription.Subscription)
		for _, r := range b.NeighborRoots(n) {
			if m.src[r.SubID] == n || !m.box[r.SubID].Equal(r.Sub) {
				t.Fatalf("step %d: %s's table holds %s %v active; model: %v from %q", step, n, r.SubID, r.Sub, m.box[r.SubID], m.src[r.SubID])
			}
			roots[r.SubID] = true
			byCount[r.Sub.Len()] = append(byCount[r.Sub.Len()], r.Sub)
		}
		for id, src := range m.src {
			if src == n || roots[id] {
				continue
			}
			covered, err := subsume.Exact(m.box[id], byCount[m.box[id].Len()])
			if err != nil || !covered {
				t.Fatalf("step %d: %s's table holds %s %v covered, but its active set %v does not cover it (err %v)",
					step, n, id, m.box[id], byCount[m.box[id].Len()], err)
			}
		}
	}
	if d := b.CheckerStats().Decisions[core.ReasonTrialsExhausted]; d != 0 {
		t.Fatalf("step %d: %d decisions exhausted RSPC trials", step, d)
	}
}

// FuzzBrokerHandle decodes the input into Handle steps on one broker
// with neighbors N1, N2 and clients C1, C2, and checks every step
// against refModel. After each step a failed one must have changed
// nothing; the broker's sources, count and received sets must equal the
// model's (a client's is empty); each port's ReceivedDigest must be the
// digest of its ReceivedFrom; and replaying SnapshotOps into a fresh
// broker must give the same sources, count and received sets. A
// publication's notifications and forwards must equal a brute-force
// scan of the model's reverse paths, and a subscribe or unsubscribe
// step must answer in the kind that arrived.
//
// Every neighbor table's covered subscriptions must be exactly covered
// by its active ones (checkCoverage).
//
// Byte 0 picks the policy (mod 3: none, pairwise, group). Each step is
// an opcode byte (mod 5: SUBSCRIBE, SUBBATCH, UNSUBSCRIBE, UNSUBBATCH,
// PUBLISH), a port byte, a count byte for the batch kinds (1–3 items),
// and per item an ID byte (s0–s6, or none) — for the subscribe kinds
// followed by a shape byte and one (lo, width) byte pair, each mod 12,
// per attribute. The shape byte's low four bits pick 0 unsatisfiable,
// 1 no attributes, else valid; its high four bits, mod 3, pick 2, 3 or
// 1 attributes. A publication is an ID byte (p0–p6, or none; repeats
// are duplicates) and its values over [0, 15], the first of which
// picks 2, 3 or 1 values the way a shape byte does.
func FuzzBrokerHandle(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 2, 0, 9, 1, 2, 0, 4, 1, 1, 3, 5, 0, 3, 3, 1, 1, 0, 7, 7, 4, 0, 3, 4})
	ports := []string{"N1", "N2", "C1", "C2"}
	subIDs := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		policy := []store.Policy{store.PolicyNone, store.PolicyPairwise, store.PolicyGroup}[data[0]%3]
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		id := func(prefix string) string {
			if k := next() % 8; k < 7 {
				return fmt.Sprintf("%s%d", prefix, k)
			}
			return ""
		}
		// attrs maps a byte's high four bits to 2, 3 or 1 attributes, so
		// bytes below 16 keep the two-attribute shapes.
		attrs := func(b int) int { return 1 + (b>>4+1)%3 }
		item := func() (it BatchSub, valid bool) {
			it.SubID = id("s")
			shapeByte := next()
			shape := shapeByte % 16
			bounds := make([]interval.Interval, attrs(shapeByte))
			for a := range bounds {
				lo := int64(next() % 12)
				bounds[a] = interval.New(lo, lo+int64(next()%12))
			}
			switch shape {
			case 0:
				last := &bounds[len(bounds)-1]
				*last = interval.New(last.Hi+1, last.Lo)
				it.Sub = subscription.New(bounds...)
			case 1:
				it.Sub = subscription.New()
			default:
				it.Sub = subscription.New(bounds...)
			}
			return it, it.SubID != "" && shape > 1
		}

		b := newBroker(t, policy)
		clients, neighbors := []string{"C1", "C2"}, []string{"N1", "N2"}
		for _, n := range neighbors {
			if err := b.ConnectNeighbor(n); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clients {
			b.AttachClient(c)
		}
		m := &refModel{src: map[string]string{}, box: map[string]subscription.Subscription{},
			paths: map[string]map[string]bool{}, seen: map[string]bool{}}
		for step := 0; len(data) > 0; step++ {
			op, from := next()%5, ports[next()%4]
			count := 1
			if op == 1 || op == 3 {
				count += next() % 3
			}
			var msg Message
			valid := true
			var want []string // publish outputs
			switch op {
			case 0, 1:
				items := make([]BatchSub, count)
				for i := range items {
					var ok bool
					items[i], ok = item()
					valid = valid && ok
				}
				msg = Message{Kind: MsgSubscribeBatch, Subs: items}
				if op == 0 {
					msg = Message{Kind: MsgSubscribe, SubID: items[0].SubID, Sub: items[0].Sub}
				}
				if valid {
					m.subscribe(from, from[0] == 'N', items)
				}
			case 2, 3:
				ids := make([]string, count)
				for i := range ids {
					ids[i] = id("s")
				}
				msg = Message{Kind: MsgUnsubscribeBatch, SubIDs: ids}
				if op == 2 {
					msg = Message{Kind: MsgUnsubscribe, SubID: ids[0]}
				}
				m.unsubscribe(from, ids)
			default:
				pubID := id("p")
				first := next()
				values := make([]int64, attrs(first))
				values[0] = int64(first % 16)
				for v := 1; v < len(values); v++ {
					values[v] = int64(next() % 16)
				}
				pub := subscription.NewPublication(values...)
				msg = Message{Kind: MsgPublish, PubID: pubID, Pub: pub}
				valid = pubID != ""
				if valid {
					want = m.publish(from, pubID, pub, clients, neighbors)
				}
			}

			before := observe(b, subIDs)
			out, err := b.Handle(from, msg)
			if (err == nil) != valid {
				t.Fatalf("step %d: %v from %s: err %v, want failure %v", step, msg.Kind, from, err, !valid)
			}
			if err != nil {
				if after := observe(b, subIDs); !reflect.DeepEqual(after, before) {
					t.Fatalf("step %d: failed %v from %s changed the broker:\nbefore %+v\nafter  %+v", step, msg.Kind, from, before, after)
				}
				continue
			}
			switch msg.Kind {
			case MsgPublish:
				var got []string
				for _, o := range out {
					if o.Msg.Kind == MsgNotifyBatch {
						got = append(got, fmt.Sprintf("%s %v %v", o.To, o.Msg.Kind, o.Msg.SubIDs))
					} else {
						got = append(got, fmt.Sprintf("%s %v", o.To, o.Msg.Kind))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: publish %v from %s: got %q, brute force %q", step, msg.Pub.Values, from, got, want)
				}
			default:
				// Forwards keep the arriving kind; promotions are announced.
				allowed := map[MsgKind][]MsgKind{
					MsgSubscribe:        {MsgSubscribe},
					MsgSubscribeBatch:   {MsgSubscribeBatch},
					MsgUnsubscribe:      {MsgUnsubscribe, MsgSubscribe},
					MsgUnsubscribeBatch: {MsgUnsubscribeBatch, MsgSubscribeBatch},
				}[msg.Kind]
				for _, o := range out {
					if !slices.Contains(allowed, o.Msg.Kind) || o.To == from {
						t.Fatalf("step %d: %v from %s sent %v to %s", step, msg.Kind, from, o.Msg.Kind, o.To)
					}
				}
			}

			view := observe(b, subIDs)
			if view.Count != len(m.src) || !maps.Equal(view.Sources, m.src) {
				t.Fatalf("step %d: broker holds %d subscriptions from %v, model %v", step, view.Count, view.Sources, m.src)
			}
			for _, p := range ports {
				var want []string // a client port is no link
				if p[0] == 'N' {
					want = slices.Sorted(maps.Keys(m.paths[p]))
				}
				got := b.ReceivedFrom(p)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: received from %s %v, model %v", step, p, got, want)
				}
				if d := b.ReceivedDigest(p); d != digestOf(got) {
					t.Fatalf("step %d: ReceivedDigest(%s) %+v, digest of ReceivedFrom %+v", step, p, d, digestOf(got))
				}
			}
			checkCoverage(t, step, b, m, neighbors)
			replayed := observe(replaySnapshot(t, policy, view.Ops), subIDs)
			if replayed.Count != view.Count || !maps.Equal(replayed.Sources, view.Sources) ||
				!reflect.DeepEqual(replayed.Recv, view.Recv) {
				t.Fatalf("step %d: snapshot replay holds %d from %v receiving %v, broker %d from %v receiving %v",
					step, replayed.Count, replayed.Sources, replayed.Recv, view.Count, view.Sources, view.Recv)
			}
		}
	})
}
