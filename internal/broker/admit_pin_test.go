package broker

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"probsum/internal/store"
)

// TestGroupAdmissionPinned admits BenchmarkBrokerAdmit's population
// (3,000 narrow-mix subscriptions, in SUBBATCHes of 100) into 1 and 2
// group tables, and hashes every table's decisions — per route ID, its
// status and sorted coverers — with the broker's CheckerStats. The
// hashes are the figures the admission path gave when it gathered the
// candidate rows before checking them, so a change to how the checker
// reads its rows that moves one decision, coverer or count fails here,
// not only against the unpruned reference.
func TestGroupAdmissionPinned(t *testing.T) {
	want := map[int]uint64{1: 0x41255b1b63ee0c0, 2: 0xd83fbd6e32fb8dfe}
	for _, tables := range []int{1, 2} {
		br, names := admitPinned(t, tables)
		h := fnv.New64a()
		covered := hashTables(t, h, br, names)
		t.Logf("tables-%d: %d covered, stats %+v, hash %#x", tables, covered, br.CheckerStats(), h.Sum64())
		if got := h.Sum64(); got != want[tables] {
			t.Errorf("tables-%d: hash %#x, want %#x", tables, got, want[tables])
		}
	}
}

// TestGroupRetirementPinned admits TestGroupAdmissionPinned's
// population into 1 and 2 group tables, then retires every third
// route: 900 in UNSUBBATCHes of 50, then 10 by per-item UNSUBSCRIBEs.
// It hashes every frame the retirements send (destination, kind, and
// the SubIDs and subscriptions in order), then every table's
// decisions and the CheckerStats, as TestGroupAdmissionPinned does.
// The hashes are the figures the store gave when it kept each node's
// coverers and children in maps and sorted their keys on every read,
// so a change to the forest that moves one promotion, its order, a
// re-check's coverers or a forwarded frame fails here.
func TestGroupRetirementPinned(t *testing.T) {
	want := map[int]uint64{1: 0x385129eba85d9dfb, 2: 0x549da21b5348fb16}
	const batch, batches, single = 50, 18, 10
	for _, tables := range []int{1, 2} {
		br, names := admitPinned(t, tables)
		var retire []string
		for i := 0; i < 3*(batches*batch+single); i += 3 {
			retire = append(retire, fmt.Sprintf("s%d", i))
		}
		h := fnv.New64a()
		put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		str := func(s string) { put(uint64(len(s))); h.Write([]byte(s)) }
		frames := 0
		hashOut := func(out []Outbound) {
			for _, o := range out {
				frames++
				str(o.To)
				put(uint64(o.Msg.Kind))
				str(o.Msg.SubID)
				put(uint64(len(o.Msg.SubIDs)))
				for _, id := range o.Msg.SubIDs {
					str(id)
				}
				put(uint64(len(o.Msg.Subs)))
				for _, s := range o.Msg.Subs {
					str(s.SubID)
					for _, b := range s.Sub.Bounds {
						put(uint64(b.Lo))
						put(uint64(b.Hi))
					}
				}
			}
		}
		for i := 0; i < len(retire)-single; i += batch {
			out, err := br.Handle("c", Message{Kind: MsgUnsubscribeBatch, SubIDs: retire[i : i+batch]})
			if err != nil {
				t.Fatal(err)
			}
			hashOut(out)
		}
		for _, id := range retire[len(retire)-single:] {
			out, err := br.Handle("c", Message{Kind: MsgUnsubscribe, SubID: id})
			if err != nil {
				t.Fatal(err)
			}
			hashOut(out)
		}
		covered := hashTables(t, h, br, names)
		t.Logf("tables-%d: %d frames, %d promotions, %d covered, stats %+v, hash %#x",
			tables, frames, br.Metrics().Promotions, covered, br.CheckerStats(), h.Sum64())
		if got := h.Sum64(); got != want[tables] {
			t.Errorf("tables-%d: hash %#x, want %#x", tables, got, want[tables])
		}
	}
}

// admitPinned admits the pinned population, 3,000 narrow-mix
// subscriptions from client port "c" in SUBBATCHes of 100, into a
// group broker with the given number of neighbour tables, and returns
// the broker and its neighbours' names.
func admitPinned(t *testing.T, tables int) (*Broker, []string) {
	t.Helper()
	const n, batch = 3000, 100
	subs, _ := narrowPopulation(t, n)
	br := newBroker(t, store.PolicyGroup)
	var names []string
	for i := range tables {
		names = append(names, fmt.Sprintf("n%d", i))
		if err := br.ConnectNeighbor(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	br.AttachClient("c")
	for i := 0; i < n; i += batch {
		if _, err := br.Handle("c", Message{Kind: MsgSubscribeBatch, Subs: subs[i : i+batch]}); err != nil {
			t.Fatal(err)
		}
	}
	return br, names
}

// hashTables writes into h each named table's decisions, per route ID
// in ascending order its ID, status and sorted coverers, then the
// broker's CheckerStats, and returns how many of the decisions were
// covered.
func hashTables(t *testing.T, h hash.Hash64, br *Broker, names []string) int {
	t.Helper()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	ids := make([]store.ID, 0, br.routes.len())
	for r := range br.routes.all() {
		ids = append(ids, r.id)
	}
	slices.Sort(ids)
	covered := 0
	for _, name := range names {
		st := br.out[name]
		for _, id := range ids {
			_, status, ok := st.Get(id)
			if !ok {
				t.Fatalf("table %s lacks route %d", name, id)
			}
			put(uint64(id))
			put(uint64(status))
			coverers := st.Coverers(id)
			put(uint64(len(coverers)))
			for _, c := range coverers {
				put(uint64(c))
			}
			if status == store.StatusCovered {
				covered++
			}
		}
	}
	cs := br.CheckerStats()
	for _, v := range []uint64{cs.Calls, cs.Probed, cs.CandidateRows, cs.Unsubscribes, cs.RecheckCalls, cs.Trials, cs.Capped} {
		put(v)
	}
	for _, v := range cs.Decisions {
		put(v)
	}
	return covered
}
