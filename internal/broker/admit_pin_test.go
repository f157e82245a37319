package broker

import (
	"encoding/binary"
	"fmt"
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
	const n, batch = 3000, 100
	subs, _ := narrowPopulation(t, n)
	for _, tables := range []int{1, 2} {
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
		ids := make([]store.ID, 0, len(br.routes))
		for _, r := range br.routes {
			ids = append(ids, r.id)
		}
		slices.Sort(ids)
		h := fnv.New64a()
		put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
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
		t.Logf("tables-%d: %d covered, stats %+v, hash %#x", tables, covered, cs, h.Sum64())
		if got := h.Sum64(); got != want[tables] {
			t.Errorf("tables-%d: hash %#x, want %#x", tables, got, want[tables])
		}
	}
}
