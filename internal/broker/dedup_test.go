package broker

import (
	"fmt"
	"hash/maphash"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"probsum/internal/store"
	"probsum/internal/subscription"
)

// TestPubDedupBounded is the ISSUE 4 soak test: a long-running broker
// fed far more distinct publications than its dedup limit must keep
// its duplicate-suppression memory bounded (~2·limit entries) while
// still catching duplicates inside the horizon.
func TestPubDedupBounded(t *testing.T) {
	const limit = 512
	b, err := New("B1", store.PolicyNone, withDedupLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	b.AttachClient("pub")

	publish := func(id string) Metrics {
		if _, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: id,
			Pub: subscription.NewPublication(1)}); err != nil {
			t.Fatal(err)
		}
		return b.Metrics()
	}

	const total = 20 * limit
	for i := 0; i < total; i++ {
		publish(fmt.Sprintf("p%d", i))
		if size := b.dedupSize(); size > 2*limit {
			t.Fatalf("after %d pubs the dedup set holds %d entries (> 2×%d)", i+1, size, limit)
		}
	}
	if got := b.Metrics().PubsReceived; got != total {
		t.Fatalf("PubsReceived = %d, want %d", got, total)
	}

	// A duplicate inside the horizon is still suppressed, even when a
	// rotation happened between the two arrivals: publish a fresh ID,
	// rotate by filling a full generation, then repeat it.
	before := publish("dup-probe").DupPubsDropped
	for i := 0; i < limit; i++ {
		publish(fmt.Sprintf("fill%d", i))
	}
	if got := publish("dup-probe").DupPubsDropped; got != before+1 {
		t.Fatalf("duplicate within the horizon not suppressed: drops %d -> %d", before, got)
	}

	// Beyond the horizon (2×limit newer IDs) the ID has been forgotten
	// — the documented at-least-once trade for the memory bound.
	for i := 0; i < 2*limit; i++ {
		publish(fmt.Sprintf("flush%d", i))
	}
	pubsBefore := b.Metrics().PubsReceived
	if got := publish("dup-probe").PubsReceived; got != pubsBefore+1 {
		t.Fatal("a publication beyond the dedup horizon should be processed again")
	}
}

// TestPubDedupRotationBoundary pins the horizon at its exact edge: an
// ID re-sighted while the current generation sits one insert short of
// rotation must survive the NEXT rotation too, because the documented
// horizon — at least limit newer distinct IDs — restarts from the
// LAST sighting. Without refreshing previous-generation hits into the
// current generation, the re-sighted ID rotates away with its old
// generation and a duplicate slips through after exactly limit newer
// IDs.
func TestPubDedupRotationBoundary(t *testing.T) {
	const limit = 8
	b, err := New("B1", store.PolicyNone, withDedupLimit(limit))
	if err != nil {
		t.Fatal(err)
	}
	b.AttachClient("pub")

	publish := func(id string) Metrics {
		if _, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: id,
			Pub: subscription.NewPublication(1)}); err != nil {
			t.Fatal(err)
		}
		if size := b.dedupSize(); size > 2*limit {
			t.Fatalf("dedup set holds %d entries (> 2×%d)", size, limit)
		}
		return b.Metrics()
	}

	publish("X")
	// Fill to the rotation: X's generation becomes previous.
	for i := 0; i < limit-1; i++ {
		publish(fmt.Sprintf("a%d", i))
	}
	// Re-sight X out of the previous generation — still a duplicate,
	// and the horizon restarts here.
	before := b.Metrics().DupPubsDropped
	if got := publish("X").DupPubsDropped; got != before+1 {
		t.Fatalf("X not suppressed from the previous generation: drops %d -> %d", before, got)
	}
	// Exactly limit newer distinct IDs — the minimum horizon from the
	// re-sighting.
	for i := 0; i < limit; i++ {
		publish(fmt.Sprintf("b%d", i))
	}
	before = b.Metrics().DupPubsDropped
	if got := publish("X").DupPubsDropped; got != before+1 {
		t.Fatalf("X processed again after exactly %d newer IDs since its last sighting (horizon must be ≥ %d): drops %d -> %d",
			limit, limit, before, got)
	}
}

// TestPubDedupDefaultUnchanged pins that within the default horizon
// the broker behaves exactly as the old unbounded set.
func TestPubDedupDefaultUnchanged(t *testing.T) {
	b, err := New("B1", store.PolicyNone)
	if err != nil {
		t.Fatal(err)
	}
	b.AttachClient("pub")
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("p%d", i%100) // every ID repeated 10 times
		if _, err := b.Handle("pub", Message{Kind: MsgPublish, PubID: id,
			Pub: subscription.NewPublication(1)}); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Metrics()
	if m.PubsReceived != 100 || m.DupPubsDropped != 900 {
		t.Fatalf("received %d / dropped %d, want 100 / 900", m.PubsReceived, m.DupPubsDropped)
	}
}

// dedupModel is pubDedup's contract written out plainly: two map
// generations, the current one rotating out when it reaches limit, and
// a previous-generation hit refreshed into the current one.
type dedupModel struct {
	limit     int
	cur, prev map[string]bool
}

func (m *dedupModel) seen(id string) bool {
	if m.prev[id] {
		m.put(id)
		return true
	}
	return m.put(id)
}

func (m *dedupModel) put(id string) bool {
	if m.cur[id] {
		return true
	}
	m.cur[id] = true
	if len(m.cur) >= m.limit {
		m.cur, m.prev = make(map[string]bool), m.cur
	}
	return false
}

// dedupInput encodes a limit and an ID stream over the alphabet "ab"
// in FuzzPubDedup's input format.
func dedupInput(limit int, ids ...string) []byte {
	data := []byte{byte(limit - 1)}
	for _, id := range ids {
		data = append(data, byte(len(id)-1))
		for _, c := range []byte(id) {
			data = append(data, c-'a')
		}
	}
	return data
}

// FuzzPubDedup drives the dedup window and dedupModel through the same
// ID stream: every seen must agree, the window must stay within its
// ~2·limit bound, and ids must list exactly the model's IDs. The input
// is a limit byte (1-16), then per ID an op byte: with its top bit set
// it repeats one of the 128 latest IDs; otherwise it is a new ID of
// 1-40 bytes over "ab", one input byte each, so IDs share prefixes and
// repeat by chance too.
func FuzzPubDedup(f *testing.F) {
	// The current generation reaches limit exactly, then the next ID
	// finds its generation emptied.
	f.Add(dedupInput(3, "a", "b", "aa", "ab", "a", "b", "aa", "ba"))
	// "a" is refreshed out of the previous generation one insert before
	// a rotation and must survive the next one.
	f.Add(dedupInput(3, "a", "b", "aa", "a", "ab", "ba", "bb", "a"))
	// 25 rotations through 16 and 32 slots at load ½, long IDs among
	// them: the hash seed is random per window, and in a sample of 2,000
	// seeds every run had a probe run off the table's end and wrap
	// (TestDedupGenProbeWrap forces it).
	var ids []string
	for i := range 400 {
		binary := strconv.FormatInt(int64(i%37), 2)
		ids = append(ids, strings.Repeat("ab", i%20)+strings.NewReplacer("0", "a", "1", "b").Replace(binary))
	}
	f.Add(dedupInput(16, ids...))
	// Repeat ops, and a 40-byte ID cut short by the end of the input.
	f.Add([]byte{15, 0x81, 3, 0, 1, 0, 1, 0x80, 0x83, 39})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := 1 + int(data[0]%16)
		data = data[1:]
		var d pubDedup
		d.init(limit)
		m := &dedupModel{limit: limit, cur: map[string]bool{}, prev: map[string]bool{}}
		var stream []string
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var id string
			if op&0x80 != 0 && len(stream) > 0 {
				id = stream[len(stream)-1-int(op&0x7f)%len(stream)]
			} else {
				n := min(1+int(op&0x7f)%40, len(data))
				b := []byte("a") // the input ended at the op byte
				if n > 0 {
					b = make([]byte, n)
					for i := range b {
						b[i] = "ab"[data[i]&1]
					}
				}
				data = data[n:]
				id = string(b)
			}
			stream = append(stream, id)
			if got, want := d.seen(id), m.seen(id); got != want {
				t.Fatalf("step %d: seen(%q) = %v, model says %v", len(stream), id, got, want)
			}
			if got, want := d.size(), len(m.cur)+len(m.prev); got != want || got >= 2*limit {
				t.Fatalf("step %d: size %d, model %d, limit %d", len(stream), got, want, limit)
			}
		}
		got := d.ids()
		slices.Sort(got)
		want := slices.Sorted(maps.Keys(m.cur))
		for id := range m.prev {
			if !m.cur[id] {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("ids() = %q, model holds %q", got, want)
		}
	})
}

// TestDedupGenProbeWrap places IDs whose hash points at a table's last
// slot: the probe must wrap to slot 0, and every ID must stay findable
// by its full bytes although all hashes are equal. Then IDs whose
// hashes share a tag but differ in their low bits: each lands at its
// own slot, tagged, and an ID probed under another's hash is not
// mistaken for it, nor under a hash with the same low bits and another
// tag.
func TestDedupGenProbeWrap(t *testing.T) {
	seed := maphash.MakeSeed()
	g := dedupGen{slots: make([]uint32, minDedupSlots)}
	last := uint64(minDedupSlots - 1)
	ids := []string{"a", "ab", "abb", "b", "ba"}
	for _, id := range ids {
		if g.put(seed, last, id) {
			t.Fatalf("fresh %q reported present", id)
		}
	}
	for i, s := range []int{minDedupSlots - 1, 0, 1, 2, 3} {
		if g.slots[s] != uint32(i+1) {
			t.Fatalf("slot %d holds %d, want ID %d: slots %v", s, g.slots[s], i+1, g.slots)
		}
	}
	for _, id := range ids {
		if !g.put(seed, last, id) {
			t.Fatalf("%q not found past the wrap", id)
		}
	}
	if g.has(last, "aa") {
		t.Fatal(`"aa" found though never added`)
	}

	g = dedupGen{slots: make([]uint32, minDedupSlots)}
	const tag = 0xabc
	hx, hy := uint64(tag)<<52|4, uint64(tag)<<52|6
	for _, p := range []struct {
		h  uint64
		id string
	}{{hx, "x"}, {hy, "y"}} {
		if g.put(seed, p.h, p.id) {
			t.Fatalf("fresh %q reported present", p.id)
		}
	}
	if g.slots[4] != tag<<dedupIndexBits|1 || g.slots[6] != tag<<dedupIndexBits|2 {
		t.Fatalf("slots 4 and 6 hold %#x and %#x, want the tag over IDs 1 and 2", g.slots[4], g.slots[6])
	}
	if !g.has(hx, "x") || !g.has(hy, "y") {
		t.Fatal("a tagged ID not found under its own hash")
	}
	if g.has(hy, "x") || g.has(hx, "y") {
		t.Fatal("an ID found under another ID's hash with the same tag")
	}
	if g.has(uint64(0x123)<<52|4, "x") {
		t.Fatal("an ID found under a hash with its low bits and another tag")
	}
}

// TestPubDedupLimitBound: a slot's index field holds fewer than 2^20
// IDs, so a broker refuses a dedup limit of 2^20 or more.
func TestPubDedupLimitBound(t *testing.T) {
	if _, err := New("B1", store.PolicyNone, withDedupLimit(1<<20)); err == nil {
		t.Error("a dedup limit of 2^20 was accepted")
	}
	if _, err := New("B1", store.PolicyNone, withDedupLimit(1<<20-1)); err != nil {
		t.Errorf("a dedup limit of 2^20-1 was refused: %v", err)
	}
}

// BenchmarkPubDedup measures seen on fresh IDs at the default limit,
// past several rotations (ns/op, B/op and allocs/op are steady state),
// and the heap of a window whose two generations are full: B/id and
// the live heap objects it holds, read after a collection.
func BenchmarkPubDedup(b *testing.B) {
	const limit = 65536
	ids := make([]string, 4*limit)
	for i := range ids {
		ids[i] = "p" + strconv.Itoa(1000000+i)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	full := new(pubDedup)
	full.init(limit)
	for _, id := range ids[:2*limit-1] {
		full.seen(id)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := full.size()
	runtime.KeepAlive(full)

	var d pubDedup
	d.init(limit)
	for _, id := range ids {
		d.seen(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if d.seen(ids[i%len(ids)]) {
			b.Fatal("a fresh ID reported seen")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "B/id")
	b.ReportMetric(float64(after.HeapObjects-before.HeapObjects), "objects")
}
