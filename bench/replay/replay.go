// Package replay runs a workload's generated inputs once more through
// one layer of the program at a time — codec, matcher, broker state
// machine, coverage table, store, checker, conflict table, journal —
// inside the benchmark process, with a span recorded around every call
// into a layer. The spans are taken from here, outside the program:
// spans inside the program are a later change.
package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"probsum/bench/gen"
	"probsum/internal/broker"
	"probsum/internal/conflict"
	"probsum/internal/core"
	"probsum/internal/match"
	"probsum/internal/persist"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/pubsub"
	"probsum/subsume"
)

// Span is one call into a layer.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	// Op ties together the spans that handle the same input on
	// different layers: the batch number on the admission streams, the
	// pool index on the publication streams.
	Op uint64 `json:"op"`
}

// Config says which layers the workload exercises and how.
type Config struct {
	Hops        int     // brokers in the chain; 1 means no coverage table anywhere
	Delta       float64 // group policy error probability, as given to brokerd
	Durable     bool    // brokers journal
	JournalSync int     // brokerd's -journal-sync
	Dir         string  // scratch directory for the journal replay
	Batch       int     // admission batch size of the timed phases
}

// Result is the per-layer figures and the spans behind them.
type Result struct {
	Metrics map[string]float64
	Spans   []Span
}

// maxCalls caps the calls replayed per stream, so the trace stays a
// few megabytes.
const maxCalls = 4096

type tracer struct {
	t0    time.Time
	spans []Span
}

func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) time.Duration {
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// stream times n calls of f under one parent span and returns the mean
// nanoseconds and allocations per call. The time is the sum of the
// calls' own spans, so the trace and the figure agree.
func (t *tracer) stream(layer, call string, n int, f func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	parent := t.begin(layer, -1, 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var total time.Duration
	for i := 0; i < n; i++ {
		sp := t.begin(call, parent, uint64(i))
		f(i)
		total += t.end(sp)
	}
	runtime.ReadMemStats(&m1)
	t.end(parent)
	return float64(total) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// Run replays the inputs through every layer the workload exercises.
// Layers it does not exercise — the coverage path without a neighbour,
// the journal without a data directory — report zero.
func Run(in *gen.Inputs, cfg Config) (*Result, error) {
	// Spans are appended into a preallocated slice so recording one
	// does not allocate inside a measured stream.
	t := &tracer{t0: time.Now(), spans: make([]Span, 0, 1<<18)}
	m := map[string]float64{}
	r := &replayer{in: in, cfg: cfg, t: t, m: m}
	r.codec()
	r.matcher()
	if err := r.brokerStreams(); err != nil {
		return nil, err
	}
	if cfg.Hops > 1 {
		if err := r.tableStreams(); err != nil {
			return nil, err
		}
	}
	if cfg.Durable {
		if err := r.journal(); err != nil {
			return nil, err
		}
	}
	return &Result{Metrics: m, Spans: t.spans}, nil
}

type replayer struct {
	in  *gen.Inputs
	cfg Config
	t   *tracer
	m   map[string]float64
}

// batches cuts refs into admission batches.
func batches[T any](xs []T, size int) [][]T {
	var out [][]T
	for len(xs) > 0 {
		n := min(size, len(xs))
		out = append(out, xs[:n:n])
		xs = xs[n:]
	}
	return out
}

// codec replays MarshalFrame/UnmarshalFrame on the workload's own
// frames: a publication, the notification it causes, and an admission
// batch, in the binary codec brokers negotiate between themselves.
func (r *replayer) codec() {
	const wire = pubsub.CodecBinary5
	pool := r.in.Pool
	n := min(maxCalls, len(pool))
	frames := make([][]byte, n)
	var buf []byte

	pubFrame := func(i int) *pubsub.Frame {
		return &pubsub.Frame{Msg: &broker.Message{Kind: broker.MsgPublish, PubID: "p" + strconv.Itoa(1000000+i), Pub: pool[i].Pub}}
	}
	r.m["codec.encode_pub_ns"], _ = r.t.stream("codec", "codec.encode_pub", n, func(i int) {
		buf, _ = pubsub.MarshalFrame(wire, buf[:0], pubFrame(i)) // these frames always encode
		frames[i] = append(frames[i][:0], buf...)
	})
	r.m["codec.pub_frame_bytes"] = float64(len(frames[0]))
	r.m["codec.decode_pub_ns"], r.m["codec.decode_pub_allocs"] = r.t.stream("codec", "codec.decode_pub", n, func(i int) {
		_, _, _ = pubsub.UnmarshalFrame(frames[i])
	})

	notify := func(i int) *pubsub.Frame {
		p := pool[i]
		return &pubsub.Frame{Msg: &broker.Message{Kind: broker.MsgNotify, SubID: p.Expect[0].ID(), PubID: "p" + strconv.Itoa(1000000+i), Pub: p.Pub}}
	}
	r.m["codec.encode_notify_ns"], _ = r.t.stream("codec", "codec.encode_notify", n, func(i int) {
		buf, _ = pubsub.MarshalFrame(wire, buf[:0], notify(i))
		frames[i] = append(frames[i][:0], buf...)
	})
	r.m["codec.decode_notify_ns"], _ = r.t.stream("codec", "codec.decode_notify", n, func(i int) {
		_, _, _ = pubsub.UnmarshalFrame(frames[i])
	})

	subs := r.in.Refs(gen.Burst)
	if len(subs) == 0 {
		subs = r.in.Refs(gen.Base)
	}
	bs := batches(r.in.BatchSubs(subs), r.cfg.Batch)
	if len(bs) > maxCalls/16 {
		bs = bs[:maxCalls/16]
	}
	enc := make([][]byte, len(bs))
	per := float64(r.cfg.Batch)
	ns, _ := r.t.stream("codec", "codec.encode_subbatch", len(bs), func(i int) {
		buf, _ = pubsub.MarshalFrame(wire, buf[:0], &pubsub.Frame{Msg: &broker.Message{Kind: broker.MsgSubscribeBatch, Subs: bs[i]}})
		enc[i] = append([]byte(nil), buf...)
	})
	r.m["codec.encode_subbatch_ns_per_sub"] = ns / per
	if len(enc) > 0 {
		r.m["codec.subbatch_bytes_per_sub"] = float64(len(enc[0])) / float64(len(bs[0]))
	}
	ns, allocs := r.t.stream("codec", "codec.decode_subbatch", len(bs), func(i int) {
		_, _, _ = pubsub.UnmarshalFrame(enc[i])
	})
	r.m["codec.decode_subbatch_ns_per_sub"] = ns / per
	r.m["codec.decode_subbatch_allocs_per_sub"] = allocs / per
}

// matcher replays the interval-tree index a broker keeps per port: the
// base population added, every pool point matched, the retired part of
// the base removed.
func (r *replayer) matcher() {
	x := match.NewITreeIndex()
	base := r.in.Subs[gen.Base]
	// Add only marks the index dirty; the first Match pays the rebuild,
	// so it is part of the cost of adding.
	parent := r.t.begin("match", -1, 0)
	sp := r.t.begin("match.add", parent, 0)
	for i, s := range base {
		x.Add(match.ID(i+1), s)
	}
	x.Match(r.in.Pool[0].Pub)
	r.m["match.add_ns"] = float64(r.t.end(sp)) / float64(len(base))
	r.t.end(parent)

	var hits int
	n := min(maxCalls, len(r.in.Pool))
	r.m["match.match_ns"], r.m["match.match_allocs"] = r.t.stream("match", "match.match", n, func(i int) {
		hits += len(x.Match(r.in.Pool[i].Pub))
	})
	r.m["match.matches_per_pub"] = float64(hits) / float64(n)

	var gone int
	parent = r.t.begin("match", -1, 0)
	sp = r.t.begin("match.remove", parent, 0)
	for _, ref := range r.in.Retire {
		if ref.Class() == gen.Base {
			x.Remove(match.ID(ref.Index() + 1))
			gone++
		}
	}
	x.Match(r.in.Pool[0].Pub)
	if d := r.t.end(sp); gone > 0 {
		r.m["match.remove_ns"] = float64(d) / float64(gone)
	}
	r.t.end(parent)
}

func (r *replayer) tableOptions() []subsume.TableOption {
	return pubsub.Config{ErrorProbability: r.cfg.Delta, Seed: 1}.TableOptions()
}

// newBroker builds the broker state machine brokerd runs, with S and P
// attached and, on a chain, one neighbour to forward to.
func (r *replayer) newBroker() (*broker.Broker, error) {
	b, err := broker.New("R", store.PolicyGroup, broker.WithSeed(1), broker.WithTableOptions(r.tableOptions()...))
	if err != nil {
		return nil, err
	}
	b.AttachClient("S")
	b.AttachClient("P")
	if r.cfg.Hops > 1 {
		if err := b.ConnectNeighbor("N"); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// brokerStreams replays Broker.Handle in the order a round uses it: the
// base population (set-up, not timed), publications, the burst in
// batches, the retire sample in batches.
func (r *replayer) brokerStreams() error {
	b, err := r.newBroker()
	if err != nil {
		return err
	}
	var herr error
	handle := func(from string, msg broker.Message) {
		if _, err := b.Handle(from, msg); err != nil && herr == nil {
			herr = err
		}
	}
	for _, batch := range batches(r.in.BatchSubs(r.in.Refs(gen.Base)), 1000) {
		handle("S", broker.Message{Kind: broker.MsgSubscribeBatch, Subs: batch})
	}
	handle("P", broker.Message{Kind: broker.MsgPublish, PubID: "warm", Pub: r.in.Pool[0].Pub}) // index rebuild

	n := min(maxCalls, len(r.in.Pool))
	r.m["broker.handle_pub_ns"], r.m["broker.handle_pub_allocs"] = r.t.stream("broker", "broker.handle_pub", n, func(i int) {
		handle("P", broker.Message{Kind: broker.MsgPublish, PubID: "p" + strconv.Itoa(i), Pub: r.in.Pool[i].Pub})
	})

	per := float64(r.cfg.Batch)
	bs := batches(r.in.BatchSubs(r.in.Refs(gen.Burst)), r.cfg.Batch)
	ns, allocs := r.t.stream("broker", "broker.handle_sub_batch", len(bs), func(i int) {
		handle("S", broker.Message{Kind: broker.MsgSubscribeBatch, Subs: bs[i]})
	})
	r.m["broker.handle_sub_ns_per_sub"], r.m["broker.handle_sub_allocs_per_sub"] = ns/per, allocs/per

	ids := make([]string, 0, len(r.in.Retire))
	for _, ref := range r.in.Retire {
		if ref.Class() != gen.Single { // the singles are not replayed on this stream
			ids = append(ids, ref.ID())
		}
	}
	us := batches(ids, r.cfg.Batch)
	ns, _ = r.t.stream("broker", "broker.handle_unsub_batch", len(us), func(i int) {
		handle("S", broker.Message{Kind: broker.MsgUnsubscribeBatch, SubIDs: us[i]})
	})
	r.m["broker.handle_unsub_ns_per_sub"] = ns / per
	return herr
}

// tableStreams replays the admission path below the broker on the same
// inputs: the coverage table (batches, then single subscribes, then the
// retire sample), the store under it (the same single subscribes), and
// on every 20th burst subscription the checker and the conflict table
// against the store's active set of that moment.
func (r *replayer) tableStreams() error {
	in := r.in
	tab, err := subsume.NewTable(subsume.Group, r.tableOptions()...)
	if err != nil {
		return err
	}
	checker, err := core.NewChecker(core.WithErrorProbability(r.cfg.Delta), core.WithSeed(1, 2))
	if err != nil {
		return err
	}
	st, err := store.New(store.PolicyGroup, store.WithChecker(checker))
	if err != nil {
		return err
	}
	probe, err := core.NewChecker(core.WithErrorProbability(r.cfg.Delta), core.WithSeed(3, 4))
	if err != nil {
		return err
	}

	// One numeric ID space for both containers: base, then burst, then
	// singles.
	id := map[gen.Ref]subsume.ID{}
	var all []gen.Ref
	for _, c := range []gen.Class{gen.Base, gen.Burst, gen.Single} {
		all = append(all, r.in.Refs(c)...)
	}
	for i, ref := range all {
		id[ref] = subsume.ID(i + 1)
	}
	idsOf := func(refs []gen.Ref) ([]subsume.ID, []subscription.Subscription) {
		ids := make([]subsume.ID, len(refs))
		subs := make([]subscription.Subscription, len(refs))
		for i, ref := range refs {
			ids[i] = id[ref]
			subs[i], _ = in.Sub(ref)
		}
		return ids, subs
	}

	var serr error
	note := func(err error) {
		if err != nil && serr == nil {
			serr = err
		}
	}
	baseIDs, baseSubs := idsOf(r.in.Refs(gen.Base))
	_, err = tab.SubscribeBatch(baseIDs, baseSubs)
	note(err)
	_, err = st.SubscribeBatch(baseIDs, baseSubs)
	note(err)

	// Burst: the table in the system's batches; the store keeps pace so
	// the checker samples see the active set of that moment.
	var (
		res                       core.Result
		ct                        conflict.Table
		calls, setSize, trials    int
		coveredNs, buildNs        time.Duration
		reasons                   [core.ReasonTrialsExhausted + 1]int
		coveredAllocs, buildCalls float64
	)
	per := float64(r.cfg.Batch)
	bs := batches(r.in.Refs(gen.Burst), r.cfg.Batch)
	parent := r.t.begin("core", -1, 0)
	ns, allocs := 0.0, 0.0
	{
		tparent := r.t.begin("subsume", -1, 0)
		var m0, m1 runtime.MemStats
		var total time.Duration
		var mallocs uint64
		for bi, refs := range bs {
			ids, subs := idsOf(refs)
			for k := 0; k < len(subs); k += 20 {
				set := st.ActiveSubscriptions()
				sp := r.t.begin("conflict.build", parent, uint64(bi))
				note(ct.Reset(subs[k], set))
				buildNs += r.t.end(sp)
				buildCalls++
				runtime.ReadMemStats(&m0)
				sp = r.t.begin("core.covered", parent, uint64(bi))
				note(probe.CoveredInto(&res, subs[k], set))
				coveredNs += r.t.end(sp)
				runtime.ReadMemStats(&m1)
				coveredAllocs += float64(m1.Mallocs - m0.Mallocs)
				calls++
				setSize += len(set)
				trials += res.ExecutedTrials
				if int(res.Reason) < len(reasons) {
					reasons[res.Reason]++
				}
			}
			runtime.ReadMemStats(&m0)
			sp := r.t.begin("subsume.subscribe_batch", tparent, uint64(bi))
			_, err := tab.SubscribeBatch(ids, subs)
			total += r.t.end(sp)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			note(err)
			_, err = st.SubscribeBatch(ids, subs)
			note(err)
		}
		r.t.end(tparent)
		if len(bs) > 0 {
			ns, allocs = float64(total)/float64(len(bs)), float64(mallocs)/float64(len(bs))
		}
	}
	r.t.end(parent)
	r.m["subsume.subscribe_batch_ns_per_sub"], r.m["subsume.allocs_per_sub"] = ns/per, allocs/per
	if calls > 0 {
		c := float64(calls)
		r.m["core.covered_ns"] = float64(coveredNs) / c
		r.m["core.covered_allocs"] = coveredAllocs / c
		r.m["core.set_size_mean"] = float64(setSize) / c
		r.m["core.rspc_trials_per_call"] = float64(trials) / c
		r.m["core.reason_pairwise_frac"] = float64(reasons[core.ReasonPairwiseCover]) / c
		r.m["core.reason_polyhedron_frac"] = float64(reasons[core.ReasonPolyhedronWitness]) / c
		r.m["core.reason_empty_mcs_frac"] = float64(reasons[core.ReasonEmptyMCS]) / c
		r.m["core.reason_point_witness_frac"] = float64(reasons[core.ReasonPointWitness]) / c
		r.m["core.reason_trials_exhausted_frac"] = float64(reasons[core.ReasonTrialsExhausted]) / c
		r.m["conflict.build_ns"] = float64(buildNs) / buildCalls
		if setSize > 0 {
			r.m["conflict.build_ns_per_row"] = float64(buildNs) / float64(setSize)
		}
	}
	snap := tab.Snapshot()
	if snap.Len > 0 {
		r.m["subsume.active_frac"] = float64(snap.Active) / float64(snap.Len)
	}

	// Singles: the same subscriptions, one call each, into the table
	// and into the store.
	singleIDs, singleSubs := idsOf(r.in.Refs(gen.Single))
	r.m["subsume.subscribe_ns"], _ = r.t.stream("subsume", "subsume.subscribe", len(singleIDs), func(i int) {
		_, err := tab.Subscribe(singleIDs[i], singleSubs[i])
		note(err)
	})
	r.m["store.subscribe_ns"], r.m["store.allocs_per_sub"] = r.t.stream("store", "store.subscribe", len(singleIDs), func(i int) {
		_, err := st.Subscribe(singleIDs[i], singleSubs[i])
		note(err)
	})

	// Retire: the table in batches, the store one at a time.
	retireIDs, _ := idsOf(in.Retire)
	var promoted int
	us := batches(retireIDs, r.cfg.Batch)
	ns, _ = r.t.stream("subsume", "subsume.unsubscribe_batch", len(us), func(i int) {
		out, err := tab.UnsubscribeBatch(us[i])
		note(err)
		promoted += len(out.Promoted)
	})
	r.m["subsume.unsubscribe_batch_ns_per_sub"] = ns / per
	if len(retireIDs) > 0 {
		r.m["subsume.promotions_per_unsub"] = float64(promoted) / float64(len(retireIDs))
	}
	n := min(maxCalls, len(retireIDs))
	r.m["store.unsubscribe_ns"], _ = r.t.stream("store", "store.unsubscribe", n, func(i int) {
		_, err := st.Unsubscribe(retireIDs[i])
		note(err)
	})
	return serr
}

// journal replays the durability layer: raw appends and syncs on a
// DirStore in the scratch directory, then the publication stream
// through a broker with and without a BrokerJournal over such a store.
func (r *replayer) journal() error {
	dir, err := os.MkdirTemp(r.cfg.Dir, "replay-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := persist.Open(dir)
	if err != nil {
		return err
	}
	defer ds.Close()

	rec, err := pubsub.MarshalFrame(pubsub.CodecBinary5, nil, &pubsub.Frame{Msg: &broker.Message{
		Kind: broker.MsgSubscribe, SubID: "b1", Sub: r.in.Subs[gen.Base][0]}})
	if err != nil {
		return err
	}
	var jerr error
	const appends = 2048
	r.m["persist.append_ns"], _ = r.t.stream("persist", "persist.append", appends, func(int) {
		if err := ds.Append(rec); err != nil && jerr == nil {
			jerr = err
		}
	})
	// A sync after every 64 appends, the batch brokerd's default syncs.
	parent := r.t.begin("persist", -1, 0)
	var syncNs time.Duration
	const syncs = 16
	for i := 0; i < syncs; i++ {
		for k := 0; k < 64; k++ {
			if err := ds.Append(rec); err != nil && jerr == nil {
				jerr = err
			}
		}
		sp := r.t.begin("persist.sync", parent, uint64(i))
		if err := ds.Sync(); err != nil && jerr == nil {
			jerr = err
		}
		syncNs += r.t.end(sp)
	}
	r.t.end(parent)
	if jerr != nil {
		return jerr
	}
	r.m["persist.sync_ns"] = float64(syncNs) / syncs
	if r.cfg.JournalSync > 0 {
		r.m["persist.syncs_per_1k_ops"] = 1000 / float64(r.cfg.JournalSync)
	}

	// The same publications through a broker holding the base
	// population, journaled and not.
	run := func(journaled bool) (float64, int64, error) {
		b, err := r.newBroker()
		if err != nil {
			return 0, 0, err
		}
		var size0 int64
		path := dir + "/b"
		if journaled {
			if err := os.MkdirAll(path, 0o755); err != nil {
				return 0, 0, err
			}
			jds, err := persist.Open(path)
			if err != nil {
				return 0, 0, err
			}
			defer jds.Close()
			b.SetJournal(pubsub.NewBrokerJournal(b, jds, r.cfg.JournalSync))
		}
		for _, batch := range batches(r.in.BatchSubs(r.in.Refs(gen.Base)), 1000) {
			if _, err := b.Handle("S", broker.Message{Kind: broker.MsgSubscribeBatch, Subs: batch}); err != nil {
				return 0, 0, err
			}
		}
		if _, err := b.Handle("P", broker.Message{Kind: broker.MsgPublish, PubID: "warm", Pub: r.in.Pool[0].Pub}); err != nil {
			return 0, 0, err
		}
		if journaled {
			size0 = dirSize(path)
		}
		name := "persist.handle_pub_plain"
		if journaled {
			name = "persist.handle_pub_journaled"
		}
		n := min(maxCalls, len(r.in.Pool))
		var herr error
		ns, _ := r.t.stream("persist", name, n, func(i int) {
			if _, err := b.Handle("P", broker.Message{Kind: broker.MsgPublish, PubID: "p" + strconv.Itoa(i), Pub: r.in.Pool[i].Pub}); err != nil && herr == nil {
				herr = err
			}
		})
		var grown int64
		if journaled {
			grown = dirSize(path) - size0
		}
		return ns, grown / int64(n), herr
	}
	plain, _, err := run(false)
	if err != nil {
		return err
	}
	journaled, bytes, err := run(true)
	if err != nil {
		return err
	}
	r.m["persist.journal_cpu_us_per_op"] = (journaled - plain) / 1e3
	r.m["persist.journal_bytes_per_op"] = float64(bytes)
	return nil
}

func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// WriteTrace writes the spans as one JSON document.
func WriteTrace(path, workload string, seed uint64, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
