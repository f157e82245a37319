// Package drive is psbench's load generator: two pubsub clients — P at
// the first broker, S at the last — driven from one goroutine in closed
// loops, with every delivery checked against the brute-force reference
// over what S holds at that moment.
package drive

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"probsum/bench/clock"
	"probsum/bench/gen"
	"probsum/pubsub"
)

const (
	// OpTimeout bounds a barrier, a wait for the first probe, and any
	// stretch of a publication phase without a single completion.
	OpTimeout = 10 * time.Second
	// Window is the number of publications a throughput phase keeps in
	// flight.
	Window = 32
	// slots is the size of the in-flight ring: twice the window, so a
	// straggling delivery for a completed publication still finds its
	// slot more often than not (it is classified either way).
	slots = 2 * Window
	// SetupBatch is the batch size used outside timed phases.
	SetupBatch = 1000
)

const (
	sentinelID = "sentinel"
	probeID    = "probe"
)

// Tally counts operations and the ways they failed.
type Tally struct {
	Attempted int // publications sent for checking + barriers
	Failed    int // publications with a wrong delivery set + barrier time-outs
	// Delivery-level detail.
	DeliveriesExpected int
	DeliveriesMissing  int
	DeliveriesSpurious int
	BarrierTimeouts    int
}

// Add accumulates another round's counts.
func (t *Tally) Add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.DeliveriesExpected += o.DeliveriesExpected
	t.DeliveriesMissing += o.DeliveriesMissing
	t.DeliveriesSpurious += o.DeliveriesSpurious
	t.BarrierTimeouts += o.BarrierTimeouts
}

// Engine drives one broker set through its phases. It is used from one
// goroutine.
type Engine struct {
	In   *gen.Inputs
	P, S *pubsub.Client
	// Live is what S holds right now, maintained as operations are
	// sent; audits compute their reference from it.
	Live *gen.Matcher
	// Timeout is OpTimeout unless a test shortens it.
	Timeout time.Duration
	Tally

	seq      uint64 // next publication number
	barriers uint64
	probes   uint64

	churnOps int // churn operations sent so far
	// churnedBelow is the first publication number after the last phase
	// that churned. Publications below it may be delivered to a churn
	// subscription at any later time: the broker emits a publication's
	// notifications in subscription-ID order, base before churn, so
	// the churn ones trail the delivery that completes it and can
	// surface in a later phase.
	churnedBelow uint64
}

// Dial connects P to the first broker and S to the last and installs
// P's sentinel subscription.
func Dial(in *gen.Inputs, addrP, addrS string) (*Engine, error) {
	e := &Engine{In: in, Live: gen.NewMatcher(), Timeout: OpTimeout}
	if err := e.RedialP(addrP); err != nil {
		return nil, err
	}
	if err := e.RedialS(addrS); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), OpTimeout)
}

// dialRetry dials until the listener answers: a broker that was just
// exec'd may not be accepting yet.
func dialRetry(addr, name string) (*pubsub.Client, error) {
	deadline := time.Now().Add(OpTimeout)
	for {
		ctx, cancel := opCtx()
		c, err := pubsub.Dial(ctx, addr, name)
		cancel()
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// RedialP (re)connects the publisher and re-announces its sentinel
// subscription (a duplicate announcement is dropped by the broker).
func (e *Engine) RedialP(addr string) error {
	if e.P != nil {
		e.P.Close()
	}
	c, err := dialRetry(addr, "P")
	if err != nil {
		return err
	}
	e.P = c
	ctx, cancel := opCtx()
	defer cancel()
	return e.P.Subscribe(ctx, sentinelID, gen.SentinelSub())
}

// RedialS (re)connects the subscriber without announcing anything.
func (e *Engine) RedialS(addr string) error {
	if e.S != nil {
		e.S.Close()
	}
	c, err := dialRetry(addr, "S")
	if err != nil {
		return err
	}
	e.S = c
	return nil
}

// Close drops both connections.
func (e *Engine) Close() {
	if e.P != nil {
		e.P.Close()
	}
	if e.S != nil {
		e.S.Close()
	}
}

// AwaitPath returns once a sentinel published by S reaches P. P's
// sentinel subscription travels towards S over the brokers' dial-back
// links, which come up on their own schedule after a broker starts, so
// S publishes a sentinel every 2 ms until one gets through. Only then
// does a barrier mean anything.
func (e *Engine) AwaitPath() error {
	e.Attempted++
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(e.Timeout)
	for {
		select {
		case _, ok := <-e.P.Notifications():
			if !ok {
				return errors.New("drive: P's connection closed while waiting for the sentinel path")
			}
			return nil
		case <-tick.C:
			e.barriers++
			ctx, cancel := opCtx()
			err := e.S.Publish(ctx, "b"+strconv.FormatUint(e.barriers, 10), gen.SentinelPub())
			cancel()
			if err != nil {
				return err
			}
		case <-deadline:
			e.BarrierTimeouts++
			e.Failed++
			return fmt.Errorf("drive: no sentinel reached P within %v", e.Timeout)
		}
	}
}

// Barrier returns once every broker between S and P has handled every
// frame S sent before the call: S publishes a sentinel on the same
// connection, frames are handled in order per connection and per link,
// and only P's standing sentinel subscription matches it.
func (e *Engine) Barrier() error {
	e.barriers++
	e.Attempted++
	id := "b" + strconv.FormatUint(e.barriers, 10)
	ctx, cancel := opCtx()
	err := e.S.Publish(ctx, id, gen.SentinelPub())
	cancel()
	if err != nil {
		return err
	}
	timeout := time.NewTimer(e.Timeout)
	defer timeout.Stop()
	for {
		select {
		case n, ok := <-e.P.Notifications():
			if !ok {
				return errors.New("drive: P's connection closed while waiting for a barrier")
			}
			if n.PubID == id {
				return nil
			}
		case <-timeout.C:
			e.BarrierTimeouts++
			e.Failed++
			return fmt.Errorf("drive: barrier %s not confirmed within %v", id, e.Timeout)
		}
	}
}

// Subscribe sends refs as SubscribeBatch frames of the given size,
// without waiting.
func (e *Engine) Subscribe(refs []gen.Ref, batch int) error {
	for len(refs) > 0 {
		n := min(batch, len(refs))
		ctx, cancel := opCtx()
		err := e.S.SubscribeBatch(ctx, e.In.BatchSubs(refs[:n]))
		cancel()
		if err != nil {
			return err
		}
		for _, r := range refs[:n] {
			s, _ := e.In.Sub(r)
			e.Live.Add(r, s)
		}
		refs = refs[n:]
	}
	return nil
}

// Admit sends refs as SubscribeBatch frames of the given size with a
// barrier after every slice subscriptions, samples the CPU's speed at
// every barrier, and returns how long the admission took: as measured,
// and with every slice divided by the slow-down at its two ends.
func (e *Engine) Admit(refs []gen.Ref, batch, slice int) (elapsed, scaled time.Duration, err error) {
	slow := clock.Slowdown()
	for len(refs) > 0 {
		n := min(slice, len(refs))
		t0 := time.Now()
		if err := e.Subscribe(refs[:n], batch); err != nil {
			return elapsed, scaled, err
		}
		if err := e.Barrier(); err != nil {
			return elapsed, scaled, err
		}
		d := time.Since(t0)
		next := clock.Slowdown()
		elapsed += d
		scaled += time.Duration(float64(d) / ((slow + next) / 2))
		slow, refs = next, refs[n:]
	}
	return elapsed, scaled, nil
}

// Unsubscribe sends refs as UnsubscribeBatch frames of the given size,
// without waiting.
func (e *Engine) Unsubscribe(refs []gen.Ref, batch int) error {
	for len(refs) > 0 {
		n := min(batch, len(refs))
		ids := make([]string, n)
		for i, r := range refs[:n] {
			ids[i] = r.ID()
			e.Live.Remove(r)
		}
		ctx, cancel := opCtx()
		err := e.S.UnsubscribeBatch(ctx, ids)
		cancel()
		if err != nil {
			return err
		}
		refs = refs[n:]
	}
	return nil
}

// Setup waits for the sentinel path, announces S's probe subscription
// and the base population, waits for the barrier (everything is admitted
// on every hop) and then for one probe (P→S delivers).
func (e *Engine) Setup() error {
	if err := e.AwaitPath(); err != nil {
		return err
	}
	ctx, cancel := opCtx()
	err := e.S.Subscribe(ctx, probeID, gen.ProbeSub())
	cancel()
	if err != nil {
		return err
	}
	if err := e.Subscribe(e.In.Refs(gen.Base), SetupBatch); err != nil {
		return err
	}
	if err := e.Barrier(); err != nil {
		return err
	}
	_, err = e.Probe()
	return err
}

// SingleLatencies subscribes refs one at a time, each confirmed by a
// barrier, and returns the subscribe→barrier times in microseconds.
func (e *Engine) SingleLatencies(refs []gen.Ref) ([]float64, error) {
	out := make([]float64, 0, len(refs))
	for _, r := range refs {
		s, _ := e.In.Sub(r)
		t0 := time.Now()
		ctx, cancel := opCtx()
		err := e.S.Subscribe(ctx, r.ID(), s)
		cancel()
		if err != nil {
			return out, err
		}
		e.Live.Add(r, s)
		if err := e.Barrier(); err != nil {
			return out, err
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// PubPhase describes one closed-loop publication phase.
type PubPhase struct {
	Count  int // publications to complete
	Window int // publications kept in flight
	// Points are cycled through; each carries the delivery set S must
	// receive for it.
	Points []gen.Point
	// ChurnEvery, when positive, sends one churn operation from S per
	// that many completions. Deliveries to churn subscriptions are then
	// accepted when the subscription contains the point and never
	// required: whether one was live when a publication passed is a
	// race by construction.
	ChurnEvery int
	// Slice, when positive, cuts the phase into slices of that many
	// publications: at the end of a slice nothing new is sent until the
	// ones in flight completed, the CPU's speed is sampled, and the
	// slice's time and latencies are scaled by the slow-down measured
	// at its two ends. Zero runs the phase in one piece, unscaled.
	Slice int
	// KeepLatencies records each publication's publish→complete time.
	KeepLatencies bool
}

// PubResult is what a publication phase measured.
type PubResult struct {
	// Elapsed is the time the slices took, without the speed samples
	// between them; Scaled is the same with every slice divided by its
	// slow-down.
	Elapsed, Scaled time.Duration
	Completed       int
	// Latencies are microseconds in completion order, as measured and
	// scaled.
	Latencies, ScaledLatencies []float64
	// Slowdowns are the speed samples taken, first to last.
	Slowdowns []float64
}

type slot struct {
	seq   uint64
	point int // index into the phase's points
	need  int
	seen  []uint64 // bitset over the point's expected deliveries
	sent  time.Time
	live  bool
	bad   bool // a spurious delivery was charged to this publication
}

// Publish runs one phase: keep Window publications in flight from P
// until Count completed, where complete means S received the whole
// expected delivery set.
func (e *Engine) Publish(ph PubPhase) (PubResult, error) {
	var (
		res     PubResult
		ring    [slots]slot
		sent    int
		pending int
	)
	if ph.KeepLatencies {
		res.Latencies = make([]float64, 0, ph.Count)
		res.ScaledLatencies = make([]float64, 0, ph.Count)
	}
	slice := ph.Slice
	if slice <= 0 {
		slice = ph.Count
	}
	// The slice in progress: when it began, the slow-down sampled just
	// before, and where its latencies start.
	slow := 1.0
	if ph.Slice > 0 {
		slow = clock.Slowdown()
		res.Slowdowns = append(res.Slowdowns, slow)
	}
	sliceStart, sliceLat := time.Now(), 0
	endSlice := func() {
		d := time.Since(sliceStart)
		next := slow
		if ph.Slice > 0 {
			next = clock.Slowdown()
			res.Slowdowns = append(res.Slowdowns, next)
		}
		f := (slow + next) / 2
		res.Elapsed += d
		res.Scaled += time.Duration(float64(d) / f)
		for _, l := range res.Latencies[sliceLat:] {
			res.ScaledLatencies = append(res.ScaledLatencies, l/f)
		}
		slow, sliceStart, sliceLat = next, time.Now(), len(res.Latencies)
	}
	send := func() error {
		seq := e.seq
		e.seq++
		sl := &ring[seq%slots]
		pi := sent % len(ph.Points)
		want := len(ph.Points[pi].Expect)
		*sl = slot{seq: seq, point: pi, need: want, seen: sl.seen[:0], live: true}
		for i := 0; i < (want+63)/64; i++ {
			sl.seen = append(sl.seen, 0)
		}
		e.Attempted++
		e.DeliveriesExpected += want
		sent++
		pending++
		id := "p" + strconv.FormatUint(seq, 10)
		ctx, cancel := opCtx()
		sl.sent = time.Now()
		err := e.P.Publish(ctx, id, ph.Points[pi].Pub)
		cancel()
		return err
	}
	// fill sends until the window is full, the phase is sent, or the
	// slice in progress is.
	fill := func() error {
		for sent < ph.Count && pending < ph.Window && sent < (res.Completed/slice+1)*slice {
			if err := send(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(); err != nil {
		return res, err
	}

	stall := time.NewTicker(e.Timeout)
	defer stall.Stop()
	progress := 0
	for res.Completed < ph.Count {
		select {
		case n, ok := <-e.S.Notifications():
			if !ok {
				return res, errors.New("drive: S's connection closed during a publication phase")
			}
			seq, isPub := parsePubID(n.PubID)
			if !isPub {
				continue // a late recovery probe
			}
			ref, known := gen.ParseRef(n.SubID)
			sl := &ring[seq%slots]
			if !sl.live || sl.seq != seq {
				// A delivery for a publication already complete: only a
				// churn subscription that contains the point may
				// legitimately produce one, and only for a publication
				// of a phase that churned.
				lenient := ph.ChurnEvery > 0 || seq < e.churnedBelow
				if !(known && lenient && ref.Class() == gen.Churn && e.contains(ref, n.Pub.Values)) {
					e.DeliveriesSpurious++
					e.Failed++
				}
				continue
			}
			exp := ph.Points[sl.point].Expect
			i := sort.Search(len(exp), func(i int) bool { return exp[i] >= ref })
			switch {
			case known && i < len(exp) && exp[i] == ref && sl.seen[i/64]&(1<<(i%64)) == 0:
				sl.seen[i/64] |= 1 << (i % 64)
				sl.need--
			case known && ph.ChurnEvery > 0 && ref.Class() == gen.Churn && e.contains(ref, ph.Points[sl.point].Pub.Values):
				// accepted, not required
			default:
				e.DeliveriesSpurious++
				if !sl.bad {
					sl.bad = true
					e.Failed++
				}
			}
			if sl.need > 0 {
				continue
			}
			sl.live = false
			pending--
			res.Completed++
			if ph.KeepLatencies {
				res.Latencies = append(res.Latencies, float64(time.Since(sl.sent))/1e3)
			}
			if res.Completed%slice == 0 || res.Completed == ph.Count {
				endSlice() // nothing is in flight: fill stopped at the slice's end
			}
			if ph.ChurnEvery > 0 && res.Completed%ph.ChurnEvery == 0 {
				if err := e.churnOp(); err != nil {
					return res, err
				}
			}
			if err := fill(); err != nil {
				return res, err
			}
		case <-stall.C:
			if res.Completed > progress {
				progress = res.Completed
				continue
			}
			for i := range ring {
				if sl := &ring[i]; sl.live {
					e.DeliveriesMissing += sl.need
					if !sl.bad {
						e.Failed++
					}
				}
			}
			return res, fmt.Errorf("drive: no publication completed for %v (%d of %d done, %d in flight)",
				e.Timeout, res.Completed, ph.Count, pending)
		}
	}
	if ph.ChurnEvery > 0 {
		e.churnedBelow = e.seq
	}
	return res, nil
}

func (e *Engine) contains(r gen.Ref, p []int64) bool {
	s, ok := e.In.Sub(r)
	return ok && s.ContainsPoint(p)
}

func parsePubID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'p' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	return n, err == nil
}

// churnDepth is how many churn subscriptions stay live once the churn
// has run in: operation 2k subscribes the k-th, operation 2k+1 retires
// the (k−churnDepth)-th.
const churnDepth = 64

func (e *Engine) churnOp() error {
	j := e.churnOps
	e.churnOps++
	n := len(e.In.Subs[gen.Churn])
	ctx, cancel := opCtx()
	defer cancel()
	if j%2 == 0 {
		r := gen.MakeRef(gen.Churn, (j/2)%n)
		s, _ := e.In.Sub(r)
		e.Live.Add(r, s)
		return e.S.Subscribe(ctx, r.ID(), s)
	}
	k := j/2 - churnDepth
	if k < 0 {
		return nil
	}
	r := gen.MakeRef(gen.Churn, k%n)
	e.Live.Remove(r)
	return e.S.Unsubscribe(ctx, r.ID())
}

// AuditPoints computes, by brute force over what S holds now, the
// delivery set of each of the first pool points that has one, up to n
// points.
func (e *Engine) AuditPoints(n int) []gen.Point {
	out := make([]gen.Point, 0, n)
	for _, p := range e.In.Pool {
		if len(out) == n {
			break
		}
		hits := e.Live.Match(p.Pub.Values, nil)
		if len(hits) == 0 {
			continue
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
		out = append(out, gen.Point{Pub: p.Pub, Expect: hits})
	}
	return out
}

// Probe publishes the recovery probe from P every 2 ms until S
// receives one, and returns the instant it arrived.
func (e *Engine) Probe() (time.Time, error) {
	e.Attempted++
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(e.Timeout)
	for {
		select {
		case n, ok := <-e.S.Notifications():
			if !ok {
				return time.Time{}, errors.New("drive: S's connection closed while probing")
			}
			if n.SubID == probeID {
				return time.Now(), nil
			}
		case <-tick.C:
			e.probes++
			ctx, cancel := opCtx()
			err := e.P.Publish(ctx, "r"+strconv.FormatUint(e.probes, 10), gen.ProbePub())
			cancel()
			if err != nil {
				return time.Time{}, err
			}
		case <-deadline:
			e.Failed++
			return time.Time{}, fmt.Errorf("drive: no probe delivered within %v", e.Timeout)
		}
	}
}
