// Package gen makes every input psbench feeds the brokers — subscription
// populations, admission bursts, the retire sample, the publication
// pool — from one seed, and holds the brute-force matcher the benchmark
// checks deliveries against. The program under test only ever sees
// these generated inputs.
package gen

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/internal/workload"
)

// Schema shape shared by all workloads: 6 attributes over [0, 9999].
const (
	Attrs     = 6
	DomainLo  = 0
	DomainHi  = 9999
	ProbeV    = 9998 // attribute-0 value reserved for the recovery probe
	SentinelV = 9999 // attribute-0 value reserved for the admission barrier
	// MaxV caps attribute 0 of every generated subscription and
	// publication, so nothing generated touches the two reserved
	// corners above it.
	MaxV = 9997
	// MaxFanout bounds a pool point's delivery set.
	MaxFanout = 64
)

// Class tags the stream a subscription came from; it is the first byte
// of its wire ID.
type Class byte

const (
	Base   Class = 'b' // the standing population, admitted in set-up
	Burst  Class = 'u' // the timed batch-admission burst
	Single Class = 'g' // the one-at-a-time timed subscribes
	Churn  Class = 'c' // subscriptions churned beside publications
)

// Ref names one generated subscription: class in the top byte, index
// within its stream below.
type Ref uint32

// MakeRef packs a class and an index.
func MakeRef(c Class, idx int) Ref { return Ref(uint32(c)<<24 | uint32(idx)) }

// Class returns the stream the subscription belongs to.
func (r Ref) Class() Class { return Class(r >> 24) }

// Index returns the position within the stream.
func (r Ref) Index() int { return int(r & 0xffffff) }

// ID is the subscription's wire identifier, e.g. "b17".
func (r Ref) ID() string { return string(rune(r.Class())) + strconv.Itoa(r.Index()) }

// ParseRef inverts Ref.ID; ok is false for IDs psbench did not mint
// (the sentinel and probe subscriptions among them).
func ParseRef(id string) (Ref, bool) {
	if len(id) < 2 {
		return 0, false
	}
	switch Class(id[0]) {
	case Base, Burst, Single, Churn:
	default:
		return 0, false
	}
	n := 0
	for i := 1; i < len(id); i++ {
		d := id[i]
		if d < '0' || d > '9' || n > 1<<22 {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return MakeRef(Class(id[0]), n), true
}

// Spec is the shape of one workload's inputs.
type Spec struct {
	// Base is the standing population S holds after set-up.
	Base int
	// FanMin..FanMax is the accepted delivery-set size of a pool point
	// over the base population.
	FanMin, FanMax int
	// Pool is the number of publication points cycled through.
	Pool int
	// Burst, Singles and Churn size the three admission streams;
	// Retire is the size of the uniform sample of base+burst+singles
	// that is unsubscribed.
	Burst, Singles, Churn, Retire int
}

// Inputs is everything generated for one run of one workload.
type Inputs struct {
	Spec   Spec
	Schema *subscription.Schema
	// Subs holds the four streams, indexed by class.
	Subs map[Class][]subscription.Subscription
	// Retire is the seeded sample of the population live after the burst
	// and the singles were admitted that gets unsubscribed (see
	// retireSample).
	Retire []Ref
	// Pool is the publication points cycled through, each with its
	// delivery set over the base population.
	Pool []Point
	// MeanFanout is the realised mean delivery-set size over the pool.
	MeanFanout float64
}

// Point is a publication and the subscriptions, ascending, that must be
// notified of it.
type Point struct {
	Pub    subscription.Publication
	Expect []Ref
}

// Sub returns the subscription a Ref names.
func (in *Inputs) Sub(r Ref) (subscription.Subscription, bool) {
	s := in.Subs[r.Class()]
	if r.Index() >= len(s) {
		return subscription.Subscription{}, false
	}
	return s[r.Index()], true
}

// Refs lists a whole generated stream.
func (in *Inputs) Refs(c Class) []Ref {
	out := make([]Ref, len(in.Subs[c]))
	for i := range out {
		out[i] = MakeRef(c, i)
	}
	return out
}

// BatchSubs renders refs as the entries of a SubscribeBatch message.
func (in *Inputs) BatchSubs(refs []Ref) []broker.BatchSub {
	out := make([]broker.BatchSub, len(refs))
	for i, r := range refs {
		s, _ := in.Sub(r)
		out[i] = broker.BatchSub{SubID: r.ID(), Sub: s}
	}
	return out
}

// SentinelSub matches only the barrier publication.
func SentinelSub() subscription.Subscription { return cornerSub(SentinelV) }

// SentinelPub is the barrier publication.
func SentinelPub() subscription.Publication { return cornerPub(SentinelV) }

// ProbeSub matches only the recovery probe.
func ProbeSub() subscription.Subscription { return cornerSub(ProbeV) }

// ProbePub is the recovery probe publication.
func ProbePub() subscription.Publication { return cornerPub(ProbeV) }

func cornerSub(v int64) subscription.Subscription {
	b := make([]interval.Interval, Attrs)
	for a := range b {
		b[a] = interval.New(DomainLo, DomainHi)
	}
	b[0] = interval.Point(v)
	return subscription.Subscription{Bounds: b}
}

func cornerPub(v int64) subscription.Publication {
	vals := make([]int64, Attrs)
	vals[0] = v
	return subscription.Publication{Values: vals}
}

// streamConfig is the paper's §6.4 generator (Zipf attribute popularity,
// Pareto centres, normal widths) at the narrow setting: 3-5 constrained
// attributes, ranges of about 4% of the domain, so three subscriptions
// in four stay uncovered roots, a publication matches few of them and
// the coverage tables stay large. The paper's own setting (ranges of
// 15%, 1-5 attributes) is not used: at these population sizes two or
// three dozen subscriptions end up covering everything else, and
// whichever happen to arrive first decide how hard the checker works for
// all the others — admission time moves by 60% with the arrival order
// alone (measured), which nothing can gate.
func streamConfig() workload.ComparisonConfig {
	cfg := workload.DefaultComparisonConfig(Attrs)
	cfg.WidthMeanFrac, cfg.WidthStdFrac = 0.04, 0.02
	cfg.MinAttrs, cfg.MaxAttrs = 3, 5
	return cfg
}

// clamp keeps attribute 0 below the reserved corners.
func clamp(s subscription.Subscription) subscription.Subscription {
	b := &s.Bounds[0]
	if b.Hi > MaxV {
		b.Hi = MaxV
	}
	if b.Lo > b.Hi {
		b.Lo = b.Hi
	}
	return s
}

// universeSeed is the constant every workload's subscriptions are
// generated from. Subscription sets drawn afresh per --seed move the
// cost of admission by a factor of three to four on the paper's mix — a
// few dozen very broad subscriptions end up covering everything, and
// which ones a seed happens to draw decides how hard the checker has to
// work for all the others — and the cost of a retirement by more (it
// depends on whether a covering root is hit). No regression bound can
// absorb that. So which subscriptions a workload's base, burst, singles,
// churn and retire sets hold is fixed, and the seed decides the rest:
// the order each set arrives in and the points that are published.
const universeSeed = 0x70737562656e6368 // "psubench"

// New generates a workload's inputs. The same spec and seed give
// byte-identical inputs (see Inputs.Bytes).
func New(spec Spec, seed uint64) (*Inputs, error) {
	if spec.FanMin < 1 || spec.FanMax > MaxFanout || spec.FanMin > spec.FanMax {
		return nil, fmt.Errorf("gen: fan-out window [%d,%d] outside [1,%d]", spec.FanMin, spec.FanMax, MaxFanout)
	}
	if spec.Retire > spec.Base+spec.Burst+spec.Singles {
		return nil, fmt.Errorf("gen: retire sample %d exceeds the live population", spec.Retire)
	}
	fixed := rand.New(rand.NewPCG(universeSeed, 1))
	stream, err := workload.NewComparisonStream(fixed, streamConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := &Inputs{Spec: spec, Schema: stream.Schema(), Subs: make(map[Class][]subscription.Subscription, 4)}
	for _, c := range []struct {
		class Class
		n     int
	}{{Base, spec.Base}, {Burst, spec.Burst}, {Single, spec.Singles}, {Churn, spec.Churn}} {
		subs := make([]subscription.Subscription, c.n)
		for i := range subs {
			subs[i] = clamp(stream.Next())
		}
		rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
		in.Subs[c.class] = subs
	}
	in.Retire = in.retireSample(fixed, rng)
	if err := in.fillPool(rng); err != nil {
		return nil, err
	}
	return in, nil
}

// retireSample picks the subscriptions to unsubscribe: a systematic
// sample (fixed stride, start drawn from the constant source) over
// everything live after the burst and the singles, ordered by volume —
// so it holds broad subscriptions (likely covering roots, expensive to
// remove) and narrow ones (likely covered, removed for free) in the
// proportion the population does — in an order the seed shuffles. The
// set is the same for every seed although each stream's order is not,
// so it is identified by the subscriptions' bounds, not their indices.
func (in *Inputs) retireSample(fixed, rng *rand.Rand) []Ref {
	spec := in.Spec
	type sized struct {
		ref  Ref
		sub  subscription.Subscription
		size float64
	}
	live := make([]sized, 0, spec.Base+spec.Burst+spec.Singles)
	for _, c := range []Class{Base, Burst, Single} {
		for i, s := range in.Subs[c] {
			live = append(live, sized{MakeRef(c, i), s, s.LogSize()})
		}
	}
	// A total order that does not depend on the seed's shuffles.
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.size != b.size {
			return a.size > b.size
		}
		if a.ref.Class() != b.ref.Class() {
			return a.ref.Class() < b.ref.Class()
		}
		for k := range a.sub.Bounds {
			if x, y := a.sub.Bounds[k], b.sub.Bounds[k]; x != y {
				return x.Lo < y.Lo || x.Lo == y.Lo && x.Hi < y.Hi
			}
		}
		return false
	})
	out := make([]Ref, spec.Retire)
	stride := float64(len(live)) / float64(max(1, spec.Retire))
	start := fixed.Float64()
	for i := range out {
		out[i] = live[int((float64(i)+start)*stride)].ref
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fillPool draws candidate points and keeps those whose brute-force
// delivery set falls in the spec's fan-out window. A candidate lies
// inside a randomly chosen base subscription, uniform on the attributes
// it leaves open: points uniform over the domain match nothing in
// these populations.
func (in *Inputs) fillPool(rng *rand.Rand) error {
	spec := in.Spec
	base := in.Subs[Base]
	ref := NewMatcher()
	for i, s := range base {
		ref.Add(MakeRef(Base, i), s)
	}
	var total int
	var hits []Ref
	for tries := 0; len(in.Pool) < spec.Pool; tries++ {
		if tries > 400*spec.Pool {
			return fmt.Errorf("gen: only %d of %d pool points with fan-out in [%d,%d] after %d candidates",
				len(in.Pool), spec.Pool, spec.FanMin, spec.FanMax, tries)
		}
		vals := make([]int64, Attrs)
		for a, b := range base[rng.IntN(len(base))].Bounds {
			vals[a] = b.Lo + rng.Int64N(b.Hi-b.Lo+1)
		}
		hits = ref.Match(vals, hits[:0])
		if len(hits) < spec.FanMin || len(hits) > spec.FanMax {
			continue
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
		in.Pool = append(in.Pool, Point{Pub: subscription.Publication{Values: vals}, Expect: append([]Ref(nil), hits...)})
		total += len(hits)
	}
	in.MeanFanout = float64(total) / float64(len(in.Pool))
	return nil
}

// Bytes serialises every generated stream; two runs with one seed must
// produce identical bytes.
func (in *Inputs) Bytes() []byte {
	var out []byte
	for _, c := range []Class{Base, Burst, Single, Churn} {
		out = binary.AppendUvarint(out, uint64(len(in.Subs[c])))
		for _, s := range in.Subs[c] {
			for _, b := range s.Bounds {
				out = binary.AppendVarint(out, b.Lo)
				out = binary.AppendVarint(out, b.Hi)
			}
		}
	}
	out = binary.AppendUvarint(out, uint64(len(in.Retire)))
	for _, r := range in.Retire {
		out = binary.AppendUvarint(out, uint64(r))
	}
	out = binary.AppendUvarint(out, uint64(len(in.Pool)))
	for _, p := range in.Pool {
		for _, v := range p.Pub.Values {
			out = binary.AppendVarint(out, v)
		}
		out = binary.AppendUvarint(out, uint64(len(p.Expect)))
		for _, r := range p.Expect {
			out = binary.AppendUvarint(out, uint64(r))
		}
	}
	return out
}

// Matcher is the brute-force reference: a flat list of boxes scanned in
// full for every point. It shares no code with the program's matchers.
type Matcher struct {
	refs   []Ref
	bounds []int32 // Attrs × (lo, hi) per entry; the domain fits easily
	pos    map[Ref]int
}

const rowW = 2 * Attrs

// NewMatcher returns an empty reference matcher.
func NewMatcher() *Matcher { return &Matcher{pos: make(map[Ref]int)} }

// Len is the number of live subscriptions.
func (m *Matcher) Len() int { return len(m.refs) }

// Has reports whether r is live.
func (m *Matcher) Has(r Ref) bool { _, ok := m.pos[r]; return ok }

// Add makes r live (a no-op when it already is).
func (m *Matcher) Add(r Ref, s subscription.Subscription) {
	if _, ok := m.pos[r]; ok {
		return
	}
	m.pos[r] = len(m.refs)
	m.refs = append(m.refs, r)
	for _, b := range s.Bounds {
		m.bounds = append(m.bounds, int32(b.Lo), int32(b.Hi))
	}
}

// Remove retires r, moving the last entry into its place.
func (m *Matcher) Remove(r Ref) {
	i, ok := m.pos[r]
	if !ok {
		return
	}
	last := len(m.refs) - 1
	if i != last {
		m.refs[i] = m.refs[last]
		copy(m.bounds[i*rowW:(i+1)*rowW], m.bounds[last*rowW:])
		m.pos[m.refs[i]] = i
	}
	m.refs = m.refs[:last]
	m.bounds = m.bounds[:last*rowW]
	delete(m.pos, r)
}

// Match appends to out every live subscription containing the point.
// The containment test ORs the twelve differences v−lo and hi−v and
// looks at the sign once: whether a box fails on its first or its last
// attribute is close to a coin toss on these populations, and one
// well-predicted branch per box is what keeps a full scan cheap.
func (m *Matcher) Match(p []int64, out []Ref) []Ref {
	var v [Attrs]int32
	for a := range v {
		v[a] = int32(p[a])
	}
	for i := range m.refs {
		row := (*[rowW]int32)(m.bounds[i*rowW : (i+1)*rowW])
		neg := (v[0] - row[0]) | (row[1] - v[0]) |
			(v[1] - row[2]) | (row[3] - v[1]) |
			(v[2] - row[4]) | (row[5] - v[2]) |
			(v[3] - row[6]) | (row[7] - v[3]) |
			(v[4] - row[8]) | (row[9] - v[4]) |
			(v[5] - row[10]) | (row[11] - v[5])
		if neg >= 0 {
			out = append(out, m.refs[i])
		}
	}
	return out
}
