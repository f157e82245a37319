package gen

import (
	"bytes"
	"sort"
	"testing"

	"probsum/internal/subscription"
)

var testSpec = Spec{Base: 400, FanMin: 1, FanMax: 6, Pool: 128, Burst: 200, Singles: 50, Churn: 40, Retire: 60}

func mustNew(t *testing.T, spec Spec, seed uint64) *Inputs {
	t.Helper()
	in, err := New(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The same seed must give byte-identical subscription, publication and
// retire streams; another seed must not.
func TestDeterminism(t *testing.T) {
	a, b := mustNew(t, testSpec, 7), mustNew(t, testSpec, 7)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two runs with seed 7 differ")
	}
	if c := mustNew(t, testSpec, 8); bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("seeds 7 and 8 gave identical inputs")
	}
}

func canon(subs []subscription.Subscription) []string {
	out := make([]string, len(subs))
	for i, s := range subs {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// Which subscriptions a stream holds and which are retired is fixed;
// only their order follows the seed.
func TestSeedPermutesFixedSets(t *testing.T) {
	a, b := mustNew(t, testSpec, 1), mustNew(t, testSpec, 2)
	for _, c := range []Class{Base, Burst, Single, Churn} {
		x, y := canon(a.Subs[c]), canon(b.Subs[c])
		if len(x) != len(y) {
			t.Fatalf("stream %c: %d vs %d subscriptions", c, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("stream %c holds different subscriptions under seeds 1 and 2", c)
			}
		}
	}
	retired := func(in *Inputs) []string {
		var subs []subscription.Subscription
		for _, r := range in.Retire {
			s, ok := in.Sub(r)
			if !ok {
				t.Fatalf("retire sample names %v, which does not exist", r)
			}
			subs = append(subs, s)
		}
		return canon(subs)
	}
	x, y := retired(a), retired(b)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("the retire sample holds different subscriptions under seeds 1 and 2")
		}
	}
	seen := map[Ref]bool{}
	for _, r := range a.Retire {
		if seen[r] {
			t.Fatalf("%v retired twice", r)
		}
		seen[r] = true
	}
}

func TestRefRoundTrip(t *testing.T) {
	for _, r := range []Ref{MakeRef(Base, 0), MakeRef(Burst, 99999), MakeRef(Single, 7), MakeRef(Churn, 511)} {
		got, ok := ParseRef(r.ID())
		if !ok || got != r {
			t.Errorf("ParseRef(%q) = %v, %v; want %v", r.ID(), got, ok, r)
		}
	}
	for _, id := range []string{"", "b", "sentinel", "probe", "x12", "b-1", "b1x", "b99999999999"} {
		if _, ok := ParseRef(id); ok {
			t.Errorf("ParseRef(%q) accepted", id)
		}
	}
}

// Every pool point's delivery set must be exactly the base
// subscriptions that contain it (checked with the program-independent
// Subscription.ContainsPoint), inside the fan-out window.
func TestPoolExpectations(t *testing.T) {
	in := mustNew(t, testSpec, 3)
	if len(in.Pool) != testSpec.Pool {
		t.Fatalf("pool has %d points, want %d", len(in.Pool), testSpec.Pool)
	}
	for _, p := range in.Pool {
		var want []Ref
		for i, s := range in.Subs[Base] {
			if s.ContainsPoint(p.Pub.Values) {
				want = append(want, MakeRef(Base, i))
			}
		}
		if len(want) != len(p.Expect) {
			t.Fatalf("point %v: expected set has %d entries, brute force says %d", p.Pub.Values, len(p.Expect), len(want))
		}
		for i := range want {
			if want[i] != p.Expect[i] {
				t.Fatalf("point %v: expected set differs at %d", p.Pub.Values, i)
			}
		}
		if len(want) < testSpec.FanMin || len(want) > testSpec.FanMax {
			t.Fatalf("fan-out %d outside [%d,%d]", len(want), testSpec.FanMin, testSpec.FanMax)
		}
	}
}

// Nothing generated may touch the two reserved corners the barrier and
// the recovery probe live in.
func TestReservedCorners(t *testing.T) {
	in := mustNew(t, testSpec, 4)
	for c, subs := range in.Subs {
		for _, s := range subs {
			if s.Bounds[0].Hi > MaxV {
				t.Fatalf("stream %c: subscription %v reaches past %d on attribute 0", c, s, MaxV)
			}
			if s.Matches(SentinelPub()) || s.Matches(ProbePub()) {
				t.Fatalf("stream %c: subscription %v matches a reserved publication", c, s)
			}
		}
	}
	for _, p := range in.Pool {
		if SentinelSub().Matches(p.Pub) || ProbeSub().Matches(p.Pub) {
			t.Fatalf("pool point %v matches a reserved subscription", p.Pub)
		}
	}
	if !SentinelSub().Matches(SentinelPub()) || !ProbeSub().Matches(ProbePub()) || SentinelSub().Matches(ProbePub()) {
		t.Fatal("the reserved subscriptions and publications do not pair up")
	}
}

func TestMatcherAddRemove(t *testing.T) {
	in := mustNew(t, testSpec, 5)
	m := NewMatcher()
	for i, s := range in.Subs[Base] {
		m.Add(MakeRef(Base, i), s)
	}
	m.Add(MakeRef(Base, 0), in.Subs[Base][0]) // a second Add is a no-op
	if m.Len() != len(in.Subs[Base]) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(in.Subs[Base]))
	}
	// Remove every third subscription, then compare with a direct scan.
	gone := map[Ref]bool{}
	for i := 0; i < len(in.Subs[Base]); i += 3 {
		r := MakeRef(Base, i)
		m.Remove(r)
		m.Remove(r) // and so is a second Remove
		gone[r] = true
	}
	for _, p := range in.Pool {
		got := m.Match(p.Pub.Values, nil)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []Ref
		for _, r := range p.Expect {
			if !gone[r] {
				want = append(want, r)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %v: %d matches after removals, want %d", p.Pub.Values, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || m.Has(got[i]) == gone[got[i]] {
				t.Fatalf("point %v: match %d is %v, want %v", p.Pub.Values, i, got[i], want[i])
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := testSpec
	bad.FanMax = MaxFanout + 1
	if _, err := New(bad, 1); err == nil {
		t.Error("a fan-out window past MaxFanout was accepted")
	}
	bad = testSpec
	bad.Retire = bad.Base + bad.Burst + bad.Singles + 1
	if _, err := New(bad, 1); err == nil {
		t.Error("a retire sample larger than the population was accepted")
	}
	bad = testSpec
	bad.FanMin, bad.FanMax = 60, 64 // no point of this population matches that many
	if _, err := New(bad, 1); err == nil {
		t.Error("an unreachable fan-out window did not fail")
	}
}
