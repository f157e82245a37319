package store

import (
	"reflect"
	"slices"
	"testing"

	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// FuzzStoreEquivalence decodes the input into subscribe, unsubscribe and
// UnsubscribeBatch steps and drives a pruned and an unpruned store
// through them. After every step both must have returned the same
// results and hold the same active set, and each must match a decoded
// point exactly as the literal Algorithm 5 does.
//
// Byte 0 picks the policy: none, pairwise or group. Under group every
// box has two attributes and the checker a fixed seed; otherwise a box's
// attribute count (1–3) is its first operand byte. Each step is an
// opcode byte and its operands: opcode%4 of 0 or 1 subscribes the next
// ID with one (lo, width) byte pair per attribute, over [0, 22]; 2
// unsubscribes the ID the next byte selects, present or not; 3
// unsubscribes a burst of 1–3 such IDs. Every step ends with a point,
// its attribute count picked the same way, over [0, 23].
func FuzzStoreEquivalence(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 15, 0, 15, 0, 1, 1, 2, 2, 3, 3, 2, 1, 5, 5, 1, 3, 1, 0, 2, 2, 4, 4, 3, 2, 1, 2, 2, 9, 9})
	f.Add([]byte{2, 0, 0, 5, 0, 5, 3, 3, 0, 4, 7, 2, 5, 0, 1, 6, 1, 6, 7, 2, 7, 0, 3, 4, 4, 4, 2, 1, 5, 5, 3, 2, 1, 3, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		policy := Policy(1 + data[0]%3)
		data = data[1:]
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		arity := func() (int, bool) {
			if policy == PolicyGroup {
				return 2, true
			}
			b, ok := next()
			return 1 + int(b%3), ok
		}
		newStore := func(unpruned bool) *Store {
			var opts []Option
			if policy == PolicyGroup {
				c, err := core.NewChecker(core.WithSeed(5, 6))
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithChecker(c))
			}
			st, err := New(policy, opts...)
			if err != nil {
				t.Fatal(err)
			}
			st.unpruned = unpruned
			return st
		}
		pruned, full := newStore(false), newStore(true)
		var n ID // the last subscribed ID
		pickID := func() (ID, bool) {
			b, ok := next()
			return ID(int(b) % (int(n) + 2)), ok
		}
		for len(data) > 0 {
			op, _ := next()
			switch op % 4 {
			case 0, 1:
				m, ok := arity()
				if !ok || len(data) < 2*m {
					return
				}
				s := subscription.Subscription{Bounds: make([]interval.Interval, m)}
				for a := range s.Bounds {
					lo := int64(data[2*a] % 16)
					s.Bounds[a] = interval.New(lo, lo+int64(data[2*a+1]%8))
				}
				data = data[2*m:]
				n++
				rp, err := pruned.Subscribe(n, s)
				if err != nil {
					t.Fatalf("pruned subscribe %d %v: %v", n, s, err)
				}
				rf, err := full.Subscribe(n, s)
				if err != nil {
					t.Fatalf("unpruned subscribe %d %v: %v", n, s, err)
				}
				if rp.Status != rf.Status || !slices.Equal(rp.Coverers, rf.Coverers) {
					t.Fatalf("subscribe %d %v: pruned %v by %v, unpruned %v by %v", n, s, rp.Status, rp.Coverers, rf.Status, rf.Coverers)
				}
			case 2:
				id, ok := pickID()
				if !ok {
					return
				}
				up, errP := pruned.Unsubscribe(id)
				uf, errF := full.Unsubscribe(id)
				if errP != nil || errF != nil || !reflect.DeepEqual(up, uf) {
					t.Fatalf("unsubscribe %d: pruned %+v (%v), unpruned %+v (%v)", id, up, errP, uf, errF)
				}
			case 3:
				b, ok := next()
				if !ok {
					return
				}
				burst := make([]ID, 1+b%3)
				for i := range burst {
					if burst[i], ok = pickID(); !ok {
						return
					}
				}
				up, errP := pruned.UnsubscribeBatch(burst)
				uf, errF := full.UnsubscribeBatch(burst)
				if errP != nil || errF != nil || !reflect.DeepEqual(up, uf) {
					t.Fatalf("unsubscribe %v: pruned %+v (%v), unpruned %+v (%v)", burst, up, errP, uf, errF)
				}
			}
			if a, b := pruned.ActiveIDs(), full.ActiveIDs(); !slices.Equal(a, b) {
				t.Fatalf("after subscription %d: pruned active %v, unpruned active %v", n, a, b)
			}
			m, ok := arity()
			if !ok || len(data) < m {
				return
			}
			p := subscription.Publication{Values: make([]int64, m)}
			for a := range p.Values {
				p.Values[a] = int64(data[a] % 24)
			}
			data = data[m:]
			want := pruned.MatchTwoPhase(p)
			for _, st := range []*Store{pruned, full} {
				if got := st.Match(p); !slices.Equal(got, want) {
					t.Fatalf("Match(%v) = %v (unpruned %v), MatchTwoPhase = %v", p, got, st.unpruned, want)
				}
			}
			if got := full.MatchTwoPhase(p); !slices.Equal(got, want) {
				t.Fatalf("MatchTwoPhase(%v): pruned %v, unpruned %v", p, want, got)
			}
		}
	})
}
