package broker

import (
	"hash/maphash"
	"strconv"
	"testing"
)

// routeIndexKeys returns FuzzRouteIndex's 32 SubIDs under seed: the
// even ones hash to the last slot of an 8-slot table, so at every size
// the index grows through they share home slots, their probe runs
// collide, and a run from the last slot wraps to the first.
func routeIndexKeys(seed maphash.Seed) [32]string {
	var keys [32]string
	n := 0
	for i := range keys {
		for ; ; n++ {
			k := "s" + strconv.Itoa(n)
			if i%2 == 1 || maphash.String(seed, k)&(minRouteSlots-1) == minRouteSlots-1 {
				keys[i] = k
				n++
				break
			}
		}
	}
	return keys
}

// FuzzRouteIndex decodes each input byte into one step on a routeIndex
// and on a map standing in for it: the low 5 bits pick one of
// routeIndexKeys's SubIDs, the top 3 bits the operation (0-2 put a new
// route, 3 insert, 4-6 delete, 7 get). After every step the index must hold as
// many routes as the map, return the map's route for each of the 32
// SubIDs, yield exactly the map's routes, and keep no route in an empty
// slot.
func FuzzRouteIndex(f *testing.F) {
	var grow, churn []byte
	for k := range byte(32) { // growth to 64 slots, then every delete
		grow = append(grow, k)
	}
	for k := range byte(32) {
		grow = append(grow, 0x80|(31-k))
	}
	for k := range byte(16) { // colliding keys in and out at 8 and 16 slots
		churn = append(churn, 2*k%12, 0xe0|2*k%12, 0x80|2*k%8, 0x20|2*k%12)
	}
	f.Add(grow)
	f.Add(churn)
	f.Add([]byte{0, 0, 0x80, 0x80, 0xe0, 0x61})

	f.Fuzz(func(t *testing.T, data []byte) {
		x := routeIndex{seed: maphash.MakeSeed()}
		keys := routeIndexKeys(x.seed)
		model := map[string]*route{}
		for step, c := range data {
			k := keys[c&31]
			switch op := c >> 5; {
			case op < 3:
				r := &route{subID: k}
				x.put(r)
				model[k] = r
			case op == 3:
				r, fresh := x.insert(k)
				if held := model[k]; fresh != (held == nil) || !fresh && r != held || r.subID != k {
					t.Fatalf("step %d: insert(%s) = %p (%s), fresh %v; held %p", step, k, r, r.subID, fresh, held)
				}
				model[k] = r
			case op < 7:
				x.del(k)
				delete(model, k)
			default:
				if got := x.get(k); got != model[k] {
					t.Fatalf("step %d: get(%s) = %p, want %p", step, k, got, model[k])
				}
			}
			if x.len() != len(model) {
				t.Fatalf("step %d: len %d, want %d", step, x.len(), len(model))
			}
			for _, k := range keys {
				if got := x.get(k); got != model[k] {
					t.Fatalf("step %d: get(%s) = %p, want %p", step, k, got, model[k])
				}
			}
			seen := map[string]bool{}
			for r := range x.all() {
				if seen[r.subID] || model[r.subID] != r {
					t.Fatalf("step %d: all yields %s (%p) twice or not held", step, r.subID, r)
				}
				seen[r.subID] = true
			}
			if len(seen) != len(model) {
				t.Fatalf("step %d: all yields %d routes, want %d", step, len(seen), len(model))
			}
			for i, tag := range x.tags {
				if (tag == 0) != (x.slots[i] == nil) {
					t.Fatalf("step %d: slot %d has tag %d and route %p", step, i, tag, x.slots[i])
				}
			}
		}
	})
}
