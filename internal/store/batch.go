package store

// Batch subscribe: arrival bursts re-run the candidate query and the
// conflict table once per subscription. SubscribeBatch amortizes the
// burst two ways:
//
//   - the burst is processed in descending box-volume order (ties by
//     ID), so the subscriptions most likely to cover others activate
//     first and the rest fall to the cheap pairwise fast path instead
//     of a full probabilistic check against a grown active set;
//   - validation (duplicates, satisfiability) happens up front, so the
//     per-item loop is decision + insert only.
//
// Because the processing order is volume-sorted rather than arrival
// order, a burst can reach a different (smaller or equal active set)
// fixed point than the same subscriptions subscribed one at a time in
// arrival order; both are sound. The order is deterministic, so two
// stores fed the same burst through SubscribeBatch agree exactly.

import (
	"cmp"
	"fmt"
	"slices"

	"probsum/internal/core"
	"probsum/internal/subscription"
)

// batchOrder returns the processing order for a burst: indices sorted
// by descending box log-volume, ties broken by ascending ID.
func batchOrder(ids []ID, subs []subscription.Subscription) []int {
	measure := make([]float64, len(subs))
	for i, s := range subs {
		var lv float64
		for _, b := range s.Bounds {
			lv += b.LogCount()
		}
		measure[i] = lv
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(measure[b], measure[a]); c != 0 {
			return c
		}
		return cmp.Compare(ids[a], ids[b])
	})
	return order
}

// validateBatch rejects length mismatches, duplicate IDs (against the
// store and within the burst) and unsatisfiable subscriptions before
// any state changes.
func (st *Store) validateBatch(ids []ID, subs []subscription.Subscription) error {
	if len(ids) != len(subs) {
		return fmt.Errorf("store: batch of %d ids but %d subscriptions", len(ids), len(subs))
	}
	seen := make(map[ID]struct{}, len(ids))
	for i, id := range ids {
		if _, dup := st.nodes[id]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateID, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: %d (twice in batch)", ErrDuplicateID, id)
		}
		seen[id] = struct{}{}
		if !subs[i].IsSatisfiable() {
			return fmt.Errorf("batch item %d (id %d): %w", i, id, core.ErrUnsatisfiable)
		}
	}
	return nil
}

// SubscribeBatch subscribes a burst in one call. Results are returned
// in input order; processing happens in batchOrder (descending volume)
// so within-burst coverage is found on the first pass. The whole burst
// is validated before any insertion; a mid-batch checker error (the
// only error class left after validation) aborts the batch with items
// already processed remaining subscribed.
func (st *Store) SubscribeBatch(ids []ID, subs []subscription.Subscription) ([]SubscribeResult, error) {
	if err := st.validateBatch(ids, subs); err != nil {
		return nil, err
	}
	out := make([]SubscribeResult, len(ids))
	for _, i := range batchOrder(ids, subs) {
		res, err := st.Subscribe(ids[i], subs[i])
		if err != nil {
			return nil, fmt.Errorf("batch item %d (id %d): %w", i, ids[i], err)
		}
		out[i] = res
	}
	return out, nil
}
