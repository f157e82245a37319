package store

// Batch unsubscribe: a cancellation burst through per-ID Unsubscribe
// re-runs the promotion cascade once per removed subscription — a
// covered child that lost two of its coverers to the same burst is
// re-validated twice, and children of later removals are checked
// against active sets that still contain earlier removals' survivors.
// UnsubscribeBatch shares ONE cascade frontier across the burst: all
// removals are unlinked first, then every surviving subscription that
// lost at least one coverer is re-validated exactly once against the
// post-removal active set (in ID order, so promotions cascade
// deterministically, each child seeing the promotions before it).
//
// The fixed point can differ from per-item removal the same way batch
// subscribe differs from per-item subscribe: both are sound (a
// subscription is only left covered when the surviving active set
// covers it), but borderline probabilistic decisions see different
// active sets. Two stores fed the same burst agree exactly.

import "sort"

// UnsubscribeBatchResult reports what UnsubscribeBatch did.
type UnsubscribeBatchResult struct {
	// Removed counts the burst IDs that existed and were removed
	// (unknown and duplicate IDs are skipped).
	Removed int
	// Promoted lists covered subscriptions promoted to active because
	// their cover no longer holds without the removed set, in ID order.
	Promoted []ID
}

// UnsubscribeBatch removes a burst of subscriptions in one call,
// running the promotion cascade once over the union of orphaned
// children instead of once per removal. Unknown IDs are skipped.
func (st *Store) UnsubscribeBatch(ids []ID) (UnsubscribeBatchResult, error) {
	var res UnsubscribeBatchResult
	if len(ids) == 0 {
		return res, nil
	}
	// Phase 1: unlink and remove every burst member, collecting the
	// shared frontier of surviving children that lost a coverer.
	removed := make(map[ID]struct{}, len(ids))
	frontier := make(map[ID]struct{})
	for _, id := range ids {
		n, ok := st.nodes[id]
		if !ok {
			continue // unknown, or removed earlier in this burst
		}
		removed[id] = struct{}{}
		res.Removed++
		st.stats.Unsubscribes++
		for c := range n.coverers {
			if cn, ok := st.nodes[c]; ok {
				delete(cn.children, id)
			}
		}
		delete(st.nodes, id)
		if n.status == StatusActive {
			st.deactivate(n)
		}
		for c := range n.children {
			frontier[c] = struct{}{}
		}
	}

	// Phase 2: re-validate each orphan once against the post-removal
	// active set, in ID order. Promotions activate immediately, so a
	// later orphan can be kept covered by an earlier one's promotion —
	// the same then-current-set semantics as the per-item cascade.
	orphans := make([]ID, 0, len(frontier))
	for c := range frontier {
		if _, gone := removed[c]; gone {
			continue // the child was itself part of the burst
		}
		orphans = append(orphans, c)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })

	for _, cid := range orphans {
		child := st.nodes[cid]
		for c := range child.coverers {
			if _, gone := removed[c]; gone {
				delete(child.coverers, c)
			}
		}
		promoted, err := st.revalidate(child)
		if err != nil {
			return res, err
		}
		if promoted {
			res.Promoted = append(res.Promoted, cid)
		}
	}
	return res, nil
}
