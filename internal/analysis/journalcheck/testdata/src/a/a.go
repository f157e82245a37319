// Package a is the journalcheck fixture: a miniature broker whose
// journal appends must run under the state lock, and whose exported
// mutators must journal on some path.
package a

import "sync"

// Journal stands in for the broker's write-ahead journal: the
// analyzer keys on Record* methods of *Journal*-named types.
type Journal struct{}

func (j *Journal) RecordMessage(from string)      {}
func (j *Journal) RecordAttach(port string)       {}
func (j *Journal) RecordPubsSeen(pubIDs []string) {}

type Broker struct {
	mu      sync.RWMutex
	journal *Journal
	// +guarded_by:mu
	routes map[string]string
	// +guarded_by:mu
	seen map[string]bool
}

// Good: append under the exclusive lock, mutation journaled.
func (b *Broker) Handle(from string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.routes[from] = from
	b.journal.RecordMessage(from)
}

// Good: the dedup-window append may run under the shared lock.
func (b *Broker) Publish(pubID string) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.journal.RecordPubsSeen([]string{pubID})
}

// Bad: a state-transition append under only the shared lock.
func (b *Broker) badSharedAppend(from string) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.journal.RecordAttach(from) // want `journal append RecordAttach must run with the receiver's state lock held exclusive \(Lock\) \(held: shared \(RLock\)\)`
}

// Bad: a dedup append with no lock at all.
func (b *Broker) badUnlockedAppend(pubID string) {
	b.journal.RecordPubsSeen([]string{pubID}) // want `journal append RecordPubsSeen must run with the receiver's state lock held shared \(RLock\) \(held: unlocked\)`
}

// applyLocked mutates and journals under a caller-held lock: the
// +mustlock entry state makes its direct append legal, and callers
// inherit both facts through the same-receiver call closure.
//
// +mustlock:mu
func (b *Broker) applyLocked(from string) {
	b.routes[from] = from
	b.journal.RecordMessage(from)
}

// Good: mutation and journal append both happen via the helper.
func (b *Broker) Admit(from string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.applyLocked(from)
}

// dropLocked mutates without journaling.
//
// +mustlock:mu
func (b *Broker) dropLocked(k string) {
	delete(b.routes, k)
}

// Bad: an exported mutator with no journal append on any path.
func (b *Broker) Detach(k string) { // want `exported method Broker\.Detach mutates journaled state but no path appends to the journal`
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.routes, k)
}

// Bad: escaping journaling through an unexported helper is still
// caught by the transitive closure.
func (b *Broker) Purge(k string) { // want `exported method Broker\.Purge mutates journaled state but no path appends to the journal`
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropLocked(k)
}

// Unexported mutators are their exported callers' problem, not
// findings themselves.
func (b *Broker) internalTouch(k string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seen[k] = true
}

// Reset drops all state; recovery re-derives it wholesale, so the
// missing append is deliberate.
//
//brokervet:allow journalcheck reset runs only before recovery replay, nothing to journal
func (b *Broker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.routes = map[string]string{}
}
