// Package pubsub is the public API for running content-based
// publish/subscribe broker overlays with coverage-based subscription
// reduction — the distributed side of the Middleware 2006 paper this
// library reproduces.
//
// Brokers form an overlay; clients attach to brokers, subscribe with
// boxes (see package subsume), and publish points. Subscriptions
// flood the overlay along reverse paths; depending on the coverage
// Policy, a broker suppresses forwarding a subscription to a neighbor
// when the subscriptions already sent to that neighbor cover it —
// pairwise (classical, exact) or group coverage (the paper's
// probabilistic algorithm, which suppresses strictly more traffic at
// a bounded risk of losing publications).
//
// The package offers the same protocol over two transports behind one
// surface (see Transport, Broker, Client):
//
//   - NewSimTransport hosts the overlay on the deterministic
//     in-process simulator — the evaluation and testing regime.
//   - NewTCPTransport hosts it on real sockets with concurrent
//     message handling; ListenBroker and Dial are the cross-process
//     forms used by cmd/brokerd and cmd/psclient.
package pubsub

import (
	"fmt"
	"strings"

	"probsum/internal/broker"
	"probsum/internal/store"
	"probsum/internal/subscription"
	"probsum/subsume"
)

// Policy selects subscription-forwarding reduction. It is
// store.Policy, the library's one policy type (subsume.Policy is the
// same type); its String names the three policies "flood", "pairwise"
// and "group", and ParsePolicy is its inverse.
type Policy = store.Policy

// Coverage policies.
const (
	// Flood forwards every subscription (no reduction).
	Flood = store.PolicyNone
	// Pairwise suppresses subscriptions covered by a single
	// previously forwarded subscription (exact, classical).
	Pairwise = store.PolicyPairwise
	// Group suppresses subscriptions covered by the union of
	// previously forwarded subscriptions, decided probabilistically.
	Group = store.PolicyGroup
)

// ParsePolicy parses a policy name as accepted by the CLI tools:
// "flood" (or "none"), "pairwise", and "group". It is the single
// string→Policy conversion shared by cmd/brokerd, cmd/psclient,
// examples and any embedding program.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "flood", "none":
		return Flood, nil
	case "pairwise":
		return Pairwise, nil
	case "group":
		return Group, nil
	default:
		return 0, fmt.Errorf("pubsub: unknown policy %q (want flood | pairwise | group)", s)
	}
}

// Subscription and Publication are the content types (see package
// subsume for builders).
type (
	Subscription = subscription.Subscription
	Publication  = subscription.Publication
)

// BatchSub pairs a subscription with its globally unique ID inside a
// Client.SubscribeBatch burst.
type BatchSub = broker.BatchSub

// BatchPub pairs a publication with its globally unique ID inside a
// Client.PublishBatch burst.
type BatchPub = broker.BatchPub

// Notification is a delivered publication together with the matched
// subscription ID. A broker sends a publication to a client once,
// naming every subscription of the client it matched; the
// notifications expanded from that one frame share the publication's
// Values slice, so treat it as read-only.
type Notification struct {
	SubID string
	PubID string
	Pub   Publication
}

// appendNotifications expands a notify-batch message into one
// Notification per matched subscription, in the frame's order, and
// appends them to ns; any other kind appends nothing.
func appendNotifications(ns []Notification, m *broker.Message) []Notification {
	if m.Kind != broker.MsgNotifyBatch {
		return ns
	}
	for _, id := range m.SubIDs {
		ns = append(ns, Notification{SubID: id, PubID: m.PubID, Pub: m.Pub})
	}
	return ns
}

// Metrics aggregates broker activity counters.
type Metrics = broker.Metrics

// Config tunes the probabilistic checker used under the Group policy
// and optional link-failure injection.
type Config struct {
	// ErrorProbability is the per-decision false-cover bound δ
	// (default 1e-6).
	ErrorProbability float64
	// MaxTrials caps Monte-Carlo guesses per decision (default 100000).
	MaxTrials int
	// Seed makes all broker decisions reproducible (default 1).
	Seed uint64
	// DropRate injects per-message loss on broker-to-broker links of a
	// SimTransport (default 0), modeling the lossy sensor and MANET
	// environments the paper targets. TCP brokers reject it.
	DropRate float64
}

func (c Config) withDefaults() Config {
	if c.ErrorProbability == 0 {
		c.ErrorProbability = 1e-6
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 100_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TableOptions converts the network tuning into coverage-table
// options — the exact options ListenBroker and both transports'
// AddBroker apply to every per-neighbor coverage table (per-neighbor
// checker seeding is layered on top by the broker; Config.Seed feeds
// that derivation, not an option here). Exported so a standalone
// subsume.Table can share a network's tuning.
func (c Config) TableOptions() []subsume.TableOption {
	c = c.withDefaults()
	return []subsume.TableOption{
		subsume.WithTableChecker(
			subsume.WithErrorProbability(c.ErrorProbability),
			subsume.WithMaxTrials(c.MaxTrials),
		),
	}
}
