// Package brokervet assembles the repo's analyzer suite with its
// repo-specific configuration. cmd/brokervet and the clean-tree tests
// both build the suite from here so they can never disagree about
// what is enforced.
package brokervet

import (
	"probsum/internal/analysis"
	"probsum/internal/analysis/clockcheck"
	"probsum/internal/analysis/journalcheck"
	"probsum/internal/analysis/lockcheck"
	"probsum/internal/analysis/wirecheck"
)

// CriticalPackages are the determinism-critical packages clockcheck
// polices: everything the seeded chaos harness (cluster.RunChaos), the
// scale harness (scale.Run, whose report is pinned bit-reproducible)
// and the simnet oracle runs execute. The broker core is included
// because both transports replay it deterministically, and the
// observability layer because its histograms and flight recorder run
// inside those deterministic paths — every timestamp it touches must
// come from an injected clock, never the wall.
var CriticalPackages = []string{
	"probsum/pubsub/cluster",
	"probsum/pubsub/cluster/scale",
	"probsum/internal/simnet",
	"probsum/internal/broker",
	"probsum/internal/obs",
}

// Suite returns the brokervet analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockcheck.Analyzer,
		clockcheck.New(CriticalPackages),
		wirecheck.Analyzer,
		journalcheck.Analyzer,
	}
}
