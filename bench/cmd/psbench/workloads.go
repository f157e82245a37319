package main

import "probsum/bench/gen"

// runSeconds is the default of --seconds and BENCHMARK.json's
// run_seconds. A run is always `rounds` identical count-bound rounds;
// the counts below are sized so that they take about this long at the
// parent commit on this host, and --seconds scales them in proportion.
const runSeconds = 26

// rounds is the number of rounds a run measures: five, not the issue's
// seven, because 92 runs and two builds must fit the driver's 3420 s.
// minRounds is where a run may stop early: on a host so slow that the
// rounds so far already used half as much again as --seconds.
const (
	rounds    = 5
	minRounds = 3
)

// Workload is one traffic mix: a topology, a population and how many
// operations of each kind a round performs.
//
// The driver's contract wants every end-to-end metric from every
// workload, so every round runs the three timed phases behind them —
// latency, throughput, burst admission — at full length (1-2 s each).
// The phases only one workload exists for (single subscribes and the
// retire sample on admit-churn, kill and restart on durable-mixed) run
// there alone and feed per-layer metrics.
type Workload struct {
	Name, Why string
	// Hops is the length of the hand-wired broker chain (1 = a single
	// broker serving both clients).
	Hops int
	// Args are brokerd flags beyond -id/-listen/-peer/-seed.
	Args []string
	// Durable gives every broker a -data-dir and follows the publication
	// phases with a SIGKILL of the chain, a restart on the same
	// directories and a probe through the recovered state.
	Durable bool
	// Retires adds the timed single subscribes and the timed retirement
	// of Spec.Retire subscriptions after the burst.
	Retires bool

	Spec gen.Spec
	// BurstCycles, when above 1, admits the burst that many times, with
	// an untimed retirement of it in between: where admission is fast
	// the phase gets its length without the population growing tenfold.
	BurstCycles int
	// Per-round publication counts at the default --seconds: discarded,
	// one in flight, window 32, and checked against the live set after
	// the admissions.
	Warm, Lat, Thr, Audit int
	// ChurnEvery, when positive, makes S send one churn operation per
	// that many completed publications in the latency and throughput
	// phases.
	ChurnEvery int
}

// scaled returns the workload with its timed counts multiplied by f
// (--seconds over runSeconds).
func (w Workload) scaled(f float64) Workload {
	mul := func(n int) int { return max(1, int(float64(n)*f+0.5)) }
	w.Lat, w.Thr, w.Spec.Burst = mul(w.Lat), mul(w.Thr), mul(w.Spec.Burst)
	return w
}

// The four workloads. Each `why` is the one line BENCHMARK.json carries.
var workloads = []Workload{
	{
		Name: "fanout-1hop",
		Why:  "20000 subscriptions on one broker, 8-40 notifications per publication: matcher, publish path and notify writes dominate; no neighbour, so the coverage checker is bypassed",
		Hops: 1,
		Args: []string{"-policy", "group"},
		Spec: gen.Spec{Base: 20000, FanMin: 8, FanMax: 40, Pool: 4096,
			Burst: 100000, Singles: 2000, Retire: 2000},
		BurstCycles: 3,
		Warm:        200, Lat: 8000, Thr: 5000, Audit: 64,
	},
	{
		Name: "chain-3hop",
		Why:  "1000 subscriptions three hops from the publisher, fan-out 1-3: codec, TCP queues and routing are paid three times while matching and coverage stay small",
		Hops: 3,
		Args: []string{"-policy", "group"},
		Spec: gen.Spec{Base: 1000, FanMin: 1, FanMax: 3, Pool: 4096,
			Burst: 1900, Singles: 300, Retire: 60},
		Warm: 1000, Lat: 14000, Thr: 30000, Audit: 256,
	},
	{
		Name:    "admit-churn",
		Why:     "subscriptions admitted and retired over a three-hop chain: conflict tables, checker, store and coverage tables per neighbour do the work; one in four is covered, retiring roots promotes them",
		Hops:    3,
		Args:    []string{"-policy", "group", "-delta", "1e-6"},
		Retires: true,
		Spec: gen.Spec{Base: 1500, FanMin: 1, FanMax: 3, Pool: 4096,
			Burst: 1400, Singles: 200, Retire: 40},
		Warm: 500, Lat: 8000, Thr: 18000, Audit: 512,
	},
	{
		Name:    "durable-mixed",
		Why:     "two journaling brokers, subscriptions churning beside the publications: every state change is appended to the journal and forces an index rebuild on the next publication; a restart replays it",
		Hops:    2,
		Durable: true,
		Args:    []string{"-policy", "group", "-journal-sync", "1000000", "-snapshot-interval", "1h"},
		Spec: gen.Spec{Base: 600, FanMin: 1, FanMax: 3, Pool: 4096,
			Burst: 2500, Singles: 300, Retire: 90, Churn: 1024},
		Warm: 500, Lat: 3000, Thr: 5000, Audit: 256,
		ChurnEvery: 10,
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
