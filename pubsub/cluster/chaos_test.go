package cluster

// Chaos smoke: three fixed seeds drive the deterministic fault
// harness and each faulted run must (a) converge every link digest
// within the bounded heal phase and (b) deliver the post-heal probe
// publications exactly as the fault-free oracle run of the same seed
// does. Runs under -race in CI.

import (
	"fmt"
	"strings"
	"testing"
)

// dumpFlight attaches the run's flight-recorder tail to a failing
// test: the sequence of crashes, partitions, suspicions, deaths, and
// repairs that led to the divergence.
func dumpFlight(t *testing.T, label string, dump []string) {
	t.Helper()
	if len(dump) == 0 {
		return
	}
	t.Logf("%s flight recorder (%d events):\n%s", label, len(dump), strings.Join(dump, "\n"))
}

func TestChaosConvergesToOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			oracle, err := RunChaos(ChaosConfig{Seed: seed})
			if err != nil {
				t.Fatalf("oracle run: %v", err)
			}
			chaos, err := RunChaos(ChaosConfig{Seed: seed, Faults: true})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}

			if chaos.Crashes+chaos.Partitions == 0 {
				t.Fatalf("seed scheduled no faults; the scenario is vacuous")
			}
			if len(chaos.FlightDump) == 0 {
				t.Error("faulted run recorded no flight events")
			}
			if !chaos.Converged {
				t.Fatalf("link digests did not converge within the heal bound (%d rounds)", chaos.HealRounds)
			}
			total := 0
			for _, set := range oracle.Deliveries {
				total += len(set)
			}
			if total == 0 {
				t.Fatalf("oracle delivered nothing; the comparison proves nothing")
			}
			for client, want := range oracle.Deliveries {
				got := chaos.Deliveries[client]
				if !setsEqual(got, want) {
					t.Errorf("%s probe deliveries diverge from oracle:\n chaos  %v\n oracle %v", client, got, want)
				}
			}
			if t.Failed() {
				dumpFlight(t, "chaos", chaos.FlightDump)
			}
			t.Logf("seed %d: %d crashes, %d partitions, %d subs, %d unsubs, %d records recovered, healed in %d rounds, %d sync requests, %d roots resent, %d stale pruned, %d probes, %d deliveries",
				seed, chaos.Crashes, chaos.Partitions, chaos.Subscribes, chaos.Unsubscribes,
				chaos.Recovered, chaos.HealRounds, chaos.SyncRequests, chaos.RootsResent, chaos.StalePruned,
				chaos.Probes, total)
		})
	}
}
