package scale

import (
	"reflect"
	"testing"
)

// TestScaleSmall pins the harness mechanics at a size every CI run
// affords: convergence within the round budget, steady state with
// zero full-snapshot frames, and bounded per-member traffic.
func TestScaleSmall(t *testing.T) {
	rep, err := Run(Config{N: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergedRound > 20 {
		t.Fatalf("n=100 took %d rounds to converge, want ≤ 20", rep.ConvergedRound)
	}
	if rep.SteadyFullGossipFrames != 0 {
		t.Fatalf("steady state sent %d full-snapshot frames, want 0 (delta dissemination incomplete)", rep.SteadyFullGossipFrames)
	}
	if rep.SteadyDeltaFrames == 0 {
		t.Fatal("steady state sent no delta frames — the gossip loop is not running")
	}
	if rep.SteadyBytesPerMemberRound > 4096 {
		t.Fatalf("steady-state traffic %.0f bytes/member/round, want bounded ≤ 4096", rep.SteadyBytesPerMemberRound)
	}
	// The per-kind traffic profile must cover the protocol's control
	// kinds: a membership-only run lives on pings, pongs, and deltas.
	for _, kind := range []string{"ping", "pong", "gossip-delta"} {
		if rep.FramesByKind[kind] == 0 {
			t.Errorf("frames by kind missing %q: %v", kind, rep.FramesByKind)
		}
	}
}

// TestScaleDeterministic pins reproducibility: the same seed yields
// the identical report (every random choice flows from Config.Seed
// and the manual clock), and a different seed still converges.
func TestScaleDeterministic(t *testing.T) {
	a, err := Run(Config{N: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{N: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n  %+v\n  %+v", a, b)
	}
	if _, err := Run(Config{N: 100, Seed: 43}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleFloodMatchesOracle pins reverse-path flooding's delivery:
// every probe publication reaches exactly the clients whose
// subscriptions contain it, as a brute-force oracle over the run's own
// draws computes (Run fails on divergence). Sized at n=200 with enough
// subscriptions for coverage suppression to bite: this exact
// configuration caught the cycle-gradient delivery loss fixed by
// recording duplicate announcements as reverse paths (the broker's
// handleSubscribeBatch), so it stays the regression net for it.
func TestScaleFloodMatchesOracle(t *testing.T) {
	rep, err := Run(Config{N: 200, Seed: 1, Subs: 100, Pubs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubFrames == 0 || rep.Deliveries == 0 {
		t.Fatalf("flood run did no work: %+v", rep)
	}
	t.Logf("n=200: %d deliveries (%#x), %.2f sub frames/link", rep.Deliveries, rep.DeliveryHash, rep.SubFramesPerLink)
}
