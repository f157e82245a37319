// Scale smoke: 200 real brokers on the deterministic simulator, wired
// as a ring+chords overlay, running the SWIM-style membership
// protocol (random probing, delta gossip carrying each link's digest,
// hash-armed anti-entropy) to convergence and through a steady-state
// measurement window — in one process, on a manual clock.
//
// Run with: go run ./examples/scale
// Exits non-zero when the protocol regresses (CI smoke): convergence
// over 20 rounds, any full-snapshot frame in steady state, or
// steady-state traffic above 4 KiB per member per round.
package main

import (
	"fmt"
	"os"
	"time"

	"probsum/pubsub/cluster/scale"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "scale: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	start := time.Now()
	rep, err := scale.Run(scale.Config{N: 200, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("200 brokers, %d overlay links (max degree %d)\n", rep.Links, rep.MaxDegree)
	fmt.Printf("converged in %d rounds (%v simulated, %v wall)\n",
		rep.ConvergedRound, rep.ConvergedTime, time.Since(start).Round(time.Millisecond))
	fmt.Printf("steady state: %.0f bytes/member/round, %d delta frames, %d full-snapshot frames\n",
		rep.SteadyBytesPerMemberRound, rep.SteadyDeltaFrames, rep.SteadyFullGossipFrames)

	if rep.ConvergedRound > 20 {
		return fmt.Errorf("regression: convergence took %d rounds (bound 20)", rep.ConvergedRound)
	}
	if rep.SteadyFullGossipFrames != 0 {
		return fmt.Errorf("regression: %d full-snapshot frames in steady state (bound 0)", rep.SteadyFullGossipFrames)
	}
	if rep.SteadyBytesPerMemberRound > 4096 {
		return fmt.Errorf("regression: %.0f bytes/member/round in steady state (bound 4096)", rep.SteadyBytesPerMemberRound)
	}
	fmt.Println("scale smoke PASSED")
	return nil
}
