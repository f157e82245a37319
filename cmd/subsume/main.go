// Command subsume answers group-subsumption questions from the
// command line and renders the conflict table, mirroring the paper's
// worked examples.
//
// Usage:
//
//	subsume -demo cover      # Table 3/5: covered example
//	subsume -demo noncover   # Table 6: polyhedron witness
//	subsume -demo mcs        # Table 7/8: conflict-free entries & MCS
//
//	echo '{"s":{"x1":[830,870],"x2":[1003,1006]},
//	       "set":[{"x1":[820,850],"x2":[1001,1007]},
//	              {"x1":[840,880],"x2":[1002,1009]}],
//	       "schema":[{"name":"x1","lo":0,"hi":10000},
//	                 {"name":"x2","lo":0,"hi":10000}]}' | subsume -stdin
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"probsum/internal/conflict"
	"probsum/internal/core"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "subsume: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		demo  = flag.String("demo", "", "run a built-in paper example: cover | noncover | mcs")
		stdin = flag.Bool("stdin", false, "read a JSON problem from stdin")
		delta = flag.Float64("delta", 1e-6, "acceptable error probability for a probabilistic YES")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	var s subscription.Subscription
	var set []subscription.Subscription
	switch {
	case *demo != "":
		var err error
		s, set, err = demoProblem(*demo)
		if err != nil {
			return err
		}
	case *stdin:
		var err error
		s, set, err = readProblem(os.Stdin)
		if err != nil {
			return err
		}
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -demo or -stdin")
	}

	tbl, err := conflict.Build(s, set)
	if err != nil {
		return err
	}
	fmt.Println("conflict table:")
	fmt.Print(tbl.String())

	checker, err := core.NewChecker(
		core.WithErrorProbability(*delta),
		core.WithSeed(*seed, *seed^0x5eed),
	)
	if err != nil {
		return err
	}
	res, err := checker.Covered(s, set)
	if err != nil {
		return err
	}
	fmt.Printf("\ndecision: %s (reason: %s)\n", res.Decision, res.Reason)
	switch res.Reason {
	case core.ReasonPairwiseCover:
		fmt.Printf("covered by subscription #%d alone (Corollary 1)\n", res.CoveringRow+1)
	case core.ReasonPolyhedronWitness:
		fmt.Printf("polyhedron witness: %v (Corollary 3)\n", res.PolyhedronWitness)
	case core.ReasonPointWitness:
		if res.ExecutedTrials == 0 {
			fmt.Printf("point witness: %v (left over after subtracting every subscription from s)\n", res.PointWitness)
		} else {
			fmt.Printf("point witness: %v (RSPC trial %d)\n", res.PointWitness, res.ExecutedTrials)
		}
	case core.ReasonEmptyMCS:
		fmt.Println("minimized cover set is empty: nothing can jointly cover s")
	case core.ReasonTrialsExhausted:
		fmt.Printf("no witness in %d trials; error probability <= %g\n", res.ExecutedTrials, *delta)
		fmt.Printf("reduced set after MCS: %d of %d subscriptions\n", len(res.ReducedSet), len(set))
		if res.DCapped {
			fmt.Printf("the trial bound d = 10^%.1f exceeded the cap: that error probability is NOT guaranteed\n", res.Log10D)
		}
	case core.ReasonResidualCover:
		fmt.Printf("exact: subtracting the set from s left nothing (%d box tests)\n", res.ResidualTests)
		fmt.Print("covered by subscriptions")
		for _, i := range res.ReducedSet {
			fmt.Printf(" #%d", i+1)
		}
		fmt.Println(" together")
	}
	return nil
}

// demoProblem returns the paper's worked examples.
func demoProblem(name string) (subscription.Subscription, []subscription.Subscription, error) {
	box := func(l1, h1, l2, h2 int64) subscription.Subscription {
		return subscription.New(interval.New(l1, h1), interval.New(l2, h2))
	}
	switch name {
	case "cover": // Table 3 / Table 5
		return box(830, 870, 1003, 1006),
			[]subscription.Subscription{box(820, 850, 1001, 1007), box(840, 880, 1002, 1009)}, nil
	case "noncover": // Table 6
		return box(830, 890, 1003, 1006),
			[]subscription.Subscription{box(820, 850, 1002, 1009), box(840, 870, 1001, 1007)}, nil
	case "mcs": // Table 7 / Table 8
		return box(830, 870, 1003, 1006),
			[]subscription.Subscription{
				box(820, 850, 1001, 1007),
				box(840, 880, 1002, 1009),
				box(810, 890, 1004, 1005),
			}, nil
	default:
		return subscription.Subscription{}, nil, fmt.Errorf("unknown demo %q (want cover, noncover, or mcs)", name)
	}
}

// problemJSON is the stdin input format.
type problemJSON struct {
	Schema json.RawMessage   `json:"schema"`
	S      json.RawMessage   `json:"s"`
	Set    []json.RawMessage `json:"set"`
}

// readProblem decodes a schema, tested subscription, and set.
func readProblem(r io.Reader) (subscription.Subscription, []subscription.Subscription, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return subscription.Subscription{}, nil, err
	}
	var p problemJSON
	if err := json.Unmarshal(data, &p); err != nil {
		return subscription.Subscription{}, nil, fmt.Errorf("decode problem: %w", err)
	}
	schema, err := subscription.UnmarshalSchema(p.Schema)
	if err != nil {
		return subscription.Subscription{}, nil, err
	}
	s, err := subscription.UnmarshalSubscription(p.S, schema)
	if err != nil {
		return subscription.Subscription{}, nil, fmt.Errorf("decode s: %w", err)
	}
	set := make([]subscription.Subscription, len(p.Set))
	for i, raw := range p.Set {
		if set[i], err = subscription.UnmarshalSubscription(raw, schema); err != nil {
			return subscription.Subscription{}, nil, fmt.Errorf("decode set[%d]: %w", i, err)
		}
	}
	return s, set, nil
}
