package main

import (
	"slices"
	"testing"
)

// TestNotProduced requires the gate to name, in baseline order, every
// gated baseline entry a run no longer produces, and nothing else: not
// an ungated entry, nor one the run produced.
func TestNotProduced(t *testing.T) {
	entries := func(names ...string) []BenchResult {
		out := make([]BenchResult, len(names))
		for i, n := range names {
			out[i] = BenchResult{Name: n, NsPerOp: 1}
		}
		return out
	}
	base := BenchReport{Benchmarks: entries("WireCodec/json", "CoveredInto/covered", "Fig6/x", "StoreSubscribe/noprune", "WireCodec/binary")}
	report := BenchReport{Benchmarks: entries("CoveredInto/covered", "WireCodec/binary", "CoveredInto/dense")}
	got := notProduced(report, base)
	if want := []string{"WireCodec/json", "StoreSubscribe/noprune"}; !slices.Equal(got, want) {
		t.Fatalf("notProduced = %q, want %q", got, want)
	}
}
