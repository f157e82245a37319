// Package clock measures how fast the CPU psbench shares with the
// brokers is running at this moment, with paperbench's fixed-work loop:
// FNV-1a over a 64 KiB buffer, no system call, no memory traffic to
// speak of.
//
// The benchmark's host runs at two speeds — a pass of the loop takes
// about 64 µs at the faster and about 81 µs at the slower — and moves
// between them every few seconds, so two runs of the same program
// differ by up to a quarter depending on where they spent their time.
// The brokers slow down with the loop (correlation 0.96 between a
// round's median latency and the loop timed every 25 ms inside that
// round; NOISE.md), so latency, throughput and admission are measured in
// slices of a tenth of a second or so, each slice's time divided by the
// loop's slow-down around it.
package clock

import (
	"sort"
	"time"
)

// RefPassNs is the speed timed values are scaled to: a clock at which
// one pass takes this many nanoseconds, between the host's two.
const RefPassNs = 70000

var buf = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// sink keeps the loop's result alive.
var sink uint64

// passNs times n passes over the buffer and returns nanoseconds per
// pass.
func passNs(n int) float64 {
	t0 := time.Now()
	var s uint64
	for i := 0; i < n; i++ {
		h := uint64(14695981039346656037)
		for _, c := range buf {
			h ^= uint64(c)
			h *= 1099511628211
		}
		s ^= h
	}
	sink = s
	return float64(time.Since(t0)) / float64(n)
}

// A sample is the fastest of sampleBursts bursts of burstPasses passes,
// about 0.4 ms each: a burst that shared the CPU with a broker still
// finishing work (a garbage collection after an admission burst, say)
// reads slow, and a slow clock makes every burst slow.
const (
	sampleBursts = 4
	burstPasses  = 6
)

// Slowdown returns how much slower than the reference speed the CPU
// runs at this moment: above 1 on a slow clock, below on a fast one.
func Slowdown() float64 {
	best := passNs(burstPasses)
	for i := 1; i < sampleBursts; i++ {
		best = min(best, passNs(burstPasses))
	}
	return best / RefPassNs
}

// PassNs is the longer measurement printed before and after a workload:
// nanoseconds per pass, the median of five batches of 200 passes.
func PassNs() float64 {
	batches := make([]float64, 5)
	for b := range batches {
		batches[b] = passNs(200)
	}
	sort.Float64s(batches)
	return batches[len(batches)/2]
}
