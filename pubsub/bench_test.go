package pubsub_test

// Wire-path benchmarks, bodies shared with cmd/paperbench through
// internal/benchcases so the BENCH_*.json trajectory lines up with
// `go test -bench` output. (External test package: benchcases imports
// pubsub, so an in-package test file could not import it back.)
//
//	go test -run '^$' -bench BenchmarkTCPPublish -benchtime 2000x ./pubsub
//	go test -run '^$' -bench BenchmarkWireCodec ./pubsub

import (
	"testing"

	"probsum/internal/benchcases"
)

// BenchmarkTCPPublish dimensions: binary is one frame per publication
// with publish coalescing on the broker's reader — the production
// path; pubbatch batches deliberately on the producer side
// (Client.PublishBatch, 16 per PUBBATCH frame).
func BenchmarkTCPPublish(b *testing.B) {
	b.Run("binary", benchcases.TCPPublish)
	b.Run("pubbatch", benchcases.TCPPublishBatch)
}

// BenchmarkWireCodec measures frame marshal/unmarshal on the
// wire-dominant shapes: single publish frames and 64-item
// subscription-batch frames.
func BenchmarkWireCodec(b *testing.B) {
	for _, shape := range []string{"pub", "subbatch"} {
		b.Run(shape+"-encode/binary", func(b *testing.B) { benchcases.WireCodecEncode(b, shape) })
		b.Run(shape+"-decode/binary", func(b *testing.B) { benchcases.WireCodecDecode(b, shape) })
	}
}

// BenchmarkTCPSubscribeBurst measures a 256-subscription burst plus
// its cancellation through a two-broker overlay: one frame per
// subscription versus one SUBBATCH/UNSUBBATCH pair feeding batch
// admission.
func BenchmarkTCPSubscribeBurst(b *testing.B) {
	b.Run("peritem", func(b *testing.B) { benchcases.TCPSubscribeBurst(b, false) })
	b.Run("batch", func(b *testing.B) { benchcases.TCPSubscribeBurst(b, true) })
}
