package main

// Machine-readable micro-benchmark output: paperbench -benchjson DIR
// runs the hot-path micro-benchmarks via testing.Benchmark and writes
// BENCH_<date>.json, giving future changes a perf trajectory to diff
// against without parsing `go test -bench` text.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"probsum/internal/benchcases"
	"probsum/internal/conflict"
	"probsum/internal/core"
	"probsum/internal/obs"
	"probsum/internal/store"
	"probsum/pubsub/cluster/scale"
)

// BenchResult is one benchmark measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the file-level envelope.
type BenchReport struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Calibration is the host-speed probe: ns/op of a fixed CPU-bound
	// workload (FNV-1a over 64 KiB) with no allocation, no syscalls,
	// and no concurrency. The regression gate divides each fresh
	// measurement by the calibration ratio fresh/baseline before
	// comparing, so a slower or faster host does not read as a code
	// regression (or mask one).
	Calibration float64       `json:"calibration_ns_per_op,omitempty"`
	Benchmarks  []BenchResult `json:"benchmarks"`
	// Scale tracks the membership-at-scale trajectory: deterministic
	// runs of the pubsub/cluster/scale harness (fixed seed, manual
	// clock), so convergence and gossip-traffic numbers diff across
	// commits like the micro-benchmarks do. Informational — the CI
	// regression gate for these lives in examples/scale.
	Scale []ScaleResult `json:"scale,omitempty"`
}

// ScaleResult is one membership scale-harness measurement, plus the
// content-layer flood of the same size and seed.
type ScaleResult struct {
	N                         int     `json:"n"`
	Links                     int     `json:"links"`
	MaxDegree                 int     `json:"max_degree"`
	ConvergedRounds           int     `json:"converged_rounds"`
	SteadyBytesPerMemberRound float64 `json:"steady_bytes_per_member_round"`
	SteadyFullGossipFrames    uint64  `json:"steady_full_gossip_frames"`
	SteadyDeltaFrames         uint64  `json:"steady_delta_frames"`
	TotalControlBytes         uint64  `json:"total_control_bytes"`
	// FloodSubFramesPerLink is the subscription-announcement frames per
	// directed overlay link the injected workload cost; Deliveries its
	// notification count, which scale.Run has already checked against
	// the brute-force delivery oracle.
	FloodSubFramesPerLink float64 `json:"flood_sub_frames_per_link"`
	Deliveries            int     `json:"deliveries"`
}

// microBenchmarks is the hot-path set, with bodies shared with the
// repo's bench_test.go through internal/benchcases so trajectories
// line up with `go test -bench` output.
func microBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"ConflictTableBuild", func(b *testing.B) {
			in := benchcases.Instance("cover")
			var t conflict.Table
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := t.Reset(in.S, in.Set); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"MCS", func(b *testing.B) {
			in := benchcases.Instance("cover")
			tbl, err := conflict.Build(in.S, in.Set)
			if err != nil {
				b.Fatal(err)
			}
			alive := make([]bool, tbl.K())
			var an conflict.Analysis
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MCSInto(tbl, alive, &an)
			}
		}},
		{"CoveredInto/covered", func(b *testing.B) { benchcases.CoveredInto(b, "cover") }},
		{"CoveredInto/noncover", func(b *testing.B) { benchcases.CoveredInto(b, "noncover") }},
		{"CoveredInto/dense", benchcases.CoveredIntoDense},
		{"StoreSubscribe/pairwise", func(b *testing.B) {
			benchcases.StoreSubscribe(b, store.PolicyPairwise)
		}},
		{"StoreSubscribe/group", func(b *testing.B) {
			benchcases.StoreSubscribe(b, store.PolicyGroup)
		}},
		{"StoreSubscribe/dense", benchcases.StoreSubscribeDense},
		{"TableSubscribeBatch/peritem", func(b *testing.B) {
			benchcases.TableSubscribeBatch(b, false)
		}},
		{"TableSubscribeBatch/batch", func(b *testing.B) {
			benchcases.TableSubscribeBatch(b, true)
		}},
		{"TableSubscribeBatch/dense", benchcases.TableSubscribeBatchDense},
		{"TableUnsubscribeBatch/peritem", func(b *testing.B) {
			benchcases.TableUnsubscribeBatch(b, false)
		}},
		{"TableUnsubscribeBatch/batch", func(b *testing.B) {
			benchcases.TableUnsubscribeBatch(b, true)
		}},
		{"WireCodec/pub-encode/binary", func(b *testing.B) {
			benchcases.WireCodecEncode(b, "pub")
		}},
		{"WireCodec/pub-decode/binary", func(b *testing.B) {
			benchcases.WireCodecDecode(b, "pub")
		}},
		{"WireCodec/subbatch-encode/binary", func(b *testing.B) {
			benchcases.WireCodecEncode(b, "subbatch")
		}},
		{"WireCodec/subbatch-decode/binary", func(b *testing.B) {
			benchcases.WireCodecDecode(b, "subbatch")
		}},
		// End-to-end wire benchmarks over real loopback sockets: they
		// are recorded in the snapshot but stay outside the regression
		// gate because wall clock over sockets absorbs scheduler noise
		// the 30% margin is not meant to cover.
		{"TCPPublish/binary", benchcases.TCPPublish},
		{"TCPPublish/pubbatch", benchcases.TCPPublishBatch},
		{"TCPSubscribeBurst/peritem", func(b *testing.B) {
			benchcases.TCPSubscribeBurst(b, false)
		}},
		{"TCPSubscribeBurst/batch", func(b *testing.B) {
			benchcases.TCPSubscribeBurst(b, true)
		}},
		// Observability primitives: the per-observation cost the
		// instrumented hot paths pay. allocs/op here must stay zero —
		// the same invariant internal/obs's alloc tests pin.
		{"ObsHistogramObserve", func(b *testing.B) {
			h := obs.NewHistogram()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(time.Duration(i%4096) * time.Microsecond)
			}
		}},
		{"ObsLinkFrames", func(b *testing.B) {
			var ls obs.LinkStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ls.Sent(i % 16)
				ls.Recv(i % 16)
			}
		}},
	}
}

// benchSink defeats dead-code elimination in the calibration loop.
var benchSink uint64

// calibrate measures the host-speed probe (see BenchReport.Calibration).
func calibrate() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	r := testing.Benchmark(func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			h := uint64(14695981039346656037)
			for _, c := range buf {
				h ^= uint64(c)
				h *= 1099511628211
			}
			sink ^= h
		}
		benchSink = sink
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// regressionGated lists the benchmark-name prefixes the CI regression
// gate compares: the covered-path checker, the subscribe paths (store
// and Table), and the wire codec, per the perf-trajectory roadmap
// item. Figure benchmarks, ablations, and the socket-level TCP
// benchmarks stay informational.
var regressionGated = []string{"CoveredInto/", "StoreSubscribe/", "TableSubscribeBatch/", "TableUnsubscribeBatch/", "WireCodec/", "publish_notify_"}

// hostScale derives the normalization factor between a fresh report
// and its baseline from their calibration probes: > 1 means this host
// ran the fixed workload slower than the baseline host. Clamped to
// [0.25, 4.0] so a broken probe can neither hide a real regression
// behind a huge divisor nor invent one; missing calibration on either
// side (pre-calibration baselines) disables normalization.
func hostScale(report, base BenchReport) float64 {
	if report.Calibration <= 0 || base.Calibration <= 0 {
		return 1
	}
	scale := report.Calibration / base.Calibration
	return min(max(scale, 0.25), 4.0)
}

// gated reports whether the regression gate compares benchmark name.
func gated(name string) bool {
	for _, p := range regressionGated {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// notProduced returns, in baseline order, the gated baseline entries
// the report does not hold: benchmarks the run no longer produces.
func notProduced(report, base BenchReport) []string {
	have := make(map[string]bool, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		have[b.Name] = true
	}
	var names []string
	for _, b := range base.Benchmarks {
		if gated(b.Name) && !have[b.Name] {
			names = append(names, b.Name)
		}
	}
	return names
}

// checkRegressions compares a fresh report against a committed
// baseline file and errors when any gated benchmark's ns/op regressed
// by more than maxRegress (0.30 = +30%) after host-speed
// normalization. A benchmark the baseline lacks is not compared, and a
// gated baseline entry the run no longer produces is reported as not
// produced, so adding or retiring benchmarks never breaks the gate.
func checkRegressions(report BenchReport, baselinePath string, maxRegress float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	scale := hostScale(report, base)
	if scale != 1 {
		fmt.Fprintf(os.Stderr, "gate  host calibration %.1f vs baseline %.1f ns/op: normalizing by %.2fx\n",
			report.Calibration, base.Calibration, scale)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
	}
	var failures []string
	for _, b := range report.Benchmarks {
		old, ok := baseNs[b.Name]
		if !ok || old <= 0 || !gated(b.Name) {
			continue
		}
		delta := (b.NsPerOp/scale)/old - 1
		fmt.Fprintf(os.Stderr, "gate  %-32s %12.1f -> %12.1f ns/op (%+.1f%% normalized)\n",
			b.Name, old, b.NsPerOp, 100*delta)
		if delta > maxRegress {
			failures = append(failures,
				fmt.Sprintf("%s: %.1f -> %.1f ns/op (%+.1f%% > %+.0f%%)",
					b.Name, old, b.NsPerOp, 100*delta, 100*maxRegress))
		}
	}
	for _, name := range notProduced(report, base) {
		fmt.Fprintf(os.Stderr, "gate  not produced: %s\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regressions vs %s:\n  %s",
			baselinePath, strings.Join(failures, "\n  "))
	}
	return nil
}

// runBenchJSON executes the micro-benchmarks and writes
// BENCH_<yyyy-mm-dd>.json into dir, returning the file path and the
// report for regression gating.
func runBenchJSON(dir string) (string, BenchReport, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", BenchReport{}, fmt.Errorf("create bench dir: %w", err)
	}
	report := BenchReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	report.Calibration = calibrate()
	fmt.Fprintf(os.Stderr, "bench %-32s %12.1f ns/op (host-speed probe)\n", "Calibration", report.Calibration)
	for _, bm := range microBenchmarks() {
		fmt.Fprintf(os.Stderr, "bench %-32s ", bm.name)
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			fmt.Fprintln(os.Stderr, "FAILED")
			return "", BenchReport{}, fmt.Errorf("bench %s failed (body called b.Fatal)", bm.name)
		}
		res := BenchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%12.1f ns/op %6d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
		report.Benchmarks = append(report.Benchmarks, res)
	}
	// End-to-end latency: the paper's user-visible number. Closed-loop
	// probes over two real TCP brokers, exact percentiles from
	// ClientStats raw samples; gated like the micro-benchmarks.
	{
		const warmup, probes = 50, 300
		fmt.Fprintf(os.Stderr, "bench %-32s ", "publish_notify")
		p50, p99, err := publishNotifyLatency(warmup, probes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "FAILED")
			return "", BenchReport{}, fmt.Errorf("publish-notify latency: %w", err)
		}
		fmt.Fprintf(os.Stderr, "p50 %12.1f ns  p99 %12.1f ns (%d probes)\n", p50, p99, probes)
		report.Benchmarks = append(report.Benchmarks,
			BenchResult{Name: "publish_notify_p50", Iterations: probes, NsPerOp: p50},
			BenchResult{Name: "publish_notify_p99", Iterations: probes, NsPerOp: p99},
		)
	}
	for _, n := range []int{200, 1000} {
		fmt.Fprintf(os.Stderr, "scale n=%-4d ", n)
		const subs, pubs = 100, 100
		flood, err := scale.Run(scale.Config{N: n, Seed: 1, Subs: subs, Pubs: pubs})
		if err != nil {
			fmt.Fprintln(os.Stderr, "FAILED")
			return "", BenchReport{}, fmt.Errorf("scale n=%d: %w", n, err)
		}
		res := ScaleResult{
			N:                         flood.N,
			Links:                     flood.Links,
			MaxDegree:                 flood.MaxDegree,
			ConvergedRounds:           flood.ConvergedRound,
			SteadyBytesPerMemberRound: flood.SteadyBytesPerMemberRound,
			SteadyFullGossipFrames:    flood.SteadyFullGossipFrames,
			SteadyDeltaFrames:         flood.SteadyDeltaFrames,
			TotalControlBytes:         flood.TotalControlBytes,
			FloodSubFramesPerLink:     flood.SubFramesPerLink,
			Deliveries:                flood.Deliveries,
		}
		fmt.Fprintf(os.Stderr, "converged in %d rounds, %.0f B/member/round steady, sub frames/link %.2f, %d deliveries\n",
			res.ConvergedRounds, res.SteadyBytesPerMemberRound, res.FloodSubFramesPerLink, res.Deliveries)
		report.Scale = append(report.Scale, res)
	}
	path := filepath.Join(dir, "BENCH_"+time.Now().UTC().Format("2006-01-02")+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", BenchReport{}, fmt.Errorf("create %s: %w", path, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return "", BenchReport{}, fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", BenchReport{}, fmt.Errorf("close %s: %w", path, err)
	}
	return path, report, nil
}
