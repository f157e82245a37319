package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"

	"probsum/bench/gen"
	"probsum/bench/proc"
	"probsum/bench/replay"
	"probsum/bench/stat"
)

// flagValue returns the value following a brokerd flag in the
// workload's argument list, or def.
func flagValue(args []string, name string, def float64) float64 {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == name {
			if v, err := strconv.ParseFloat(args[i+1], 64); err == nil {
				return v
			}
		}
	}
	return def
}

// replay runs the in-process per-layer replay of a traced run, folds in
// what the traced rounds scraped from brokerd, and writes the trace
// file.
func (r *result) replay(in *gen.Inputs, outDir string) error {
	rep, err := replay.Run(in, replay.Config{
		Hops:        r.w.Hops,
		Delta:       flagValue(r.w.Args, "-delta", 1e-6),
		Durable:     r.w.Durable,
		JournalSync: int(flagValue(r.w.Args, "-journal-sync", 64)),
		Dir:         outDir,
		Batch:       admitBatch,
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	for k, v := range rep.Metrics {
		r.layer[k] = v
	}
	r.scraped()
	r.budget()
	return replay.WriteTrace(filepath.Join(outDir, r.w.Name+".trace.json"), r.w.Name, r.seed, rep.Spans)
}

// scraped turns the /metrics.json deltas of the traced rounds into the
// tcp.* and broker.*_stage figures: medians over the traced rounds.
func (r *result) scraped() {
	perHist := func(ds []proc.Delta, series string) float64 {
		var xs []float64
		for _, d := range ds {
			if h := d.Histograms[series]; h.Count > 0 {
				xs = append(xs, float64(h.SumNs)/float64(h.Count))
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return stat.Median(xs)
	}
	r.layer["tcp.decode_ns_per_frame"] = perHist(r.thrDeltas, "publish_stage_decode_ns")
	r.layer["tcp.enqueue_ns_per_frame"] = perHist(r.thrDeltas, "publish_stage_enqueue_ns")
	r.layer["tcp.write_ns_per_frame"] = perHist(r.thrDeltas, "publish_stage_write_ns")
	r.layer["broker.match_stage_ns_per_pub"] = perHist(r.thrDeltas, "publish_stage_match_ns")
	r.layer["broker.route_stage_ns_per_pub"] = perHist(r.thrDeltas, "publish_stage_route_ns")
	var frames []float64
	for _, d := range r.thrDeltas {
		frames = append(frames, float64(d.FramesOut)/float64(r.w.Thr))
	}
	if len(frames) > 0 {
		r.layer["tcp.frames_out_per_pub"] = stat.Median(frames)
	}
}

// budget sets the replayed layers against the CPU the brokers really
// used and names the rest. Per publication a chain of h brokers decodes
// and handles it h times and encodes every frame it sends; per admitted
// subscription it decodes the batch h times, runs the admission path
// (with a coverage table) on the h-1 brokers that have a neighbour to
// forward to and without one on the first broker, and encodes h-1
// forwards.
func (r *result) budget() {
	h := float64(r.w.Hops)
	l := r.layer
	cpuPub, _ := r.value("broker.cpu_us_per_pub")
	cpuSub, _ := r.value("broker.cpu_us_per_sub")
	fanout := l["match.matches_per_pub"]
	pub := h*(l["codec.decode_pub_ns"]+l["broker.handle_pub_ns"]) +
		(h-1)*l["codec.encode_pub_ns"] + fanout*l["codec.encode_notify_ns"]
	l["tcp.unattributed_us_per_pub"] = cpuPub - pub/1e3
	sub := h*l["codec.decode_subbatch_ns_per_sub"] + max(1, h-1)*l["broker.handle_sub_ns_per_sub"] +
		(h-1)*l["codec.encode_subbatch_ns_per_sub"]
	l["tcp.unattributed_us_per_sub"] = cpuSub - sub/1e3
	l["budget.pub_attributed_us"], l["budget.sub_attributed_us"] = pub/1e3, sub/1e3
}

// printBudget shows the self times on the nested admission path and the
// two sums against the measured broker CPU.
func (r *result) printBudget(w io.Writer) {
	l := r.layer
	cpuPub, _ := r.value("broker.cpu_us_per_pub")
	cpuSub, _ := r.value("broker.cpu_us_per_sub")
	fmt.Fprintf(w, "   self times, admission path (a layer's figure minus the layer beneath on the same stream):\n")
	fmt.Fprintf(w, "     batches of %d: broker %.0f ns/sub = %.0f self + subsume %.0f ns/sub\n", admitBatch,
		l["broker.handle_sub_ns_per_sub"], l["broker.handle_sub_ns_per_sub"]-l["subsume.subscribe_batch_ns_per_sub"], l["subsume.subscribe_batch_ns_per_sub"])
	fmt.Fprintf(w, "     one at a time: subsume %.0f ns = %.0f self + store %.0f ns; per checker call: core %.0f ns = %.0f self + conflict %.0f ns\n",
		l["subsume.subscribe_ns"], l["subsume.subscribe_ns"]-l["store.subscribe_ns"], l["store.subscribe_ns"],
		l["core.covered_ns"], l["core.covered_ns"]-l["conflict.build_ns"], l["conflict.build_ns"])
	fmt.Fprintf(w, "     (checker calls per admission are not visible from outside the program, so store is not split further)\n")
	fmt.Fprintf(w, "   per publication: replayed layers x %d hop(s) %.1f us of %.1f us broker CPU; tcp.unattributed_us_per_pub %.1f us\n",
		r.w.Hops, l["budget.pub_attributed_us"], cpuPub, l["tcp.unattributed_us_per_pub"])
	fmt.Fprintf(w, "   per subscription: replayed layers x %d hop(s) %.1f us of %.1f us broker CPU; tcp.unattributed_us_per_sub %.1f us\n",
		r.w.Hops, l["budget.sub_attributed_us"], cpuSub, l["tcp.unattributed_us_per_sub"])
	fmt.Fprintf(w, "   trace: %s\n", filepath.Join("bench", "out", r.w.Name+".trace.json"))
}
