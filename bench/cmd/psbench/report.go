package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"probsum/bench/drive"
	"probsum/bench/proc"
	"probsum/bench/stat"
)

// result is one run of one workload.
type result struct {
	w      Workload
	seed   uint64
	fanout float64

	// perRound holds, per metric, the value of every measured round
	// that produced it; untraced and traced rounds of a traced run are
	// kept apart so tracing overhead can be read off.
	perRound       map[string][]float64
	perRoundTraced map[string][]float64
	thrDeltas      []proc.Delta
	// layer holds metrics that are not medians over rounds: the replay
	// figures and the derived ones.
	layer map[string]float64

	tally                   drive.Tally
	calibBefore, calibAfter float64
	genTime, wall           time.Duration
}

func (r *result) correct() bool {
	return r.tally.Failed == 0 && r.tally.DeliveriesMissing == 0 && r.tally.DeliveriesSpurious == 0 && r.tally.Attempted > 0
}

func (r *result) addRound(rr roundResult, traced bool) {
	if r.perRound == nil {
		r.perRound, r.perRoundTraced = map[string][]float64{}, map[string][]float64{}
	}
	dst := r.perRound
	if traced {
		dst = r.perRoundTraced
		r.thrDeltas = append(r.thrDeltas, rr.thrDelta)
	}
	for k, v := range rr.sample {
		dst[k] = append(dst[k], v)
	}
}

// roundsOf returns a metric's per-round values: from the untraced
// rounds when there are any (end-to-end numbers never come from traced
// rounds), else from the traced ones.
func (r *result) roundsOf(name string) []float64 {
	if xs := r.perRound[name]; len(xs) > 0 {
		return xs
	}
	return r.perRoundTraced[name]
}

// value is a metric's reported figure: the median over the run's rounds
// for a figure sampled once per round, the figure itself for a replay
// or derived one. Rounds are identical but for the host, and the median
// drops up to half of them; over ten runs of every workload it moved
// half as much between runs as the best round did (NOISE.md).
func (r *result) value(name string) (float64, bool) {
	if v, ok := r.layer[name]; ok {
		return v, true
	}
	xs := r.roundsOf(name)
	if len(xs) == 0 {
		return 0, false
	}
	return stat.Median(xs), true
}

// derive fills the client.* figures that summarise the run itself.
func (r *result) derive() {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer["client.deliveries_expected"] = float64(r.tally.DeliveriesExpected)
	r.layer["client.deliveries_missing"] = float64(r.tally.DeliveriesMissing)
	r.layer["client.deliveries_spurious"] = float64(r.tally.DeliveriesSpurious)
	r.layer["client.barrier_timeouts"] = float64(r.tally.BarrierTimeouts)
	r.layer["client.calib_ns"] = (r.calibBefore + r.calibAfter) / 2
	worst := 0.0
	for _, m := range endToEnd {
		if xs := r.perRound[m.Name]; len(xs) > 1 {
			worst = math.Max(worst, stat.IQRFrac(xs))
		}
	}
	r.layer["client.round_iqr_frac_max"] = worst
	if u, t := r.perRound["pubs_per_s"], r.perRoundTraced["pubs_per_s"]; len(u) > 0 && len(t) > 0 {
		r.layer["client.trace_overhead_frac"] = 1 - stat.Median(t)/stat.Median(u)
	}
}

func arrow(higher bool) string {
	if higher {
		return "higher is better"
	}
	return "lower is better"
}

// print writes the run's report: every end-to-end metric with its round
// quartiles, then (traced) every per-layer metric.
func (r *result) print(w io.Writer, traced bool) {
	r.derive()
	fmt.Fprintf(w, "\n== %s  seed %d  %d hop(s)  base %d  mean fan-out %.2f  wall %.1fs (generate %.1fs)\n",
		r.w.Name, r.seed, r.w.Hops, r.w.Spec.Base, r.fanout, r.wall.Seconds(), r.genTime.Seconds())
	fmt.Fprintf(w, "   %s\n", r.w.Why)
	fmt.Fprintf(w, "   operations attempted %d, failed %d (deliveries expected %d, missing %d, spurious %d; barrier time-outs %d)\n",
		r.tally.Attempted, r.tally.Failed, r.tally.DeliveriesExpected, r.tally.DeliveriesMissing, r.tally.DeliveriesSpurious, r.tally.BarrierTimeouts)
	skew := math.Abs(r.calibAfter-r.calibBefore) / r.calibBefore
	flag := ""
	if skew > 0.10 {
		flag = "  ** HOST SKEW: the fixed-work loop moved by more than 10% across this workload **"
	}
	fmt.Fprintf(w, "   calibration loop %.0f ns before, %.0f ns after (%.1f%%)%s\n", r.calibBefore, r.calibAfter, 100*skew, flag)
	fmt.Fprintf(w, "   %-26s %14s %-6s %-18s %6s   %s\n", "end-to-end metric", "median", "unit", "direction", "bound", "rounds: q1 .. q3 (n)  values")
	for _, m := range endToEnd {
		xs := r.roundsOf(m.Name)
		if len(xs) == 0 {
			continue
		}
		q1, q3 := stat.Quartiles(xs)
		fmt.Fprintf(w, "   %-26s %14.4f %-6s %-18s %5.0f%%   %.4f .. %.4f (%d)  %.4g\n",
			m.Name, stat.Median(xs), m.Unit, arrow(m.Higher), 100*m.Bound, q1, q3, len(xs), xs)
	}
	if n := r.roundsOf("client.notify_samples"); len(n) > 0 {
		fmt.Fprintf(w, "   latency samples per round %.0f; p90 %.1f us and p99 %.1f us are reported per layer only\n",
			stat.Median(n), stat.Median(r.roundsOf("client.notify_p90_us")), stat.Median(r.roundsOf("client.notify_p99_us")))
	}
	if xs := r.roundsOf("client.slowdown"); len(xs) > 0 {
		raw := func(name string) float64 { v, _ := r.value(name); return v }
		fmt.Fprintf(w, "   as measured, before scaling to the reference clock: notify_p50_us %.4f  pubs_per_s %.4f  sub_active_per_s %.4f  (clock slow-down per round %.3g)\n",
			raw("client.notify_p50_raw_us"), raw("client.pubs_raw_per_s"), raw("client.sub_active_raw_per_s"), xs)
	}
	fmt.Fprintf(w, "   round phases, median seconds:")
	for _, name := range phaseNames {
		if xs := r.roundsOf("phase." + name + "_s"); len(xs) > 0 {
			fmt.Fprintf(w, " %s %.2f;", name, stat.Median(xs))
		}
	}
	fmt.Fprintln(w)
	if !traced {
		return
	}
	fmt.Fprintf(w, "   %-40s %14s %-6s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		v, _ := r.value(m.Name)
		fmt.Fprintf(w, "   %-40s %14.4f %-6s\n", m.Name, v, m.Unit)
	}
	r.printBudget(w)
}

// runSets runs every workload `repeat` times, set k with seed+k as the
// driver does, and for more than one set compares the sets' values with
// each metric's bound.
func (h *harness) runSets(seed uint64, seconds float64, traced bool, repeat int) (int, error) {
	type key struct{ workload, metric string }
	sets := map[key][]float64{}
	code := 0
	for set := 0; set < repeat; set++ {
		if repeat > 1 {
			fmt.Fprintf(h.log, "\n#### set %d of %d\n", set+1, repeat)
		}
		for _, w := range workloads {
			r, err := h.runWorkload(w, seed+uint64(set), seconds, false)
			if err != nil {
				fmt.Fprintln(h.log, "psbench:", err)
				code = 1
			}
			if r == nil {
				continue
			}
			r.print(h.log, false)
			if !r.correct() {
				code = 1
			}
			for _, m := range endToEnd {
				if v, ok := r.value(m.Name); ok {
					sets[key{w.Name, m.Name}] = append(sets[key{w.Name, m.Name}], v)
				}
			}
			if traced && set == 0 {
				tr, err := h.runWorkload(w, seed, seconds, true)
				if err != nil {
					fmt.Fprintln(h.log, "psbench:", err)
					code = 1
				}
				if tr != nil {
					tr.print(h.log, true)
				}
			}
		}
	}
	if repeat < 2 {
		return code, nil
	}
	fmt.Fprintf(h.log, "\n#### %d sets (seeds %d..%d): median of the sets' values, min .. max, spread (max-min)/median against the bound, quartile distance/median\n",
		repeat, seed, seed+uint64(repeat)-1)
	fmt.Fprintf(h.log, "%-14s %-24s %12s %12s %12s %8s %6s %8s  %s\n", "workload", "metric", "median", "min", "max", "spread", "bound", "iqr", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xs := sets[key{w.Name, m.Name}]
			if len(xs) == 0 {
				continue
			}
			s := stat.Sorted(xs)
			med := stat.Median(xs)
			spread := (s[len(s)-1] - s[0]) / med
			verdict := "agree"
			if len(xs) < repeat || spread > m.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(h.log, "%-14s %-24s %12.4f %12.4f %12.4f %7.1f%% %5.0f%% %7.1f%%  %s\n",
				w.Name, m.Name, med, s[0], s[len(s)-1], 100*spread, 100*m.Bound, 100*stat.IQRFrac(xs), verdict)
		}
	}
	return code, nil
}
