package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probsum/bench/proc"
)

func TestValueAggregatesRounds(t *testing.T) {
	r := &result{perRound: map[string][]float64{
		"notify_p50_us":        {210, 195, 230, 201, 199},
		"pubs_per_s":           {17000, 18400, 16100, 18100}, // an even count: the mean of the middle two
		"client.notify_p99_us": {500, 900, 700},
	}, perRoundTraced: map[string][]float64{
		"pubs_per_s":           {1, 2, 3}, // traced rounds never feed an end-to-end figure
		"broker.subs_received": {40, 42, 41},
	}, layer: map[string]float64{"codec.encode_pub_ns": 123}}
	for name, want := range map[string]float64{
		"notify_p50_us": 201, "pubs_per_s": 17550, "client.notify_p99_us": 700,
		"broker.subs_received": 41, "codec.encode_pub_ns": 123,
	} {
		if got, ok := r.value(name); !ok || got != want {
			t.Errorf("value(%s) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := r.value("client.recover_s"); ok {
		t.Error("a metric no round measured has a value")
	}
	r.derive()
	if got := r.layer["client.trace_overhead_frac"]; got != 1-2.0/17550 {
		t.Errorf("trace overhead = %v, want 1 - median traced / median untraced", got)
	}
	if got := r.layer["client.round_iqr_frac_max"]; got <= 0 {
		t.Errorf("round spread = %v, want the larger of the two metrics' spreads", got)
	}
}

func fullResult() *result {
	r := &result{perRound: map[string][]float64{}, layer: map[string]float64{}}
	for _, m := range endToEnd {
		r.perRound[m.Name] = []float64{3, 2, 4}
	}
	r.tally.Attempted, r.tally.DeliveriesExpected = 10, 20
	return r
}

func TestContractJSON(t *testing.T) {
	type line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	for _, traced := range []bool{false, true} {
		r := fullResult()
		out, err := r.contractJSON(traced)
		if err != nil {
			t.Fatal(err)
		}
		if strings.ContainsAny(out, "\n") {
			t.Fatal("the result spans lines")
		}
		var got line
		dec := json.NewDecoder(strings.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted != 10 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("traced=%v: header fields wrong in %s", traced, out)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want exactly %d", traced, len(got.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := got.Metrics[m.Name]
			if !ok || v.Value == nil || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or without value/unit", traced, m.Name)
			}
		}
	}
	r := fullResult()
	delete(r.perRound, "sub_active_per_s")
	if _, err := r.contractJSON(false); err == nil {
		t.Error("an untraced result without sub_active_per_s was rendered")
	}
	r = fullResult()
	r.tally.Failed, r.tally.DeliveriesMissing = 1, 2
	out, _ := r.contractJSON(false)
	if !strings.Contains(out, `"correct":false`) || !strings.Contains(out, `"failed":1`) {
		t.Errorf("a failed operation does not show: %s", out)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what psbench prints. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, --seconds defaults to %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, workloads.go %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			better := "lower"
			if m.Higher {
				better = "higher"
			}
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %s %s %s", kind, i, g, m.Name, m.Unit, better)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound in BENCHMARK.json and metrics.go disagree or fall outside (0, 0.25]", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && !m.Higher
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestScaledCounts(t *testing.T) {
	w, _ := findWorkload("chain-3hop")
	half := w.scaled(0.5)
	if half.Lat != w.Lat/2 || half.Thr != w.Thr/2 || half.Spec.Burst != w.Spec.Burst/2 {
		t.Errorf("half the seconds: %d/%d/%d, want half of %d/%d/%d", half.Lat, half.Thr, half.Spec.Burst, w.Lat, w.Thr, w.Spec.Burst)
	}
	if half.Spec.Base != w.Spec.Base || half.Warm != w.Warm {
		t.Error("scaling touched the population or the warm-up")
	}
	if z := w.scaled(1e-9); z.Lat < 1 || z.Thr < 1 || z.Spec.Burst < 1 {
		t.Errorf("a phase scaled away: %d/%d/%d", z.Lat, z.Thr, z.Spec.Burst)
	}
}

// tiny shrinks a workload so a whole run takes about a second.
func tiny(w Workload) Workload {
	w.Spec.Base = max(60, w.Spec.Base/50)
	w.Spec.Pool = 128
	w.Spec.FanMax = 40
	w.Spec.FanMin = 1
	w.Spec.Burst, w.Spec.Singles, w.Spec.Retire, w.Spec.Churn = 60, 10, 20, 64
	w.Warm, w.Lat, w.Thr, w.Audit = 20, 60, 200, 32
	return w
}

// Every workload, end to end through real brokerd processes, with tiny
// counts: every end-to-end metric must come out positive, every
// per-layer metric must be present in a traced run, and no delivery may
// differ from the reference.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, outDir: t.TempDir(), group: &proc.Group{}, log: io.Discard}
	defer h.cleanup()
	if err := h.build(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i, w := range workloads {
		traced := i == len(workloads)-1 // the durable workload exercises every layer
		h.rounds = 1
		if traced {
			h.rounds = 2
		}
		r, err := h.runWorkload(tiny(w), 5, runSeconds, traced)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.correct() {
			t.Errorf("%s: deliveries differ from the reference: %+v", w.Name, r.tally)
		}
		line, err := r.contractJSON(traced)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !traced {
			for _, m := range endToEnd {
				if v, _ := r.value(m.Name); v <= 0 {
					t.Errorf("%s: %s = %v, want a positive value", w.Name, m.Name, v)
				}
			}
			// The phases one workload exists for run there and nowhere else.
			for _, name := range []string{"client.unsub_per_s", "client.sub_active_p50_us"} {
				if v, ok := r.value(name); ok != w.Retires || ok && v <= 0 {
					t.Errorf("%s: %s = %v, %v; want it measured exactly where the workload retires", w.Name, name, v, ok)
				}
			}
			if _, ok := r.value("client.recover_s"); ok {
				t.Errorf("%s: a workload without data directories was restarted", w.Name)
			}
			continue
		}
		r.print(io.Discard, true)
		for _, name := range []string{"codec.decode_pub_ns", "match.match_ns", "broker.handle_pub_ns", "subsume.subscribe_batch_ns_per_sub",
			"store.subscribe_ns", "core.covered_ns", "conflict.build_ns", "persist.append_ns", "persist.replay_s", "tcp.write_ns_per_frame",
			"broker.match_stage_ns_per_pub", "broker.subs_received", "broker.sub_forward_ratio", "client.notify_samples", "client.recover_s"} {
			if v, ok := r.value(name); !ok || v <= 0 {
				t.Errorf("%s traced: %s = %v, %v; want a positive value (%s)", w.Name, name, v, ok, line)
			}
		}
		trace, err := os.ReadFile(filepath.Join(h.outDir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []struct {
				Name   string
				Parent int
			}
		}
		if err := json.Unmarshal(trace, &doc); err != nil || len(doc.Spans) < 100 {
			t.Errorf("trace file: %v, %d spans", err, len(doc.Spans))
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("the smoke run took %v, want under 10 s", d)
	}
}
