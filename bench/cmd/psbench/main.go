// Command psbench is the repository's system benchmark: it builds
// cmd/brokerd, starts real broker processes on loopback, drives them
// from this one process over two client connections (P at the first
// broker, S at the last), checks every delivery against a brute-force
// reference and prints every metric by name.
//
//	go run -C bench ./cmd/psbench                       # all four workloads
//	go run -C bench ./cmd/psbench --trace 1             # plus the per-layer run
//	go run -C bench ./cmd/psbench -repeat 5             # five sets, spread against the bounds
//	go run -C bench ./cmd/psbench --workload chain-3hop --seed 7 --seconds 20 --trace 0
//
// With --workload the last line of standard output is one JSON object
// (correct, attempted, failed, metrics): the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"probsum/bench/clock"
	"probsum/bench/gen"
	"probsum/bench/proc"
)

// wallCap is the longest one workload may take before psbench gives up
// and names the phase it is stuck in.
const wallCap = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the result as one JSON line (default: all four, as a report)")
		seed    = flag.Uint64("seed", 1, "generator seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one workload measures: the rounds' operation counts are scaled to it")
		trace   = flag.Int("trace", 0, "1 = traced run: scrape brokerd's /metrics.json at phase boundaries, replay the inputs through each layer, write bench/out/<workload>.trace.json")
		repeat  = flag.Int("repeat", 1, "run this many full sets and compare their medians against the bounds")
	)
	flag.Parse()
	if err := confine(); err != nil {
		// Still a benchmark, only a noisier one.
		fmt.Fprintln(os.Stderr, "psbench: not confined to one CPU:", err)
	}
	runtime.GOMAXPROCS(procs)

	code, err := run(*name, *seed, *seconds, *trace != 0, *repeat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(name string, seed uint64, seconds float64, traced bool, repeat int) (int, error) {
	if seconds <= 0 || flag.NArg() > 0 {
		return 2, fmt.Errorf("usage: psbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [-repeat N]")
	}
	root, err := repoRoot()
	if err != nil {
		return 1, err
	}
	h := &harness{
		root:   root,
		outDir: filepath.Join(root, "bench", "out"),
		group:  &proc.Group{},
		log:    os.Stdout,
	}
	defer h.cleanup()
	h.trapSignals()
	if err := h.build(); err != nil {
		return 1, err
	}
	fmt.Fprintf(h.log, "psbench: loopback only; generator and every brokerd on CPU %q with GOMAXPROCS=%d; durable data under %s\n",
		os.Getenv(confinedEnv), procs, filepath.Join("bench", "out"))

	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		r, err := h.runWorkload(w, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
		}
		if r == nil {
			return 1, nil
		}
		r.print(h.log, traced)
		line, jerr := r.contractJSON(traced)
		if jerr != nil {
			return 1, jerr
		}
		fmt.Fprintln(os.Stdout, line)
		if err != nil || !r.correct() {
			return 1, nil
		}
		return 0, nil
	}
	return h.runSets(seed, seconds, traced, repeat)
}

// repoRoot finds the repository from the working directory: the parent
// of the directory holding this module's go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module probsum/bench\n") {
			return filepath.Dir(dir), nil
		}
		if err == nil && strings.HasPrefix(string(data), "module probsum\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run psbench from inside the repository (go run -C bench ./cmd/psbench)")
		}
		dir = parent
	}
}

// harness owns what outlives a single workload: the built brokerd, the
// output directory and the set of running brokers.
type harness struct {
	root   string
	outDir string
	bin    string
	group  *proc.Group
	log    io.Writer
	rounds int // tests: measure this many rounds; 0 = the benchmark's five
	// temp directories to remove on the way out
	temps []string
}

// build compiles cmd/brokerd from the repository the benchmark sits in.
func (h *harness) build() error {
	h.bin = filepath.Join(h.outDir, "bin", "brokerd")
	if err := os.MkdirAll(filepath.Dir(h.bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", h.bin, "./cmd/brokerd")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build brokerd: %v\n%s", err, out)
	}
	return nil
}

func (h *harness) cleanup() {
	h.group.Kill()
	for _, d := range h.temps {
		os.RemoveAll(d)
	}
}

// trapSignals kills the brokers and removes temporary directories when
// psbench is interrupted.
func (h *harness) trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-ch
		fmt.Fprintf(os.Stderr, "psbench: %v: killing brokers\n", s)
		h.cleanup()
		os.Exit(130)
	}()
}

// runWorkload runs one workload once: generate, then the rounds, and for
// a traced run the in-process replay.
func (h *harness) runWorkload(w Workload, seed uint64, seconds float64, traced bool) (*result, error) {
	started := time.Now()
	w = w.scaled(seconds / runSeconds)
	in, err := gen.New(w.Spec, seed)
	if err != nil {
		return nil, err
	}
	logDir := filepath.Join(h.outDir, w.Name)
	if err := os.RemoveAll(logDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(h.outDir, "data-")
	if err != nil {
		return nil, err
	}
	h.temps = append(h.temps, dataDir)
	defer os.RemoveAll(dataDir)

	ev := &env{w: w, in: in, bin: h.bin, logDir: logDir, dataDir: dataDir, group: h.group, phase: new(atomic.Value)}
	ev.enter("generate")
	watchdog := time.AfterFunc(wallCap, func() {
		fmt.Fprintf(os.Stderr, "psbench: %s exceeded %v, stuck in phase %q; brokerd logs are under %s\n",
			w.Name, wallCap, ev.phase.Load(), logDir)
		h.cleanup()
		os.Exit(1)
	})
	defer watchdog.Stop()

	r := &result{w: w, seed: seed, fanout: in.MeanFanout, genTime: time.Since(started)}
	r.calibBefore = clock.PassNs()
	n := rounds
	if h.rounds > 0 {
		n = h.rounds
	}
	// The contract gives a run --seconds; rounds are count-bound, so a
	// host far slower than the one they were sized on is cut short
	// rather than allowed to overrun the driver's total.
	patience := time.Duration(1.5 * seconds * float64(time.Second))
	measuring := time.Now()
	for round := 1; round <= n; round++ {
		// A traced run alternates untraced and traced rounds, so the two
		// kinds see the same host conditions.
		tr := traced && round%2 == 0
		rr, err := ev.runRound(round, tr)
		r.tally.Add(rr.tally)
		if err != nil {
			for _, name := range phaseNames {
				if d, ok := rr.sample["phase."+name+"_s"]; ok {
					fmt.Fprintf(os.Stderr, "psbench: failed round: %s took %.2fs\n", name, d)
				}
			}
			return r, fmt.Errorf("%s round %d: %w", w.Name, round, err)
		}
		r.addRound(rr, tr)
		if h.rounds == 0 && round >= minRounds && round < n && time.Since(measuring) > patience {
			fmt.Fprintf(h.log, "psbench: %s: %d rounds took %.0fs of the %.0fs given; stopping there\n", w.Name, round, time.Since(measuring).Seconds(), seconds)
			break
		}
	}
	r.calibAfter = clock.PassNs()
	if traced {
		ev.enter("replay")
		if err := r.replay(in, h.outDir); err != nil {
			return r, err
		}
	}
	r.wall = time.Since(started)
	return r, nil
}

// contractJSON renders the one-line result the benchmark contract asks
// for.
func (r *result) contractJSON(traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, m := range defs {
		v, ok := r.value(m.Name)
		if !ok && !traced {
			return "", fmt.Errorf("%s: no value for %s", r.w.Name, m.Name)
		}
		metrics[m.Name] = mv{v, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), max(1, r.tally.Attempted), min(r.tally.Failed, max(1, r.tally.Attempted)), metrics})
	return string(out), err
}
