package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"probsum/bench/drive"
	"probsum/bench/gen"
	"probsum/bench/proc"
	"probsum/bench/stat"
)

// procs is GOMAXPROCS for the generator and every broker: they share
// one CPU (see confine), where a second P would only spin.
const procs = 1

// admitBatch is the SubscribeBatch/UnsubscribeBatch size of the timed
// admission and retire phases.
const admitBatch = 100

// slices is how many pieces a timed end-to-end phase is cut into, with
// the CPU's speed sampled between them (package clock): pieces of 0.1 to
// 0.3 s, against a host whose speed holds for seconds.
const slices = 10

// env is what every round of one run shares.
type env struct {
	w       Workload
	in      *gen.Inputs
	bin     string        // built brokerd
	logDir  string        // brokerd stdout/stderr, one file per broker per round
	dataDir string        // durable brokers' -data-dir root, removed after the run
	group   *proc.Group   // every brokerd this run started
	phase   *atomic.Value // name of the phase in progress, for the watchdog
}

func (ev *env) enter(phase string) { ev.phase.Store(phase) }

// phaseNames lists a round's phases in order (a workload skips the ones
// it has no use for); each phase's wall time is recorded beside the
// metrics as "phase.<name>_s" so the report can show where a round's
// time went.
var phaseNames = []string{"setup", "warm-up", "latency", "throughput", "recover", "admit-burst", "admit-single", "retire", "audit"}

// sample is one round's value of every metric that round measured.
type sample map[string]float64

// roundResult is one round's measurements.
type roundResult struct {
	sample
	tally drive.Tally
	// traced rounds only: what every brokerd's /metrics.json says
	// happened over the throughput phase, summed over brokers.
	thrDelta proc.Delta
}

// brokerSet is the chain of one round.
type brokerSet struct {
	ev      *env
	round   int
	traced  bool
	brokers []*proc.Broker
	opts    []proc.Options
}

func (ev *env) startBrokers(round int, traced bool) (*brokerSet, error) {
	bs := &brokerSet{ev: ev, round: round, traced: traced}
	for i := 0; i < ev.w.Hops; i++ {
		id := "B" + strconv.Itoa(i+1)
		o := proc.Options{
			Bin:     ev.bin,
			ID:      id,
			Args:    append([]string(nil), ev.w.Args...),
			Metrics: traced,
			LogPath: filepath.Join(ev.logDir, fmt.Sprintf("round%d-%s.log", round, id)),
			Procs:   procs,
		}
		if i > 0 {
			prev := bs.brokers[i-1]
			o.Peers = map[string]string{prev.ID: prev.Addr}
		}
		if ev.w.Durable {
			dir := filepath.Join(ev.dataDir, fmt.Sprintf("round%d-%s", round, id))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return bs, err
			}
			o.Args = append(o.Args, "-data-dir", dir)
		}
		b, err := ev.group.Start(o)
		if b != nil {
			bs.brokers = append(bs.brokers, b)
			bs.opts = append(bs.opts, o)
		}
		if err != nil {
			return bs, err
		}
	}
	return bs, nil
}

func (bs *brokerSet) first() *proc.Broker { return bs.brokers[0] }
func (bs *brokerSet) last() *proc.Broker  { return bs.brokers[len(bs.brokers)-1] }

func (bs *brokerSet) kill() {
	for _, b := range bs.brokers {
		b.Kill()
	}
}

// cpu is the CPU time all brokers of the set have used so far.
func (bs *brokerSet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, b := range bs.brokers {
		d, err := b.CPU()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (bs *brokerSet) scrape() ([]proc.Snapshot, error) {
	if !bs.traced {
		return nil, nil
	}
	out := make([]proc.Snapshot, len(bs.brokers))
	for i, b := range bs.brokers {
		s, err := b.Scrape()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sampleQueues polls every broker's send_queue_depth gauge twenty times
// a second until the returned function is called, which reports the
// deepest queue seen. Queues are only non-empty mid-phase, so the
// scrapes at phase boundaries never see them; this is the one place a
// traced round touches brokerd while a timed phase runs. Untraced
// rounds get a no-op.
func (bs *brokerSet) sampleQueues() (stop func() int64) {
	if !bs.traced {
		return func() int64 { return 0 }
	}
	quit, done := make(chan struct{}), make(chan int64)
	go func() {
		var deepest int64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- deepest
				return
			case <-tick.C:
				for _, b := range bs.brokers {
					snap, err := b.Scrape()
					if err != nil {
						continue // a diagnostic sample; the boundary scrapes report errors
					}
					for _, v := range snap.GaugeVecs["send_queue_depth"] {
						deepest = max(deepest, v)
					}
				}
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-done
	}
}

func diffAll(before, after []proc.Snapshot) proc.Delta {
	var d proc.Delta
	for i := range after {
		d.Add(proc.Diff(before[i], after[i]))
	}
	return d
}

// restart kills every broker of the chain with SIGKILL and execs the
// chain again, first broker first, on the same addresses (and data
// directories, if durable). A hand-wired overlay cannot do less: a
// broker never re-dials a neighbour that came back (its dead port entry
// suppresses the hello dial-back), so a single restarted broker stays
// cut off from the side that did not restart.
func (bs *brokerSet) restart() error {
	bs.kill()
	for i, old := range bs.brokers {
		o := bs.opts[i]
		o.Listen = old.Addr
		b, err := bs.ev.group.Start(o)
		if b != nil {
			bs.brokers[i] = b
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runRound takes one fresh broker set through the workload's phases.
// Fresh brokers every round make rounds exchangeable — each starts from
// the same state and sees the same inputs — and give set-up time as
// many samples as any other metric.
func (ev *env) runRound(round int, traced bool) (res roundResult, err error) {
	w, in := ev.w, ev.in
	res.sample = sample{}
	phaseStart, phaseName := time.Now(), ""
	enter := func(name string) {
		now := time.Now()
		if phaseName != "" {
			res.sample["phase."+phaseName+"_s"] = now.Sub(phaseStart).Seconds()
		}
		phaseStart, phaseName = now, name
		ev.enter(name)
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("phase %s: %w", phaseName, err)
		}
		enter("done")
	}()

	enter("setup")
	t0 := time.Now()
	bs, err := ev.startBrokers(round, traced)
	defer bs.kill()
	if err != nil {
		return res, err
	}
	e, err := drive.Dial(in, bs.first().Addr, bs.last().Addr)
	if err != nil {
		return res, err
	}
	defer func() {
		e.Close()
		res.tally = e.Tally
	}()
	if err := e.Setup(); err != nil {
		return res, err
	}
	res.sample["setup_s"] = time.Since(t0).Seconds()

	enter("warm-up")
	if _, err := e.Publish(drive.PubPhase{Count: w.Warm, Window: drive.Window, Points: in.Pool}); err != nil {
		return res, err
	}

	enter("latency")
	lat, err := e.Publish(drive.PubPhase{Count: w.Lat, Window: 1, Points: in.Pool, ChurnEvery: w.ChurnEvery, Slice: max(1, w.Lat/slices), KeepLatencies: true})
	if err != nil {
		return res, err
	}
	sorted := stat.Sorted(lat.ScaledLatencies)
	res.sample["notify_p50_us"] = stat.Percentile(sorted, 50)
	res.sample["client.notify_p90_us"] = stat.Percentile(sorted, 90)
	res.sample["client.notify_p99_us"] = stat.Percentile(sorted, 99)
	res.sample["client.notify_samples"] = float64(len(sorted))
	res.sample["client.notify_p50_raw_us"] = stat.Percentile(stat.Sorted(lat.Latencies), 50)
	res.sample["client.slowdown"] = stat.Median(lat.Slowdowns)

	enter("throughput")
	snap0, err := bs.scrape()
	if err != nil {
		return res, err
	}
	cpu0, err := bs.cpu()
	if err != nil {
		return res, err
	}
	self0 := selfCPU()
	stopSampler := bs.sampleQueues()
	thr, err := e.Publish(drive.PubPhase{Count: w.Thr, Window: drive.Window, Points: in.Pool, ChurnEvery: w.ChurnEvery, Slice: max(1, w.Thr/slices)})
	depth := stopSampler()
	if err != nil {
		return res, err
	}
	self1 := selfCPU()
	cpu1, err := bs.cpu()
	if err != nil {
		return res, err
	}
	snap1, err := bs.scrape()
	if err != nil {
		return res, err
	}
	res.sample["pubs_per_s"] = float64(thr.Completed) / thr.Scaled.Seconds()
	res.sample["client.pubs_raw_per_s"] = float64(thr.Completed) / thr.Elapsed.Seconds()
	res.sample["broker.cpu_us_per_pub"] = us(cpu1-cpu0) / float64(thr.Completed)
	res.sample["client.cpu_us_per_pub"] = us(self1-self0) / float64(thr.Completed)
	if traced {
		res.thrDelta = diffAll(snap0, snap1)
		res.sample["tcp.send_queue_depth_max"] = float64(depth)
	}

	if w.Durable {
		enter("recover")
		if err := bs.recover(e, res.sample); err != nil {
			return res, err
		}
	}

	enter("admit-burst")
	burst := in.Refs(gen.Burst)
	cycles := max(1, w.BurstCycles)
	// A slice of the burst: a tenth of it, in whole batches.
	slice := (len(burst)/slices + admitBatch - 1) / admitBatch * admitBatch
	var admit, admitScaled, admitCPU time.Duration
	for cycle := 1; ; cycle++ {
		cpu0, err = bs.cpu()
		if err != nil {
			return res, err
		}
		d, scaled, err := e.Admit(burst, admitBatch, slice)
		if err != nil {
			return res, err
		}
		admit, admitScaled = admit+d, admitScaled+scaled
		cpu1, err = bs.cpu()
		if err != nil {
			return res, err
		}
		admitCPU += cpu1 - cpu0
		if cycle == cycles {
			break
		}
		// Untimed: back to the base population for the next cycle.
		if err := e.Unsubscribe(burst, drive.SetupBatch); err != nil {
			return res, err
		}
		if err := e.Barrier(); err != nil {
			return res, err
		}
	}
	admitted := float64(cycles * len(burst))
	res.sample["sub_active_per_s"] = admitted / admitScaled.Seconds()
	res.sample["client.sub_active_raw_per_s"] = admitted / admit.Seconds()
	res.sample["broker.cpu_us_per_sub"] = us(admitCPU) / admitted

	if w.Retires {
		enter("admit-single")
		singles, err := e.SingleLatencies(in.Refs(gen.Single))
		if err != nil {
			return res, err
		}
		res.sample["client.sub_active_p50_us"] = stat.Percentile(stat.Sorted(singles), 50)

		enter("retire")
		t0 = time.Now()
		if err := e.Unsubscribe(in.Retire, admitBatch); err != nil {
			return res, err
		}
		if err := e.Barrier(); err != nil {
			return res, err
		}
		res.sample["client.unsub_per_s"] = float64(len(in.Retire)) / time.Since(t0).Seconds()
	}

	enter("audit")
	audit := e.AuditPoints(w.Audit)
	if len(audit) > 0 {
		if _, err := e.Publish(drive.PubPhase{Count: len(audit), Window: drive.Window, Points: audit}); err != nil {
			return res, err
		}
	}

	var rss int64
	for _, b := range bs.brokers {
		n, err := b.PeakRSS()
		if err != nil {
			return res, err
		}
		rss += n
	}
	res.sample["rss_mb"] = float64(rss) / (1 << 20)
	if traced {
		final, err := bs.scrape()
		if err != nil {
			return res, err
		}
		counters(res.sample, final)
	}
	return res, nil
}

// recover kills the chain with SIGKILL, restarts it on the same data
// directories and times the restart until a probe from P reaches S
// through the replayed state: S re-dials and announces nothing.
// Everything after it in the round runs on the recovered brokers.
func (bs *brokerSet) recover(e *drive.Engine, s sample) error {
	// Every churn operation S sent has been handled, and so journaled,
	// on every hop before the kill: what the reference holds and what
	// the journal holds are the same.
	if err := e.Barrier(); err != nil {
		return err
	}
	if err := bs.restart(); err != nil {
		return err
	}
	if err := e.RedialP(bs.first().Addr); err != nil {
		return err
	}
	if err := e.RedialS(bs.last().Addr); err != nil {
		return err
	}
	at, err := e.Probe()
	if err != nil {
		return err
	}
	recovered := at.Sub(bs.first().Started).Seconds()
	var replay time.Duration
	var records int
	for _, b := range bs.brokers {
		if rec, ok := b.Recovery(); ok {
			replay += rec.After
			records += rec.JournalRecords + rec.SnapshotOps
		}
	}
	s["client.recover_s"] = recovered
	s["persist.replay_s"] = replay.Seconds()
	s["persist.replay_records"] = float64(records)
	s["tcp.relink_s"] = recovered - replay.Seconds()
	return nil
}

// counters records the brokers' own counters at the end of the churn:
// the table-reduction ratio at S's broker and the totals over all hops.
func counters(s sample, final []proc.Snapshot) {
	last := final[len(final)-1].Counters
	if recv := last["broker_subs_received"]; recv > 0 {
		s["broker.sub_forward_ratio"] = float64(last["broker_subs_forwarded"]) / float64(recv)
	}
	for metric, series := range map[string]string{
		"broker.subs_received":    "broker_subs_received",
		"broker.subs_forwarded":   "broker_subs_forwarded",
		"broker.subs_suppressed":  "broker_subs_suppressed",
		"broker.promotions":       "broker_promotions",
		"broker.pubs_forwarded":   "broker_pubs_forwarded",
		"broker.notifications":    "broker_notifications",
		"broker.dup_pubs_dropped": "broker_dup_pubs_dropped",
	} {
		var total int64
		for _, snap := range final {
			total += snap.Counters[series]
		}
		s[metric] = float64(total)
	}
}
