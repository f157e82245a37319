// Package proc starts, watches and kills the real brokerd processes
// psbench measures, and reads what the kernel and brokerd's own
// /metrics.json endpoint say about them. Nothing here runs inside the
// program under test.
package proc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Broker is one running brokerd.
type Broker struct {
	ID      string
	Addr    string // listen address parsed from brokerd's stdout
	Metrics string // http://host:port of -metrics-addr, "" when off
	// Started is the instant just before exec.
	Started time.Time

	cmd   *exec.Cmd
	log   *os.File
	mu    sync.Mutex
	recov Recovery      // set by pump when brokerd reports its journal replay
	lines chan string   // brokerd's stdout, line by line
	done  chan struct{} // closed once the process has been waited for
}

// Options configures one brokerd.
type Options struct {
	Bin     string            // path of the built brokerd
	ID      string            // -id
	Listen  string            // -listen; "" means 127.0.0.1:0
	Peers   map[string]string // -peer NAME=ADDR
	Args    []string          // further flags (-policy, -delta, -data-dir, ...)
	Metrics bool              // serve /metrics.json on 127.0.0.1:0
	LogPath string            // brokerd's stdout and stderr, kept for post-mortems
	// Procs is GOMAXPROCS for the child.
	Procs int
}

// Group is the set of brokers psbench started; Kill takes them all
// down. Every brokerd is the leader of its own process group, so a
// kill reaches anything it might have forked.
type Group struct {
	mu      sync.Mutex
	brokers []*Broker
}

// Start execs one brokerd and waits until it printed its listen
// address (and its metrics address when asked for).
func (g *Group) Start(o Options) (*Broker, error) {
	listen := o.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	args := []string{"-id", o.ID, "-listen", listen, "-seed", "1"}
	for name, addr := range o.Peers {
		args = append(args, "-peer", name+"="+addr)
	}
	if o.Metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	args = append(args, o.Args...)

	logf, err := os.OpenFile(o.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.Bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.Procs))
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	fmt.Fprintf(logf, "--- exec %s %s\n", o.Bin, strings.Join(args, " "))
	b := &Broker{ID: o.ID, cmd: cmd, log: logf, lines: make(chan string, 64), done: make(chan struct{}), Started: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start brokerd %s: %w", o.ID, err)
	}
	g.mu.Lock()
	g.brokers = append(g.brokers, b)
	g.mu.Unlock()
	go b.pump(stdout)

	line, err := b.WaitLine("listening on ", 10*time.Second)
	if err != nil {
		return b, err
	}
	f := strings.Fields(line[strings.Index(line, "listening on ")+len("listening on "):])
	if len(f) == 0 {
		return b, fmt.Errorf("brokerd %s: no address in %q", o.ID, line)
	}
	b.Addr = f[0]
	for range o.Peers {
		if _, err := b.WaitLine("connected peer ", 15*time.Second); err != nil {
			return b, err
		}
	}
	if o.Metrics {
		line, err := b.WaitLine("metrics on ", 10*time.Second)
		if err != nil {
			return b, err
		}
		b.Metrics = strings.TrimSuffix(strings.TrimSpace(line[strings.Index(line, "metrics on ")+len("metrics on "):]), "/metrics")
	}
	return b, nil
}

// pump copies brokerd's stdout into its log and onto the line channel,
// then reaps the process. Lines nobody waits for are dropped once the
// channel is full, so a chatty broker never blocks on its stdout.
func (b *Broker) pump(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fmt.Fprintln(b.log, sc.Text())
		if rec, ok := ParseRecovery(sc.Text()); ok {
			rec.After = time.Since(b.Started)
			b.mu.Lock()
			b.recov = rec
			b.mu.Unlock()
		}
		select {
		case b.lines <- sc.Text():
		default:
		}
	}
	_ = b.cmd.Wait() // the exit status of a killed broker carries no news
	close(b.lines)
	b.log.Close()
	close(b.done)
}

// WaitLine returns the first stdout line containing substr.
func (b *Broker) WaitLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-b.lines:
			if !ok {
				return "", fmt.Errorf("brokerd %s exited before printing %q (see its log)", b.ID, substr)
			}
			if strings.Contains(line, substr) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("brokerd %s: no %q line within %v", b.ID, substr, timeout)
		}
	}
}

// Recovery is what a durable brokerd printed about its boot-time replay.
type Recovery struct {
	After          time.Duration // exec → the "recovered from" line
	Subscriptions  int
	SnapshotOps    int
	JournalRecords int
}

// ParseRecovery reads brokerd's "recovered from DIR: N subscriptions,
// ... (S snapshot ops, J journal records, ..." line.
func ParseRecovery(line string) (Recovery, bool) {
	_, rest, ok := strings.Cut(line, "recovered from ")
	if !ok {
		return Recovery{}, false
	}
	var r Recovery
	f := strings.Fields(strings.NewReplacer("(", " ", ",", " ", ":", " ").Replace(rest))
	for i := 1; i < len(f); i++ {
		n, err := strconv.Atoi(f[i-1])
		if err != nil {
			continue
		}
		switch f[i] {
		case "subscriptions":
			r.Subscriptions = n
		case "snapshot":
			r.SnapshotOps = n
		case "journal":
			r.JournalRecords = n
		}
	}
	return r, true
}

// Recovery returns the boot-time replay report; ok is false when the
// broker printed none (it is not durable, or has not got there yet).
func (b *Broker) Recovery() (Recovery, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recov, b.recov.After > 0
}

// Pid is the broker's process id.
func (b *Broker) Pid() int { return b.cmd.Process.Pid }

// Kill sends SIGKILL to the broker's process group and waits until the
// process has been reaped. Once it has been, Kill sends nothing and
// reports false: the pid may by then lead somebody else's process group.
func (b *Broker) Kill() (signalled bool) {
	select {
	case <-b.done:
		return false
	default:
	}
	_ = syscall.Kill(-b.Pid(), syscall.SIGKILL) // gone but not yet reaped is fine
	<-b.done
	return true
}

// Kill takes every broker of the group down and forgets them.
func (g *Group) Kill() {
	g.mu.Lock()
	bs := g.brokers
	g.brokers = nil
	g.mu.Unlock()
	for _, b := range bs {
		b.Kill()
	}
}

// CPU returns the CPU time the process has used: the scheduler's
// nanosecond run time summed over its threads when the kernel exposes
// it (/proc/<pid>/task/*/schedstat), else utime+stime from
// /proc/<pid>/stat, whose 10 ms tick is coarse against a phase of a few
// hundred milliseconds.
func (b *Broker) CPU() (time.Duration, error) {
	if tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", b.Pid())); err == nil && len(tasks) > 0 {
		var total time.Duration
		ok := true
		for _, t := range tasks {
			data, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			ns, err := ParseSchedstatNs(data)
			if err != nil {
				ok = false
				break
			}
			total += time.Duration(ns)
		}
		if ok {
			return total, nil
		}
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", b.Pid()))
	if err != nil {
		return 0, err
	}
	ticks, err := ParseStatTicks(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * (time.Second / ClockTick), nil
}

// ParseSchedstatNs extracts the first field of a schedstat file: the
// time the task has spent on a CPU, in nanoseconds.
func ParseSchedstatNs(data []byte) (uint64, error) {
	f := bytes.Fields(data)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields in %q, want 3", len(f), data)
	}
	return strconv.ParseUint(string(f[0]), 10, 64)
}

// ClockTick is USER_HZ: the unit of utime and stime in /proc/pid/stat.
// It is 100 on every Linux the Go toolchain supports.
const ClockTick = 100

// ParseStatTicks extracts utime+stime (fields 14 and 15) from the text
// of /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func ParseStatTicks(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", data)
	}
	f := bytes.Fields(data[i+1:])
	// f[0] is field 3 (state), so utime and stime sit at 11 and 12.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// PeakRSS returns the process's VmHWM in bytes.
func (b *Broker) PeakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", b.Pid()))
	if err != nil {
		return 0, err
	}
	return ParseVmHWM(data)
}

// ParseVmHWM extracts the peak resident set size, in bytes, from the
// text of /proc/<pid>/status.
func ParseVmHWM(data []byte) (int64, error) {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// Hist is the part of one /metrics.json histogram psbench diffs.
type Hist struct {
	Count uint64 `json:"count"`
	SumNs int64  `json:"sum_ns"`
}

// Snapshot is one scrape of /metrics.json.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]int64            `json:"gauges"`
	GaugeVecs  map[string]map[string]int64 `json:"gauge_vecs"`
	Histograms map[string]Hist             `json:"histograms"`
	Links      map[string]struct {
		Sent map[string]uint64 `json:"sent"`
		Recv map[string]uint64 `json:"recv"`
	} `json:"links"`
}

// ParseSnapshot decodes a /metrics.json document.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("metrics.json: %w", err)
	}
	return s, nil
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// Scrape fetches the broker's /metrics.json.
func (b *Broker) Scrape() (Snapshot, error) {
	if b.Metrics == "" {
		return Snapshot{}, fmt.Errorf("brokerd %s runs without -metrics-addr", b.ID)
	}
	resp, err := scrapeClient.Get(b.Metrics + "/metrics.json")
	if err != nil {
		return Snapshot{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return Snapshot{}, err
	}
	return ParseSnapshot(data)
}

// Delta is what happened between two scrapes of one broker.
type Delta struct {
	Counters   map[string]int64
	Histograms map[string]Hist
	FramesOut  uint64 // frames sent on all links, all kinds
}

// Diff subtracts an earlier scrape from a later one. Series absent
// from the earlier scrape count from zero.
func Diff(before, after Snapshot) Delta {
	d := Delta{Counters: map[string]int64{}, Histograms: map[string]Hist{}}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		d.Histograms[k] = Hist{Count: h.Count - b.Count, SumNs: h.SumNs - b.SumNs}
	}
	for name, l := range after.Links {
		for kind, n := range l.Sent {
			d.FramesOut += n - before.Links[name].Sent[kind]
		}
	}
	return d
}

// Add accumulates another broker's delta (summing over hops).
func (d *Delta) Add(o Delta) {
	if d.Counters == nil {
		d.Counters, d.Histograms = map[string]int64{}, map[string]Hist{}
	}
	for k, v := range o.Counters {
		d.Counters[k] += v
	}
	for k, h := range o.Histograms {
		c := d.Histograms[k]
		d.Histograms[k] = Hist{Count: c.Count + h.Count, SumNs: c.SumNs + h.SumNs}
	}
	d.FramesOut += o.FramesOut
}
