package proc

import (
	"os"
	"testing"
	"time"
)

func TestParseStatTicks(t *testing.T) {
	// A command name with spaces and parentheses must not shift the
	// fields: utime=14 and stime=15 are counted from the last ')'.
	line := "4242 (brokerd (v2) x) S 1 4242 4242 0 -1 4194560 1177 0 0 0 731 269 0 0 20 0 9 0 5156061 1277554688 4660 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	got, err := ParseStatTicks([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+269 {
		t.Errorf("ticks = %d, want %d", got, 731+269)
	}
	for _, bad := range []string{"", "12 brokerd S 1", "12 (brokerd) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 u 2 0"} {
		if _, err := ParseStatTicks([]byte(bad)); err == nil {
			t.Errorf("ParseStatTicks(%q) accepted", bad)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := ParseSchedstatNs([]byte("123456789 4567 89\n"))
	if err != nil || got != 123456789 {
		t.Errorf("ParseSchedstatNs = %d, %v", got, err)
	}
	if _, err := ParseSchedstatNs([]byte("1 2\n")); err == nil {
		t.Error("two fields accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbrokerd\nVmPeak:\t 1247612 kB\nVmSize:\t 1247612 kB\nVmHWM:\t   18640 kB\nVmRSS:\t   17000 kB\nThreads:\t9\n"
	got, err := ParseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 18640<<10 {
		t.Errorf("VmHWM = %d bytes, want %d", got, 18640<<10)
	}
	if _, err := ParseVmHWM([]byte("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := ParseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in another unit accepted")
	}
}

const scrapeBefore = `{
  "counters": {"broker_subs_received": 10, "broker_pubs_received": 100},
  "gauge_vecs": {"send_queue_depth": {"B2": 0, "S": 3}},
  "histograms": {
    "publish_stage_decode_ns": {"count": 100, "sum_ns": 50000, "max_ns": 9000, "p50_ns": 512, "p99_ns": 4096, "p999_ns": 8192}
  },
  "links": {"B2": {"sent": {"publish": 40}, "recv": {"subscribe": 10}}, "S": {"sent": {"notify": 7}}}
}`

const scrapeAfter = `{
  "counters": {"broker_subs_received": 25, "broker_pubs_received": 400, "broker_promotions": 2},
  "gauge_vecs": {"send_queue_depth": {"B2": 1, "S": 0}},
  "histograms": {
    "publish_stage_decode_ns": {"count": 400, "sum_ns": 230000, "max_ns": 9000, "p50_ns": 512, "p99_ns": 4096, "p999_ns": 8192},
    "publish_stage_write_ns": {"count": 30, "sum_ns": 90000, "max_ns": 9000, "p50_ns": 2048, "p99_ns": 4096, "p999_ns": 8192}
  },
  "links": {"B2": {"sent": {"publish": 340, "subscribe-batch": 2}, "recv": {"subscribe": 25}}, "S": {"sent": {"notify": 507}}}
}`

func TestSnapshotDiff(t *testing.T) {
	before, err := ParseSnapshot([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseSnapshot([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(before, after)
	if got := d.Counters["broker_pubs_received"]; got != 300 {
		t.Errorf("pubs delta = %d, want 300", got)
	}
	if got := d.Counters["broker_promotions"]; got != 2 {
		t.Errorf("a counter absent from the first scrape counts from zero: got %d, want 2", got)
	}
	if h := d.Histograms["publish_stage_decode_ns"]; h.Count != 300 || h.SumNs != 180000 {
		t.Errorf("decode histogram delta = %+v, want 300 observations, 180000 ns", h)
	}
	if h := d.Histograms["publish_stage_write_ns"]; h.Count != 30 || h.SumNs != 90000 {
		t.Errorf("a histogram absent from the first scrape counts from zero: got %+v", h)
	}
	if want := uint64(300 + 2 + 500); d.FramesOut != want {
		t.Errorf("frames out = %d, want %d", d.FramesOut, want)
	}
	if got := after.GaugeVecs["send_queue_depth"]["B2"]; got != 1 {
		t.Errorf("queue depth gauge = %d, want 1", got)
	}

	var sum Delta
	sum.Add(d)
	sum.Add(d)
	if h := sum.Histograms["publish_stage_decode_ns"]; h.Count != 600 || sum.FramesOut != 2*d.FramesOut || sum.Counters["broker_subs_received"] != 30 {
		t.Errorf("Add did not sum two hops: %+v", sum)
	}
	if _, err := ParseSnapshot([]byte("{")); err == nil {
		t.Error("truncated document accepted")
	}
}

func TestParseRecovery(t *testing.T) {
	line := "recovered from /x/out/data-1/round2-B2: 1261 subscriptions, 1 clients, 1 neighbors, 0 members (0 snapshot ops, 6133 journal records, 0 skipped)"
	r, ok := ParseRecovery(line)
	if !ok || r.Subscriptions != 1261 || r.JournalRecords != 6133 || r.SnapshotOps != 0 {
		t.Errorf("ParseRecovery = %+v, %v", r, ok)
	}
	if _, ok := ParseRecovery("brokerd B2 listening on 127.0.0.1:1"); ok {
		t.Error("a listening line parsed as a recovery report")
	}
}

func TestStartFailsOnMissingBinary(t *testing.T) {
	var g Group
	defer g.Kill()
	_, err := g.Start(Options{Bin: t.TempDir() + "/no-such-brokerd", ID: "B1", LogPath: t.TempDir() + "/log", Procs: 1})
	if err == nil {
		t.Fatal("starting a missing binary succeeded")
	}
}

// A broker that has been reaped is never signalled again: its pid may
// have been recycled.
func TestKillSignalsOnce(t *testing.T) {
	dir := t.TempDir()
	fake := dir + "/brokerd"
	if err := os.WriteFile(fake, []byte("#!/bin/sh\necho brokerd B1 listening on 127.0.0.1:1\nexec sleep 60\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	var g Group
	defer g.Kill()
	b, err := g.Start(Options{Bin: fake, ID: "B1", LogPath: dir + "/log", Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Kill() {
		t.Error("the first Kill of a running broker sent no signal")
	}
	if b.Kill() {
		t.Error("a second Kill signalled a pid that was already reaped")
	}
}

func TestWaitLineTimesOut(t *testing.T) {
	b := &Broker{ID: "B1", lines: make(chan string, 1)}
	b.lines <- "something else"
	start := time.Now()
	if _, err := b.WaitLine("listening on ", 50*time.Millisecond); err == nil {
		t.Error("WaitLine returned without the line")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("WaitLine ignored its timeout")
	}
}
