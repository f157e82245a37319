// Metrics demo: the unified observability surface on a live TCP
// overlay, end to end.
//
// Two brokers link up over TCP, a subscriber attaches to B2 and a
// publisher to B1, and a burst of publications flows across the wire.
// B1's metrics registry — the same one `brokerd -metrics-addr`
// serves — answers on a real TCP listener through the registry's own
// responder and is scraped three ways:
//
//   - /metrics       Prometheus text: per-link frame counts by kind,
//     publish-path stage histograms (decode, match,
//     route, enqueue, write), queue depths, broker
//     counters, route-table footprint
//   - /metrics.json  the same registry as one JSON document
//   - /flight        the flight recorder (peer up/down, drops)
//
// The demo exits non-zero when any core series is missing or zero —
// the CI smoke for the scrape pipeline. A ClientStats attached to
// both clients cross-checks the wire numbers from the client side:
// every publication must resolve to a positive publish-to-notify
// latency sample.
//
// Run with: go run ./examples/metrics
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"probsum/pubsub"
	"probsum/subsume"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "metrics demo: %v\n", err)
		os.Exit(1)
	}
}

const probes = 50

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	tr, err := pubsub.NewTCPTransport(pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		return err
	}
	defer tr.Shutdown(context.Background())
	b1, err := tr.AddBroker("B1")
	if err != nil {
		return err
	}
	if _, err := tr.AddBroker("B2"); err != nil {
		return err
	}
	if err := tr.Connect("B1", "B2"); err != nil {
		return err
	}

	schema := subsume.NewSchema(
		subsume.Attr("x1", 0, 100),
		subsume.Attr("x2", 0, 100),
	)
	sub, err := tr.Open(ctx, "S", "B2")
	if err != nil {
		return err
	}
	pub, err := tr.Open(ctx, "P", "B1")
	if err != nil {
		return err
	}
	stats := pubsub.NewClientStats()
	sub.SetStats(stats)
	pub.SetStats(stats)

	s := subsume.NewSubscription(schema).Range("x1", 0, 100).Range("x2", 0, 100).Build()
	if err := sub.Subscribe(ctx, "s1", s); err != nil {
		return err
	}
	if err := tr.Settle(ctx); err != nil {
		return err
	}
	for i := 0; i < probes; i++ {
		if err := pub.Publish(ctx, fmt.Sprintf("p%04d", i), subsume.NewPublication(50, 50)); err != nil {
			return err
		}
	}
	if err := tr.Settle(ctx); err != nil {
		return err
	}
	for i := 0; i < probes; i++ {
		select {
		case <-sub.Notifications():
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for notification %d/%d", i+1, probes)
		}
	}

	// Serve the registry exactly the way brokerd -metrics-addr does.
	reg := b1.Observability()
	if reg == nil {
		return fmt.Errorf("TCP broker exposes no registry")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go reg.Serve(ln)
	defer ln.Close()
	baseURL := "http://" + ln.Addr().String()

	text, err := fetch(baseURL + "/metrics")
	if err != nil {
		return err
	}
	// Core counters and histogram counts must be present AND nonzero;
	// gauges (queue depth is legitimately zero at rest) just present.
	for _, series := range []string{
		"probsum_broker_pubs_received",
		"probsum_broker_pubs_forwarded",
		"probsum_publish_stage_decode_ns_count",
		"probsum_publish_stage_match_ns_count",
		"probsum_publish_stage_route_ns_count",
		"probsum_publish_stage_enqueue_ns_count",
		"probsum_publish_stage_write_ns_count",
	} {
		if err := requireNonzero(text, series); err != nil {
			return err
		}
	}
	if !strings.Contains(text, "probsum_send_queue_depth_total") {
		return fmt.Errorf("/metrics missing series probsum_send_queue_depth_total")
	}
	// B1 forwards the probes to B2 as PUBLISH frames, or as one
	// PUBBATCH per run its reader found buffered: either kind counts.
	toB2 := 0.0
	for _, kind := range []string{"publish", "publish-batch"} {
		v, _ := seriesValue(text, `probsum_link_frames_sent_total{link="B2",kind="`+kind+`"}`)
		toB2 += v
	}
	if toB2 == 0 {
		return fmt.Errorf(`/metrics counts no publication frames sent to B2 (kind "publish" or "publish-batch")`)
	}
	fmt.Printf("scraped /metrics: %d lines, core series present and nonzero\n", strings.Count(text, "\n"))

	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
			P50Ns int64  `json:"p50_ns"`
			P99Ns int64  `json:"p99_ns"`
		} `json:"histograms"`
	}
	body, err := fetch(baseURL + "/metrics.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return fmt.Errorf("/metrics.json: %w", err)
	}
	if got := doc.Counters["broker_pubs_received"]; got < probes {
		return fmt.Errorf("/metrics.json broker_pubs_received = %d, want >= %d", got, probes)
	}
	w := doc.Histograms["publish_stage_write_ns"]
	if w.Count == 0 {
		return fmt.Errorf("/metrics.json publish_stage_write_ns has no observations")
	}
	fmt.Printf("scraped /metrics.json: %d pubs received, write stage p50 %v over %d frames\n",
		doc.Counters["broker_pubs_received"], time.Duration(w.P50Ns), w.Count)

	flight, err := fetch(baseURL + "/flight")
	if err != nil {
		return err
	}
	if !strings.Contains(flight, "peer_up") {
		return fmt.Errorf("/flight missing the peer_up event of the B1-B2 link:\n%s", flight)
	}
	fmt.Printf("scraped /flight: %d events, B1-B2 peer_up recorded\n", strings.Count(flight, "\n"))

	snap := stats.Snapshot()
	if snap.Count != probes {
		return fmt.Errorf("client stats measured %d/%d probes", snap.Count, probes)
	}
	fmt.Printf("client side: %d probes, publish-to-notify p50 %v p99 %v\n",
		snap.Count, time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.99)))
	fmt.Println("metrics demo OK")
	return nil
}

// fetch GETs a URL and returns the body, insisting on 200.
func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// requireNonzero finds `series value` in Prometheus text and insists
// the value is positive.
func requireNonzero(text, series string) error {
	v, ok := seriesValue(text, series)
	if !ok {
		return fmt.Errorf("/metrics missing series %s", series)
	}
	if v <= 0 {
		return fmt.Errorf("series %s is %v", series, v)
	}
	return nil
}

// seriesValue returns the value of `series value` in Prometheus text,
// and whether the series is there.
func seriesValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == series {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}
