package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// serve starts r's responder on a loopback listener and returns its
// address, closing the listener when the test ends.
func serve(t *testing.T, r *Registry) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// testRegistry holds one series of each kind and two flight events,
// all fixed, so two renderings are byte-identical.
func testRegistry() *Registry {
	fr := NewFlightRecorder(8, func() time.Time { return time.Unix(9, 0) })
	r := NewRegistry(fr)
	r.RegisterCounter("pubs_received", func() int64 { return 2 })
	r.RegisterGauge("queue_depth", func() int64 { return 7 })
	r.RegisterGaugeVec("link_queue_depth", func(emit func(string, int64)) { emit("b1", 1) })
	r.Histogram("notify_ns").Observe(time.Millisecond)
	r.Link("b2").Sent(5)
	fr.Record("suspect", "b1", "b3 missed ack")
	fr.Record("peer_up", "b1", `b2 "quoted"`)
	return r
}

// get fetches path with net/http's client and returns the status, the
// Content-Type and the body.
func get(t *testing.T, addr, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func indented(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestServeBodies pins each route's body, byte for byte, to the
// registry's own rendering, and checks that the bodies carry what was
// registered.
func TestServeBodies(t *testing.T) {
	r := testRegistry()
	addr := serve(t, r)
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	flightText := strings.Join(r.Flight().Dump(), "\n") + "\n"
	for _, c := range []struct{ path, ctype, body string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", prom.String()},
		{"/metrics.json", "application/json", indented(t, r.JSON())},
		{"/flight", "text/plain; charset=utf-8", flightText},
		{"/flight?json=1", "application/json", indented(t, r.Flight().Events())},
		{"/flight?json=", "text/plain; charset=utf-8", flightText},
	} {
		code, ctype, body := get(t, addr, c.path)
		if code != 200 || ctype != c.ctype || body != c.body {
			t.Errorf("GET %s: %d %q\n%s\nwant 200 %q\n%s", c.path, code, ctype, body, c.ctype, c.body)
		}
	}
	// The bodies still carry what was registered.
	if _, _, body := get(t, addr, "/metrics"); !strings.Contains(body, "probsum_pubs_received 2") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var doc JSONMetrics
	if _, _, body := get(t, addr, "/metrics.json"); json.Unmarshal([]byte(body), &doc) != nil ||
		doc.Counters["pubs_received"] != 2 || doc.Histograms["notify_ns"].Count != 1 || doc.Histograms["notify_ns"].P50Ns == 0 {
		t.Errorf("/metrics.json decodes to %+v", doc)
	}
	if _, _, body := get(t, addr, "/flight"); !strings.Contains(body, "suspect") || !strings.Contains(body, "b3 missed ack") {
		t.Errorf("/flight missing event:\n%s", body)
	}
	if _, _, body := get(t, addr, "/flight?json=1"); !strings.Contains(body, `"kind": "suspect"`) {
		t.Errorf("/flight?json=1 missing event:\n%s", body)
	}
}

// raw sends req on a fresh connection and returns the status line and
// the whole answer.
func raw(t *testing.T, addr, req string) (string, string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("reading the answer to %q: %v", req, err)
	}
	status, _, _ := strings.Cut(string(all), "\r\n")
	return status, string(all)
}

func TestServeErrors(t *testing.T) {
	addr := serve(t, testRegistry())
	if code, _, _ := get(t, addr, "/nope"); code != 404 {
		t.Errorf("GET /nope: %d, want 404", code)
	}
	if code, _, _ := get(t, addr, "/metrics/"); code != 404 {
		t.Errorf("GET /metrics/: %d, want 404", code)
	}
	resp, err := http.Post("http://"+addr+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" {
		t.Errorf("POST /metrics: %d, Allow %q; want 405, GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
	for _, req := range []string{
		"GET /metrics\r\n\r\n",
		"GET  /metrics HTTP/1.1\r\n\r\n",
		"GET metrics HTTP/1.1\r\n\r\n",
		"GET /metrics SPDY/3\r\n\r\n",
		"\r\n\r\n",
	} {
		if status, _ := raw(t, addr, req); status != "HTTP/1.1 400 Bad Request" {
			t.Errorf("%q: %q, want 400", req, status)
		}
	}
	status, all := raw(t, addr, "GET /metrics HTTP/1.1\r\nX-Pad: "+strings.Repeat("a", maxHeader)+"\r\n\r\n")
	if status != "HTTP/1.1 431 Request Header Fields Too Large" || !strings.Contains(all, "Connection: close\r\n") {
		t.Errorf("oversized header: %q", all)
	}
	// A header just under the cap is served.
	req := "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
	pad := "X-Pad: " + strings.Repeat("a", maxHeader-len(req)-len("X-Pad: \r\n")) + "\r\n"
	req = req[:len(req)-2] + pad + "\r\n"
	if len(req) != maxHeader {
		t.Fatalf("padded request is %d bytes", len(req))
	}
	if status, _ := raw(t, addr, req); status != "HTTP/1.1 200 OK" {
		t.Errorf("header of exactly %d bytes: %q, want 200", maxHeader, status)
	}
}

// TestServeIdleClientDoesNotBlock holds a connection that sends
// nothing while other clients scrape concurrently.
func TestServeIdleClientDoesNotBlock(t *testing.T) {
	addr := serve(t, testRegistry())
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /met"); err != nil { // and never the rest
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := []string{"/metrics", "/metrics.json", "/flight", "/flight?json=1"}[i%4]
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != 200 {
				errs <- path + ": " + resp.Status
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if d := time.Since(start); d >= connTimeout {
		t.Errorf("scrapes took %v beside an idle client; the connection deadline is %v", d, connTimeout)
	}
}

// TestServeBoundsConnections holds maxConns idle connections: the next
// scrape waits until one of them ends, then is served.
func TestServeBoundsConnections(t *testing.T) {
	addr := serve(t, testRegistry())
	idle := make([]net.Conn, maxConns)
	for i := range idle {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		idle[i] = c
	}
	done := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			done <- err.Error()
			return
		}
		resp.Body.Close()
		done <- resp.Status
	}()
	select {
	case got := <-done:
		t.Fatalf("a scrape beside %d idle connections was answered (%s) before one ended", maxConns, got)
	case <-time.After(300 * time.Millisecond):
	}
	idle[0].Close()
	select {
	case got := <-done:
		if got != "200 OK" {
			t.Fatalf("scrape after an idle connection ended: %s", got)
		}
	case <-time.After(connTimeout):
		t.Fatal("scrape not answered after an idle connection ended")
	}
}

func TestServeReturnsWhenListenerCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- testRegistry().Serve(ln) }()
	ln.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after its listener closed, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
}
