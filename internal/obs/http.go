package obs

// Exposition: Prometheus text format and JSON, plus a GET-only
// HTTP/1.1 responder serving /metrics (text), /metrics.json, and
// /flight. Hand-rolled on the stdlib, and not on net/http: the whole
// point of internal/obs is zero dependencies, and importing net/http
// links the HTTP/2 and TLS stacks into every broker (DESIGN "Export").

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// namePrefix is prepended to every exported series.
const namePrefix = "probsum_"

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func (s regSnapshot) kind(i int) string {
	if s.kindName != nil {
		return s.kindName(i)
	}
	return "kind_" + strconv.Itoa(i)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.snapshot()
	var b strings.Builder

	for _, n := range s.counterNames {
		fmt.Fprintf(&b, "# TYPE %s%s counter\n%s%s %d\n", namePrefix, n, namePrefix, n, s.counters[n]())
	}
	for _, n := range s.gaugeNames {
		fmt.Fprintf(&b, "# TYPE %s%s gauge\n%s%s %d\n", namePrefix, n, namePrefix, n, s.gauges[n]())
	}
	for _, n := range s.vecNames {
		fmt.Fprintf(&b, "# TYPE %s%s gauge\n", namePrefix, n)
		// Collect then sort so scrapes are deterministic.
		type lv struct {
			label string
			v     int64
		}
		var rows []lv
		s.vecs[n](func(label string, v int64) { rows = append(rows, lv{label, v}) })
		sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
		for _, row := range rows {
			fmt.Fprintf(&b, "%s%s{id=%q} %d\n", namePrefix, n, escapeLabel(row.label), row.v)
		}
	}
	for _, n := range s.histNames {
		h := s.hists[n]
		fmt.Fprintf(&b, "# TYPE %s%s histogram\n", namePrefix, n)
		cum := uint64(0)
		for i, c := range h.Buckets {
			cum += c
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s%s_bucket{le=\"%d\"} %d\n", namePrefix, n, BucketUpperNs(i), cum)
		}
		fmt.Fprintf(&b, "%s%s_bucket{le=\"+Inf\"} %d\n", namePrefix, n, h.Count)
		fmt.Fprintf(&b, "%s%s_sum %d\n", namePrefix, n, h.SumNs)
		fmt.Fprintf(&b, "%s%s_count %d\n", namePrefix, n, h.Count)
	}
	if len(s.linkNames) > 0 {
		fmt.Fprintf(&b, "# TYPE %slink_frames_sent_total counter\n", namePrefix)
		s.writeLinkDir(&b, "sent", func(l LinkSnapshot) [linkKindSlots]uint64 { return l.Sent })
		fmt.Fprintf(&b, "# TYPE %slink_frames_recv_total counter\n", namePrefix)
		s.writeLinkDir(&b, "recv", func(l LinkSnapshot) [linkKindSlots]uint64 { return l.Recv })
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (s regSnapshot) writeLinkDir(b *strings.Builder, dir string, pick func(LinkSnapshot) [linkKindSlots]uint64) {
	for _, name := range s.linkNames {
		counts := pick(s.links[name])
		for k, c := range counts {
			if c == 0 {
				continue
			}
			fmt.Fprintf(b, "%slink_frames_%s_total{link=%q,kind=%q} %d\n",
				namePrefix, dir, escapeLabel(name), escapeLabel(s.kind(k)), c)
		}
	}
}

// JSONHistogram is the JSON form of one histogram.
type JSONHistogram struct {
	Count  uint64 `json:"count"`
	SumNs  int64  `json:"sum_ns"`
	MaxNs  int64  `json:"max_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
}

// JSONLink is the JSON form of one link's frame counts, keyed by
// wire-kind name.
type JSONLink struct {
	Sent map[string]uint64 `json:"sent,omitempty"`
	Recv map[string]uint64 `json:"recv,omitempty"`
}

// JSONMetrics is the /metrics.json document.
type JSONMetrics struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	GaugeVecs  map[string]map[string]int64 `json:"gauge_vecs,omitempty"`
	Histograms map[string]JSONHistogram    `json:"histograms,omitempty"`
	Links      map[string]JSONLink         `json:"links,omitempty"`
}

// JSON builds the /metrics.json document.
func (r *Registry) JSON() JSONMetrics {
	s := r.snapshot()
	out := JSONMetrics{
		Counters:   make(map[string]int64, len(s.counterNames)),
		Gauges:     make(map[string]int64, len(s.gaugeNames)),
		GaugeVecs:  make(map[string]map[string]int64, len(s.vecNames)),
		Histograms: make(map[string]JSONHistogram, len(s.histNames)),
		Links:      make(map[string]JSONLink, len(s.linkNames)),
	}
	for _, n := range s.counterNames {
		out.Counters[n] = s.counters[n]()
	}
	for _, n := range s.gaugeNames {
		out.Gauges[n] = s.gauges[n]()
	}
	for _, n := range s.vecNames {
		m := make(map[string]int64)
		s.vecs[n](func(label string, v int64) { m[label] = v })
		out.GaugeVecs[n] = m
	}
	for _, n := range s.histNames {
		h := s.hists[n]
		out.Histograms[n] = JSONHistogram{
			Count: h.Count, SumNs: h.SumNs, MaxNs: h.MaxNs,
			P50Ns: h.Quantile(0.50), P99Ns: h.Quantile(0.99), P999Ns: h.Quantile(0.999),
		}
	}
	for _, name := range s.linkNames {
		l := s.links[name]
		jl := JSONLink{Sent: map[string]uint64{}, Recv: map[string]uint64{}}
		for k, c := range l.Sent {
			if c != 0 {
				jl.Sent[s.kind(k)] = c
			}
		}
		for k, c := range l.Recv {
			if c != 0 {
				jl.Recv[s.kind(k)] = c
			}
		}
		out.Links[name] = jl
	}
	return out
}

const (
	// maxHeader caps a request's header: a scrape's is a few hundred
	// bytes.
	maxHeader = 8 << 10
	// connTimeout bounds how long one connection may take to send its
	// request and read the answer.
	connTimeout = 5 * time.Second
	// maxConns bounds the connections served at once; past it, Serve
	// accepts the next once one ends, within connTimeout.
	maxConns = 64

	textPlain = "text/plain; charset=utf-8"
)

// Serve answers scrapes on ln until ln is closed, then returns nil
// (within connTimeout, if maxConns connections are open); it returns
// any other accept error. Each connection carries one GET and is
// served by a goroutine of its own:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON document (counters, gauges, histograms, links)
//	/flight        flight-recorder dump (text; ?json=1 for JSON)
//
// Other paths read 404, other methods 405, a malformed request line
// 400, and a header over 8 KiB 431. A connection still open when Serve
// returns ends within its deadline.
func (r *Registry) Serve(ln net.Listener) error {
	sem := make(chan struct{}, maxConns)
	for {
		sem <- struct{}{}
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer func() { <-sem }()
			r.serveConn(c)
		}()
	}
}

// serveConn reads one request's whole header, so that closing never
// resets a request it has not read, and writes the answer with
// Connection: close.
func (r *Registry) serveConn(c net.Conn) {
	defer c.Close()
	//brokervet:allow clockcheck a socket deadline: no metric or event reads this clock
	_ = c.SetDeadline(time.Now().Add(connTimeout))
	buf := make([]byte, maxHeader)
	n, end := 0, -1
	for end < 0 {
		if n == len(buf) {
			respond(c, 431, textPlain, []byte("request header too large\n"))
			drain(c)
			return
		}
		k, err := c.Read(buf[n:])
		n += k
		end = bytes.Index(buf[:n], []byte("\r\n\r\n"))
		if err != nil && end < 0 {
			return // gone, or timed out, before the header ended
		}
	}
	line, _, _ := bytes.Cut(buf[:end], []byte("\r\n"))
	// The request line is "METHOD TARGET HTTP/1.x".
	f := strings.Split(string(line), " ")
	switch {
	case len(f) != 3 || f[0] == "" || !strings.HasPrefix(f[1], "/") || !strings.HasPrefix(f[2], "HTTP/1."):
		respond(c, 400, textPlain, []byte("malformed request line\n"))
	case f[0] != "GET":
		respond(c, 405, textPlain, []byte("method not allowed\n"))
	default:
		r.route(c, f[1])
	}
}

// route renders the body target names into a buffer and writes it.
func (r *Registry) route(c net.Conn, target string) {
	path, rawQuery, _ := strings.Cut(target, "?")
	var b bytes.Buffer
	ctype := "application/json"
	switch path {
	case "/metrics":
		ctype = "text/plain; version=0.0.4; charset=utf-8"
		_ = r.WritePrometheus(&b)
	case "/metrics.json":
		writeJSON(&b, r.JSON())
	case "/flight":
		fr := r.Flight()
		if q, _ := url.ParseQuery(rawQuery); q.Get("json") != "" {
			writeJSON(&b, fr.Events())
			break
		}
		ctype = textPlain
		for _, line := range fr.Dump() {
			fmt.Fprintln(&b, line)
		}
	default:
		respond(c, 404, textPlain, []byte("404 page not found\n"))
		return
	}
	respond(c, 200, ctype, b.Bytes())
}

// writeJSON writes v as indented JSON.
func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
}

// respond writes one whole response in a single write.
func respond(c net.Conn, code int, ctype string, body []byte) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n", code, statusText[code], ctype, len(body))
	if code == 405 {
		b.WriteString("Allow: GET\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	_, _ = c.Write(b.Bytes())
}

// drain half-closes c and reads what the client still sends, until it
// closes or the deadline passes, so that the answer to a request left
// unread is not lost to a reset.
func drain(c net.Conn) {
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	_, _ = io.Copy(io.Discard, c)
}
