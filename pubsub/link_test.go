package pubsub

// Peer-link tests: a link is one duplex connection, a re-dial replaces
// a stale connection, simultaneous dials converge on one connection,
// and one configured side is enough even behind a wildcard listener.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"probsum/internal/subscription"
)

// flightDetails lists the details of the broker's flight events of one
// kind, oldest first.
func flightDetails(b *Broker, kind string) []string {
	var out []string
	for _, ev := range b.Observability().Flight().Events() {
		if ev.Kind == kind {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// deliverAcross subscribes a fresh client at subAt and publishes from
// a fresh client at pubAt until one publication arrives, failing the
// test after d.
func deliverAcross(t *testing.T, subAt, pubAt *Broker, tag string, d time.Duration) {
	t.Helper()
	ctx := testCtx(t)
	sub := dialTest(t, subAt.Addr(), "sub-"+tag)
	pub := dialTest(t, pubAt.Addr(), "pub-"+tag)
	if err := sub.Subscribe(ctx, "s-"+tag, box(0, 50, 0, 50)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := pub.Publish(ctx, fmt.Sprintf("p-%s-%d", tag, i), subscription.NewPublication(10, 10)); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvOne(t, sub, 50*time.Millisecond); ok {
			return
		}
	}
	t.Fatalf("%s: no publication from %s reached %s's subscriber within %v", tag, pubAt.ID(), subAt.ID(), d)
}

// peerState is a broker's view of its links: the live peer ports and
// the connections with a running reader.
func peerState(b *Broker) (live []*tcpPort, readers int) {
	s := b.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.ports {
		if p.peer && p.alive() {
			live = append(live, p)
		}
	}
	return live, len(s.readers)
}

// TestTCPStaleLinkReplacedByRedial is the hello-beats-FIN race. A raw
// connection completes R's handshake at S and then stops reading: an
// old R process whose FIN has not reached S yet. A real R then dials
// S. Its hello must replace the stale connection at once — S never
// sees peer_down — so publications at S reach the new R's subscriber.
func TestTCPStaleLinkReplacedByRedial(t *testing.T) {
	s := listenTestBroker(t, "S", Pairwise)
	stale, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := writeFrame(stale, &Frame{Hello: "R"}); err != nil {
		t.Fatal(err)
	}
	var ack Frame
	if err := newFrameReader(stale).read(&ack); err != nil || ack.Ack != "S" {
		t.Fatalf("stale handshake: ack %+v, err %v", ack, err)
	}
	// The stale connection now holds S's link to R and never reads again.

	r := listenTestBroker(t, "R", Pairwise)
	if established, err := r.ConnectPeer("S", s.Addr()); err != nil || !established {
		t.Fatalf("R's dial: established %v, err %v", established, err)
	}
	deliverAcross(t, r, s, "redial", 5*time.Second)

	if n := flightCount(s, "peer_down"); n != 0 {
		t.Errorf("S recorded %d peer_down events; a re-dial must replace the stale link without one", n)
	}
	if got := flightDetails(s, "link_replaced"); len(got) != 1 || got[0] != "R redial" {
		t.Errorf("S's link_replaced events = %q, want [\"R redial\"]", got)
	}
}

// TestTCPSimultaneousDialsConverge has fresh broker pairs dial each
// other at the same moment. Both calls succeed; once settled each end
// holds one live peer port with one reader, both ends name the same
// connection, publications cross in both directions, and no peer_down
// fires after the dials returned.
func TestTCPSimultaneousDialsConverge(t *testing.T) {
	const pairs = 30
	for i := range pairs {
		t.Run(fmt.Sprintf("pair%02d", i), func(t *testing.T) {
			a := listenTestBroker(t, "A", Pairwise)
			b := listenTestBroker(t, "B", Pairwise)
			start := make(chan struct{})
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for j, dial := range []func() error{
				func() error { _, err := a.ConnectPeer("B", b.Addr()); return err },
				func() error { _, err := b.ConnectPeer("A", a.Addr()); return err },
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					errs[j] = dial()
				}()
			}
			close(start)
			wg.Wait()
			for j, err := range errs {
				if err != nil {
					t.Fatalf("dial %d: %v", j, err)
				}
			}
			downs := flightCount(a, "peer_down") + flightCount(b, "peer_down")

			var pa, pb []*tcpPort
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				var ra, rb int
				pa, ra = peerState(a)
				pb, rb = peerState(b)
				if len(pa) == 1 && len(pb) == 1 && ra == 1 && rb == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("not settled: A has %d live peer ports and %d readers, B has %d and %d", len(pa), ra, len(pb), rb)
				}
			}
			ca, cb := pa[0].conn, pb[0].conn
			if ca.LocalAddr().String() != cb.RemoteAddr().String() || ca.RemoteAddr().String() != cb.LocalAddr().String() {
				t.Fatalf("ends disagree: A holds %s→%s, B holds %s→%s",
					ca.LocalAddr(), ca.RemoteAddr(), cb.LocalAddr(), cb.RemoteAddr())
			}

			deliverAcross(t, a, b, "b-to-a", 5*time.Second)
			deliverAcross(t, b, a, "a-to-b", 5*time.Second)

			if n := flightCount(a, "peer_down") + flightCount(b, "peer_down"); n != downs {
				t.Errorf("%d peer_down events after both dials returned; A: %+v B: %+v", n-downs, a.Observability().Flight().Events(), b.Observability().Flight().Events())
			}
			for _, br := range []*Broker{a, b} {
				if got := flightDetails(br, "link_replaced"); len(got) > 1 {
					t.Errorf("%s recorded %d link_replaced events %q, want at most one", br.ID(), len(got), got)
				}
			}
		})
	}
}

// TestTCPWildcardListenerOneSidedPeer: a broker listening on a
// wildcard address dials its neighbor, and only it is configured with
// the link. Publications still flow both ways over the one connection.
func TestTCPWildcardListenerOneSidedPeer(t *testing.T) {
	a, err := ListenBroker("A", "0.0.0.0:0", Pairwise, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown(testCtx(t))
	b := listenTestBroker(t, "B", Pairwise)
	if _, err := a.ConnectPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	deliverAcross(t, a, b, "b-to-a", 5*time.Second)
	deliverAcross(t, b, a, "a-to-b", 5*time.Second)
}
