// Chaos demo: kill -9 a durable broker mid-traffic and watch it come
// back from its journal.
//
// Two brokers link up over TCP with the membership layer running: B1
// is DURABLE (journal + snapshots in a temp -data-dir) and runs as a
// separate OS process — this same binary re-executed in child mode —
// while the survivor B2 runs in-process. A subscriber attaches to B1,
// a publisher to B2, and after a warm-up delivery the demo SIGKILLs
// the B1 process: no drain, no final snapshot, exactly a machine
// crash. While B1 is down the survivor accepts another subscription
// whose forward dies on the dead wire. Then B1 restarts from the same
// data directory: it recovers its subscriptions, clients, and dedup
// window from disk, the survivor's reconnect loop re-dials it, and
// the link-digest reconciliation running inside gossip squares both
// sides — including the subscription B1 never saw. The demo verifies
// digest convergence in both directions and end-to-end delivery for
// every subscription, old and mid-outage, WITHOUT any client
// re-subscribing.
//
// Run with: go run ./examples/chaos
// Exits non-zero if recovery or reconciliation fails (CI smoke).
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"probsum/internal/interval"
	"probsum/internal/subscription"
	"probsum/pubsub"
	"probsum/pubsub/cluster"
)

func main() {
	if os.Getenv("CHAOS_CHILD") == "1" {
		runChild()
		return
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos demo: %v\n", err)
		os.Exit(1)
	}
}

func clusterConfig() cluster.Config {
	return cluster.Config{
		PingEvery:     200 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     time.Second,
		GossipEvery:   300 * time.Millisecond,
		ReconnectMin:  200 * time.Millisecond,
		ReconnectMax:  time.Second,
	}
}

// runChild is the durable broker process: listen, recover, report,
// answer digest queries over stdin until killed or told to quit.
func runChild() {
	b, err := pubsub.ListenBroker(os.Getenv("CHAOS_ID"), os.Getenv("CHAOS_ADDR"), pubsub.Pairwise, pubsub.Config{},
		pubsub.WithDataDir(os.Getenv("CHAOS_DATA")), pubsub.WithJournalSync(1))
	if err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(1)
	}
	peerID := os.Getenv("CHAOS_PEER_ID")
	n := cluster.Attach(b, clusterConfig())
	n.AddMember(cluster.Member{ID: peerID, Addr: os.Getenv("CHAOS_PEER_ADDR")}, true)
	if rs, ok := b.Recovery(); ok {
		fmt.Printf("RECOVERED subs=%d clients=%d neighbors=%d snapshot=%d journal=%d skipped=%d truncated=%v\n",
			rs.Subscriptions, rs.Clients, rs.Neighbors, rs.SnapshotOps, rs.JournalRecords, rs.Skipped, rs.Truncated)
	}
	fmt.Println("READY")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch sc.Text() {
		case "digest":
			out, ok := b.Core().LinkDigest(peerID)
			recv := b.Core().ReceivedDigest(peerID)
			fmt.Printf("DIGEST ok=%v out=%d/%d recv=%d/%d\n", ok, out.Count, out.Root, recv.Count, recv.Root)
		case "quit":
			n.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			b.Shutdown(ctx)
			cancel()
			return
		}
	}
}

// child drives one durable broker process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
}

func startChild(id, addr, dir, peerID, peerAddr string) (*child, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CHAOS_CHILD=1", "CHAOS_ID="+id, "CHAOS_ADDR="+addr, "CHAOS_DATA="+dir,
		"CHAOS_PEER_ID="+peerID, "CHAOS_PEER_ADDR="+peerAddr)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default:
			}
		}
		close(c.lines)
	}()
	return c, nil
}

func (c *child) expect(prefix string, d time.Duration) (string, error) {
	deadline := time.After(d)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return "", fmt.Errorf("broker process exited while waiting for %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("timeout waiting for broker process line %q", prefix)
		}
	}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func waitFor(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

func tile(lo, hi int64) pubsub.Subscription {
	return subscription.New(interval.New(lo, hi), interval.New(lo, hi))
}

// expectDelivery publishes under fresh IDs until the subscriber sees
// one under the wanted subscription (publication transport is
// at-most-once over a settling link).
func expectDelivery(ctx context.Context, pub, sub *pubsub.Client, prefix string, p pubsub.Publication, wantSub string) error {
	for i := 0; i < 8; i++ {
		pubID := fmt.Sprintf("%s-%d", prefix, i)
		if err := pub.Publish(ctx, pubID, p); err != nil {
			return err
		}
		timeout := time.After(time.Second)
	recv:
		for {
			select {
			case n, ok := <-sub.Notifications():
				if !ok {
					return fmt.Errorf("notification stream closed waiting for %s", pubID)
				}
				if n.PubID == pubID {
					if n.SubID != wantSub {
						return fmt.Errorf("%s delivered under %s, want %s", pubID, n.SubID, wantSub)
					}
					return nil
				}
			case <-timeout:
				break recv
			}
		}
	}
	return fmt.Errorf("no %s-* publication delivered", prefix)
}

func run() error {
	childAddr, err := freeAddr()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "probsum-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Survivor B2, in-process.
	b2, err := pubsub.ListenBroker("B2", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b2.Shutdown(ctx)
	}()
	n2 := cluster.Attach(b2, clusterConfig())
	defer n2.Close()
	n2.AddMember(cluster.Member{ID: "B1", Addr: childAddr}, true)

	// Durable B1 as a separate process.
	fmt.Printf("starting durable broker B1 (pid below) on %s, data dir %s\n", childAddr, dir)
	c1, err := startChild("B1", childAddr, dir, "B2", b2.Addr())
	if err != nil {
		return err
	}
	if _, err := c1.expect("READY", 10*time.Second); err != nil {
		return err
	}
	fmt.Printf("B1 up (pid %d); waiting for the overlay link\n", c1.cmd.Process.Pid)
	if err := waitFor(10*time.Second, "cluster assembly", func() bool {
		m, ok := n2.Member("B1")
		return ok && m.State == cluster.StateAlive
	}); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	alice, err := pubsub.Dial(ctx, childAddr, "alice")
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := pubsub.Dial(ctx, b2.Addr(), "bob")
	if err != nil {
		return err
	}
	defer bob.Close()

	if err := alice.Subscribe(ctx, "s1", tile(0, 100)); err != nil {
		return err
	}
	if err := waitFor(5*time.Second, "s1 to cross to the survivor", func() bool {
		return b2.Metrics().SubsReceived >= 1
	}); err != nil {
		return err
	}
	if err := expectDelivery(ctx, bob, alice, "warm", subscription.NewPublication(50, 50), "s1"); err != nil {
		return fmt.Errorf("pre-crash delivery: %w", err)
	}
	fmt.Println("warm-up delivery B2→B1→alice OK; journal has the state")

	fmt.Printf("kill -9 %d\n", c1.cmd.Process.Pid)
	c1.cmd.Process.Kill()
	c1.cmd.Wait()
	if err := waitFor(10*time.Second, "survivor to declare B1 dead", func() bool {
		m, _ := n2.Member("B1")
		return m.State == cluster.StateDead
	}); err != nil {
		return err
	}
	fmt.Println("survivor declared B1 dead")

	// A subscription the dead broker never sees: its forward dies on
	// the wire. Reconciliation must carry it over after the restart.
	carol, err := pubsub.Dial(ctx, b2.Addr(), "carol")
	if err != nil {
		return err
	}
	defer carol.Close()
	if err := carol.Subscribe(ctx, "s2", tile(400, 500)); err != nil {
		return err
	}
	fmt.Println("carol subscribed s2 at the survivor while B1 is down")

	fmt.Println("restarting B1 from the same data directory")
	c2, err := startChild("B1", childAddr, dir, "B2", b2.Addr())
	if err != nil {
		return err
	}
	rec, err := c2.expect("RECOVERED", 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Println(rec)
	if !strings.Contains(rec, "subs=1 ") || !strings.Contains(rec, "clients=1 ") {
		return fmt.Errorf("recovery stats %q: the journal did not restore the pre-crash state", rec)
	}
	if _, err := c2.expect("READY", 10*time.Second); err != nil {
		return err
	}
	if err := waitFor(15*time.Second, "survivor to heal the link", func() bool {
		m, _ := n2.Member("B1")
		return m.State == cluster.StateAlive
	}); err != nil {
		return err
	}
	fmt.Println("link healed")

	// Digest convergence in both directions: each side's sender digest
	// must equal the other side's receiver digest.
	if err := waitFor(15*time.Second, "link digests to converge", func() bool {
		fmt.Fprintln(c2.stdin, "digest")
		line, err := c2.expect("DIGEST", 5*time.Second)
		if err != nil {
			return false
		}
		sOut, ok := b2.Core().LinkDigest("B1")
		if !ok {
			return false
		}
		sRecv := b2.Core().ReceivedDigest("B1")
		return line == fmt.Sprintf("DIGEST ok=true out=%d/%d recv=%d/%d",
			sRecv.Count, sRecv.Root, sOut.Count, sOut.Root)
	}); err != nil {
		return fmt.Errorf("reconciliation failed: %w", err)
	}
	fmt.Println("link digests converged in both directions")

	// No client re-subscribed. Alice re-dials (her TCP connection died
	// with the process) and both subscriptions must route end to end.
	alice2, err := pubsub.Dial(ctx, childAddr, "alice")
	if err != nil {
		return err
	}
	defer alice2.Close()
	if err := expectDelivery(ctx, bob, alice2, "post1", subscription.NewPublication(60, 60), "s1"); err != nil {
		return fmt.Errorf("recovered subscription s1 does not route: %w", err)
	}
	fmt.Println("recovered subscription s1 routes B2→B1→alice (no re-subscribe)")
	if err := expectDelivery(ctx, alice2, carol, "post2", subscription.NewPublication(450, 450), "s2"); err != nil {
		return fmt.Errorf("mid-outage subscription s2 does not route: %w", err)
	}
	fmt.Println("mid-outage subscription s2 routes B1→B2→carol (reconciled over)")

	fmt.Fprintln(c2.stdin, "quit")
	c2.cmd.Wait()
	fmt.Println("chaos demo OK: kill -9, restart from disk, reconcile, deliver")
	return nil
}
