package cluster

// Kill -9 acceptance: a durable broker is SIGKILLed with a populated
// routing table and restarted from its data directory in a separate
// OS process. The restarted broker must rejoin the overlay and route
// exactly like a never-crashed oracle pair WITHOUT any client
// re-subscribing, and the link digests on both sides must converge —
// no stale reverse-path entries survive on either end of the healed
// link.
//
// The child broker runs via the standard helper-process re-exec
// pattern (this test binary invoked with -test.run pinned to
// TestHelperDurableBroker and an env guard); the parent drives it
// over stdin/stdout.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"probsum/internal/subscription"
	"probsum/pubsub"
)

// TestHelperDurableBroker is not a test: it is the child process body.
func TestHelperDurableBroker(t *testing.T) {
	if os.Getenv("PROBSUM_DURABLE_CHILD") != "1" {
		t.Skip("helper process body, driven by TestKillRestartRecoversFromDisk")
	}
	id := os.Getenv("PROBSUM_CHILD_ID")
	addr := os.Getenv("PROBSUM_CHILD_ADDR")
	dir := os.Getenv("PROBSUM_CHILD_DATA")
	peerID := os.Getenv("PROBSUM_CHILD_PEER_ID")
	peerAddr := os.Getenv("PROBSUM_CHILD_PEER_ADDR")

	b, err := pubsub.ListenBroker(id, addr, pubsub.Pairwise, pubsub.Config{},
		pubsub.WithDataDir(dir), pubsub.WithJournalSync(1))
	if err != nil {
		fmt.Printf("ERR listen: %v\n", err)
		os.Exit(1)
	}
	n := Attach(b, fastConfig())
	n.AddMember(Member{ID: peerID, Addr: peerAddr}, true)
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
			err := b.Shutdown(ctx)
			cancel()
			fmt.Printf("BYE %v\n", err)
			return
		}
	}
	// Stdin closed without "quit": the parent died; exit with it.
}

// durableChild drives one helper-process broker.
type durableChild struct {
	t     *testing.T
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
}

func startDurableChild(t *testing.T, id, addr, dir, peerID, peerAddr string) *durableChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDurableBroker$")
	cmd.Env = append(os.Environ(),
		"PROBSUM_DURABLE_CHILD=1",
		"PROBSUM_CHILD_ID="+id,
		"PROBSUM_CHILD_ADDR="+addr,
		"PROBSUM_CHILD_DATA="+dir,
		"PROBSUM_CHILD_PEER_ID="+peerID,
		"PROBSUM_CHILD_PEER_ADDR="+peerAddr,
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &durableChild{t: t, cmd: cmd, stdin: stdin, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // drop if the parent stopped reading
			}
		}
		close(c.lines)
	}()
	t.Cleanup(func() {
		if c.cmd.ProcessState == nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})
	return c
}

// expect reads child stdout until a line with the given prefix
// appears, returning the full line.
func (c *durableChild) expect(prefix string, d time.Duration) string {
	c.t.Helper()
	deadline := time.After(d)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				c.t.Fatalf("child exited while waiting for %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line
			}
		case <-deadline:
			c.t.Fatalf("timeout waiting for child line %q", prefix)
		}
	}
}

func (c *durableChild) send(cmdLine string) {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.stdin, cmdLine); err != nil {
		c.t.Fatalf("child stdin: %v", err)
	}
}

// sigkill terminates the child the hard way — no drain, no final
// snapshot, exactly what a machine crash looks like to the journal.
func (c *durableChild) sigkill() {
	c.t.Helper()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

func (c *durableChild) quit() {
	c.t.Helper()
	c.send("quit")
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.t.Fatal("child did not exit on quit")
	}
}

// killProbe is one post-recovery probe publication: the value it
// carries and, per the never-crashed oracle, which client must
// receive it under which subscription ("" = nobody).
type killProbe struct {
	val        int64
	wantClient string
	wantSub    string
}

// oracleKillDeliveries runs the same topology and subscription script
// with two in-process brokers that never crash, publishes one
// publication per probe value, and reports who received what — the
// reference the recovered run must match.
func oracleKillDeliveries(t *testing.T, vals []int64) []killProbe {
	t.Helper()
	o1, err := pubsub.ListenBroker("O1", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, o1)
	o2, err := pubsub.ListenBroker("O2", "127.0.0.1:0", pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, o2)
	if _, err := o1.ConnectPeer("O2", o2.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := o2.ConnectPeer("O1", o1.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	alice, err := pubsub.Dial(ctx, o1.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	carol, err := pubsub.Dial(ctx, o2.Addr(), "carol")
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	bob, err := pubsub.Dial(ctx, o2.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	subscribeKillScript(t, ctx, alice, carol)
	// s4 arrives mid-outage in the recovered run; the oracle simply
	// subscribes it (no outage to survive).
	if err := carol.Subscribe(ctx, "s4", tile2(600, 700)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "oracle subscriptions to settle", func() bool {
		return o2.Metrics().SubsReceived >= 4
	})

	probes := make([]killProbe, len(vals))
	for i, v := range vals {
		probes[i] = killProbe{val: v}
		pubID := fmt.Sprintf("op%d", i)
		if err := bob.Publish(ctx, pubID, subscription.NewPublication(v, v)); err != nil {
			t.Fatal(err)
		}
		for client, ch := range map[string]*pubsub.Client{"alice": alice, "carol": carol} {
			select {
			case n := <-ch.Notifications():
				if n.PubID != pubID {
					t.Fatalf("oracle: unexpected notification %+v for probe %d", n, i)
				}
				probes[i].wantClient, probes[i].wantSub = client, n.SubID
			case <-time.After(700 * time.Millisecond):
			}
		}
	}
	return probes
}

// subscribeKillScript installs the shared subscription script: alice
// (broker 1) owns s1 and s2, carol (broker 2) owns s3 and s4. The
// boxes are disjoint so every probe has exactly one matching
// subscription.
func subscribeKillScript(t *testing.T, ctx context.Context, alice, carol *pubsub.Client) {
	t.Helper()
	if err := alice.Subscribe(ctx, "s1", tile2(0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := alice.Subscribe(ctx, "s2", tile2(400, 500)); err != nil {
		t.Fatal(err)
	}
	if err := carol.Subscribe(ctx, "s3", tile2(800, 900)); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartRecoversFromDisk is the ISSUE 6 acceptance scenario.
func TestKillRestartRecoversFromDisk(t *testing.T) {
	probeVals := []int64{50, 450, 850, 650, 950}
	want := oracleKillDeliveries(t, probeVals)

	addrs := freeAddrs(t, 2)
	childAddr, survAddr := addrs[0], addrs[1]
	dir := t.TempDir()

	// Survivor broker, in-process, with the membership layer driving
	// reconnects and digest gossip.
	b2, err := pubsub.ListenBroker("B2", survAddr, pubsub.Pairwise, pubsub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcpShutdown(t, b2)
	n2 := Attach(b2, fastConfig())
	defer n2.Close()
	n2.AddMember(Member{ID: "B1", Addr: childAddr}, true)

	// Durable broker in a child process.
	child := startDurableChild(t, "B1", childAddr, dir, "B2", survAddr)
	child.expect("READY", 10*time.Second)
	waitFor(t, 10*time.Second, "cluster assembly", func() bool {
		m, ok := n2.Member("B1")
		return ok && m.State == StateAlive
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	alice, err := pubsub.Dial(ctx, childAddr, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	carol, err := pubsub.Dial(ctx, survAddr, "carol")
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	bob, err := pubsub.Dial(ctx, survAddr, "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	subscribeKillScript(t, ctx, alice, carol)
	// s1 and s2 must cross to the survivor (and hit the child's
	// journal) before the kill; a delivered probe proves both ends.
	waitFor(t, 5*time.Second, "subscriptions to reach the survivor", func() bool {
		return b2.Metrics().SubsReceived >= 3
	})
	if err := bob.Publish(ctx, "warm", subscription.NewPublication(50, 50)); err != nil {
		t.Fatal(err)
	}
	if n := recvNotification(t, alice, 5*time.Second, "warm"); n.SubID != "s1" {
		t.Fatalf("warm-up probe delivered under %s", n.SubID)
	}

	// SIGKILL: no drain, no snapshot flush. The journal (fsync every
	// record) is all that survives.
	child.sigkill()
	waitFor(t, 10*time.Second, "survivor to declare B1 dead", func() bool {
		m, _ := n2.Member("B1")
		return m.State == StateDead
	})

	// A subscription arriving while the peer is down: the survivor
	// admits it toward B1, the forward dies on the wire. Healing must
	// carry it over — without carol re-issuing it.
	if err := carol.Subscribe(ctx, "s4", tile2(600, 700)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "survivor to admit s4", func() bool {
		return b2.Metrics().SubsReceived >= 4
	})

	// Restart from the same data directory, same address. NOBODY
	// re-subscribes: recovery plus link healing must restore routing.
	child2 := startDurableChild(t, "B1", childAddr, dir, "B2", survAddr)
	rec := child2.expect("RECOVERED", 10*time.Second)
	// Three subscriptions: alice's s1 and s2 plus carol's s3, which the
	// survivor had forwarded over the link before the crash.
	if !strings.Contains(rec, "subs=3 ") || !strings.Contains(rec, "clients=1 ") || !strings.Contains(rec, "neighbors=1 ") {
		t.Fatalf("recovery stats = %q, want 3 subscriptions, 1 client, 1 neighbor", rec)
	}
	child2.expect("READY", 10*time.Second)
	waitFor(t, 15*time.Second, "survivor to heal the link", func() bool {
		m, _ := n2.Member("B1")
		return m.State == StateAlive
	})

	// Alice's TCP connection died with the old process; re-dialing
	// under the same name re-binds the delivery stream to the
	// RECOVERED subscription state (no Subscribe calls).
	alice2, err := pubsub.Dial(ctx, childAddr, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice2.Close()

	// Both directions of the link must converge digest-wise: each
	// side's sender digest equals the other side's receiver digest —
	// i.e. no missing and no stale reverse-path entries anywhere.
	waitFor(t, 15*time.Second, "link digests to converge", func() bool {
		child2.send("digest")
		line := child2.expect("DIGEST", 5*time.Second)
		sOut, sOk := b2.Core().LinkDigest("B1")
		sRecv := b2.Core().ReceivedDigest("B1")
		if !sOk {
			return false
		}
		wantLine := fmt.Sprintf("DIGEST ok=true out=%d/%d recv=%d/%d",
			sRecv.Count, sRecv.Root, sOut.Count, sOut.Root)
		return line == wantLine
	})

	// Post-recovery delivery matches the never-crashed oracle probe by
	// probe. Publications are at-most-once across a settling link, so
	// each probe retries under fresh IDs; a probe the oracle says
	// nobody gets must stay silent here too.
	clients := map[string]*pubsub.Client{"alice": alice2, "carol": carol}
	for i, p := range want {
		if p.wantClient == "" {
			if err := bob.Publish(ctx, fmt.Sprintf("kp%d", i), subscription.NewPublication(p.val, p.val)); err != nil {
				t.Fatal(err)
			}
			continue // silence asserted by the strict PubID checks below
		}
		publishUntil(t, bob, clients[p.wantClient], fmt.Sprintf("kp%d", i), subscription.NewPublication(p.val, p.val), p.wantSub)
	}

	// Drain both clients briefly: nothing may arrive that the oracle
	// did not predict (no stale routing, no duplicate deliveries of a
	// probe already consumed).
	for name, c := range clients {
		select {
		case n := <-c.Notifications():
			t.Fatalf("unexpected delivery to %s: %+v", name, n)
		case <-time.After(300 * time.Millisecond):
		}
	}

	// Graceful exit flushes the final snapshot; a third boot must then
	// recover everything from the snapshot alone (journal compacted).
	child2.quit()
	child3 := startDurableChild(t, "B1", childAddr, dir, "B2", survAddr)
	rec3 := child3.expect("RECOVERED", 10*time.Second)
	if !strings.Contains(rec3, "journal=0") || !strings.Contains(rec3, "skipped=0") {
		t.Fatalf("post-snapshot recovery stats = %q, want a compacted journal", rec3)
	}
	if !strings.Contains(rec3, "subs=4 ") {
		t.Fatalf("post-snapshot recovery stats = %q, want all 4 subscriptions (s4 healed over)", rec3)
	}
	child3.quit()
}
