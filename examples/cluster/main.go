// Cluster demo: a self-assembling, self-healing broker overlay that
// survives a broker being killed and revived mid-traffic.
//
// Three brokers form the chain B1–B2–B3 from one declarative topology
// file (written to a temp file and loaded with cluster.LoadTopology,
// exactly as three `brokerd -cluster overlay.json` daemons would). A
// subscriber attaches to B1, a publisher to B3, so every delivery
// crosses the whole chain. Mid-traffic the middle broker is killed:
// the survivors' failure detectors walk it alive → suspect → dead and
// publications stop arriving. Then B2 is restarted on the same
// address: the survivors' reconnect loops re-dial it, each dial sends
// the broker's link sync (its coverage roots as one SUBBATCH), and
// delivery resumes without the subscriber or publisher doing anything.
//
// Run with: go run ./examples/cluster
// Exits non-zero if B1 counts no link sync to the restarted B2 or
// post-heal delivery does not resume (CI smoke).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"probsum/pubsub"
	"probsum/pubsub/cluster"
	"probsum/subsume"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cluster demo: %v\n", err)
		os.Exit(1)
	}
}

// freeAddrs reserves concrete loopback addresses: a restarted broker
// must come back on the SAME address, so the topology cannot use :0.
func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out[i] = ln.Addr().String()
		ln.Close()
	}
	return out, nil
}

func run() error {
	addrs, err := freeAddrs(3)
	if err != nil {
		return err
	}
	topo := &cluster.Topology{
		Policy: "pairwise",
		Nodes: []cluster.TopologyNode{
			{ID: "B1", Listen: addrs[0]},
			{ID: "B2", Listen: addrs[1]},
			{ID: "B3", Listen: addrs[2]},
		},
		Links: [][2]string{{"B1", "B2"}, {"B2", "B3"}},
	}
	// Round-trip through a real file: this is the overlay.json every
	// brokerd daemon of the cluster would be pointed at.
	data, err := json.MarshalIndent(topo, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("overlay-%d.json", os.Getpid()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)
	if topo, err = cluster.LoadTopology(path); err != nil {
		return err
	}
	fmt.Printf("topology %s: 3 brokers, chain B1–B2–B3\n", path)

	// Test-sized detector timings so the demo runs in seconds.
	cfg := cluster.Config{
		PingEvery:     50 * time.Millisecond,
		SuspectMisses: 2,
		DeadAfter:     200 * time.Millisecond,
		GossipEvery:   100 * time.Millisecond,
		ReconnectMin:  50 * time.Millisecond,
		ReconnectMax:  400 * time.Millisecond,
	}

	start := func(id string) (*cluster.Node, *pubsub.Broker, error) { return cluster.Start(topo, id, cfg) }
	n1, b1, err := start("B1")
	if err != nil {
		return err
	}
	defer shutdown(n1, b1)
	n2, b2, err := start("B2")
	if err != nil {
		return err
	}
	n3, b3, err := start("B3")
	if err != nil {
		return err
	}
	defer shutdown(n3, b3)

	if err := waitFor(10*time.Second, "cluster assembly", func() bool {
		for _, v := range [][2]*cluster.Node{{n1, n2}, {n2, n1}, {n2, n3}, {n3, n2}} {
			if m, ok := v[0].Member(memberID(v[1])); !ok || m.State != cluster.StateAlive {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	fmt.Printf("assembled: B1 sees [%s], B3 sees [%s]\n", n1, n3)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := pubsub.Dial(ctx, b1.Addr(), "subscriber")
	if err != nil {
		return err
	}
	defer sub.Close()
	schema := subsume.NewSchema(subsume.Attr("x", 0, 1000), subsume.Attr("y", 0, 1000))
	box, err := subsume.NewSubscription(schema).Range("x", 0, 500).Range("y", 0, 500).Checked()
	if err != nil {
		return err
	}
	if err := sub.Subscribe(ctx, "s1", box); err != nil {
		return err
	}
	if err := waitFor(5*time.Second, "subscription to flood the chain", func() bool {
		return b3.Metrics().SubsReceived == 1
	}); err != nil {
		return err
	}

	pub, err := pubsub.Dial(ctx, b3.Addr(), "publisher")
	if err != nil {
		return err
	}
	defer pub.Close()

	// Phase 1: steady traffic across the healthy chain.
	got := publishPhase(ctx, "steady", pub, sub, 0, 10)
	fmt.Printf("phase 1 (healthy chain): %d/10 delivered\n", got)
	if got != 10 {
		return fmt.Errorf("healthy chain dropped publications (%d/10)", got)
	}

	// Kill the middle broker mid-traffic.
	fmt.Println("killing B2 …")
	n2.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	b2.Shutdown(sctx)
	scancel()
	if err := waitFor(10*time.Second, "failure detection", func() bool {
		m, _ := n1.Member("B2")
		return m.State == cluster.StateDead
	}); err != nil {
		return err
	}
	fmt.Printf("B1 declared B2 dead: [%s]\n", n1)

	// Phase 2: traffic into the cut. Publications cannot cross; the
	// protocol's loss tolerance (at-most-once transport) absorbs them.
	got = publishPhase(ctx, "outage", pub, sub, 100, 10)
	fmt.Printf("phase 2 (B2 down): %d/10 delivered (expected 0)\n", got)

	// Revive B2 on the same address, from the same topology file.
	fmt.Println("restarting B2 …")
	syncs := b1.Metrics().LinkSyncs
	n2b, b2b, err := start("B2")
	if err != nil {
		return err
	}
	defer shutdown(n2b, b2b)
	if err := waitFor(15*time.Second, "link healing", func() bool {
		m1, _ := n1.Member("B2")
		m3, _ := n3.Member("B2")
		return m1.State == cluster.StateAlive && m3.State == cluster.StateAlive &&
			b3.Metrics().SubsReceived >= 1 && b2b.Metrics().SubsReceived >= 1
	}); err != nil {
		return err
	}
	syncs = b1.Metrics().LinkSyncs - syncs
	fmt.Printf("healed: B1 sees [%s]; B1 sent %d link sync(s); B2 relearned %d subscription(s)\n",
		n1, syncs, b2b.Metrics().SubsReceived)
	if syncs == 0 {
		return fmt.Errorf("B1 counted no link sync to the restarted B2")
	}

	// Phase 3: delivery resumes with no client action.
	got = publishPhase(ctx, "healed", pub, sub, 200, 10)
	fmt.Printf("phase 3 (healed chain): %d/10 delivered\n", got)
	if got < 8 {
		return fmt.Errorf("post-heal delivery did not resume (%d/10)", got)
	}
	fmt.Println("cluster healed itself: kill + restart survived without reconfiguring anything")
	return nil
}

// publishPhase sends count publications (IDs base..base+count-1) and
// reports how many reach the subscriber within a bounded wait.
func publishPhase(ctx context.Context, phase string, pub, sub *pubsub.Client, base, count int) int {
	delivered := 0
	for i := 0; i < count; i++ {
		pubID := fmt.Sprintf("%s-%d", phase, base+i)
		if err := pub.Publish(ctx, pubID, subsume.NewPublication(int64(10*i%500), int64(7*i%500))); err != nil {
			log.Printf("publish %s: %v", pubID, err)
			continue
		}
		timeout := time.After(time.Second)
	recv:
		for {
			select {
			case n, ok := <-sub.Notifications():
				if !ok {
					return delivered
				}
				if n.PubID == pubID {
					delivered++
					break recv
				}
			case <-timeout:
				break recv
			}
		}
	}
	return delivered
}

func memberID(n *cluster.Node) string {
	ms := n.Members()
	return ms[0].ID // self is always first
}

func shutdown(n *cluster.Node, b *pubsub.Broker) {
	n.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b.Shutdown(ctx)
}

func waitFor(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
