// Command brokerd runs one content-based publish/subscribe broker
// over TCP — a thin wrapper over pubsub.ListenBroker and, when asked,
// the pubsub/cluster membership layer. Brokers form an overlay by
// dialing each other; clients connect with cmd/psclient.
//
// Three ways to form an overlay:
//
// Hand-wired (the original form — no membership, no self-healing):
//
//	brokerd -id B1 -listen :7001 -policy group
//	brokerd -id B2 -listen :7002 -peer B1=localhost:7001
//	brokerd -id B3 -listen :7003 -peer B2=localhost:7002
//
// Declarative topology (one JSON file shared by every daemon; see
// pubsub/cluster.Topology). Each daemon starts the broker declared
// under its -id; the cluster layer establishes the file's links in
// any boot order, detects dead peers by ping, re-dials them with
// jittered backoff, and re-announces the coverage roots as one
// SUBBATCH when a link heals:
//
//	brokerd -id B1 -cluster overlay.json
//	brokerd -id B2 -cluster overlay.json
//	brokerd -id B3 -cluster overlay.json
//
// Seed-node gossip (no file: name one or more running brokers and the
// member list — and a full-mesh overlay — assembles itself; the first
// broker runs -mesh so it gossips even though it has nobody to seed
// to):
//
//	brokerd -id B1 -listen 10.0.0.1:7001 -policy group -mesh
//	brokerd -id B2 -listen 10.0.0.2:7001 -seed-node B1=10.0.0.1:7001
//	brokerd -id B3 -listen 10.0.0.3:7001 -seed-node B1=10.0.0.1:7001
//
// Every -peer link is dialed outward; when -listen carries a concrete
// host (as above) the hello advertises it and the remote side dials
// the reverse direction back automatically. Daemons listening on a
// wildcard address (-listen :7001) cannot advertise a reachable
// address, so there each side must list the other as a -peer (and
// cluster topologies must declare concrete listen addresses).
//
// Every frame, the hello/ack handshake included, is one length-prefixed
// binary frame under one header version; a daemon or client speaking
// any other version is refused at the handshake. Cluster control
// frames are only ever sent to peers that advertised the membership
// protocol — hand-wired daemons mix freely with clustered ones.
//
// With -data-dir the broker is durable: every state-changing arrival
// is appended to a CRC-framed journal in that directory (fsynced in
// batches of -journal-sync records) and compacted into a snapshot
// every -snapshot-interval. A broker restarted with the same -data-dir
// recovers its subscriptions, reverse paths, and dedup window from
// disk — clients do not re-subscribe — and the link-digest
// reconciliation protocol repairs whatever diverged from its peers
// while it was down:
//
//	brokerd -id B1 -cluster overlay.json -data-dir /var/lib/probsum/B1
//
// On SIGINT/SIGTERM the broker shuts down gracefully, draining
// in-flight frames for up to -drain and flushing a final snapshot
// before the data directory is closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"probsum/pubsub"
	"probsum/pubsub/cluster"
)

// peerList collects repeated NAME=ADDR flags (-peer, -seed).
type peerList map[string]string

func (p peerList) String() string { return fmt.Sprint(map[string]string(p)) }

func (p peerList) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok || name == "" || addr == "" {
		return fmt.Errorf("want NAME=ADDR, got %q", v)
	}
	p[name] = addr
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "brokerd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	peers := peerList{}
	seeds := peerList{}
	var (
		id          = flag.String("id", "", "broker identifier (required)")
		listen      = flag.String("listen", "127.0.0.1:7001", "listen address (ignored with -cluster: the topology declares it)")
		policyIn    = flag.String("policy", "group", "coverage policy: flood | pairwise | group (ignored with -cluster)")
		delta       = flag.Float64("delta", 1e-6, "group policy error probability")
		seed        = flag.Uint64("seed", 1, "group policy random seed")
		retries     = flag.Int("peer-retries", 10, "dial attempts per -peer link (1s apart)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful shutdown drain budget")
		clusterFile = flag.String("cluster", "", "cluster topology file (JSON, see pubsub/cluster.Topology): membership, gossip, and self-healing links")
		mesh        = flag.Bool("mesh", false, "run the cluster layer with no seeds — the form for the FIRST broker of a seed-node cluster (later ones point -seed-node at it)")
		pingEvery   = flag.Duration("ping-interval", 500*time.Millisecond, "cluster failure-detector ping interval")
		dataDir     = flag.String("data-dir", "", "durable state directory: journal + snapshots; restart recovers from it (empty = in-memory only)")
		journalSync = flag.Int("journal-sync", 64, "fsync the journal every N records (1 = every record; needs -data-dir)")
		snapEvery   = flag.Duration("snapshot-interval", 30*time.Second, "journal compaction interval (needs -data-dir)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json, and /flight on this HTTP address (empty = disabled)")
	)
	flag.Var(peers, "peer", "neighbor broker as NAME=ADDR (repeatable; static link, dialed outward)")
	flag.Var(seeds, "seed-node", "cluster seed broker as NAME=ADDR (repeatable): join by gossip, full-mesh overlay")
	flag.Parse()

	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	if *clusterFile != "" && (len(seeds) > 0 || *mesh) {
		return fmt.Errorf("-cluster and -seed-node/-mesh are mutually exclusive (a topology file already names every member)")
	}
	ccfg := cluster.Config{PingEvery: *pingEvery}
	var opts []pubsub.TCPOption
	if *dataDir != "" {
		opts = []pubsub.TCPOption{
			pubsub.WithDataDir(*dataDir),
			pubsub.WithJournalSync(*journalSync),
			pubsub.WithSnapshotInterval(*snapEvery),
		}
	}

	var (
		b    *pubsub.Broker
		node *cluster.Node
	)
	switch {
	case *clusterFile != "":
		topo, err := cluster.LoadTopology(*clusterFile)
		if err != nil {
			return err
		}
		node, b, err = cluster.Start(topo, *id, ccfg, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("brokerd %s listening on %s (topology %s, %d members)\n",
			*id, b.Addr(), *clusterFile, len(topo.Nodes))
	case len(seeds) > 0 || *mesh:
		policy, err := pubsub.ParsePolicy(*policyIn)
		if err != nil {
			return err
		}
		node, b, err = cluster.Join(*id, *listen, seeds, policy, pubsub.Config{
			ErrorProbability: *delta,
			Seed:             *seed,
		}, ccfg, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("brokerd %s listening on %s (policy %s, joining via %v)\n",
			*id, b.Addr(), policy, map[string]string(seeds))
	default:
		policy, err := pubsub.ParsePolicy(*policyIn)
		if err != nil {
			return err
		}
		b, err = pubsub.ListenBroker(*id, *listen, policy, pubsub.Config{
			ErrorProbability: *delta,
			Seed:             *seed,
		}, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("brokerd %s listening on %s (policy %s)\n", *id, b.Addr(), policy)
	}

	if rs, ok := b.Recovery(); ok {
		fmt.Printf("recovered from %s: %d subscriptions, %d clients, %d neighbors, %d members (%d snapshot ops, %d journal records, %d skipped",
			*dataDir, rs.Subscriptions, rs.Clients, rs.Neighbors, len(rs.Members), rs.SnapshotOps, rs.JournalRecords, rs.Skipped)
		if rs.Truncated {
			fmt.Printf(", torn tail of %d bytes discarded", rs.DroppedBytes)
		}
		fmt.Println(")")
		// Durable membership: a hand-wired broker (no -cluster /
		// -seed-node / -mesh this boot) that persisted a member list in
		// a previous life rejoins that overlay from disk — the cluster
		// layer adopts the recorded members and its reconnect loop
		// re-dials them, no seed node needed.
		if node == nil && len(rs.Members) > 0 {
			ccfg.Mesh = true
			node = cluster.Attach(b, ccfg)
			fmt.Printf("rejoining cluster from disk: %d recovered members\n", len(rs.Members))
		}
	}

	for name, addr := range peers {
		if err := dialWithRetry(b, name, addr, *retries); err != nil {
			return err
		}
		fmt.Printf("connected peer %s at %s\n", name, addr)
	}

	if *metricsAddr != "" {
		reg := b.Observability()
		if reg == nil {
			return fmt.Errorf("-metrics-addr: this transport exposes no metrics registry")
		}
		if node != nil {
			node.RegisterObservability(reg)
		}
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		msrv := &http.Server{Handler: reg.Handler()}
		go msrv.Serve(ln)
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if node != nil {
		fmt.Printf("membership at shutdown: %s\n", node)
		node.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	return b.Shutdown(ctx)
}

// dialWithRetry keeps trying so daemons can start in any order.
func dialWithRetry(b *pubsub.Broker, name, addr string, attempts int) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = b.ConnectPeer(name, addr); err == nil {
			return nil
		}
		time.Sleep(time.Second)
	}
	return fmt.Errorf("peer %s at %s unreachable: %w", name, addr, err)
}
