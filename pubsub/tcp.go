package pubsub

// TCP transport: brokers over real sockets — the deployable stack: a
// concurrent reader/writer pipeline around the binary wire codec.
//
// # Wire protocol
//
// Every frame on a connection is one length-prefixed binary frame (see
// codec.go). A link — to a client or to a peer broker — is ONE duplex
// connection: subscriptions travel over it toward publishers and
// publications come back on the reverse path. The dialer's first frame
// is a hello naming it (and whether it is a client); the acceptor
// registers the link and answers with an ack before any other frame,
// and a dialing broker reads that ack before it registers its own end.
// Hello and ack advertise the sender's cluster version, so both ends
// of a peer link know each other's from the handshake. A hello the
// acceptor cannot accept closes the connection with one
// handshake_refused flight event and nothing else: a foreign header
// version, bytes that are not a frame, or a frame that is not a hello.
// An ack the dialer cannot accept is a lost link.
//
// Every frame after the handshake carries one broker.Message —
// including the SUBBATCH/UNSUBBATCH bursts that feed batch admission.
// Both ends of a peer link run the same reader and writer, and each
// sends its own link sync (broker.Broker.LinkSync) once the link is up.
//
// A broker holds at most one live connection per name: install keeps
// one of two (a re-dial replaces the old connection; of two brokers'
// simultaneous dials, the smaller ID's survives). Re-dialing a lost
// link is left to the end configured with it: the cluster reconnect
// loop, or brokerd -peer.
//
// # Concurrency model
//
// The pipeline has three stages, and the serialization boundary is
// exactly the broker's own locking discipline (see internal/broker):
//
//   - one READER goroutine per connection decodes frames and
//     feeds them, in connection order, into broker.Handle. Publishes
//     run under the broker's shared lock — matching proceeds
//     CONCURRENTLY across connections — while subscribes and
//     unsubscribes take the exclusive lock, keeping coverage-table
//     admission ordered (per port by the reader's sequencing, across
//     ports by the lock). A reader that finds more publish frames
//     already buffered coalesces them (up to maxPublishCoalesce) into
//     ONE PUBBATCH: the broker pays its RWMutex once per run instead
//     of once per frame, and the run leaves as one PUBBATCH per
//     neighbor. A lone publish frame is handled, and forwarded, as the
//     PUBLISH it is.
//   - one WRITER per connection, the same at both ends (connWriter):
//     a send encodes its frame on the sender's goroutine into the
//     connection's pending buffer, and one goroutine writes whatever
//     is pending with one call per wake-up. A slow or stalled peer
//     never blocks matching beyond the pending bound, and concurrent
//     senders never interleave frame bytes.
//   - Shutdown stops readers at a frame boundary, waits for in-flight
//     handling, then closes the writers so every accepted frame is
//     written before the connections close.
//
// Per-destination delivery order is preserved end to end: a reader
// sends each frame's output before decoding the next, and a writer
// writes its frames in the order they were accepted.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probsum/internal/broker"
	"probsum/internal/obs"
	"probsum/internal/persist"
)

// Frame is the on-the-wire envelope of the TCP transport: a hello
// (Hello set), an ack (Ack set), or a message (Msg set).
type Frame struct {
	// Hello identifies the sender on the first frame of a connection.
	Hello string
	// Client marks a hello as coming from a client (not a broker).
	Client bool
	// Ack identifies the accepting broker on its first frame back.
	Ack string
	// Cluster advertises, on hello and ack frames, the cluster
	// membership protocol version the sender speaks (0 = none: such
	// peers are never sent ping/pong/gossip frames).
	Cluster uint8
	// Msg carries one protocol message on subsequent frames.
	Msg *broker.Message
}

// clusterProtoVersion is the membership protocol spoken by this build's
// cluster layer and advertised in hello/ack frames once a control
// handler is attached.
const clusterProtoVersion = 1

// TCPOption tunes the TCP transport.
type TCPOption func(*tcpConfig)

type tcpConfig struct {
	dataDir      string        // durability directory ("" = in-memory only)
	syncEvery    int           // journal fsync batch (0 = BrokerJournal default)
	snapInterval time.Duration // periodic snapshot cadence (0 = 30s)
}

// WithDataDir makes the broker durable: subscriptions, port
// registrations, and the publication-dedup window are journaled to an
// append-only fsync-batched log under dir, compacted by periodic
// snapshots, and a broker restarted over the same directory replays
// itself back to its pre-crash routing state — rejoining the overlay
// without clients re-announcing anything. The digest reconciliation
// protocol then repairs whatever diverged (the unsynced log tail lost
// to the crash, peer-side changes made while down).
func WithDataDir(dir string) TCPOption {
	return func(c *tcpConfig) { c.dataDir = dir }
}

// WithJournalSync sets the journal's fsync batch: the log is forced
// to stable storage once n events were appended since the last sync,
// where a record is one event and a publish run's pubids record counts
// each ID it holds (1 = every record; default 64). Smaller n narrows
// the window a crash can lose at the price of more fsyncs.
func WithJournalSync(n int) TCPOption {
	return func(c *tcpConfig) { c.syncEvery = n }
}

// WithSnapshotInterval sets the cadence of the periodic
// log-compacting snapshot (default 30s).
func WithSnapshotInterval(d time.Duration) TCPOption {
	return func(c *tcpConfig) { c.snapInterval = d }
}

// tcpPort is one link's sending side: the connection's writer and
// what the broker knows of the link. Its fields are set before install
// makes it visible; the writer's state is the port's liveness (alive,
// kill).
type tcpPort struct {
	*connWriter
	name   string
	peer   bool // a neighbor broker (as opposed to a client)
	dialed bool // this broker dialed the connection (see install)
	// cluster is the membership protocol version the destination
	// advertised in the handshake; control frames (ping/pong/gossip)
	// are dropped when it is 0 — peers without a cluster layer must
	// never see them.
	cluster uint8
	// stats counts frames sent toward this destination by wire kind
	// (atomic fixed-array adds — zero allocations on the frame path).
	stats *obs.LinkStats
}

// writeFrame encodes one handshake frame and writes it in a single
// call.
func writeFrame(conn net.Conn, fr *Frame) error {
	data, err := MarshalFrame(CodecBinary5, nil, fr)
	if err != nil {
		return err
	}
	_, err = conn.Write(data)
	return err
}

// tcpServer hosts one broker behind a TCP listener.
type tcpServer struct {
	b  *broker.Broker
	ln net.Listener

	mu sync.Mutex
	// +guarded_by:mu
	ports map[string]*tcpPort
	// +guarded_by:mu
	readers map[net.Conn]struct{}
	// hooks are the cluster layer's peer-link callbacks (up on an
	// established link, down on a lost one). Invoked on their own
	// goroutines so a callback may dial or send without deadlocking
	// against s.mu; the membership layer treats them idempotently.
	// +guarded_by:mu
	hooks struct {
		up, down func(peer string)
	}
	// clusterOn flips when a control handler attaches; hellos and acks
	// advertise the cluster protocol version only while it is set.
	clusterOn atomic.Bool

	// journal/jstore are the durability layer (nil without
	// WithDataDir); recovery holds the boot-time replay stats.
	journal  *BrokerJournal
	jstore   persist.Store
	recovery RecoveryStats
	durable  bool

	// reg is the server's observability registry; the stage histograms
	// below are cached out of it so frame paths never take its lock.
	reg      *obs.Registry
	hDecode  *obs.Histogram
	hEnqueue *obs.Histogram
	hWrite   *obs.Histogram
	obsClock func() time.Duration

	stopping chan struct{} // Shutdown began: stop accepting/registering

	readerWg sync.WaitGroup // accept loop, handshakes and per-connection readers
	writerWg sync.WaitGroup // per-port writers
	snapWg   sync.WaitGroup // periodic snapshot loop
	shutOnce sync.Once
	shutErr  error
}

// newTCPServer starts a server for the given broker on addr.
func newTCPServer(b *broker.Broker, addr string) (*tcpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: listen %s: %w", addr, err)
	}
	s := &tcpServer{
		b:        b,
		ln:       ln,
		ports:    make(map[string]*tcpPort),
		readers:  make(map[net.Conn]struct{}),
		stopping: make(chan struct{}),
	}
	s.obsClock = monoClock()
	s.reg = newServerRegistry(b, s.obsClock)
	s.hDecode = s.reg.Histogram(histFrameDecode)
	s.hEnqueue = s.reg.Histogram(histFrameEnqueue)
	s.hWrite = s.reg.Histogram(histFrameWrite)
	registerQueueDepths(s.reg, s)
	s.readerWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// addr returns the bound listener address.
func (s *tcpServer) addr() string { return s.ln.Addr().String() }

// newPort builds a port for one connection, its writer timed by the
// server's stage histograms; the caller sets the peer fields and
// installs it.
func (s *tcpServer) newPort(name string, conn net.Conn) *tcpPort {
	w := newConnWriter(conn)
	w.enqHist, w.writeHist, w.clock = s.hEnqueue, s.hWrite, s.obsClock
	return &tcpPort{connWriter: w, name: name, stats: s.reg.Link(name)}
}

// install registers p as the port for its name and starts its writer.
// A live port already serving the name is replaced when the same end
// dialed both connections (that end dialed again, so it gave up on
// the old one); when two brokers dialed each other, the connection
// dialed by the smaller ID is kept. install reports false, without
// registering p, when the live port is kept. Settling a peer's
// connections records one link_replaced flight event; the losing
// connection never fires the peer-down hook. A tie-break loser this
// broker dialed stays open until its acceptor, which may not have
// switched to the winner yet, closes it: closing it here would look
// like a lost link there. Its reader keeps dispatching what arrives
// and closes it at the end; every other loser is closed now.
func (s *tcpServer) install(p *tcpPort) (bool, error) {
	s.mu.Lock()
	select {
	case <-s.stopping:
		s.mu.Unlock()
		p.conn.Close()
		return false, fmt.Errorf("pubsub: broker %s is shutting down", s.b.ID())
	default:
	}
	if old := s.ports[p.name]; old != nil && old.alive() {
		reason, loser := "redial", old
		if old.dialed != p.dialed {
			reason = "tie-break"
			if p.dialed != (s.b.ID() < p.name) {
				loser = p
			}
		}
		if p.peer {
			s.reg.Flight().Record("link_replaced", s.b.ID(), p.name+" "+reason)
		}
		loser.kill()
		if !loser.dialed || reason != "tie-break" {
			loser.conn.Close()
		}
		if loser == p {
			s.mu.Unlock()
			return false, nil
		}
	}
	s.ports[p.name] = p
	// Count the writer before releasing the lock: shutdown closes the
	// registered ports' writers under the same lock, so a port is never
	// registered without its writer being awaited.
	s.writerWg.Add(1)
	s.mu.Unlock()
	go s.runPort(p)
	return true, nil
}

// runPort runs the port's writer and acts on why it ended: a killed
// port (replacement, lost link, hard close) belongs to whoever killed
// it; a port closed by shutdown was drained and closes its
// connection; a failed write or an unencodable message drops the port.
// Message loss on broken links is the lossy-environment behavior the
// protocol already tolerates.
func (s *tcpServer) runPort(p *tcpPort) {
	defer s.writerWg.Done()
	switch p.run() {
	case errKilled:
	case errClosed:
		p.conn.Close()
	default:
		s.drop(p)
	}
}

// drop tears down a port whose connection failed and closes the
// connection. The first teardown of a peer port that was not replaced
// reports the link lost, so the cluster layer's reconnect loop can
// engage.
func (s *tcpServer) drop(p *tcpPort) {
	first := p.kill()
	p.conn.Close()
	if first && p.peer {
		s.firePeerHook(p.name, false)
	}
}

// firePeerHook records peer_up or peer_down and invokes the cluster
// layer's matching link hook on its own goroutine (a hook may dial or
// send, which takes s.mu). No hook fires once shutdown began.
func (s *tcpServer) firePeerHook(id string, up bool) {
	kind := "peer_down"
	s.mu.Lock()
	h := s.hooks.down
	if up {
		kind, h = "peer_up", s.hooks.up
	}
	s.mu.Unlock()
	s.reg.Flight().Record(kind, s.b.ID(), id)
	select {
	case <-s.stopping:
	default:
		if h != nil {
			go h(id)
		}
	}
}

// setPeerHooks registers the cluster layer's link callbacks.
func (s *tcpServer) setPeerHooks(up, down func(peer string)) {
	s.mu.Lock()
	s.hooks.up, s.hooks.down = up, down
	s.mu.Unlock()
}

// clusterVer is the cluster protocol version to advertise right now.
func (s *tcpServer) clusterVer() uint8 {
	if s.clusterOn.Load() {
		return clusterProtoVersion
	}
	return 0
}

// linkCluster reports the cluster protocol version a peer advertised
// in the handshake of its current (or last) connection.
func (s *tcpServer) linkCluster(id string) uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.ports[id]; p != nil && p.peer {
		return p.cluster
	}
	return 0
}

// livePeer returns the live port to a peer broker, or nil.
func (s *tcpServer) livePeer(id string) *tcpPort {
	s.mu.Lock()
	p := s.ports[id]
	s.mu.Unlock()
	if p == nil || !p.peer || !p.alive() {
		return nil
	}
	return p
}

// sendPeer sends one message to a peer broker. It reports whether a
// live link to the peer existed and the message passed the cluster
// gate — delivery itself stays best-effort, like all sends.
func (s *tcpServer) sendPeer(id string, msg broker.Message) bool {
	p := s.livePeer(id)
	return p != nil && s.sendTo(p, msg)
}

// send sends one outbound message; it drops when the destination is
// unknown.
func (s *tcpServer) send(o broker.Outbound) {
	s.mu.Lock()
	p := s.ports[o.To]
	s.mu.Unlock()
	if p != nil {
		s.sendTo(p, o.Msg)
	}
}

// sendTo sends one message on a resolved port and reports whether it
// passed the cluster gate. It waits while the port's pending bound is
// reached (backpressure) and drops when the port is dead — transient
// absence is the lossy-link behavior the protocol already tolerates.
// A message the port cannot encode is dropped with the port, after the
// frames accepted before it. Control frames (ping, pong, gossip,
// ping-req, gossip-delta) are dropped, counted, toward destinations
// that advertised no cluster layer — a hand-wired peer: membership
// does not extend to them.
func (s *tcpServer) sendTo(p *tcpPort, msg broker.Message) bool {
	if msg.Kind.IsControl() && p.cluster == 0 {
		s.b.CountControlDrop()
		s.reg.Flight().Record("frame_drop", s.b.ID(), p.name+" "+msg.Kind.String())
		return false
	}
	p.stats.Sent(int(msg.Kind))
	// A writer that still accepts sends refuses only a frame it cannot
	// encode; finishing one that already ended changes nothing.
	if err := p.send(context.Background(), msg); err != nil {
		p.finish(err)
	}
	return true
}

// dispatch runs one inbound message through the broker and fans the
// results out to the ports in order. A message the broker refuses
// still sends what the broker decided before the refusal (see
// broker.Broker.Handle); the caller then drops the port.
func (s *tcpServer) dispatch(from string, msg broker.Message) error {
	outs, err := s.b.Handle(from, msg)
	for _, o := range outs {
		s.send(o)
	}
	return err
}

// acceptLoop admits connections until the listener closes.
func (s *tcpServer) acceptLoop() {
	defer s.readerWg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stopping:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.readerWg.Add(1)
		go s.serveConn(conn)
	}
}

// trackReader registers a connection's reader so Shutdown can stop its
// decoder at a frame boundary and wait for it. Returns false when the
// server is already stopping: the port's writer then closes the
// connection once shutdown has drained it.
func (s *tcpServer) trackReader(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stopping:
		return false
	default:
	}
	s.readers[conn] = struct{}{}
	s.readerWg.Add(1)
	return true
}

func (s *tcpServer) untrackReader(conn net.Conn) {
	s.mu.Lock()
	delete(s.readers, conn)
	s.mu.Unlock()
	s.readerWg.Done()
}

// maxPublishCoalesce caps how many already-buffered publish frames a
// reader folds into one run — one PUBBATCH through the broker —
// bounding the latency a coalesced run can add ahead of a queued
// subscribe.
const maxPublishCoalesce = 64

// serveConn runs the accepting end of the handshake — read the hello,
// register the neighbor or client and its port, whose first frame is
// the ack — and then serves the connection.
func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.readerWg.Done()
	r := newFrameReader(conn)
	var hello Frame
	if err := r.read(&hello); err != nil || hello.Hello == "" {
		// Refused: a foreign header version, bytes that are not a frame,
		// or a frame that is not a hello. A connection that closed before
		// saying anything is not worth an event.
		if !errors.Is(err, io.EOF) {
			s.reg.Flight().Record("handshake_refused", s.b.ID(), conn.RemoteAddr().String())
		}
		conn.Close()
		return
	}
	p := s.newPort(hello.Hello, conn)
	// The writer is not running yet, so the ack is the first frame.
	p.sendFrame(context.Background(), &Frame{Ack: s.b.ID(), Cluster: s.clusterVer()})
	if hello.Client {
		s.b.AttachClient(p.name)
	} else {
		if err := s.b.ConnectNeighbor(p.name); err != nil {
			conn.Close()
			return
		}
		p.peer, p.cluster = true, hello.Cluster
	}
	if ok, _ := s.install(p); !ok {
		return
	}
	if p.peer {
		s.linkUp(p)
	}
	if s.trackReader(conn) {
		s.serve(p, r)
	}
}

// dialPeer dials a neighbor broker at addr, sends the hello, reads the
// ack, and only then registers the link, and reports whether THIS
// call established it: false (with nil error) when a live link
// already existed — then nothing is dialed — or when the neighbor's
// own concurrent dial won the tie-break (see install). An established
// link has sent its link sync when dialPeer returns.
func (s *tcpServer) dialPeer(id, addr string) (bool, error) {
	if s.livePeer(id) != nil {
		return false, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerDialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return false, fmt.Errorf("pubsub: dial peer %s at %s: %w", id, addr, err)
	}
	r, ack, ackErr := handshake(ctx, conn, &Frame{Hello: s.b.ID(), Cluster: s.clusterVer()})
	if err := s.b.ConnectNeighbor(id); err != nil {
		conn.Close()
		return false, err
	}
	p := s.newPort(id, conn)
	p.peer, p.dialed, p.cluster = true, true, ack.Cluster
	ok, err := s.install(p)
	switch {
	case err != nil:
		return false, err
	case ok && ackErr != nil:
		// A handshake that failed — a foreign version, a refused
		// duplicate, the neighbor going away — is a lost link.
		s.drop(p)
		return true, nil
	case ok:
		s.linkUp(p)
	}
	// A connection that lost the tie-break is read until the neighbor
	// closes it.
	if s.trackReader(conn) {
		go s.serve(p, r)
	} else if !ok {
		conn.Close()
	}
	return ok, nil
}

// peerDialTimeout bounds a single peer dial attempt, its handshake
// included, so a reconnect loop probing a dead host cannot stall for
// the kernel's full connect timeout.
const peerDialTimeout = 3 * time.Second

// handshake sends hello on a freshly dialed connection and reads the
// acceptor's ack. ctx bounds the exchange: a context that ends first
// closes the connection, which is what unblocks it.
func handshake(ctx context.Context, conn net.Conn, hello *Frame) (*frameReader, Frame, error) {
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	r := newFrameReader(conn)
	var ack Frame
	err := writeFrame(conn, hello)
	if err == nil {
		err = r.read(&ack)
	}
	if err == nil && ack.Ack == "" {
		err = errors.New("first frame back is not an ack")
	}
	if !stop() {
		err = ctx.Err()
	}
	return r, ack, err
}

// linkUp starts a freshly installed peer link: its link sync — the
// coverage roots for the neighbor as ONE SUBBATCH — is sent first,
// then the cluster layer hears that the link is up.
func (s *tcpServer) linkUp(p *tcpPort) {
	for _, o := range s.b.LinkSync(p.name) {
		s.sendTo(p, o.Msg)
	}
	s.firePeerHook(p.name, true)
}

// serve reads a tracked connection until it ends, feeding messages in
// connection order into the dispatch pipeline and coalescing buffered
// publish runs. Both ends of a peer link and the broker end of a
// client's run it. A connection that ends — or sends what the broker
// refuses — tears its port down, except that during shutdown the
// writer of a live port drains it and closes the connection.
func (s *tcpServer) serve(p *tcpPort, r *frameReader) {
	defer func() {
		s.untrackReader(p.conn)
		select {
		case <-s.stopping:
			if p.alive() {
				return
			}
		default:
		}
		s.drop(p)
	}()
	r.instrument(s.hDecode, s.obsClock)
	from := p.name
	var (
		fr      Frame
		pubRun  []broker.BatchPub
		pending bool // fr holds a frame read ahead by the coalescer
	)
	for {
		if !pending {
			if err := r.read(&fr); err != nil {
				return
			}
		}
		pending = false
		if fr.Msg == nil {
			continue
		}
		p.stats.Recv(int(fr.Msg.Kind))
		if fr.Msg.Kind != broker.MsgPublish {
			if err := s.dispatch(from, *fr.Msg); err != nil {
				return
			}
			continue
		}
		// Publish: fold in whatever publish frames the kernel already
		// delivered. A run of one is handled as the PUBLISH it is; a
		// longer run as one PUBBATCH, which pays the broker's shared
		// lock once and leaves as one PUBBATCH per neighbor. A buffered
		// non-publish frame ends the run and is handled on the next
		// iteration.
		msg := *fr.Msg
		pubRun = append(pubRun[:0], broker.BatchPub{PubID: msg.PubID, Pub: msg.Pub})
		var runErr error
		for len(pubRun) < maxPublishCoalesce {
			ok, err := r.tryRead(&fr)
			if err != nil {
				runErr = err
				break
			}
			if !ok {
				break
			}
			if fr.Msg == nil {
				continue
			}
			if fr.Msg.Kind != broker.MsgPublish {
				pending = true
				break
			}
			p.stats.Recv(int(fr.Msg.Kind))
			pubRun = append(pubRun, broker.BatchPub{PubID: fr.Msg.PubID, Pub: fr.Msg.Pub})
		}
		if len(pubRun) > 1 {
			msg = broker.Message{Kind: broker.MsgPublishBatch, Pubs: pubRun}
		}
		if err := s.dispatch(from, msg); err != nil || runErr != nil {
			return
		}
	}
}

// closeRead shuts the read side of a connection so its decoder stops
// at the next frame boundary while queued writes still flush.
func closeRead(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseRead()
		return
	}
	conn.Close()
}

// shutdown gracefully stops the server: no new connections, readers
// stopped at a frame boundary, in-flight messages handled, writers
// drained, then all connections closed. The context bounds the drain;
// on expiry every port is killed, which abandons its pending frames
// and wakes the senders waiting for room, and connections close hard.
func (s *tcpServer) shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		close(s.stopping)
		s.ln.Close()
		s.mu.Lock()
		for conn := range s.readers {
			closeRead(conn)
		}
		s.mu.Unlock()

		done := make(chan struct{})
		go func() {
			s.readerWg.Wait()
			// Readers are gone: nobody sends anymore, so closing the
			// writers lets each drain to the last frame and exit.
			s.mu.Lock()
			for _, p := range s.ports {
				p.finish(errClosed)
			}
			s.mu.Unlock()
			s.writerWg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = ctx.Err()
			s.mu.Lock()
			for _, p := range s.ports {
				p.kill()
				p.conn.Close()
			}
			for conn := range s.readers {
				conn.Close()
			}
			s.mu.Unlock()
			<-done
		}
		// Drain complete: every in-flight message has been applied, so
		// the final snapshot captures the broker's last state and the
		// next boot replays nothing from the journal.
		s.snapWg.Wait()
		if s.journal != nil {
			if err := s.journal.Snapshot(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
		}
		if s.jstore != nil {
			if err := s.jstore.Close(); err != nil && s.shutErr == nil {
				s.shutErr = err
			}
		}
	})
	return s.shutErr
}

// snapshotLoop compacts the journal on a fixed cadence until
// shutdown.
func (s *tcpServer) snapshotLoop(interval time.Duration) {
	defer s.snapWg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopping:
			return
		case <-t.C:
			s.journal.Snapshot()
		}
	}
}

// ListenBroker starts one broker listening on addr (e.g.
// "127.0.0.1:0" or ":7001") — the standalone daemon form used by
// cmd/brokerd. Peer links are added with Broker.ConnectPeer; clients
// connect with Dial. Stop it with Broker.Shutdown. It rejects an
// invalid policy and a nonzero Config.DropRate (see validateTCP).
func ListenBroker(id, addr string, policy Policy, cfg Config, opts ...TCPOption) (*Broker, error) {
	if err := validateTCP(policy, cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b, err := broker.New(id, policy,
		broker.WithSeed(cfg.Seed),
		broker.WithTableOptions(cfg.TableOptions()...))
	if err != nil {
		return nil, err
	}
	var tc tcpConfig
	for _, opt := range opts {
		opt(&tc)
	}
	var (
		st  persist.Store
		j   *BrokerJournal
		rec RecoveryStats
	)
	if tc.dataDir != "" {
		ds, err := persist.Open(tc.dataDir)
		if err != nil {
			return nil, err
		}
		rec, err = RecoverBroker(b, ds)
		if err != nil {
			ds.Close()
			return nil, fmt.Errorf("pubsub: recover %s: %w", tc.dataDir, err)
		}
		j = NewBrokerJournal(b, ds, tc.syncEvery)
		b.SetJournal(j)
		st = ds
	}
	srv, err := newTCPServer(b, addr)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	srv.journal, srv.jstore, srv.recovery, srv.durable = j, st, rec, st != nil
	if srv.durable {
		registerRecoveryStats(srv.reg, rec)
	}
	if j != nil {
		iv := tc.snapInterval
		if iv <= 0 {
			iv = 30 * time.Second
		}
		srv.snapWg.Add(1)
		go srv.snapshotLoop(iv)
	}
	return &Broker{id: id, core: b, srv: srv}, nil
}

// TCPTransport hosts the overlay on real sockets within one process:
// every broker gets its own loopback listener, Connect dials one peer
// link, and Open dials a real client connection. It exists so
// the same program (and the same tests) can run against the
// deployable stack; multi-process deployments use ListenBroker and
// Dial directly.
type TCPTransport struct {
	policy Policy
	cfg    Config
	opts   []TCPOption

	mu       sync.Mutex
	brokers  map[string]*Broker
	clients  []*Client
	shutdown bool
}

// validateTCP checks what a TCP broker is given: a valid policy, and
// no Config.DropRate, a simulator-only feature: TCP links get their
// loss from the real network.
func validateTCP(policy Policy, cfg Config) error {
	if err := policy.Validate(); err != nil {
		return fmt.Errorf("pubsub: %w", err)
	}
	if cfg.DropRate > 0 {
		return fmt.Errorf("pubsub: failure injection is simulator-only; TCP transports take real losses")
	}
	return nil
}

// NewTCPTransport creates an empty TCP overlay with the given coverage
// policy and tuning. Brokers listen on ephemeral loopback ports. It
// rejects what ListenBroker would (see validateTCP).
func NewTCPTransport(policy Policy, cfg Config, opts ...TCPOption) (*TCPTransport, error) {
	if err := validateTCP(policy, cfg); err != nil {
		return nil, err
	}
	return &TCPTransport{
		policy:  policy,
		cfg:     cfg,
		opts:    opts,
		brokers: make(map[string]*Broker),
	}, nil
}

var _ Transport = (*TCPTransport)(nil)

// AddBroker creates a broker node listening on an ephemeral loopback
// port.
func (t *TCPTransport) AddBroker(id string) (*Broker, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shutdown {
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	if _, dup := t.brokers[id]; dup {
		return nil, fmt.Errorf("pubsub: duplicate broker %s", id)
	}
	b, err := ListenBroker(id, "127.0.0.1:0", t.policy, t.cfg, t.opts...)
	if err != nil {
		return nil, err
	}
	t.brokers[id] = b
	return b, nil
}

// Broker returns a previously added broker.
func (t *TCPTransport) Broker(id string) (*Broker, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.brokers[id]
	return b, ok
}

// Brokers lists broker IDs, sorted.
func (t *TCPTransport) Brokers() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.brokers))
	for id := range t.brokers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Connect links two brokers: a dials b, and the one duplex connection
// carries both directions.
func (t *TCPTransport) Connect(a, b string) error {
	t.mu.Lock()
	ba, oka := t.brokers[a]
	bb, okb := t.brokers[b]
	t.mu.Unlock()
	if !oka {
		return fmt.Errorf("pubsub: unknown broker %s", a)
	}
	if !okb {
		return fmt.Errorf("pubsub: unknown broker %s", b)
	}
	_, err := ba.ConnectPeer(b, bb.Addr())
	return err
}

// Open dials a client connection to the given broker.
func (t *TCPTransport) Open(ctx context.Context, clientName, brokerID string) (*Client, error) {
	t.mu.Lock()
	b, ok := t.brokers[brokerID]
	down := t.shutdown
	t.mu.Unlock()
	if down {
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	if !ok {
		return nil, fmt.Errorf("pubsub: unknown broker %s", brokerID)
	}
	c, err := Dial(ctx, b.Addr(), clientName)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.shutdown {
		// Shutdown began while we were dialing and has already
		// snapshotted t.clients; close the latecomer instead of
		// leaking its connection and pump goroutine.
		t.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("pubsub: transport is shut down")
	}
	t.clients = append(t.clients, c)
	t.mu.Unlock()
	return c, nil
}

// Settle polls the summed broker metrics until they are unchanged over
// a few consecutive polls — the TCP stand-in for the simulator's
// run-to-quiescence. It only observes this transport's brokers, so it
// cannot vouch for overlays spanning processes.
func (t *TCPTransport) Settle(ctx context.Context) error {
	const (
		interval = 10 * time.Millisecond
		stable   = 5 // consecutive unchanged polls to declare quiescence
	)
	var last Metrics
	streak := 0
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		var sum Metrics
		t.mu.Lock()
		for _, b := range t.brokers {
			sum.Add(b.Metrics())
		}
		t.mu.Unlock()
		if !first && sum == last {
			streak++
			if streak >= stable {
				return nil
			}
		} else {
			streak = 0
		}
		last = sum
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Shutdown closes every client and gracefully stops every broker
// within the context's deadline.
func (t *TCPTransport) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.shutdown = true
	clients := t.clients
	brokers := make([]*Broker, 0, len(t.brokers))
	for _, b := range t.brokers {
		brokers = append(brokers, b)
	}
	t.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	var firstErr error
	for _, b := range brokers {
		if err := b.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Dial connects a client to a broker's listen address — the
// cross-process form of Transport.Open, used by cmd/psclient. The
// name identifies the client on its broker; redialing with the same
// name replaces the previous connection and resumes its
// subscriptions. Dial returns once the broker's ack has arrived, so a
// refused handshake (a broker speaking another frame version, a
// listener that is not a broker) is an error here; the context bounds
// the wait.
func Dial(ctx context.Context, addr, name string) (*Client, error) {
	if name == "" {
		return nil, fmt.Errorf("pubsub: empty client name")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial %s: %w", addr, err)
	}
	r, _, err := handshake(ctx, conn, &Frame{Hello: name, Client: true})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("pubsub: handshake with %s: %w", addr, err)
	}
	w := newConnWriter(conn)
	go w.run()
	c := &Client{name: name, impl: w, q: newNotifyQueue()}
	go readNotifications(r, c.q)
	return c, nil
}

// readNotifications feeds pushed notifications into the queue, one
// frame at a time, until the connection closes.
func readNotifications(r *frameReader, q *notifyQueue) {
	var (
		fr Frame
		ns []Notification
	)
	for r.read(&fr) == nil {
		if fr.Msg != nil {
			ns = appendNotifications(ns[:0], fr.Msg)
			q.pushAll(ns)
		}
	}
	q.finish()
}

// maxPending bounds the encoded bytes a connection's writer holds: a
// send that finds this much pending waits for the writer to take it.
const maxPending = 256 << 10

// clientCloseDrain bounds how long a client's Close waits for its
// writer to flush what was already accepted before it closes the
// connection under it.
const clientCloseDrain = 5 * time.Second

var (
	// errClosed ends a writer closed gracefully (shutdown, Client.Close):
	// what was accepted is written first. Later sends return it.
	errClosed = fmt.Errorf("pubsub: connection closed: %w", net.ErrClosed)
	// errKilled ends a killed port's writer at once, pending frames
	// abandoned.
	errKilled = errors.New("pubsub: port killed")
)

// connWriter is the sending side of one connection, a broker's port or
// a client alike. A send encodes its frame on the caller's goroutine
// into pending, so the caller may reuse what it passed at once; one
// goroutine (run) swaps the buffer out and writes it with one call per
// wake-up, so the sends that arrive while a write is in flight leave
// together in the next, in the order they were accepted.
type connWriter struct {
	conn net.Conn
	// enqHist and writeHist, set on a port's writer only, time a send's
	// wait to be accepted and each frame's encode+write (see run); clock
	// is nil on a client's writer, which is not timed.
	enqHist, writeHist *obs.Histogram
	clock              func() time.Duration

	mu sync.Mutex
	// ready wakes the writer: pending gained bytes or err was set.
	ready *sync.Cond
	// room wakes senders waiting on the pending bound: the writer took
	// the buffer, err was set, or a waiter's context ended.
	room *sync.Cond
	// +guarded_by:mu
	pending []byte
	// frames counts the frames in pending, and encode their summed
	// encode time.
	// +guarded_by:mu
	frames int
	// +guarded_by:mu
	encode time.Duration
	// err, once set, refuses every later send: errClosed or the cause
	// passed to finish (pending is still written), errKilled, or the
	// first write error (pending is abandoned).
	// +guarded_by:mu
	err  error
	done chan struct{} // closed when run returns
}

// newConnWriter wraps a connection; the caller starts run.
func newConnWriter(conn net.Conn) *connWriter {
	w := &connWriter{conn: conn, done: make(chan struct{})}
	w.ready = sync.NewCond(&w.mu)
	w.room = sync.NewCond(&w.mu)
	return w
}

// send sends one message (see sendFrame).
func (w *connWriter) send(ctx context.Context, msg broker.Message) error {
	return w.sendFrame(ctx, &Frame{Msg: &msg})
}

// sendFrame encodes fr onto the pending buffer and returns: the frame
// is accepted, and fr's slices are the caller's again. A send that
// finds maxPending bytes pending waits for the writer to take them,
// for the writer to end, or for ctx to end; ctx bounds that wait, not
// the write. A frame that does not encode is refused and changes
// nothing; a writer that ended refuses with its err.
func (w *connWriter) sendFrame(ctx context.Context, fr *Frame) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var t0 time.Duration
	if w.clock != nil {
		t0 = w.clock()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && len(w.pending) >= maxPending {
		if err := w.waitRoom(ctx); err != nil {
			return err
		}
	}
	if w.err != nil {
		return w.err
	}
	var t1 time.Duration
	if w.clock != nil {
		t1 = w.clock()
		w.enqHist.Observe(t1 - t0)
	}
	wake := len(w.pending) == 0
	var err error
	if w.pending, err = MarshalFrame(CodecBinary5, w.pending, fr); err != nil {
		return fmt.Errorf("pubsub: send: %w", err)
	}
	w.frames++
	if w.clock != nil {
		w.encode += w.clock() - t1
	}
	if wake {
		w.ready.Signal()
	}
	return nil
}

// waitRoom waits until the pending bytes drop below maxPending, the
// writer ends, or ctx ends, whose error it returns.
//
// +mustlock:mu
func (w *connWriter) waitRoom(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		w.room.Broadcast()
		w.mu.Unlock()
	})
	defer stop()
	for w.err == nil && len(w.pending) >= maxPending {
		if err := ctx.Err(); err != nil {
			return err
		}
		w.room.Wait()
	}
	return nil
}

// run is the writer: it takes whatever is pending and writes it in one
// call, until err is set and nothing is left to write, and returns err.
// A timed writer observes each written frame once in writeHist, the
// frames' encode time and the write's duration split evenly.
func (w *connWriter) run() error {
	defer close(w.done)
	var buf []byte
	for {
		w.mu.Lock()
		for len(w.pending) == 0 && w.err == nil {
			w.ready.Wait()
		}
		if len(w.pending) == 0 {
			err := w.err
			w.mu.Unlock()
			return err
		}
		buf, w.pending = w.pending, buf[:0]
		frames, encode := w.frames, w.encode
		w.frames, w.encode = 0, 0
		w.room.Broadcast()
		w.mu.Unlock()
		var t0 time.Duration
		if w.clock != nil {
			t0 = w.clock()
		}
		_, err := w.conn.Write(buf)
		if w.clock != nil {
			share := (encode + w.clock() - t0) / time.Duration(frames)
			for range frames {
				w.writeHist.Observe(share)
			}
		}
		if err != nil {
			return w.failed(err)
		}
		// A burst far past the bound (one huge batch) does not pin its
		// buffer for the connection's lifetime.
		if cap(buf) > 2*maxPending {
			buf = nil
		}
	}
}

// failed records a write error, abandons what is pending and returns
// the writer's err. The error replaces errClosed, so a flush that
// failed is reported as such, but not a kill or finish's cause.
func (w *connWriter) failed(werr error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil || w.err == errClosed {
		w.err = fmt.Errorf("pubsub: send: %w", werr)
	}
	w.pending, w.frames, w.encode = nil, 0, 0
	w.room.Broadcast()
	return w.err
}

// finish refuses later sends with cause, unless the writer already
// ended; the writer writes what is pending and returns cause.
func (w *connWriter) finish(cause error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = cause
	}
	w.ready.Signal()
	w.room.Broadcast()
}

// kill ends the writer without writing what is pending and wakes the
// senders waiting for room. It reports whether this call killed it.
func (w *connWriter) kill() (first bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	first = w.err != errKilled
	w.err, w.pending, w.frames, w.encode = errKilled, nil, 0, 0
	w.ready.Signal()
	w.room.Broadcast()
	return first
}

// alive reports whether the writer has not been killed.
func (w *connWriter) alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != errKilled
}

// depth is the number of frames accepted and not yet taken by the
// writer.
func (w *connWriter) depth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames
}

// close closes a client's writer: it stops accepting sends, waits up to
// clientCloseDrain for the writer to flush what was accepted, and
// closes the connection. It reports a flush that did not finish: the
// drain timed out, or a write failed, now or before.
func (w *connWriter) close() error {
	w.finish(errClosed)
	t := time.NewTimer(clientCloseDrain)
	defer t.Stop()
	select {
	case <-w.done:
	case <-t.C:
		w.conn.Close()
		return fmt.Errorf("pubsub: close: unsent frames dropped after %v", clientCloseDrain)
	}
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	cerr := w.conn.Close()
	if err != errClosed {
		return err
	}
	return cerr
}
