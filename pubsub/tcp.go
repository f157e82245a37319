package pubsub

// TCP transport: brokers over real sockets — the deployable stack: a
// concurrent reader/writer pipeline around the binary wire codec.
//
// # Wire protocol
//
// Every frame on a connection is one length-prefixed binary frame (see
// codec.go). The first is a hello identifying the sender (and whether
// it is a client or a peer broker); the accepting side answers with an
// ack naming its broker. Both advertise whether the sender runs a
// cluster layer. A hello the acceptor cannot accept — a foreign header
// version, bytes that are not a frame, a frame that is not a hello —
// closes the connection with one handshake_refused flight event and
// nothing else; an ack the dialer cannot accept is a lost link.
//
// Every frame after the handshake carries one broker.Message —
// including the SUBBATCH/UNSUBBATCH bursts that feed batch admission.
// Peer brokers hold one outbound connection per direction (A dials B
// and B dials A), so no multiplexing is needed; clients hold a single
// duplex connection on which the ack and notifications are pushed
// back.
//
// # Concurrency model
//
// The pipeline has three stages, and the serialization boundary is
// exactly the broker's own locking discipline (see internal/broker):
//
//   - one READER goroutine per inbound connection decodes frames and
//     feeds them, in connection order, into broker.Handle. Publishes
//     run under the broker's shared lock — matching proceeds
//     CONCURRENTLY across connections — while subscribes and
//     unsubscribes take the exclusive lock, keeping coverage-table
//     admission ordered (per port by the reader's sequencing, across
//     ports by the lock). A reader that finds more publish frames
//     already buffered coalesces them (up to maxPublishCoalesce) into
//     ONE HandlePublishBatch call, paying the RWMutex once per run
//     instead of once per frame at high rates.
//   - one WRITER goroutine per outbound port encodes frames from a
//     buffered queue into pooled buffers, so a slow or stalled peer
//     never blocks matching and concurrent publishes never interleave
//     frame bytes.
//   - Shutdown stops readers at a frame boundary, waits for in-flight
//     handling, then closes the writer queues so every already-queued
//     frame drains before the connections close.
//
// Per-destination delivery order is preserved end to end: a reader
// enqueues each frame's output before decoding the next, and a single
// writer drains each queue in FIFO order.

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
	// Addr carries a dialing broker's own listen address so the
	// accepting side can dial back and complete the bidirectional
	// link without being configured with the peer itself (best-effort:
	// useful when the address is reachable from the acceptor).
	Addr string
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
	queueLen int

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
// to stable storage after every n-th record (1 = every record;
// default 64). Smaller n narrows the window a crash can lose at the
// price of more fsyncs on the subscribe path.
func WithJournalSync(n int) TCPOption {
	return func(c *tcpConfig) { c.syncEvery = n }
}

// WithSnapshotInterval sets the cadence of the periodic
// log-compacting snapshot (default 30s).
func WithSnapshotInterval(d time.Duration) TCPOption {
	return func(c *tcpConfig) { c.snapInterval = d }
}

// WithSendQueue sets the per-port outbound queue length (default 256
// frames). A full queue applies backpressure to the readers that are
// producing for it.
func WithSendQueue(n int) TCPOption {
	return func(c *tcpConfig) { c.queueLen = n }
}

// tcpPort is one outbound destination: a connection, its writer
// goroutine's queue, and a kill switch.
type tcpPort struct {
	name string
	peer bool // a neighbor broker (as opposed to a client)
	conn net.Conn
	// cluster is the membership protocol version the destination
	// advertised; control frames (ping/pong/gossip) are dropped when
	// it is 0 — peers without a cluster layer must never see them.
	// Peer ports learn it when the peer's hello or ack arrives.
	cluster atomic.Uint32
	ch      chan broker.Message
	dead    chan struct{} // closed when the port is torn down mid-stream
	once    sync.Once

	// stats counts frames queued toward this destination by wire kind
	// (atomic fixed-array adds — zero allocations on the frame path);
	// writeHist/clock time the encode+write stage. All three are set
	// once in addPort, before the port is visible to senders.
	stats     *obs.LinkStats
	writeHist *obs.Histogram
	clock     func() time.Time
}

// writeFrame encodes one handshake or message frame into a pooled
// buffer and writes it in a single call.
func writeFrame(conn net.Conn, fr *Frame) error {
	buf := getEncBuf()
	defer putEncBuf(buf)
	data, err := MarshalFrame(CodecBinary5, (*buf)[:0], fr)
	*buf = data[:0]
	if err != nil {
		return err
	}
	_, err = conn.Write(data)
	return err
}

// write sends one queued message, timing the encode+write stage.
func (p *tcpPort) write(msg *broker.Message) error {
	t0 := p.clock()
	err := writeFrame(p.conn, &Frame{Msg: msg})
	p.writeHist.Observe(p.clock().Sub(t0))
	return err
}

// kill marks the port dead: senders stop enqueueing and the writer
// exits without draining. It reports whether this call was the one
// that killed it.
func (p *tcpPort) kill() (first bool) {
	p.once.Do(func() { close(p.dead); first = true })
	return first
}

// alive reports whether the port has not been killed.
func (p *tcpPort) alive() bool {
	select {
	case <-p.dead:
		return false
	default:
		return true
	}
}

// tcpServer hosts one broker behind a TCP listener.
type tcpServer struct {
	b   *broker.Broker
	ln  net.Listener
	cfg tcpConfig

	mu sync.Mutex
	// +guarded_by:mu
	ports map[string]*tcpPort
	// +guarded_by:mu
	readers map[net.Conn]struct{}
	// peerClu records, per peer broker, the cluster protocol version
	// it advertised (hello on its inbound connection, or ack on our
	// outbound one).
	// +guarded_by:mu
	peerClu map[string]uint8
	// hooks are the cluster layer's peer-link callbacks (up on an
	// established outbound link, down on a lost one). Invoked on their
	// own goroutines so a callback may dial or send without deadlocking
	// against s.mu. Events are at-least-once: a replaced connection or
	// a redial can surface spurious down/up pairs, and the membership
	// layer is expected to treat them idempotently.
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
	obsClock func() time.Time

	stopping chan struct{} // Shutdown began: stop accepting/registering
	closed   chan struct{} // hard close: abandon queued frames

	readerWg sync.WaitGroup // accept loop + per-connection readers
	writerWg sync.WaitGroup // per-port writers
	snapWg   sync.WaitGroup // periodic snapshot loop
	shutOnce sync.Once
	shutErr  error
}

// newTCPServer starts a server for the given broker on addr.
func newTCPServer(b *broker.Broker, addr string, cfg tcpConfig) (*tcpServer, error) {
	if cfg.queueLen <= 0 {
		cfg.queueLen = 256
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: listen %s: %w", addr, err)
	}
	s := &tcpServer{
		b:        b,
		ln:       ln,
		cfg:      cfg,
		ports:    make(map[string]*tcpPort),
		readers:  make(map[net.Conn]struct{}),
		peerClu:  make(map[string]uint8),
		stopping: make(chan struct{}),
		closed:   make(chan struct{}),
	}
	s.reg = newServerRegistry(b)
	s.hDecode = s.reg.Histogram(histFrameDecode)
	s.hEnqueue = s.reg.Histogram(histFrameEnqueue)
	s.hWrite = s.reg.Histogram(histFrameWrite)
	s.obsClock = time.Now
	registerQueueDepths(s.reg, s)
	s.readerWg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// addr returns the bound listener address.
func (s *tcpServer) addr() string { return s.ln.Addr().String() }

func (s *tcpServer) metrics() Metrics { return s.b.Metrics() }

func (s *tcpServer) core() *broker.Broker { return s.b }

// errPortExists reports that a live port already serves the name.
var errPortExists = errors.New("pubsub: port already connected")

// addPort registers an outbound port and starts its writer. With
// replace=true (clients: a redial takes over the stream) any previous
// port is killed; with replace=false (peers: concurrent dials from
// ConnectPeer and the hello dial-back converge on one link) a live
// existing port wins and errPortExists is returned.
func (s *tcpServer) addPort(name string, conn net.Conn, replace, peer bool) (*tcpPort, error) {
	p := &tcpPort{
		name:      name,
		peer:      peer,
		conn:      conn,
		ch:        make(chan broker.Message, s.cfg.queueLen),
		dead:      make(chan struct{}),
		stats:     s.reg.Link(name),
		writeHist: s.hWrite,
		clock:     s.obsClock,
	}
	s.mu.Lock()
	select {
	case <-s.stopping:
		s.mu.Unlock()
		return nil, fmt.Errorf("pubsub: broker %s is shutting down", s.b.ID())
	default:
	}
	if peer {
		p.cluster.Store(uint32(s.peerClu[name]))
	}
	if old, ok := s.ports[name]; ok {
		if !replace && old.alive() {
			s.mu.Unlock()
			return nil, errPortExists
		}
		// A client redial, or a peer link that broke: take over.
		old.kill()
	}
	s.ports[name] = p
	// Count the writer before releasing the lock: shutdown closes the
	// registered ports' queues under the same lock, so a port is never
	// registered without its writer being awaited.
	s.writerWg.Add(1)
	s.mu.Unlock()
	go s.runWriter(p)
	return p, nil
}

// runWriter drains one port's queue onto its connection. A closed
// queue (graceful shutdown) is drained to the last frame; a killed
// port (replacement, encode error, hard close) exits immediately.
func (s *tcpServer) runWriter(p *tcpPort) {
	defer s.writerWg.Done()
	defer p.conn.Close()
	for {
		select {
		case <-p.dead:
			return
		case msg, ok := <-p.ch:
			if !ok {
				return
			}
			if err := p.write(&msg); err != nil {
				// The destination vanished; message loss on broken links
				// is the lossy-environment behavior the protocol already
				// tolerates. A lost peer link is surfaced to the cluster
				// layer so its reconnect loop can engage.
				p.kill()
				if p.peer {
					s.firePeerDown(p.name)
				}
				return
			}
		}
	}
}

// firePeerUp / firePeerDown invoke the cluster layer's link hooks on
// their own goroutine (a hook may dial or send, which takes s.mu).
// Nothing fires once shutdown began.
func (s *tcpServer) firePeerUp(id string)   { s.firePeerHook(id, true) }
func (s *tcpServer) firePeerDown(id string) { s.firePeerHook(id, false) }

func (s *tcpServer) firePeerHook(id string, up bool) {
	s.mu.Lock()
	h := s.hooks.down
	if up {
		h = s.hooks.up
	}
	s.mu.Unlock()
	kind := "peer_down"
	if up {
		kind = "peer_up"
	}
	s.reg.Flight().Record(kind, s.b.ID(), id)
	if h == nil {
		return
	}
	select {
	case <-s.stopping:
		return
	default:
	}
	go h(id)
}

// setPeerHooks registers the cluster layer's link callbacks.
func (s *tcpServer) setPeerHooks(up, down func(peer string)) {
	s.mu.Lock()
	s.hooks.up, s.hooks.down = up, down
	s.mu.Unlock()
}

// setControlHandler attaches the cluster layer's control dispatcher to
// the underlying broker and turns on the cluster advertisement for
// every subsequent hello and ack.
func (s *tcpServer) setControlHandler(h broker.ControlHandler) {
	s.b.SetControlHandler(h)
	s.clusterOn.Store(h != nil)
}

// clusterVer is the cluster protocol version to advertise right now.
func (s *tcpServer) clusterVer() uint8 {
	if s.clusterOn.Load() {
		return clusterProtoVersion
	}
	return 0
}

// peerCluster reports the cluster protocol version a peer advertised.
func (s *tcpServer) peerCluster(id string) uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerClu[id]
}

// journalRef and recoveryStats expose the durability layer.
func (s *tcpServer) journalRef() *BrokerJournal           { return s.journal }
func (s *tcpServer) recoveryStats() (RecoveryStats, bool) { return s.recovery, s.durable }
func (s *tcpServer) observability() *obs.Registry         { return s.reg }

// sendPeer queues one message for a peer broker. It reports whether a
// live link to the peer existed and the message passed the cluster
// gate — delivery itself stays best-effort, like all sends.
func (s *tcpServer) sendPeer(id string, msg broker.Message) bool {
	s.mu.Lock()
	p := s.ports[id]
	s.mu.Unlock()
	if p == nil || !p.peer || !p.alive() {
		return false
	}
	return s.sendTo(p, msg)
}

// learnPeer records the cluster protocol version a peer broker
// advertised and applies it to the live outbound port. The LATEST
// advertisement wins: every hello/ack comes from a live connection. A
// peer whose advertisement reveals a cluster layer for the first time
// gets the peer-up hook re-fired: until this moment every control
// frame toward it was dropped (sendTo's cluster gate), so the
// membership layer must restart its probe cycle now that pings can
// flow.
func (s *tcpServer) learnPeer(id string, cluster uint8) {
	s.mu.Lock()
	prevClu := s.peerClu[id]
	s.peerClu[id] = cluster
	linked := false
	if p, ok := s.ports[id]; ok {
		p.cluster.Store(uint32(cluster))
		linked = p.alive()
	}
	s.mu.Unlock()
	if linked && prevClu == 0 && cluster != 0 {
		s.firePeerUp(id)
	}
}

// send queues one outbound message; it drops when the destination is
// unknown.
func (s *tcpServer) send(o broker.Outbound) {
	s.mu.Lock()
	p := s.ports[o.To]
	s.mu.Unlock()
	if p != nil {
		s.sendTo(p, o.Msg)
	}
}

// sendTo queues one message onto a resolved port and reports whether
// it passed the cluster gate. It blocks when the port's queue is full
// (backpressure) and drops when the port is dead or the server is
// hard-closing — transient absence is the lossy-link behavior the
// protocol already tolerates. Control frames (ping, pong, gossip,
// ping-req, gossip-delta) are dropped, counted, toward destinations
// that advertised no cluster layer — a hand-wired peer, or a fresh
// link whose ack is still in flight: membership does not extend to
// them.
func (s *tcpServer) sendTo(p *tcpPort, msg broker.Message) bool {
	if msg.Kind.IsControl() && p.cluster.Load() == 0 {
		s.b.CountControlDrop()
		s.reg.Flight().Record("frame_drop", s.b.ID(), p.name+" "+msg.Kind.String())
		return false
	}
	p.stats.Sent(int(msg.Kind))
	t0 := s.obsClock()
	select {
	case p.ch <- msg:
	case <-p.dead:
	case <-s.closed:
	}
	s.hEnqueue.Observe(s.obsClock().Sub(t0))
	return true
}

// dispatch runs one inbound message through the broker and fans the
// results out to the per-port queues.
func (s *tcpServer) dispatch(from string, msg broker.Message) error {
	outs, err := s.b.Handle(from, msg)
	if err != nil {
		return err
	}
	for _, o := range outs {
		s.send(o)
	}
	return nil
}

// dispatchPublishBatch runs a coalesced run of publish frames through
// the broker under ONE shared-lock acquisition and fans the results
// out in order.
func (s *tcpServer) dispatchPublishBatch(from string, msgs []broker.Message) error {
	outs, err := s.b.HandlePublishBatch(from, msgs)
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

// trackReader registers an inbound connection so Shutdown can stop its
// decoder at a frame boundary. Returns false when the server is
// already stopping.
func (s *tcpServer) trackReader(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stopping:
		return false
	default:
	}
	s.readers[conn] = struct{}{}
	return true
}

func (s *tcpServer) untrackReader(conn net.Conn) {
	s.mu.Lock()
	delete(s.readers, conn)
	s.mu.Unlock()
}

// maxPublishCoalesce caps how many already-buffered publish frames a
// reader folds into one HandlePublishBatch call, bounding the latency
// a coalesced run can add ahead of a queued subscribe.
const maxPublishCoalesce = 64

// serveConn reads the hello, answers with the ack, registers the port,
// then feeds messages into the dispatch pipeline, coalescing buffered
// publish runs.
func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.readerWg.Done()
	reader := newFrameReader(conn)
	var hello Frame
	if err := reader.read(&hello); err != nil || hello.Hello == "" {
		// Refused: a foreign header version, bytes that are not a frame,
		// or a frame that is not a hello. A connection that closed before
		// saying anything is not worth an event.
		if !errors.Is(err, io.EOF) {
			s.reg.Flight().Record("handshake_refused", s.b.ID(), conn.RemoteAddr().String())
		}
		conn.Close()
		return
	}
	from := hello.Hello
	reader.instrument(s.hDecode, s.obsClock)
	linkStats := s.reg.Link(from)
	ack := &Frame{Ack: s.b.ID(), Cluster: s.clusterVer()}

	if hello.Client {
		s.b.AttachClient(from)
	} else {
		// Inbound peer link: the neighbor dialed us; data frames flow
		// only inward on this connection (we reply over our own dial).
		if err := s.b.ConnectNeighbor(from); err != nil {
			conn.Close()
			return
		}
		s.learnPeer(from, hello.Cluster)
	}
	// The ack goes out before a client's port exists, so it precedes
	// any notification; on an inbound peer connection it is the only
	// frame we ever write.
	if err := writeFrame(conn, ack); err != nil {
		conn.Close()
		return
	}
	var port *tcpPort
	if hello.Client {
		p, err := s.addPort(from, conn, true, false)
		if err != nil {
			conn.Close()
			return
		}
		port = p
	} else if hello.Addr != "" {
		// If we have no live outbound channel to this neighbor and it
		// told us where it listens, dial back so the link becomes
		// bidirectional without explicit two-sided configuration — and
		// so a neighbor that restarted is re-linked by its own hello.
		s.mu.Lock()
		p := s.ports[from]
		s.mu.Unlock()
		if p == nil || !p.alive() {
			go s.connectPeer(from, hello.Addr)
		}
	}
	if !s.trackReader(conn) {
		if port == nil {
			conn.Close()
		}
		return
	}
	defer s.untrackReader(conn)
	if port == nil {
		// We own the close for read-only peer connections; client
		// connections are closed by their port's writer.
		defer conn.Close()
	}
	// Note: an inbound peer stream ending does NOT fire the peer-down
	// hook. Losing dial races close redundant connections as a matter
	// of course (ConnectPeer's errPortExists path), and treating those
	// closes as link loss makes membership flap through spurious
	// down→recover→re-announce cycles. The authoritative loss signals
	// are the outbound connection failing (its writer or its ack
	// reader, see dialPeer) and the cluster layer's own ping timeouts.

	fail := func() {
		if port != nil {
			port.kill()
		}
	}
	var (
		fr      Frame
		pubRun  []broker.Message
		pending bool // fr holds a frame read ahead by the coalescer
	)
	for {
		if !pending {
			if err := reader.read(&fr); err != nil {
				fail()
				return
			}
		}
		pending = false
		if fr.Msg == nil {
			continue
		}
		linkStats.Recv(int(fr.Msg.Kind))
		if fr.Msg.Kind != broker.MsgPublish {
			if err := s.dispatch(from, *fr.Msg); err != nil {
				fail()
				return
			}
			continue
		}
		// Publish: fold in whatever publish frames the kernel already
		// delivered, then pay the broker's shared lock once for the
		// whole run. A buffered non-publish frame ends the run and is
		// handled on the next iteration.
		pubRun = append(pubRun[:0], *fr.Msg)
		var runErr error
		for len(pubRun) < maxPublishCoalesce {
			ok, err := reader.tryRead(&fr)
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
			linkStats.Recv(int(fr.Msg.Kind))
			pubRun = append(pubRun, *fr.Msg)
		}
		if err := s.dispatchPublishBatch(from, pubRun); err != nil {
			fail()
			return
		}
		if runErr != nil {
			fail()
			return
		}
	}
}

// connectPeer dials a neighbor broker at addr, registers the overlay
// link, and starts the outbound writer — the idempotent public form
// (dialing an already-linked peer is success).
func (s *tcpServer) connectPeer(id, addr string) error {
	_, err := s.dialPeer(id, addr)
	return err
}

// dialPeer is connectPeer reporting whether THIS call established the
// outbound link: false (with nil error) when a live port already
// existed and the new connection was discarded. The distinction
// matters to the cluster reconnect loop — a no-op dial against an
// existing connection proves nothing about the peer (the connection
// may be stalled), so treating it as a recovery would let a hung peer
// flap dead→alive forever.
func (s *tcpServer) dialPeer(id, addr string) (bool, error) {
	conn, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		return false, fmt.Errorf("pubsub: dial peer %s at %s: %w", id, addr, err)
	}
	hello := &Frame{Hello: s.b.ID(), Addr: s.advertiseAddr(), Cluster: s.clusterVer()}
	if err := writeFrame(conn, hello); err != nil {
		conn.Close()
		return false, fmt.Errorf("pubsub: hello to %s: %w", id, err)
	}
	if err := s.b.ConnectNeighbor(id); err != nil {
		conn.Close()
		return false, err
	}
	p, err := s.addPort(id, conn, false, true)
	if err != nil {
		conn.Close()
		if errors.Is(err, errPortExists) {
			// A concurrent dial (ours or the peer's dial-back) already
			// established the link; connecting twice is success.
			return false, nil
		}
		return false, err
	}
	// Link sync: a freshly established (or re-established) outbound
	// link starts with ONE SUBBATCH of the coverage roots for this
	// neighbor — everything the table says the peer must know. On a
	// first-boot link the table is empty and nothing is sent; after a
	// reconnect (or toward a neighbor registered while no port
	// existed) this is the healing re-announcement: the peer drops
	// what it already knows and fills the gaps, so routing state
	// converges without any transport replaying lost frames.
	if roots := s.b.NeighborRoots(id); len(roots) > 0 {
		s.send(broker.Outbound{To: id, Msg: broker.Message{Kind: broker.MsgSubscribeBatch, Subs: roots}})
	}
	// Tell the cluster layer the link is up.
	s.firePeerUp(id)
	// The acceptor's only traffic on this connection is its ack, so
	// the read after it blocks until the connection ends. Anything
	// else — a refused or foreign-version ack, a frame that is not an
	// ack, the peer going away — is a lost link: kill the port so a
	// returning peer's hello finds it dead and dials back.
	go func() {
		r := newFrameReader(conn)
		var fr Frame
		for r.read(&fr) == nil && fr.Ack != "" {
			s.learnPeer(id, fr.Cluster)
		}
		if p.kill() {
			s.firePeerDown(id)
		}
	}()
	return true, nil
}

// peerDialTimeout bounds a single peer dial attempt so a reconnect
// loop probing a dead host cannot stall for the kernel's full connect
// timeout.
const peerDialTimeout = 3 * time.Second

// advertiseAddr returns the listen address to offer peers for
// dial-back, or "" when the listener is bound to an unspecified host
// ("[::]:7001", "0.0.0.0:7001") — advertising that would make a
// remote peer dial itself. Overlays listening on wildcard addresses
// need two-sided peer configuration, exactly as before dial-back
// existed.
func (s *tcpServer) advertiseAddr() string {
	addr := s.addr()
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return ""
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		return ""
	}
	return addr
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
// stopped at a frame boundary, in-flight messages handled, writer
// queues drained, then all connections closed. The context bounds the
// drain; on expiry remaining frames are abandoned and connections
// closed hard.
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
			// Readers are gone: nobody enqueues anymore, so closing the
			// queues lets each writer drain to the last frame and exit.
			s.mu.Lock()
			for _, p := range s.ports {
				close(p.ch)
			}
			s.mu.Unlock()
			s.writerWg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = ctx.Err()
			close(s.closed) // unblock senders stuck on full queues
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
// connect with Dial. Stop it with Broker.Shutdown.
func ListenBroker(id, addr string, policy Policy, cfg Config, opts ...TCPOption) (*Broker, error) {
	sp, err := policy.toStore()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b, err := broker.New(id, sp,
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
	srv, err := newTCPServer(b, addr, tc)
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
	return &Broker{id: id, impl: srv}, nil
}

// tcpServer implements brokerImpl directly.
var _ brokerImpl = (*tcpServer)(nil)

// TCPTransport hosts the overlay on real sockets within one process:
// every broker gets its own loopback listener, Connect dials both
// directions, and Open dials a real client connection. It exists so
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

// NewTCPTransport creates an empty TCP overlay with the given coverage
// policy and tuning. Brokers listen on ephemeral loopback ports.
// Config.DropRate/DupRate are a simulator-only feature and rejected
// here: TCP links get their loss from the real network.
func NewTCPTransport(policy Policy, cfg Config, opts ...TCPOption) (*TCPTransport, error) {
	if _, err := policy.toStore(); err != nil {
		return nil, err
	}
	if cfg.DropRate > 0 || cfg.DupRate > 0 {
		return nil, fmt.Errorf("pubsub: failure injection is simulator-only; TCP transports take real losses")
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

// Connect links two brokers bidirectionally: each side dials the
// other.
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
	if err := ba.ConnectPeer(b, bb.Addr()); err != nil {
		return err
	}
	return bb.ConnectPeer(a, ba.Addr())
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

// tcpClient is the socket side of a Client.
type tcpClient struct {
	conn net.Conn
	mu   sync.Mutex // serializes writes
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
	// Closing the connection is what unblocks the handshake when the
	// context ends first.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	r := newFrameReader(conn)
	var ack Frame
	err = writeFrame(conn, &Frame{Hello: name, Client: true})
	if err == nil {
		err = r.read(&ack)
	}
	if err == nil && ack.Ack == "" {
		err = fmt.Errorf("first frame from the broker is not an ack")
	}
	if !stop() {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("pubsub: handshake with %s: %w", addr, err)
	}
	c := &Client{name: name, impl: &tcpClient{conn: conn}, q: newNotifyQueue()}
	go readNotifications(r, c.q)
	return c, nil
}

// send encodes one message into a pooled buffer and writes it in one
// call, honoring the context's deadline.
func (c *tcpClient) send(ctx context.Context, msg broker.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetWriteDeadline(d)
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, &Frame{Msg: &msg}); err != nil {
		return fmt.Errorf("pubsub: send: %w", err)
	}
	return nil
}

// readNotifications feeds pushed notifications into the queue until
// the connection closes.
func readNotifications(r *frameReader, q *notifyQueue) {
	var fr Frame
	for r.read(&fr) == nil {
		if fr.Msg != nil && fr.Msg.Kind == broker.MsgNotify {
			q.push(Notification{SubID: fr.Msg.SubID, PubID: fr.Msg.PubID, Pub: fr.Msg.Pub})
		}
	}
	q.finish()
}

func (c *tcpClient) close() error { return c.conn.Close() }
