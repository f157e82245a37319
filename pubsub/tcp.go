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
// of a peer link know each other's from the handshake. A hello the acceptor cannot accept — a foreign header version, bytes
// that are not a frame, a frame that is not a hello — closes the
// connection with one handshake_refused flight event and nothing
// else; an ack the dialer cannot accept is a lost link.
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
//     ONE HandlePublishBatch call, paying the RWMutex once per run
//     instead of once per frame at high rates.
//   - one WRITER goroutine per connection encodes frames from a
//     buffered queue into pooled buffers, so a slow or stalled peer
//     never blocks matching and concurrent publishes never interleave
//     frame bytes. Whatever is already queued when it wakes goes out
//     in the same write (up to maxWriteBatch bytes). A client's end
//     coalesces too: a send encodes its frame on the caller's
//     goroutine into the client's pending buffer, and the client's
//     one writer writes whatever is pending with one call per wake-up
//     (see tcpClient).
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

// withSendQueue sets the per-port outbound queue length (default 256
// frames). A full queue applies backpressure to the readers that are
// producing for it.
func withSendQueue(n int) TCPOption {
	return func(c *tcpConfig) { c.queueLen = n }
}

// tcpPort is one link's sending side: a connection, its writer
// goroutine's queue, and a kill switch. Its fields are set before
// install makes it visible.
type tcpPort struct {
	name   string
	peer   bool // a neighbor broker (as opposed to a client)
	dialed bool // this broker dialed the connection (see install)
	conn   net.Conn
	// cluster is the membership protocol version the destination
	// advertised in the handshake; control frames (ping/pong/gossip)
	// are dropped when it is 0 — peers without a cluster layer must
	// never see them.
	cluster uint8
	ack     *Frame // the acceptor's ack, written before any queued frame
	ch      chan broker.Message
	dead    chan struct{} // closed when the port is torn down mid-stream
	once    sync.Once

	// stats counts frames queued toward this destination by wire kind
	// (atomic fixed-array adds — zero allocations on the frame path);
	// writeHist/clock time the encode+write stage.
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

// maxWriteBatch bounds the bytes a port writer gathers from its queue
// before it writes; the frame that crosses it is the last one taken.
const maxWriteBatch = 64 << 10

// writeQueued encodes first and then every message already waiting in
// the queue, without blocking, into one pooled buffer until the buffer
// passes maxWriteBatch, and writes them with one call. It reports
// whether the queue is still open: a queue closed mid-drain still gets
// what was gathered written. An encode error still writes the frames
// before it, then returns that error. The encode+write stage is timed
// once and split evenly over the frames it carried.
func (p *tcpPort) writeQueued(first *broker.Message) (open bool, err error) {
	t0 := p.clock()
	buf := getEncBuf()
	defer putEncBuf(buf)
	frames := 0
	data, err := MarshalFrame(CodecBinary5, (*buf)[:0], &Frame{Msg: first})
	if err == nil {
		frames++
	}
	open = true
drain:
	for err == nil && len(data) < maxWriteBatch {
		select {
		case msg, ok := <-p.ch:
			if !ok {
				open = false
				break drain
			}
			// A failed encode leaves data as it was.
			if data, err = MarshalFrame(CodecBinary5, data, &Frame{Msg: &msg}); err == nil {
				frames++
			}
		default:
			break drain
		}
	}
	*buf = data[:0]
	if frames > 0 {
		if _, werr := p.conn.Write(data); werr != nil {
			err = werr
		}
		share := p.clock().Sub(t0) / time.Duration(frames)
		for range frames {
			p.writeHist.Observe(share)
		}
	}
	return open, err
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
	obsClock func() time.Time

	stopping chan struct{} // Shutdown began: stop accepting/registering
	closed   chan struct{} // hard close: abandon queued frames

	readerWg sync.WaitGroup // accept loop, handshakes and per-connection readers
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

// newPort builds a port for one connection; the caller sets the peer
// fields and installs it.
func (s *tcpServer) newPort(name string, conn net.Conn) *tcpPort {
	return &tcpPort{
		name:      name,
		conn:      conn,
		ch:        make(chan broker.Message, s.cfg.queueLen),
		dead:      make(chan struct{}),
		stats:     s.reg.Link(name),
		writeHist: s.hWrite,
		clock:     s.obsClock,
	}
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
	// registered ports' queues under the same lock, so a port is never
	// registered without its writer being awaited.
	s.writerWg.Add(1)
	s.mu.Unlock()
	go s.runWriter(p)
	return true, nil
}

// runWriter sends the port's ack, if any, and then drains its queue
// onto the connection, one write per run of queued frames
// (writeQueued). A closed queue (graceful shutdown) is drained to the
// last frame and the connection closed; a killed port (replacement,
// lost link, hard close) exits at once, and whoever killed it owns the
// connection.
func (s *tcpServer) runWriter(p *tcpPort) {
	defer s.writerWg.Done()
	if p.ack != nil && writeFrame(p.conn, p.ack) != nil {
		s.drop(p)
		return
	}
	for {
		select {
		case <-p.dead:
			return
		case msg, ok := <-p.ch:
			if !ok {
				p.conn.Close()
				return
			}
			open, err := p.writeQueued(&msg)
			if err != nil {
				// The destination vanished; message loss on broken links
				// is the lossy-environment behavior the protocol already
				// tolerates.
				s.drop(p)
				return
			}
			if !open {
				p.conn.Close()
				return
			}
		}
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

// sendPeer queues one message for a peer broker. It reports whether a
// live link to the peer existed and the message passed the cluster
// gate — delivery itself stays best-effort, like all sends.
func (s *tcpServer) sendPeer(id string, msg broker.Message) bool {
	p := s.livePeer(id)
	return p != nil && s.sendTo(p, msg)
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
// that advertised no cluster layer — a hand-wired peer: membership
// does not extend to them.
func (s *tcpServer) sendTo(p *tcpPort, msg broker.Message) bool {
	if msg.Kind.IsControl() && p.cluster == 0 {
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
// reader folds into one HandlePublishBatch call, bounding the latency
// a coalesced run can add ahead of a queued subscribe.
const maxPublishCoalesce = 64

// serveConn runs the accepting end of the handshake — read the hello,
// register the neighbor or client and its port, whose writer sends the
// ack ahead of every other frame — and then serves the connection.
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
	p.ack = &Frame{Ack: s.b.ID(), Cluster: s.clusterVer()}
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
// link has queued its link sync when dialPeer returns.
func (s *tcpServer) dialPeer(id, addr string) (bool, error) {
	if s.livePeer(id) != nil {
		return false, nil
	}
	conn, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		return false, fmt.Errorf("pubsub: dial peer %s at %s: %w", id, addr, err)
	}
	if err := writeFrame(conn, &Frame{Hello: s.b.ID(), Cluster: s.clusterVer()}); err != nil {
		conn.Close()
		return false, fmt.Errorf("pubsub: hello to %s: %w", id, err)
	}
	r := newFrameReader(conn)
	var ack Frame
	conn.SetReadDeadline(time.Now().Add(peerDialTimeout))
	ackErr := r.read(&ack)
	conn.SetReadDeadline(time.Time{})
	if ackErr == nil && ack.Ack == "" {
		ackErr = errors.New("first frame from the peer is not an ack")
	}
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
		// An ack we cannot accept — a foreign version, a refused
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

// peerDialTimeout bounds a single peer dial attempt, and the wait for
// its ack, so a reconnect loop probing a dead host cannot stall for
// the kernel's full connect timeout.
const peerDialTimeout = 3 * time.Second

// linkUp starts a freshly installed peer link: its link sync — the
// coverage roots for the neighbor as ONE SUBBATCH — is queued first,
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
		pubRun  []broker.Message
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
		// delivered, then pay the broker's shared lock once for the
		// whole run. A buffered non-publish frame ends the run and is
		// handled on the next iteration.
		pubRun = append(pubRun[:0], *fr.Msg)
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
			pubRun = append(pubRun, *fr.Msg)
		}
		if err := s.dispatchPublishBatch(from, pubRun); err != nil || runErr != nil {
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

// NewTCPTransport creates an empty TCP overlay with the given coverage
// policy and tuning. Brokers listen on ephemeral loopback ports.
// Config.DropRate is a simulator-only feature and rejected here: TCP
// links get their loss from the real network.
func NewTCPTransport(policy Policy, cfg Config, opts ...TCPOption) (*TCPTransport, error) {
	if _, err := policy.toStore(); err != nil {
		return nil, err
	}
	if cfg.DropRate > 0 {
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

// maxClientPending bounds the encoded bytes a client holds for its
// writer: a send that finds this much already pending waits for the
// writer to take it (see tcpClient.send).
const maxClientPending = 256 << 10

// clientCloseDrain bounds how long Close waits for the writer to flush
// what was already accepted before it closes the connection under it.
const clientCloseDrain = 5 * time.Second

// errClientClosed is what a send on a closed client returns.
var errClientClosed = fmt.Errorf("pubsub: client closed: %w", net.ErrClosed)

// tcpClient is the socket side of a Client. A send encodes its frame
// on the caller's goroutine into pending; one writer goroutine swaps
// the buffer out and writes it with one call per wake-up, so the sends
// that arrive while a write is in flight leave together in the next.
type tcpClient struct {
	conn net.Conn
	mu   sync.Mutex
	// ready wakes the writer: pending gained bytes or err was set.
	ready *sync.Cond
	// room wakes senders waiting on the pending bound: the writer took
	// the buffer, err was set, or a waiter's context ended.
	room *sync.Cond
	// +guarded_by:mu
	pending []byte
	// err is sticky: the first write error, or errClientClosed once
	// Close began. Every later send returns it.
	// +guarded_by:mu
	err  error
	done chan struct{} // closed when the writer exits
}

// newTCPClient wraps a connection whose handshake is done and starts
// its writer.
func newTCPClient(conn net.Conn) *tcpClient {
	c := &tcpClient{conn: conn, done: make(chan struct{})}
	c.ready = sync.NewCond(&c.mu)
	c.room = sync.NewCond(&c.mu)
	go c.run()
	return c
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
	c := &Client{name: name, impl: newTCPClient(conn), q: newNotifyQueue()}
	go readNotifications(r, c.q)
	return c, nil
}

// send encodes msg onto the pending buffer and returns: the frame is
// accepted, and msg's slices are the caller's again. A send that finds
// maxClientPending bytes pending waits for the writer to take them, or
// until ctx ends; ctx bounds that wait, not the write.
func (c *tcpClient) send(ctx context.Context, msg broker.Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && len(c.pending) >= maxClientPending {
		if err := c.waitRoom(ctx); err != nil {
			return err
		}
	}
	if c.err != nil {
		return c.err
	}
	wake := len(c.pending) == 0
	var err error
	if c.pending, err = MarshalFrame(CodecBinary5, c.pending, &Frame{Msg: &msg}); err != nil {
		return fmt.Errorf("pubsub: send: %w", err)
	}
	if wake {
		c.ready.Signal()
	}
	return nil
}

// waitRoom waits until the pending bytes drop below maxClientPending,
// the client fails or closes, or ctx ends, whose error it returns.
//
// +mustlock:mu
func (c *tcpClient) waitRoom(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.room.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	for c.err == nil && len(c.pending) >= maxClientPending {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.room.Wait()
	}
	return nil
}

// run is the writer: it takes whatever is pending and writes it in one
// call, until a write fails or the client is closed and drained.
func (c *tcpClient) run() {
	defer close(c.done)
	var buf []byte
	for {
		c.mu.Lock()
		for len(c.pending) == 0 && c.err == nil {
			c.ready.Wait()
		}
		if len(c.pending) == 0 {
			c.mu.Unlock()
			return
		}
		buf, c.pending = c.pending, buf[:0]
		c.room.Broadcast()
		c.mu.Unlock()
		if _, err := c.conn.Write(buf); err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = fmt.Errorf("pubsub: send: %w", err)
			}
			c.pending = nil
			c.room.Broadcast()
			c.mu.Unlock()
			return
		}
		// A burst far past the bound (one huge batch) does not pin its
		// buffer for the client's lifetime.
		if cap(buf) > 2*maxClientPending {
			buf = nil
		}
	}
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

// close stops accepting sends, waits up to clientCloseDrain for the
// writer to flush what was accepted, and closes the connection. It
// reports a flush that did not finish: the drain timed out, or a write
// failed, now or before.
func (c *tcpClient) close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = errClientClosed
	}
	c.ready.Signal()
	c.room.Broadcast()
	c.mu.Unlock()
	t := time.NewTimer(clientCloseDrain)
	defer t.Stop()
	select {
	case <-c.done:
	case <-t.C:
		c.conn.Close()
		return fmt.Errorf("pubsub: close: unsent frames dropped after %v", clientCloseDrain)
	}
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	cerr := c.conn.Close()
	if err != errClientClosed {
		return err
	}
	return cerr
}
