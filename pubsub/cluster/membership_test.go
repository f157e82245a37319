package cluster

// Unit tests for the membership state machine: claim ordering, gossip
// merge rules, death refutation, mesh discovery, and the topology
// format.

import (
	"testing"
	"time"

	"probsum/internal/broker"
)

func TestSupersedes(t *testing.T) {
	cases := []struct {
		name string
		a, b Member
		want bool
	}{
		{"higher incarnation wins", Member{Incarnation: 2, State: StateAlive}, Member{Incarnation: 1, State: StateDead}, true},
		{"lower incarnation loses", Member{Incarnation: 1, State: StateDead}, Member{Incarnation: 2, State: StateAlive}, false},
		{"same incarnation, dead beats alive", Member{Incarnation: 1, State: StateDead}, Member{Incarnation: 1, State: StateAlive}, true},
		{"same incarnation, suspect beats alive", Member{Incarnation: 1, State: StateSuspect}, Member{Incarnation: 1, State: StateAlive}, true},
		{"same incarnation, alive does not beat suspect", Member{Incarnation: 1, State: StateAlive}, Member{Incarnation: 1, State: StateSuspect}, false},
		{"equal claims do not supersede", Member{Incarnation: 1, State: StateAlive}, Member{Incarnation: 1, State: StateAlive}, false},
	}
	for _, tc := range cases {
		if got := supersedes(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: supersedes(%+v, %+v) = %v", tc.name, tc.a, tc.b, got)
		}
	}
}

// nullLink is a Link for driving a Node without any transport.
type nullLink struct {
	self  string
	sent  []broker.Outbound
	roots []broker.BatchSub
}

func (l *nullLink) Self() string { return l.self }
func (l *nullLink) Send(peer string, msg broker.Message) bool {
	l.sent = append(l.sent, broker.Outbound{To: peer, Msg: msg})
	return true
}
func (l *nullLink) Connect(peer, addr string, done func(established bool, err error)) {
	done(true, nil)
}
func (l *nullLink) Roots(peer string) []broker.BatchSub { return l.roots }
func (l *nullLink) ClusterCapable(peer string) bool     { return true }
func (l *nullLink) SyncOnConnect() bool                 { return false }
func (l *nullLink) Digest(peer string) (broker.LinkDigest, bool) {
	return broker.LinkDigest{}, false
}

// sentKinds filters the captured sends down to one message kind.
func (l *nullLink) sentKinds(k broker.MsgKind) []broker.Outbound {
	var out []broker.Outbound
	for _, o := range l.sent {
		if o.Msg.Kind == k {
			out = append(out, o)
		}
	}
	return out
}

func testNode(self string, mesh bool) (*Node, *nullLink) {
	l := &nullLink{self: self}
	base := time.Unix(0, 0)
	n := NewNode(Member{ID: self}, l, Config{
		Clock: func() time.Time { return base },
		Mesh:  mesh,
	})
	return n, l
}

func TestGossipMergeAdoptsAndDiscovers(t *testing.T) {
	n, _ := testNode("A", false)
	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)

	// A rumor at a higher incarnation supersedes the local record.
	n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
		{ID: "B", Incarnation: 1, State: broker.MemberAlive},
		{ID: "C", Addr: "c:1", Incarnation: 3, State: broker.MemberDead},
	}})
	c, ok := n.Member("C")
	if !ok || c.State != StateDead || c.Incarnation != 3 || c.Addr != "c:1" {
		t.Fatalf("discovered member C = %+v, %v", c, ok)
	}
	// Without mesh mode, discovered members are tracked but unlinked.
	n.mu.Lock()
	linked := n.members["C"].linked
	n.mu.Unlock()
	if linked {
		t.Fatal("non-mesh node linked a gossip-discovered member")
	}

	// A stale lower-incarnation claim must not regress the record.
	n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
		{ID: "C", Incarnation: 2, State: broker.MemberAlive},
	}})
	if c, _ := n.Member("C"); c.State != StateDead || c.Incarnation != 3 {
		t.Fatalf("stale claim regressed C to %+v", c)
	}
	// A fresher alive claim recovers it.
	n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
		{ID: "C", Incarnation: 4, State: broker.MemberAlive},
	}})
	if c, _ := n.Member("C"); c.State != StateAlive || c.Incarnation != 4 {
		t.Fatalf("fresh claim did not recover C: %+v", c)
	}
}

func TestGossipMeshLinksDiscoveredMembers(t *testing.T) {
	n, _ := testNode("A", true)
	n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
		{ID: "C", Addr: "c:1", Incarnation: 1, State: broker.MemberAlive},
	}})
	n.mu.Lock()
	st := n.members["C"]
	linked := st != nil && st.linked
	n.mu.Unlock()
	if !linked {
		t.Fatal("mesh node did not link the gossip-discovered member")
	}
}

func TestGossipSelfDeathIsRefuted(t *testing.T) {
	n, _ := testNode("A", false)
	outs := n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
		{ID: "A", Incarnation: 5, State: broker.MemberDead},
	}})
	self, _ := n.Member("A")
	if self.Incarnation != 6 || self.State != StateAlive {
		t.Fatalf("self after death rumor = %+v, want alive@6", self)
	}
	// The refutation gossips straight back to the rumor's sender.
	var refuted bool
	for _, o := range outs {
		if o.To == "B" && o.Msg.Kind == broker.MsgGossip {
			for _, m := range o.Msg.Members {
				if m.ID == "A" && m.Incarnation == 6 && m.State == broker.MemberAlive {
					refuted = true
				}
			}
		}
	}
	if !refuted {
		t.Fatalf("no refutation gossip in %+v", outs)
	}
}

func TestDirectEvidenceOutranksRumor(t *testing.T) {
	n, _ := testNode("A", false)
	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)
	n.AddMember(Member{ID: "C", Addr: "c:1"}, true)
	// Direct contact: the link to C is up and C answers a ping — no
	// outstanding probes.
	n.PeerUp("C")
	n.HandleControl("C", broker.Message{Kind: broker.MsgPong})
	// B gossips that C is dead at the same incarnation.
	c, _ := n.Member("C")
	n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
		{ID: "C", Incarnation: c.Incarnation, State: broker.MemberDead},
	}})
	if got, _ := n.Member("C"); got.State != StateAlive {
		t.Fatalf("rumor overrode direct evidence: C = %+v", got)
	}
}

func TestPingIsAnsweredWithPong(t *testing.T) {
	n, _ := testNode("A", false)
	outs := n.HandleControl("B", broker.Message{Kind: broker.MsgPing, Seq: 42})
	if len(outs) != 1 || outs[0].To != "B" || outs[0].Msg.Kind != broker.MsgPong || outs[0].Msg.Seq != 42 {
		t.Fatalf("ping answered with %+v", outs)
	}
}

func TestRecoveryReannouncesRoots(t *testing.T) {
	n, l := testNode("A", false)
	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)

	// First link-up with an empty coverage table: nothing to announce
	// (the membership snapshot push is separate and expected).
	n.PeerUp("B")
	if batches := l.sentKinds(broker.MsgSubscribeBatch); len(batches) != 0 {
		t.Fatalf("initial link-up announced %+v", batches)
	}
	l.roots = []broker.BatchSub{{SubID: "s1"}, {SubID: "s2"}}

	// A link loss marks B lossy; inbound pongs alone must NOT heal
	// (they prove B reaches us, not that we reach B)...
	n.PeerDown("B")
	if outs := n.HandleControl("B", broker.Message{Kind: broker.MsgPong}); len(outs) != 0 {
		t.Fatalf("inbound pong healed a lossy link: %+v", outs)
	}
	// ...but the restored OUTBOUND link must carry the roots as ONE
	// SUBBATCH.
	n.PeerUp("B")
	batches := l.sentKinds(broker.MsgSubscribeBatch)
	if len(batches) != 1 || batches[0].To != "B" ||
		len(batches[0].Msg.Subs) != 2 {
		t.Fatalf("recovery sent %+v, want one SUBBATCH of 2 to B", batches)
	}
	m := n.Metrics()
	if m.ReannounceBatches != 1 || m.ReannouncedSubs != 2 {
		t.Fatalf("reannounce metrics = %+v", m)
	}
	// A repeated link-up on the healthy link must NOT re-announce.
	n.PeerUp("B")
	if batches := l.sentKinds(broker.MsgSubscribeBatch); len(batches) != 1 {
		t.Fatalf("steady-state link-up re-announced: %+v", batches)
	}
}

// dropLink is a nullLink whose transport refuses control frames while
// dropControl is set — the shape of a TCP port whose peer has not yet
// advertised a cluster layer (its hello/ack is still in flight), where
// sendPeer drops every ping before it reaches the wire.
type dropLink struct {
	nullLink
	dropControl bool
	dropped     int
}

func (l *dropLink) Send(peer string, msg broker.Message) bool {
	if l.dropControl && msg.Kind.IsControl() {
		l.dropped++
		return false
	}
	return l.nullLink.Send(peer, msg)
}

// TestLostProbeNoSuspicionDuringHandshake pins the handshake-race fix:
// pings the transport refuses (peer's cluster version still unknown,
// so control frames are dropped at the port) must not count as
// outstanding probes — a peer whose ack is merely slow must never be
// suspected for not answering pings that were never sent. Once the ack
// arrives and the transport re-fires the peer-up hook, probing resumes
// and the round trip completes normally.
func TestLostProbeNoSuspicionDuringHandshake(t *testing.T) {
	l := &dropLink{nullLink: nullLink{self: "A"}}
	now := time.Unix(0, 0)
	n := NewNode(Member{ID: "A"}, l, Config{
		PingEvery:     time.Second,
		GossipEvery:   time.Minute, // keep gossip out of the trace
		SuspectMisses: 2,
		DeadAfter:     time.Hour,
		ReconnectMin:  time.Hour, // keep the reconnect loop quiet
		ReconnectMax:  2 * time.Hour,
		Clock:         func() time.Time { return now },
	})
	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)
	// The outbound connection is up, but B's ack — the frame that
	// reveals its cluster version — has not arrived: the transport
	// drops every control frame toward it.
	l.dropControl = true
	n.PeerUp("B")

	// Tick far past the suspicion threshold. Every ping is refused by
	// the transport, so none is outstanding and B must stay alive.
	for i := 0; i < 8; i++ {
		now = now.Add(time.Second)
		n.Tick()
	}
	if l.dropped <= n.cfg.SuspectMisses {
		t.Fatalf("only %d control frames dropped; the scenario never crossed the miss threshold", l.dropped)
	}
	if m, _ := n.Member("B"); m.State != StateAlive {
		t.Fatalf("B became %v from pings that never left the process", m.State)
	}
	n.mu.Lock()
	awaiting := n.members["B"].awaiting
	n.mu.Unlock()
	if awaiting != 0 {
		t.Fatalf("%d probes counted outstanding, want 0 (all sends failed)", awaiting)
	}

	// The ack arrives: the transport starts passing control frames and
	// re-fires the peer-up hook (learnPeer's 0→nonzero re-kick).
	l.dropControl = false
	n.PeerUp("B")
	now = now.Add(time.Second)
	n.Tick()
	pings := l.sentKinds(broker.MsgPing)
	if len(pings) == 0 {
		t.Fatal("no ping sent after the ack arrived — probe path not re-armed")
	}
	n.HandleControl("B", broker.Message{Kind: broker.MsgPong, Seq: pings[len(pings)-1].Msg.Seq})
	if m, _ := n.Member("B"); m.State != StateAlive {
		t.Fatalf("B is %v after a completed probe round trip", m.State)
	}
}

func TestTopologyParseAndValidate(t *testing.T) {
	good := []byte(`{
		"policy": "pairwise",
		"nodes": [
			{"id": "B1", "listen": "127.0.0.1:7001"},
			{"id": "B2", "listen": "127.0.0.1:7002"},
			{"id": "B3", "listen": "127.0.0.1:7003"}
		],
		"links": [["B1","B2"],["B2","B3"]]
	}`)
	topo, err := ParseTopology(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.PeersOf("B2"); len(got) != 2 || got[0] != "B1" || got[1] != "B3" {
		t.Fatalf("PeersOf(B2) = %v", got)
	}
	if got := topo.PeersOf("B1"); len(got) != 1 || got[0] != "B2" {
		t.Fatalf("PeersOf(B1) = %v", got)
	}
	if _, ok := topo.NodeByID("B3"); !ok {
		t.Fatal("NodeByID(B3) missing")
	}

	bad := []string{
		`{}`, // no nodes
		`{"nodes":[{"id":"","listen":"x:1"}]}`,
		`{"nodes":[{"id":"A"}]}`, // no listen
		`{"nodes":[{"id":"A","listen":"x:1"},{"id":"A","listen":"x:2"}]}`,
		`{"nodes":[{"id":"A","listen":"x:1"}],"links":[["A","A"]]}`,
		`{"nodes":[{"id":"A","listen":"x:1"}],"links":[["A","Z"]]}`,
		`{"policy":"bogus","nodes":[{"id":"A","listen":"x:1"}]}`,
	}
	for _, s := range bad {
		if _, err := ParseTopology([]byte(s)); err == nil {
			t.Errorf("ParseTopology(%s) accepted invalid topology", s)
		}
	}
}

func TestNoOpDialDoesNotResurrect(t *testing.T) {
	n, l := testNode("A", false)
	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)
	n.PeerUp("B")
	l.roots = []broker.BatchSub{{SubID: "s1"}}
	n.PeerDown("B")

	// A dial that found a live link already in place made no contact
	// with the peer: it must not mark the member alive, must not
	// announce, but must resume probing over the existing link.
	n.dialDone("B", false, nil)
	if m, _ := n.Member("B"); m.State == StateAlive {
		t.Fatal("no-op dial resurrected the member")
	}
	if batches := l.sentKinds(broker.MsgSubscribeBatch); len(batches) != 0 {
		t.Fatalf("no-op dial announced: %+v", batches)
	}
	n.mu.Lock()
	linkUp := n.members["B"].linkUp
	n.mu.Unlock()
	if !linkUp {
		t.Fatal("no-op dial did not resume probing over the existing link")
	}

	// A genuinely re-established link is a recovery and heals.
	n.dialDone("B", true, nil)
	if m, _ := n.Member("B"); m.State != StateAlive {
		t.Fatalf("established dial left the member %v", m.State)
	}
	if batches := l.sentKinds(broker.MsgSubscribeBatch); len(batches) != 1 {
		t.Fatalf("established dial did not announce: %+v", batches)
	}
}
