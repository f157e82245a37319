package pubsub

// The wire codec: how a Frame becomes bytes on a TCP connection.
//
// There is one grammar. Every frame — the hello and ack of the
// handshake included — is a 6-byte header followed by a varint-encoded
// payload:
//
//	offset 0      magic 0xBF
//	offset 1      version (binVersion)
//	offset 2..5   payload length, uint32 little-endian (≤ 16 MiB)
//	offset 6..    payload
//
//	payload       kind byte, then kind-specific:
//	  hello              flags (bit 0 = client), name, addr, cluster byte
//	  ack                name, cluster byte
//	  subscribe          subID, subscription
//	  unsubscribe        subID
//	  publish            pubID, publication
//	  notify             subID, pubID, publication
//	  subscribe-batch    uvarint n, then n × (subID, subscription)
//	  unsubscribe-batch  uvarint n, then n × subID
//	  publish-batch      uvarint n, then n × (pubID, publication)
//	  ping, pong         uvarint seq, optional member list
//	  gossip             member list, optional link digest
//	  gossip-delta       member list, uint64 member-view hash, optional link digest
//	  ping-req           flags (bit 0 = ack), target, uvarint seq, member list
//	  sync-request       uvarint n, then n × uint64 bucket hash
//	  sync-roots         uint64 mask, uvarint n, then n × (subID, subscription)
//	  route-announce     target, uvarint n, then n × (subID, subscription)
//
//	string        uvarint byte length, raw bytes (valid UTF-8)
//	subscription  uvarint bound count, then per bound varint lo, hi
//	publication   uvarint value count, then varint values
//	member list   uvarint n, then n × (id, addr, uvarint incarnation, state byte)
//	link digest   presence byte 1, uvarint count, uint64 root
//
// A header whose first byte is not the magic, or whose version byte is
// not binVersion, is a decode error like any other corrupt frame: the
// connection closes. The next protocol change bumps that one byte.
//
// Encoding appends into pooled buffers and writes each frame with one
// Write call; decoding parses in place from the connection's read
// buffer — the payload is never copied into an intermediate frame,
// only the fields that outlive it (strings, bounds, values) are
// materialized.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unicode/utf8"

	"probsum/internal/broker"
	"probsum/internal/interval"
	"probsum/internal/subscription"
)

// WireCodec names a frame encoding; its value is the header version
// byte.
type WireCodec uint8

// CodecBinary5 is the wire dialect — the only one MarshalFrame accepts.
const CodecBinary5 WireCodec = 5

const (
	binMagic   = 0xBF
	binVersion = byte(CodecBinary5)
	binHeader  = 6
	// maxBinaryPayload bounds a decoded frame; hostile length fields
	// cannot force large allocations past it.
	maxBinaryPayload = 16 << 20

	// Handshake payload kinds, outside the broker.MsgKind range.
	kindHello = 0xF0
	kindAck   = 0xF1
)

// encBufPool pools encode scratch buffers across writers, readers'
// replies, and client sends.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getEncBuf() *[]byte  { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) { *b = (*b)[:0]; encBufPool.Put(b) }

// MarshalFrame appends the wire encoding of fr to buf and returns the
// extended slice. codec must be CodecBinary5. A frame is a hello
// (Hello set), an ack (Ack set), or a message (Msg set).
func MarshalFrame(codec WireCodec, buf []byte, fr *Frame) ([]byte, error) {
	if codec != CodecBinary5 {
		return buf, fmt.Errorf("pubsub: cannot marshal under codec %d", codec)
	}
	start := len(buf)
	buf = append(buf, binMagic, binVersion, 0, 0, 0, 0)
	switch {
	case fr.Msg != nil:
		var err error
		if buf, err = appendBinaryMessage(buf, fr.Msg); err != nil {
			return buf[:start], err
		}
	case fr.Hello != "":
		var flags byte
		if fr.Client {
			flags = 1
		}
		buf = append(buf, kindHello, flags)
		buf = appendString(buf, fr.Hello)
		buf = appendString(buf, fr.Addr)
		buf = append(buf, fr.Cluster)
	case fr.Ack != "":
		buf = append(buf, kindAck)
		buf = appendString(buf, fr.Ack)
		buf = append(buf, fr.Cluster)
	default:
		return buf[:start], fmt.Errorf("pubsub: cannot marshal an empty frame")
	}
	payload := len(buf) - start - binHeader
	if payload > maxBinaryPayload {
		return buf[:start], fmt.Errorf("pubsub: frame payload %d exceeds %d bytes", payload, maxBinaryPayload)
	}
	binary.LittleEndian.PutUint32(buf[start+2:start+binHeader], uint32(payload))
	return buf, nil
}

// UnmarshalFrame decodes the first frame in data, returning the frame
// and the number of bytes consumed. The frame's full length-prefixed
// extent must be present.
func UnmarshalFrame(data []byte) (Frame, int, error) {
	var fr Frame
	if len(data) < binHeader {
		return fr, 0, fmt.Errorf("pubsub: truncated frame header (%d bytes)", len(data))
	}
	n, err := parseBinaryHeader(data)
	if err != nil {
		return fr, 0, err
	}
	if len(data) < binHeader+n {
		return fr, 0, fmt.Errorf("pubsub: truncated frame (%d of %d payload bytes)", len(data)-binHeader, n)
	}
	if err := decodePayload(data[binHeader:binHeader+n], &fr); err != nil {
		return Frame{}, 0, err
	}
	return fr, binHeader + n, nil
}

func appendBinaryMessage(buf []byte, m *broker.Message) ([]byte, error) {
	buf = append(buf, byte(m.Kind))
	switch m.Kind {
	case broker.MsgSubscribe:
		buf = appendString(buf, m.SubID)
		buf = appendSubscription(buf, m.Sub)
	case broker.MsgUnsubscribe:
		buf = appendString(buf, m.SubID)
	case broker.MsgPublish:
		buf = appendString(buf, m.PubID)
		buf = appendPublication(buf, m.Pub)
	case broker.MsgNotify:
		buf = appendString(buf, m.SubID)
		buf = appendString(buf, m.PubID)
		buf = appendPublication(buf, m.Pub)
	case broker.MsgSubscribeBatch:
		buf = binary.AppendUvarint(buf, uint64(len(m.Subs)))
		for _, it := range m.Subs {
			buf = appendString(buf, it.SubID)
			buf = appendSubscription(buf, it.Sub)
		}
	case broker.MsgUnsubscribeBatch:
		buf = binary.AppendUvarint(buf, uint64(len(m.SubIDs)))
		for _, id := range m.SubIDs {
			buf = appendString(buf, id)
		}
	case broker.MsgPublishBatch:
		buf = binary.AppendUvarint(buf, uint64(len(m.Pubs)))
		for _, it := range m.Pubs {
			buf = appendString(buf, it.PubID)
			buf = appendPublication(buf, it.Pub)
		}
	case broker.MsgPing, broker.MsgPong:
		buf = binary.AppendUvarint(buf, m.Seq)
		// Optional piggybacked membership deltas.
		if len(m.Members) > 0 {
			buf = appendMembers(buf, m.Members)
		}
	case broker.MsgGossip, broker.MsgGossipDelta:
		buf = appendMembers(buf, m.Members)
		// The delta frame carries a REQUIRED member-view hash between
		// the update batch and the optional link digest — the
		// anti-entropy trigger that keeps delta-only dissemination
		// complete.
		if m.Kind == broker.MsgGossipDelta {
			buf = binary.LittleEndian.AppendUint64(buf, m.MemberHash)
		}
		// Optional link digest: presence byte, count, fixed root.
		if m.Digest != nil {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(m.Digest.Count))
			buf = binary.LittleEndian.AppendUint64(buf, m.Digest.Root)
		}
	case broker.MsgPingReq:
		var flags byte
		if m.Ack {
			flags = 1
		}
		buf = append(buf, flags)
		buf = appendString(buf, m.Target)
		buf = binary.AppendUvarint(buf, m.Seq)
		buf = appendMembers(buf, m.Members)
	case broker.MsgSyncRequest:
		buf = binary.AppendUvarint(buf, uint64(len(m.Buckets)))
		for _, v := range m.Buckets {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	case broker.MsgSyncRoots:
		buf = binary.LittleEndian.AppendUint64(buf, m.Mask)
		buf = binary.AppendUvarint(buf, uint64(len(m.Subs)))
		for _, it := range m.Subs {
			buf = appendString(buf, it.SubID)
			buf = appendSubscription(buf, it.Sub)
		}
	case broker.MsgRouteAnnounce:
		buf = appendString(buf, m.Target)
		buf = binary.AppendUvarint(buf, uint64(len(m.Subs)))
		for _, it := range m.Subs {
			buf = appendString(buf, it.SubID)
			buf = appendSubscription(buf, it.Sub)
		}
	default:
		return buf, fmt.Errorf("pubsub: cannot encode message kind %v", m.Kind)
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendMembers appends a uvarint-counted member-record list — the
// shared payload shape of gossip, gossip-delta, ping-req, and the
// ping/pong piggyback tail.
func appendMembers(buf []byte, ms []broker.MemberInfo) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	for _, mb := range ms {
		buf = appendString(buf, mb.ID)
		buf = appendString(buf, mb.Addr)
		buf = binary.AppendUvarint(buf, mb.Incarnation)
		buf = append(buf, mb.State)
	}
	return buf
}

func appendSubscription(buf []byte, s subscription.Subscription) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.Bounds)))
	for _, b := range s.Bounds {
		buf = binary.AppendVarint(buf, b.Lo)
		buf = binary.AppendVarint(buf, b.Hi)
	}
	return buf
}

func appendPublication(buf []byte, p subscription.Publication) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Values)))
	for _, v := range p.Values {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// parseBinaryHeader validates a complete 6-byte frame header and
// returns the payload length — the single copy of the header contract
// (magic, version, size cap) shared by UnmarshalFrame and the stream
// reader's blocking and buffered paths.
func parseBinaryHeader(hdr []byte) (int, error) {
	if hdr[0] != binMagic {
		return 0, fmt.Errorf("pubsub: bad frame magic 0x%02x", hdr[0])
	}
	if hdr[1] != binVersion {
		return 0, fmt.Errorf("pubsub: unsupported frame version %d (this build speaks %d)", hdr[1], binVersion)
	}
	n := int(binary.LittleEndian.Uint32(hdr[2:binHeader]))
	if n > maxBinaryPayload {
		return 0, fmt.Errorf("pubsub: frame payload %d exceeds %d bytes", n, maxBinaryPayload)
	}
	return n, nil
}

// decodePayload parses one frame payload in place into fr: a handshake
// frame by its kind byte, anything else as a protocol message.
func decodePayload(payload []byte, fr *Frame) error {
	if len(payload) > 0 && (payload[0] == kindHello || payload[0] == kindAck) {
		d := binDecoder{buf: payload[1:]}
		*fr = Frame{}
		if payload[0] == kindHello {
			flags := d.byte()
			if d.err == nil && flags > 1 {
				d.fail("bad hello flags byte %d", flags)
			}
			fr.Client = flags == 1
			fr.Hello = d.string()
			fr.Addr = d.string()
		} else {
			fr.Ack = d.string()
		}
		fr.Cluster = d.byte()
		if d.err == nil && fr.Hello == "" && fr.Ack == "" {
			d.fail("handshake frame without a name")
		}
		if d.err == nil && len(d.buf) != 0 {
			d.fail("%d trailing bytes after handshake payload", len(d.buf))
		}
		return d.err
	}
	msg, err := decodeBinaryMessage(payload)
	if err != nil {
		return err
	}
	*fr = Frame{Msg: msg}
	return nil
}

// decodeBinaryMessage parses a payload in place: the input slice is
// only borrowed (callers reuse their read buffers); every field that
// outlives the call is materialized.
func decodeBinaryMessage(payload []byte) (*broker.Message, error) {
	d := binDecoder{buf: payload}
	kind := broker.MsgKind(d.byte())
	msg := &broker.Message{Kind: kind}
	switch kind {
	case broker.MsgSubscribe:
		msg.SubID = d.string()
		msg.Sub = d.subscription()
	case broker.MsgUnsubscribe:
		msg.SubID = d.string()
	case broker.MsgPublish:
		msg.PubID = d.string()
		msg.Pub = d.publication()
	case broker.MsgNotify:
		msg.SubID = d.string()
		msg.PubID = d.string()
		msg.Pub = d.publication()
	case broker.MsgSubscribeBatch:
		// Every item needs at least 2 bytes, bounding the count by the
		// remaining payload before allocating.
		n := d.count(2)
		if d.err == nil {
			msg.Subs = make([]broker.BatchSub, n)
			for i := range msg.Subs {
				msg.Subs[i].SubID = d.string()
				msg.Subs[i].Sub = d.subscription()
			}
		}
	case broker.MsgUnsubscribeBatch:
		n := d.count(1)
		if d.err == nil {
			msg.SubIDs = make([]string, n)
			for i := range msg.SubIDs {
				msg.SubIDs[i] = d.string()
			}
		}
	case broker.MsgPublishBatch:
		n := d.count(2)
		if d.err == nil {
			msg.Pubs = make([]broker.BatchPub, n)
			for i := range msg.Pubs {
				msg.Pubs[i].PubID = d.string()
				msg.Pubs[i].Pub = d.publication()
			}
		}
	case broker.MsgPing, broker.MsgPong:
		msg.Seq = d.uvarint()
		// Optional piggybacked membership deltas after the seq.
		if d.err == nil && len(d.buf) > 0 {
			msg.Members = d.members()
		}
	case broker.MsgGossip, broker.MsgGossipDelta:
		msg.Members = d.members()
		if msg.Kind == broker.MsgGossipDelta {
			msg.MemberHash = d.u64()
			if d.err == nil && msg.MemberHash == 0 {
				d.fail("zero gossip-delta member hash")
			}
		}
		// Optional link digest: presence byte after the member list.
		if d.err == nil && len(d.buf) > 0 {
			if p := d.byte(); p != 1 {
				d.fail("bad gossip digest presence byte %d", p)
			} else {
				count := d.uvarint()
				if count > uint64(^uint32(0)) {
					d.fail("gossip digest count %d overflows", count)
				}
				root := d.u64()
				if d.err == nil {
					msg.Digest = &broker.LinkDigest{Count: uint32(count), Root: root}
				}
			}
		}
	case broker.MsgPingReq:
		if flags := d.byte(); d.err == nil && flags > 1 {
			d.fail("bad ping-req flags byte %d", flags)
		} else {
			msg.Ack = flags == 1
		}
		msg.Target = d.string()
		msg.Seq = d.uvarint()
		msg.Members = d.members()
	case broker.MsgSyncRequest:
		n := d.count(8)
		if d.err == nil {
			msg.Buckets = make([]uint64, n)
			for i := range msg.Buckets {
				msg.Buckets[i] = d.u64()
			}
		}
	case broker.MsgSyncRoots:
		msg.Mask = d.u64()
		n := d.count(2)
		if d.err == nil {
			msg.Subs = make([]broker.BatchSub, n)
			for i := range msg.Subs {
				msg.Subs[i].SubID = d.string()
				msg.Subs[i].Sub = d.subscription()
			}
		}
	case broker.MsgRouteAnnounce:
		msg.Target = d.string()
		n := d.count(2)
		if d.err == nil {
			msg.Subs = make([]broker.BatchSub, n)
			for i := range msg.Subs {
				msg.Subs[i].SubID = d.string()
				msg.Subs[i].Sub = d.subscription()
			}
		}
	default:
		return nil, fmt.Errorf("pubsub: unknown binary message kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("pubsub: %d trailing bytes after %v payload", len(d.buf), kind)
	}
	return msg, nil
}

// binDecoder is a cursor over a binary payload with sticky errors, so
// decode call sites read like the frame layout.
type binDecoder struct {
	buf []byte
	err error
}

func (d *binDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("pubsub: "+format, args...)
	}
}

func (d *binDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("truncated payload")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// u64 reads a fixed 8-byte little-endian value (digest roots and
// bucket hashes: random 64-bit values that varint encoding would only
// inflate).
func (d *binDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *binDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads an element count and validates it against the bytes
// actually remaining (each element occupies at least minBytes), so a
// hostile count cannot force a large allocation.
func (d *binDecoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)/minBytes) {
		d.fail("count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

// string reads a length-prefixed identifier. IDs are UTF-8 text by
// protocol, so invalid bytes are a decode error.
func (d *binDecoder) string() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if !utf8.Valid(d.buf[:n]) {
		d.fail("identifier is not valid UTF-8")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// members reads a uvarint-counted member-record list. Every record
// needs at least 4 bytes (two empty strings, an incarnation, a state
// byte), bounding the count before allocating.
func (d *binDecoder) members() []broker.MemberInfo {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	ms := make([]broker.MemberInfo, n)
	for i := range ms {
		ms[i].ID = d.string()
		ms[i].Addr = d.string()
		ms[i].Incarnation = d.uvarint()
		ms[i].State = d.byte()
	}
	return ms
}

func (d *binDecoder) subscription() subscription.Subscription {
	n := d.count(2)
	if d.err != nil || n == 0 {
		return subscription.Subscription{}
	}
	bounds := make([]interval.Interval, n)
	for i := range bounds {
		bounds[i].Lo = d.varint()
		bounds[i].Hi = d.varint()
	}
	if d.err != nil {
		return subscription.Subscription{}
	}
	return subscription.Subscription{Bounds: bounds}
}

func (d *binDecoder) publication() subscription.Publication {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return subscription.Publication{}
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = d.varint()
	}
	if d.err != nil {
		return subscription.Publication{}
	}
	return subscription.Publication{Values: values}
}
