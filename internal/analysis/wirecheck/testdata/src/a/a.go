// Package a is the wirecheck violation fixture: a miniature codec
// where one kind is missing everywhere (MsgD), one is missing from the
// decode switch (MsgB), and one has asymmetric fields (MsgC). MsgA is
// fully correct.
package a

type MsgKind uint8

const (
	MsgA MsgKind = iota
	MsgB
	MsgC
	MsgD
)

type Message struct {
	Kind MsgKind
	A    string
	B    int
	C1   string
	C2   string
}

func MarshalFrame(m *Message) []byte { // want `MsgD is not handled in the encode switch reachable from MarshalFrame`
	return encodeBody(m)
}

// encodeBody is only reachable from MarshalFrame: its switch must
// still be found through the call graph.
func encodeBody(m *Message) []byte {
	var buf []byte
	switch m.Kind {
	case MsgA:
		buf = appendString(buf, m.A)
	case MsgB:
		buf = append(buf, byte(m.B))
	case MsgC: // want `field C2 of MsgC is serialized in the encode switch but never decoded`
		buf = appendString(buf, m.C1)
		buf = appendString(buf, m.C2)
	}
	return buf
}

func UnmarshalFrame(data []byte) *Message { // want `MsgB is not handled in the decode switch reachable from UnmarshalFrame` `MsgD is not handled in the decode switch reachable from UnmarshalFrame`
	var m Message
	m.Kind = MsgKind(data[0])
	switch m.Kind {
	case MsgA:
		m.A = string(data[1:])
	case MsgC: // want `field B of MsgC is decoded but never serialized in the encode switch`
		m.C1 = string(data[1:])
		m.B = len(data)
	}
	return &m
}

func appendString(buf []byte, s string) []byte {
	buf = append(buf, byte(len(s)))
	return append(buf, s...)
}
