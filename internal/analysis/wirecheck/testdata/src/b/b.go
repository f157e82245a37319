// Package b is the wirecheck clean fixture: a complete codec with
// symmetric switches that must produce no diagnostics.
package b

type MsgKind uint8

const (
	MsgX MsgKind = iota
	MsgY
)

type Message struct {
	Kind MsgKind
	X    string
	Y    int
}

func MarshalFrame(m *Message) []byte {
	var buf []byte
	switch m.Kind {
	case MsgX:
		buf = append(buf, byte(len(m.X)))
		buf = append(buf, m.X...)
	case MsgY:
		buf = append(buf, byte(m.Y))
	}
	return buf
}

func UnmarshalFrame(data []byte) *Message {
	var m Message
	m.Kind = MsgKind(data[0])
	switch m.Kind {
	case MsgX:
		m.X = string(data[1:])
	case MsgY:
		m.Y = int(data[1])
	}
	return &m
}
