package pubsub

// frameReader: the stream side of the codec. One instance wraps each
// inbound connection; it validates every frame header (see codec.go),
// reuses one payload buffer across frames (pooled decode: a
// connection's frames never allocate fresh payload storage once the
// buffer has grown to the connection's frame sizes), and exposes a
// non-blocking tryRead so readers can coalesce frames that are
// already buffered without risking a stall on a partial frame.

import (
	"bufio"
	"io"
	"time"

	"probsum/internal/obs"
)

// frameReaderBufSize is the bufio window; frames larger than it still
// decode on the blocking path, but cannot be coalesced by tryRead.
const frameReaderBufSize = 64 << 10

type frameReader struct {
	r       *bufio.Reader
	payload []byte // reused binary-payload scratch

	// hist/clock, when set (server-side readers), time the decode
	// stage: unmarshal only, never the blocking socket read. Both nil
	// or both set.
	hist  *obs.Histogram
	clock func() time.Time
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, frameReaderBufSize)}
}

// instrument attaches decode-stage timing; zero overhead when unset.
func (fr *frameReader) instrument(hist *obs.Histogram, clock func() time.Time) {
	fr.hist, fr.clock = hist, clock
}

// grow returns the reusable payload buffer resized to n bytes.
func (fr *frameReader) grow(n int) []byte {
	if cap(fr.payload) < n {
		fr.payload = make([]byte, n)
	}
	return fr.payload[:n]
}

// decode parses one payload into f, timing it when instrumented.
func (fr *frameReader) decode(payload []byte, f *Frame) error {
	if fr.hist == nil {
		return decodePayload(payload, f)
	}
	t0 := fr.clock()
	err := decodePayload(payload, f)
	fr.hist.Observe(fr.clock().Sub(t0))
	return err
}

// read blocks until one full frame is decoded (or the stream errors).
func (fr *frameReader) read(f *Frame) error {
	var hdr [binHeader]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return err
	}
	n, err := parseBinaryHeader(hdr[:])
	if err != nil {
		return err
	}
	payload := fr.grow(n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return err
	}
	err = fr.decode(payload, f)
	// One outsized frame must not pin its buffer for the life of
	// the connection — drop anything beyond the bufio window and
	// fall back to the steady-state size on the next frame.
	if cap(fr.payload) > frameReaderBufSize {
		fr.payload = nil
	}
	return err
}

// tryRead decodes the next frame ONLY if it is already fully buffered
// and reports whether it did. It never touches the underlying reader,
// so a reader goroutine can drain everything the kernel already
// delivered — coalescing a burst — and fall back to the blocking read
// when the stream runs dry mid-frame.
func (fr *frameReader) tryRead(f *Frame) (bool, error) {
	n := fr.r.Buffered()
	if n < binHeader {
		return false, nil
	}
	buf, err := fr.r.Peek(n)
	if err != nil {
		return false, err
	}
	plen, err := parseBinaryHeader(buf)
	if err != nil {
		return false, err
	}
	if n < binHeader+plen {
		return false, nil
	}
	if err := fr.decode(buf[binHeader:binHeader+plen], f); err != nil {
		return false, err
	}
	fr.r.Discard(binHeader + plen)
	return true, nil
}
