package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graphio"
	"repro/internal/varint"
)

// frameHead is the room a frame buffer keeps in front of its payload: the
// longest header, a kind byte and a ten-byte length.
const frameHead = 1 + binary.MaxVarintLen64

// NewFrame returns an empty frame buffer with room for n payload bytes:
// append the payload behind it (every Append function of this package takes
// one as dst) and hand the result to WriteFrame. Nothing else begins a frame
// buffer.
func NewFrame(n int) []byte { return make([]byte, frameHead, frameHead+n) }

// WriteFrame writes one control frame: a kind byte, a uvarint payload
// length, and the payload. Control connections (coordinator ↔ worker) are a
// sequence of such frames after the dist socket hello. frame is a buffer
// begun by NewFrame: the header is written into the room in front of the
// payload, right-aligned, so that the frame leaves in one Write — one
// system call and, on TCP, one segment train — with no copy of the payload.
// Writing a frame buffer again, to another peer, writes the same bytes; nil
// is a frame without payload. The room is taken on trust: a buffer shorter
// than it is refused, but a longer one that NewFrame did not begin — a bare
// payload, Append…(nil, …) — loses its first frameHead bytes to the header
// and goes out as a well-formed frame of the rest
// (TestWriteFrameTakesHeaderRoomOnTrust).
func WriteFrame(w io.Writer, kind byte, frame []byte) error {
	if frame == nil {
		frame = NewFrame(0)
	}
	if len(frame) < frameHead {
		return fmt.Errorf("wire: frame buffer of %d bytes was not begun by NewFrame", len(frame))
	}
	n := uint64(len(frame) - frameHead)
	at := frameHead - 1 - varint.Len(n)
	frame[at] = kind
	binary.PutUvarint(frame[at+1:], n)
	_, err := w.Write(frame[at:])
	return err
}

// ReadFrame reads one control frame. The payload buffer is freshly allocated
// per call: control frames are rare next to superstep traffic — a job and a
// result per PE per level, about 55 frames an op on the benchmark's socket
// workloads (2 PEs, 13 levels) against 156 supersteps — and a session lives
// one run, so a buffer kept across levels would be resident memory for no
// measured time (ROADMAP item 4). The declared length is checked against the
// decode budget (SetMaxFrame) before the allocation: an over-budget
// declaration returns a *graphio.LimitError without touching the allocator.
func ReadFrame(r *bufio.Reader) (kind byte, payload []byte, err error) {
	kind, err = r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: frame length: %w", unexpectEOF(err))
	}
	if limit := maxFrame(); n > limit {
		return 0, nil, &graphio.LimitError{What: "frame", Declared: n, Limit: limit}
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: frame payload: %w", unexpectEOF(err))
	}
	return kind, payload, nil
}

// unexpectEOF upgrades a bare io.EOF inside a frame to io.ErrUnexpectedEOF.
func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
