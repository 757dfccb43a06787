package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The socket transport turns the Transport seam into real message passing:
// every PE holds one net.Conn to a central SocketHub, sends its per-
// destination batches as one length-delimited frame per superstep, and
// blocks until the hub has collected the step's frame from every PE and
// replied with the PE's inbox. The hub routes opaque bytes — it never
// decodes a Msg — so the message encoding is owned entirely by the
// pluggable BatchCodec (internal/wire provides the versioned default).
//
// Wire layout, client → hub, one frame per Exchange call:
//
//	uvarint pes                        number of destination segments
//	pes × { uvarint len, len bytes }   encoded batch for each destination
//
// hub → client, one frame per superstep:
//
//	uvarint len, len bytes             all senders' segments for this PE,
//	                                   concatenated in sender-PE order
//
// Because a batch encoding is defined as the plain concatenation of message
// encodings (see BatchCodec), the hub's byte-level concatenation IS the
// sender-ordered inbox — the same determinism contract the in-process
// Exchanger provides.

// socketMagic opens the per-connection hello of the socket protocol; the
// trailing '1' is the protocol generation.
const socketMagic = "KPT1"

// Connection roles announced in the hello. The hub serves RoleTransport
// connections; RoleControl is reserved for the coordinator/worker control
// protocol that shares a listener with the hub (cmd/kappa serve).
const (
	RoleTransport = 0
	RoleControl   = 1
)

// Hello is the fixed first frame of every socket-protocol connection.
type Hello struct {
	Role byte
	PE   int // -1 on control connections that request a PE assignment
}

// WriteHello writes the hello frame.
func WriteHello(w io.Writer, h Hello) error {
	var buf [4 + 1 + binary.MaxVarintLen64]byte
	n := copy(buf[:], socketMagic)
	buf[n] = h.Role
	n++
	n += binary.PutUvarint(buf[n:], uint64(h.PE+1))
	_, err := w.Write(buf[:n])
	return err
}

// ReadHello reads and validates a hello frame.
func ReadHello(r *bufio.Reader) (Hello, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Hello{}, fmt.Errorf("dist: reading hello: %w", err)
	}
	if string(magic[:]) != socketMagic {
		return Hello{}, fmt.Errorf("dist: bad hello magic %q", magic[:])
	}
	role, err := r.ReadByte()
	if err != nil {
		return Hello{}, fmt.Errorf("dist: reading hello role: %w", err)
	}
	if role != RoleTransport && role != RoleControl {
		return Hello{}, fmt.Errorf("dist: unknown hello role %d", role)
	}
	pe1, err := binary.ReadUvarint(r)
	if err != nil {
		return Hello{}, fmt.Errorf("dist: reading hello PE: %w", err)
	}
	if pe1 > 1<<31 {
		return Hello{}, fmt.Errorf("dist: hello PE %d out of range", pe1)
	}
	return Hello{Role: role, PE: int(pe1) - 1}, nil
}

// BatchCodec encodes Msg batches for the socket transport. The contract that
// makes the hub codec-agnostic: the encoding of a batch is the plain
// concatenation of its messages' encodings (no count prefix, each message
// self-delimiting), so concatenating encoded batches yields a decodable
// batch. AppendBatch appends to dst and returns the extended slice;
// DecodeBatch appends every decoded message to into and returns it.
// internal/wire.MsgCodec is the versioned production implementation.
type BatchCodec interface {
	AppendBatch(dst []byte, msgs []Msg) []byte
	DecodeBatch(data []byte, into []Msg) ([]Msg, error)
}

// SocketError wraps the I/O failures of a SocketTransport. The Transport
// interface has no error returns (its in-process implementations cannot
// fail), so Exchange panics with a *SocketError when the connection dies;
// process entry points recover it at the superstep-sequence boundary
// (remote.Work's kernel goroutine), converting it back into an error.
//
//kappa:invariant recovered at the kernel-goroutine boundary by contract
type SocketError struct{ Err error }

func (e *SocketError) Error() string { return "dist: socket transport: " + e.Err.Error() }
func (e *SocketError) Unwrap() error { return e.Err }

// socketPE is one local PE's connection state.
type socketPE struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  []byte // frame scratch, reused across supersteps
	in   []byte // inbox byte scratch
	msgs []Msg  // inbox decode scratch
}

// SocketTransport implements Transport over per-PE socket connections to a
// SocketHub. One transport can host any subset of the PEs: a worker process
// adds just its own PE, while a single-process test can add all of them and
// swap the transport in for the Exchanger unchanged. Exchange may be called
// concurrently for different local PEs (each PE has its own connection) but,
// as with every Transport, sequentially per PE.
//
// The inbox slice returned by Exchange is reused by that PE's next Exchange
// call; callers must consume it before the next superstep (both distributed
// pipeline stages do).
type SocketTransport struct {
	pes      int
	codec    BatchCodec
	stats    *TransportStats
	deadline time.Duration
	faults   *FaultSchedule

	mu    sync.Mutex
	conns map[int]*socketPE
}

var _ Transport = (*SocketTransport)(nil)

// NewSocketTransport returns a SocketTransport for a pes-PE system speaking
// codec on every connection; add the locally hosted PEs with addPE or Dial.
func NewSocketTransport(pes int, codec BatchCodec) *SocketTransport {
	return &SocketTransport{pes: pes, codec: codec, conns: make(map[int]*socketPE)}
}

// SetStats attaches s as the transport's byte/frame counter: every Exchange
// adds its frame counts and payload bytes to s's entry for the calling PE.
// Call before the first Exchange; nil detaches.
func (t *SocketTransport) SetStats(s *TransportStats) { t.stats = s }

// SetIODeadline bounds every Exchange I/O operation: each superstep send and
// each inbox read must complete within d or Exchange panics with a
// *SocketError wrapping os.ErrDeadlineExceeded. Without a deadline a
// half-closed or stalled peer blocks the inbox read forever and the whole
// superstep barrier hangs with it; with one, the stall surfaces as an
// ordinary transport failure the caller's recovery path can handle. A
// superstep is known to be in flight the moment our own frame is sent, so —
// unlike the hub — the transport side can arm the deadline unconditionally.
// Zero disables (the default). Call before the first Exchange.
func (t *SocketTransport) SetIODeadline(d time.Duration) { t.deadline = d }

// SetFaults attaches a fault-injection schedule: every connection added
// after this call is wrapped per its "pe<N>" label (see FaultSchedule). Nil
// or empty schedules leave connections unwrapped. Call before addPE/Dial.
func (t *SocketTransport) SetFaults(s *FaultSchedule) { t.faults = s }

// addPE attaches conn as local PE pe's connection and sends the hello frame.
func (t *SocketTransport) addPE(pe int, conn net.Conn) error {
	if pe < 0 || pe >= t.pes {
		return fmt.Errorf("dist: PE %d out of range [0, %d)", pe, t.pes)
	}
	conn = t.faults.Wrap(fmt.Sprintf("pe%d", pe), conn)
	if err := WriteHello(conn, Hello{Role: RoleTransport, PE: pe}); err != nil {
		return fmt.Errorf("dist: hello for PE %d: %w", pe, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.conns[pe]; dup {
		return fmt.Errorf("dist: PE %d already attached", pe)
	}
	t.conns[pe] = &socketPE{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
	return nil
}

// Dial connects local PE pe to the hub at addr and attaches it.
func (t *SocketTransport) Dial(network, addr string, pe int) error {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return err
	}
	if err := t.addPE(pe, conn); err != nil {
		conn.Close()
		return err
	}
	return nil
}

// Close closes every attached connection, which also lets the hub finish.
func (t *SocketTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, c := range t.conns {
		if err := c.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.conns = make(map[int]*socketPE)
	return first
}

// PEs returns the number of PEs in the system (not just the local ones).
func (t *SocketTransport) PEs() int { return t.pes }

// Exchange implements Transport.Exchange for a locally hosted PE: encode
// out, frame it to the hub, block for the inbox frame, decode. Panics with
// *SocketError when the connection fails (see SocketError).
func (t *SocketTransport) Exchange(pe int, out [][]Msg) []Msg {
	t.mu.Lock()
	c := t.conns[pe]
	t.mu.Unlock()
	if c == nil {
		panic(&SocketError{fmt.Errorf("PE %d is not hosted by this transport", pe)})
	}

	// Encode the frame: uvarint pes, then one length-prefixed segment per
	// destination (missing tails of out are empty segments).
	buf := c.enc[:0]
	buf = binary.AppendUvarint(buf, uint64(t.pes))
	seg := c.in[:0] // reuse as segment scratch during encode
	for q := 0; q < t.pes; q++ {
		seg = seg[:0]
		if q < len(out) {
			seg = t.codec.AppendBatch(seg, out[q])
		}
		buf = binary.AppendUvarint(buf, uint64(len(seg)))
		buf = append(buf, seg...)
	}
	c.enc, c.in = buf, seg[:0]
	if t.deadline > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(t.deadline))
	}
	if _, err := c.bw.Write(buf); err != nil {
		panic(&SocketError{fmt.Errorf("PE %d superstep send: %w", pe, err)})
	}
	if err := c.bw.Flush(); err != nil {
		panic(&SocketError{fmt.Errorf("PE %d superstep send: %w", pe, err)})
	}

	// Inbox frame: uvarint length, then the sender-ordered concatenation of
	// every PE's batch for us. The deadline covers the whole frame: the hub
	// replies only once every PE's frame arrived, so a stalled peer anywhere
	// in the system surfaces here as a deadline expiry.
	if t.deadline > 0 {
		c.conn.SetReadDeadline(time.Now().Add(t.deadline))
	}
	nb, err := binary.ReadUvarint(c.br)
	if err != nil {
		panic(&SocketError{fmt.Errorf("PE %d superstep receive: %w", pe, err)})
	}
	if nb > 1<<32 {
		panic(&SocketError{fmt.Errorf("PE %d inbox frame of %d bytes", pe, nb)})
	}
	if uint64(cap(c.in)) < nb {
		c.in = make([]byte, nb)
	}
	c.in = c.in[:nb]
	if t.deadline > 0 {
		c.conn.SetReadDeadline(time.Now().Add(t.deadline))
	}
	if _, err := io.ReadFull(c.br, c.in); err != nil {
		panic(&SocketError{fmt.Errorf("PE %d superstep receive: %w", pe, err)})
	}
	c.msgs, err = t.codec.DecodeBatch(c.in, c.msgs[:0])
	if err != nil {
		panic(&SocketError{fmt.Errorf("PE %d inbox decode: %w", pe, err)})
	}
	if st := t.stats.PE(pe); st != nil {
		st.FramesSent.Add(1)
		st.BytesSent.Add(int64(len(buf)))
		st.FramesRecv.Add(1)
		st.BytesRecv.Add(int64(nb))
	}
	return c.msgs
}

// hubConn is one registered PE connection on the hub side.
type hubConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	segs [][]byte // this step's destination segments, reused
	buf  []byte   // backing storage for segs
}

// SocketHub is the superstep router of the socket transport: it owns one
// connection per PE, and per superstep reads every PE's frame (in PE order —
// the barrier), assembles each PE's inbox by concatenating the senders'
// segments in sender order, and writes the replies. It never decodes a
// message, so any BatchCodec works across it unchanged.
type SocketHub struct {
	pes      int
	stats    *TransportStats
	deadline time.Duration
	faults   *FaultSchedule
	mu       sync.Mutex
	conns    []*hubConn
	stopped  bool
}

// NewSocketHub returns a hub for pes PEs; attach connections with
// AddConnBuffered (or let Serve accept them) and then call Route.
func NewSocketHub(pes int) *SocketHub {
	return &SocketHub{pes: pes, conns: make([]*hubConn, pes)}
}

// SetStats attaches s as the hub's traffic counter. The hub records each
// PE's traffic from that PE's perspective: FramesSent/BytesSent are the
// frames the PE sent (which the hub read), FramesRecv/BytesRecv the inbox
// frames the hub wrote back, and Supersteps the routed superstep count —
// per-worker transport visibility without touching the worker processes.
// Call before Route; nil detaches.
func (h *SocketHub) SetStats(s *TransportStats) { h.stats = s }

// SetIODeadline bounds the hub's per-connection frame I/O. Unlike the
// transport side, the hub cannot arm a blanket read deadline: between
// supersteps it legitimately blocks for as long as the coordinator computes
// (initial partitioning, refinement), so only intra-superstep reads are
// bounded — the first PE's frame is awaited without deadline (that wait IS
// the idle period), and once it starts arriving the step is in flight and
// every remaining read and reply write must finish within d. Zero disables.
func (h *SocketHub) SetIODeadline(d time.Duration) { h.deadline = d }

// SetFaults attaches a fault-injection schedule: connections added after
// this call are wrapped per their "hub<N>" label and get write-side injection
// only (their reader predates the wrap). Call before AddConnBuffered/Serve.
func (h *SocketHub) SetFaults(s *FaultSchedule) { h.faults = s }

// Stop closes every attached connection, failing any in-flight or future
// superstep so a blocked Route call returns. The coordinator uses it to
// collapse the current contraction level after detecting a dead worker:
// every live worker's kernel aborts with a transport error instead of
// blocking forever on a barrier that can no longer complete.
func (h *SocketHub) Stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	for _, c := range h.conns {
		if c != nil {
			c.conn.Close()
		}
	}
}

// AddConnBuffered registers the transport connection of PE pe. The caller
// has already consumed the hello frame through br (Serve does this itself; a
// shared accept loop reads it to tell the roles apart): br's already-buffered
// bytes stay with the connection. Fault schedules only reach this
// connection's write side — br predates the wrap.
func (h *SocketHub) AddConnBuffered(pe int, conn net.Conn, br *bufio.Reader) error {
	conn = h.faults.Wrap(fmt.Sprintf("hub%d", pe), conn)
	if pe < 0 || pe >= h.pes {
		return fmt.Errorf("dist: hub: PE %d out of range [0, %d)", pe, h.pes)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conns[pe] != nil {
		return fmt.Errorf("dist: hub: PE %d already connected", pe)
	}
	if h.stopped {
		conn.Close()
		return fmt.Errorf("dist: hub: stopped")
	}
	h.conns[pe] = &hubConn{
		conn: conn,
		br:   br,
		bw:   bufio.NewWriterSize(conn, 1<<16),
		segs: make([][]byte, h.pes),
	}
	return nil
}

// Serve accepts exactly pes transport connections from ln, reading each
// connection's hello, then routes supersteps until every PE disconnects.
// Use AddConnBuffered + Route instead when the listener is shared with other
// traffic.
func (h *SocketHub) Serve(ln net.Listener) error {
	for got := 0; got < h.pes; got++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: hub accept: %w", err)
		}
		br := bufio.NewReaderSize(conn, 1<<16)
		hello, err := ReadHello(br)
		if err != nil {
			conn.Close()
			return err
		}
		if hello.Role != RoleTransport {
			conn.Close()
			return fmt.Errorf("dist: hub: unexpected role %d", hello.Role)
		}
		if err := h.AddConnBuffered(hello.PE, conn, br); err != nil {
			conn.Close()
			return err
		}
	}
	return h.Route()
}

// Route runs the superstep routing loop until every PE has disconnected
// (clean shutdown, nil) or a connection fails mid-superstep (error). Every
// PE must be attached before Route is called.
func (h *SocketHub) Route() error {
	for pe, c := range h.conns {
		if c == nil {
			return fmt.Errorf("dist: hub: PE %d never connected", pe)
		}
	}
	defer func() {
		for _, c := range h.conns {
			c.conn.Close()
		}
	}()
	for step := 0; ; step++ {
		closed := 0
		for pe, c := range h.conns {
			if h.deadline > 0 {
				if pe == 0 {
					// Idle wait: between supersteps the hub blocks here for
					// as long as the coordinator computes, so the first PE's
					// first byte is awaited without deadline. Once it is
					// buffered, the superstep is in flight and the rest of
					// the frame (and every other PE) is bounded.
					c.conn.SetReadDeadline(time.Time{})
					c.br.Peek(1) // block for the step's first byte; errors resurface in readFrame
				}
				c.conn.SetReadDeadline(time.Now().Add(h.deadline))
			}
			err := h.readFrame(c)
			if err == io.EOF && closed == pe {
				closed++
				continue
			}
			if err != nil {
				return fmt.Errorf("dist: hub: PE %d superstep %d: %w", pe, step, err)
			}
			if closed > 0 {
				return fmt.Errorf("dist: hub: PE %d disconnected at superstep %d but PE %d kept going", closed-1, step, pe)
			}
			if st := h.stats.PE(pe); st != nil {
				st.FramesSent.Add(1)
				st.BytesSent.Add(int64(len(c.buf)))
				st.Supersteps.Add(1)
			}
		}
		if closed == h.pes {
			return nil // all PEs finished their superstep sequence
		}
		// Reply: each PE's inbox is the sender-ordered concatenation of the
		// segments addressed to it.
		for q, c := range h.conns {
			var scratch [binary.MaxVarintLen64]byte
			total := 0
			for _, s := range h.conns {
				total += len(s.segs[q])
			}
			if h.deadline > 0 {
				c.conn.SetWriteDeadline(time.Now().Add(h.deadline))
			}
			c.bw.Write(scratch[:binary.PutUvarint(scratch[:], uint64(total))])
			for _, s := range h.conns {
				c.bw.Write(s.segs[q])
			}
			if err := c.bw.Flush(); err != nil {
				return fmt.Errorf("dist: hub: replying to PE %d at superstep %d: %w", q, step, err)
			}
			if st := h.stats.PE(q); st != nil {
				st.FramesRecv.Add(1)
				st.BytesRecv.Add(int64(total))
			}
		}
	}
}

// readFrame reads one exchange frame from c into c.segs. Returns io.EOF only
// for a clean close before the frame's first byte.
func (h *SocketHub) readFrame(c *hubConn) error {
	nseg, err := binary.ReadUvarint(c.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return err
	}
	if int(nseg) != h.pes {
		return fmt.Errorf("frame addresses %d PEs, hub has %d", nseg, h.pes)
	}
	total := 0
	lens := make([]int, h.pes)
	// Segment lengths are interleaved with payloads in the frame; read
	// sequentially, growing one backing buffer for all segments.
	c.buf = c.buf[:0]
	for q := 0; q < h.pes; q++ {
		l, err := binary.ReadUvarint(c.br)
		if err != nil {
			return unexpectedEOF(err)
		}
		if l > 1<<32 {
			return fmt.Errorf("segment of %d bytes", l)
		}
		lens[q] = int(l)
		start := total
		total += int(l)
		if cap(c.buf) < total {
			nb := make([]byte, total, max(2*cap(c.buf), total))
			copy(nb, c.buf)
			c.buf = nb
		} else {
			c.buf = c.buf[:total]
		}
		if _, err := io.ReadFull(c.br, c.buf[start:total]); err != nil {
			return unexpectedEOF(err)
		}
	}
	off := 0
	for q := 0; q < h.pes; q++ {
		c.segs[q] = c.buf[off : off+lens[q]]
		off += lens[q]
	}
	return nil
}

// unexpectedEOF upgrades io.EOF mid-frame to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
