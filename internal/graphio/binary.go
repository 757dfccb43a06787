package graphio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/varint"
)

// binaryMagic opens every binary graph file; the trailing '1' is the major
// layout generation (a reader that sees a different magic bails out before
// touching any length field).
const binaryMagic = "KPRG"

// binaryVersion is the current encoding version, written after the magic and
// checked by ReadBinary. Bump it when the layout changes incompatibly.
const binaryVersion = 1

// Binary flag bits.
const (
	binFlagNodeWeights = 1 << 0
	binFlagEdgeWeights = 1 << 1
	binFlagCoords      = 1 << 2
	binFlag3D          = 1 << 3
)

// WriteBinary writes the compact binary encoding of g: magic, version, a
// flag word, n and the half-edge count as uvarints, the per-node degrees,
// the adjacency targets, then (flag-dependent) edge weights, node weights,
// and coordinate arrays as little-endian float64 bits. The encoding is a
// pure function of the graph — the same graph always produces the same
// bytes — and, unlike METIS, it preserves coordinates and the exact
// adjacency order (so even contracted graphs round-trip to identical CSR).
// The artifact is encoded whole by AppendBinary and written in one call.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	_, err := w.Write(AppendBinary(nil, 0, g))
	return err
}

// AppendBinary appends the binary encoding of g to dst, behind head bytes
// left for the caller to fill (the shard codec writes its id maps and the
// graph's length prefix there, so a whole shard is sized once). It is the
// one encoder body: WriteBinary and the wire shard codec both go through it,
// so a shard file, a job frame and a graph file carry the same bytes. dst
// grows at most once, by a bound computed from the graph's largest values.
func AppendBinary(dst []byte, head int, g *graph.Graph) []byte {
	flags, bound := binaryLayout(g)
	dst = slices.Grow(dst, head+bound)
	at := len(dst) + head
	return dst[:at+putBinary(dst[at:at+bound], g, flags)]
}

// binaryLayout derives the flag word of g's encoding and an upper bound on
// its size: every section is bounded by its element count times the encoded
// size of its largest value.
func binaryLayout(g *graph.Graph) (flags uint64, bound int) {
	n := int32(g.NumNodes())
	for v := int32(0); v < n; v++ {
		if g.NodeWeight(v) != 1 {
			flags |= binFlagNodeWeights
			break
		}
	}
	half, maxDeg, maxW := 0, 0, int64(1)
	for v := int32(0); v < n; v++ {
		ws := g.AdjWeights(v)
		half += len(ws)
		maxDeg = max(maxDeg, len(ws))
		for _, wt := range ws {
			maxW = max(maxW, wt)
		}
	}
	if maxW != 1 {
		flags |= binFlagEdgeWeights
	}
	switch g.CoordDims() {
	case 2:
		flags |= binFlagCoords
	case 3:
		flags |= binFlagCoords | binFlag3D
	}
	bound = len(binaryMagic) + 4*varint.MaxLen +
		int(n)*varint.Len(uint64(maxDeg)) + half*varint.Len(uint64(n))
	if flags&binFlagEdgeWeights != 0 {
		bound += half * varint.Len(uint64(maxW))
	}
	if flags&binFlagNodeWeights != 0 {
		bound += int(n) * varint.Len(uint64(g.MaxNodeWeight()))
	}
	return flags, bound + g.CoordDims()*8*int(n)
}

// putBinary writes g's encoding into buf, which binaryLayout sized, and
// returns its length.
//
//kappa:hotpath
func putBinary(buf []byte, g *graph.Graph, flags uint64) int {
	n := int32(g.NumNodes())
	i := copy(buf, binaryMagic)
	i = varint.Put(buf, i, binaryVersion)
	i = varint.Put(buf, i, flags)
	i = varint.Put(buf, i, uint64(n))
	i = varint.Put(buf, i, uint64(2*g.NumEdges()))
	for v := int32(0); v < n; v++ {
		i = varint.Put(buf, i, uint64(g.Degree(v)))
	}
	for v := int32(0); v < n; v++ {
		for _, u := range g.Adj(v) {
			i = varint.Put(buf, i, uint64(u))
		}
	}
	if flags&binFlagEdgeWeights != 0 {
		for v := int32(0); v < n; v++ {
			for _, wt := range g.AdjWeights(v) {
				i = varint.Put(buf, i, uint64(wt))
			}
		}
	}
	if flags&binFlagNodeWeights != 0 {
		for v := int32(0); v < n; v++ {
			i = varint.Put(buf, i, uint64(g.NodeWeight(v)))
		}
	}
	if flags&binFlagCoords != 0 {
		x, y, z := g.Coords3()
		i = varint.PutFloats(buf, i, x)
		i = varint.PutFloats(buf, i, y)
		i = varint.PutFloats(buf, i, z) // nil unless 3D
	}
	return i
}

// binSource feeds the one decoder body its bytes: from a slice the caller
// already holds (DecodeBinary — no copy, no reader stack), or from an
// io.Reader through a window refilled here, so that varints decode from a
// slice either way instead of one interface call per byte.
type binSource struct {
	r   io.Reader // nil: buf[pos:] is the whole input
	buf []byte
	pos int
	err error // what r returned when it stopped delivering
}

// errVarintOverflow mirrors encoding/binary's unexported overflow error.
var errVarintOverflow = errors.New("graphio: varint overflows a 64-bit integer")

// fill tries to make need bytes available at buf[pos:].
func (s *binSource) fill(need int) {
	if s.r == nil || s.err != nil || len(s.buf)-s.pos >= need {
		return
	}
	s.buf = s.buf[:copy(s.buf, s.buf[s.pos:])]
	s.pos = 0
	for empty := 0; len(s.buf) < need && s.err == nil; {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf, s.err = s.buf[:len(s.buf)+n], err
		if n == 0 && err == nil {
			if empty++; empty == 100 { // bufio's bound on a reader that makes no progress
				s.err = io.ErrNoProgress
			}
		}
	}
}

// short is the error for input that ended inside a value.
func (s *binSource) short() error {
	if s.err != nil && s.err != io.EOF {
		return s.err
	}
	return io.ErrUnexpectedEOF
}

// uvarint decodes the next uvarint.
func (s *binSource) uvarint() (uint64, error) {
	if s.r != nil && len(s.buf)-s.pos < binary.MaxVarintLen64 {
		s.fill(binary.MaxVarintLen64)
	}
	x, n := binary.Uvarint(s.buf[s.pos:])
	if n > 0 {
		s.pos += n
		return x, nil
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	return 0, s.short()
}

// more reads on after a bulk kernel ran out of bytes short of need; it
// reports whether the input had any more to give.
func (s *binSource) more(need int) bool {
	had := len(s.buf) - s.pos
	s.fill(need)
	return len(s.buf)-s.pos > had
}

// floats decodes len(c) little-endian float64s into c.
func (s *binSource) floats(c []float64) error {
	for done := 0; ; {
		k := varint.Floats(c[done:], s.buf[s.pos:])
		s.pos += 8 * k
		if done += k; done == len(c) {
			return nil
		}
		if !s.more(8) {
			return s.short()
		}
	}
}

// stretch is how many elements of a section are decoded before the section's
// own loop sees them: few enough to still be in the first-level cache, so
// that what the loop adds up costs no second trip to memory.
const stretch = 1 << 12

// uvarints fills dst with the next len(dst) uvarints, each within [lo, hi],
// on the bulk kernel — refilling the window of a streamed input whenever the
// kernel runs dry — and hands every stretch to seen as soon as it is
// decoded; seen returning false ends the read. at is the number of elements
// stored and st why the kernel stopped there; on OutOfRange the offending
// value is the next uvarint of the window.
func uvarints[T int32 | int64](s *binSource, dst []T, lo, hi uint64, seen func([]T) bool) (at int, st varint.Status) {
	for at < len(dst) {
		k, used, st := varint.Ints(dst[at:min(at+stretch, len(dst))], s.buf[s.pos:], false, lo, hi)
		s.pos += used
		if !seen(dst[at : at+k]) {
			return at + k, varint.Done
		}
		at += k
		if st == varint.Short && s.more(varint.MaxLen) {
			continue
		}
		if st != varint.Done {
			return at, st
		}
	}
	return at, varint.Done
}

// failed words the stop of a section's bulk read: a value outside the
// section's bounds under rangeFormat, which takes the value first, anything
// else — out of bytes, a value past 64 bits — as a failure to read what.
func (s *binSource) failed(st varint.Status, what, rangeFormat string, args ...any) error {
	switch st {
	case varint.OutOfRange:
		raw, _ := binary.Uvarint(s.buf[s.pos:])
		return fmt.Errorf("graphio: "+rangeFormat, append([]any{raw}, args...)...)
	case varint.Overflow:
		return fmt.Errorf("graphio: reading %s: %w", what, errVarintOverflow)
	}
	return fmt.Errorf("graphio: reading %s: %w", what, s.short())
}

// ReadBinary parses the binary graph encoding written by WriteBinary. All
// structural invariants are validated — magic, version, degree sums,
// neighbor ranges, weight signs — so corrupt or truncated input returns an
// error instead of corrupting memory or panicking. Symmetry of the adjacency
// is trusted (it holds for every writer in this module); call
// graph.Graph.Validate on files from untrusted producers.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	return decodeBinary(&binSource{r: r, buf: make([]byte, 0, 1<<16)})
}

// DecodeBinary is ReadBinary over bytes already in memory — a shard inside a
// job frame, a shard file read whole; bytes after the artifact are ignored.
// Same decoder body, same checks, and one more the slice makes possible: the
// declared counts are held against the bytes actually present before
// anything is allocated for them.
func DecodeBinary(data []byte) (*graph.Graph, error) {
	return decodeBinary(&binSource{buf: data})
}

func decodeBinary(br *binSource) (*graph.Graph, error) {
	br.fill(len(binaryMagic))
	if len(br.buf)-br.pos < len(binaryMagic) {
		return nil, fmt.Errorf("graphio: reading magic: %w", br.short())
	}
	magic := br.buf[br.pos : br.pos+len(binaryMagic)]
	br.pos += len(binaryMagic)
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graphio: bad magic %q (want %q)", magic, binaryMagic)
	}
	version, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graphio: reading version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graphio: unsupported binary version %d (have %d)", version, binaryVersion)
	}
	flags, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graphio: reading flags: %w", err)
	}
	if flags&^uint64(binFlagNodeWeights|binFlagEdgeWeights|binFlagCoords|binFlag3D) != 0 {
		return nil, fmt.Errorf("graphio: unknown flag bits %#x", flags)
	}
	if flags&binFlag3D != 0 && flags&binFlagCoords == 0 {
		return nil, fmt.Errorf("graphio: 3D flag without coordinate flag")
	}
	n64, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graphio: reading node count: %w", err)
	}
	if n64 > maxNodes {
		return nil, fmt.Errorf("graphio: node count %d out of range [0, %d]", n64, maxNodes)
	}
	// Budget check before the first n-proportional allocation: a handful of
	// header bytes must not be able to command gigabytes of CSR arrays.
	if err := checkNodeBudget(n64); err != nil {
		return nil, err
	}
	half64, err := br.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graphio: reading edge count: %w", err)
	}
	if half64 > 2*maxEdges || half64%2 != 0 {
		return nil, fmt.Errorf("graphio: half-edge count %d invalid (want even, <= %d)", half64, 2*maxEdges)
	}
	if err := checkEdgeBudget(half64 / 2); err != nil {
		return nil, err
	}
	// Every degree and every neighbour takes at least one byte.
	if left := uint64(len(br.buf) - br.pos); br.r == nil && n64+half64 > left {
		return nil, fmt.Errorf("graphio: %d nodes and %d half-edges declared, %d bytes left: %w", n64, half64, left, io.ErrUnexpectedEOF)
	}
	n, half := int(n64), int(half64)

	// Each section is one bulk read whose stretches are checked and summed
	// while they are still in cache, so that the arrays can be adopted as they
	// are: what graph.FromCSR would walk them a second time for — the weight
	// totals, the heaviest node — is known when the last byte is.
	xadj := make([]int32, n+1)
	sum := uint64(0)
	at, st := uvarints(br, xadj[1:], 0, half64, func(ds []int32) bool {
		s := sum
		for i, d := range ds {
			if s += uint64(uint32(d)); s > half64 {
				break
			}
			ds[i] = int32(s)
		}
		sum = s
		return s <= half64
	})
	switch {
	case sum > half64 || st == varint.OutOfRange: // one degree past the total is a sum past it
		return nil, fmt.Errorf("graphio: degrees sum past declared %d half-edges", half)
	case st != varint.Done:
		return nil, br.failed(st, fmt.Sprintf("degree of node %d", at), "")
	case sum != half64:
		return nil, fmt.Errorf("graphio: degrees sum to %d, declared %d", sum, half)
	case int(xadj[n]) != half: // 2^31 half-edges: the last offset wrapped
		return nil, fmt.Errorf("graphio: graph: inconsistent CSR arrays")
	}
	var agg graph.CSRAggregates
	adj := make([]int32, half)
	if _, st = uvarints(br, adj, 0, n64-1, func([]int32) bool { return true }); st != varint.Done {
		return nil, br.failed(st, "adjacency", "neighbor id %d out of range [0, %d)", n)
	}
	var ewgt []int64 // without weights in the file, a unit graph
	agg.TotalEdgeWeight = int64(half / 2)
	if flags&binFlagEdgeWeights != 0 {
		ewgt, agg.TotalEdgeWeight = make([]int64, half), 0
		_, st = uvarints(br, ewgt, 1, math.MaxInt64, func(ws []int64) bool {
			sum := int64(0)
			for _, w := range ws {
				sum += w
			}
			agg.TotalEdgeWeight += sum
			return true
		})
		if st != varint.Done {
			return nil, br.failed(st, "edge weights", "edge weight %d out of range [1, 2^63)")
		}
		agg.TotalEdgeWeight /= 2
	}
	nwgt := make([]int64, n)
	if flags&binFlagNodeWeights != 0 {
		_, st = uvarints(br, nwgt, 0, math.MaxInt64, func(ws []int64) bool {
			sum, heaviest := int64(0), agg.MaxNodeWeight
			for _, w := range ws {
				sum += w
				heaviest = max(heaviest, w)
			}
			agg.TotalNodeWeight, agg.MaxNodeWeight = agg.TotalNodeWeight+sum, heaviest
			return true
		})
		if st != varint.Done {
			return nil, br.failed(st, "node weights", "node weight %d overflows int64")
		}
	} else {
		for v := range nwgt {
			nwgt[v] = 1
		}
		agg.TotalNodeWeight, agg.MaxNodeWeight = int64(n), int64(min(n, 1))
	}
	g := graph.FromCSRTrusted(xadj, adj, ewgt, nwgt, agg)
	if flags&binFlagCoords != 0 {
		readFloats := func(what string) ([]float64, error) {
			c := make([]float64, n)
			if err := br.floats(c); err != nil {
				return nil, fmt.Errorf("graphio: reading %s coordinates: %w", what, err)
			}
			return c, nil
		}
		x, err := readFloats("x")
		if err != nil {
			return nil, err
		}
		y, err := readFloats("y")
		if err != nil {
			return nil, err
		}
		if flags&binFlag3D != 0 {
			z, err := readFloats("z")
			if err != nil {
				return nil, err
			}
			g.SetCoords3(x, y, z)
		} else {
			g.SetCoords(x, y)
		}
	}
	return g, nil
}
