package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// The CSR segment (csr.kcb) is the global graph laid out for random access:
// a 16-byte header followed by fixed-width little-endian sections, each
// 8-byte aligned —
//
//	xadj   (n+1) × int32
//	adj    2m    × int32
//	ewgt   2m    × int64
//	nwgt   n     × int64
//	coords d·n   × float64   (x array, then y, then z; d = CoordDims)
//
// Fixed width is the point: on a little-endian host the file maps read-only
// and the sections ARE the graph's CSR arrays — no decode, no allocation
// proportional to the graph, the OS pages in exactly what the run touches.
// Hosts that cannot map (or are big-endian) decode the same sections into
// heap slices instead; the values, and therefore the partition, are
// identical either way.

const (
	csrMagic      = "KCSB"
	csrVersion    = 1
	csrHeaderSize = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// csrLayout is the derived section placement for a graph's counts.
type csrLayout struct {
	xadjOff, adjOff, ewgtOff, nwgtOff, coordOff int64
	total                                       int64
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

func layoutCSR(nodes, edges int64, coordDims int) csrLayout {
	var l csrLayout
	off := int64(csrHeaderSize)
	l.xadjOff = off
	off += align8(4 * (nodes + 1))
	l.adjOff = off
	off += align8(4 * 2 * edges)
	l.ewgtOff = off
	off += 8 * 2 * edges
	l.nwgtOff = off
	off += 8 * nodes
	if coordDims > 0 {
		l.coordOff = off
		off += 8 * int64(coordDims) * nodes
	}
	l.total = off
	return l
}

// countingWriter tracks the byte offset so the writer can pad sections to
// their 8-aligned layout positions.
type countingWriter struct {
	w   *bufio.Writer
	off int64
}

func (c *countingWriter) write(p []byte) error {
	n, err := c.w.Write(p)
	c.off += int64(n)
	return err
}

func (c *countingWriter) padTo(off int64) error {
	var zero [8]byte
	for c.off < off {
		n := off - c.off
		if n > 8 {
			n = 8
		}
		if err := c.write(zero[:n]); err != nil {
			return err
		}
	}
	return nil
}

// writeCSR streams g into the CSR segment at path and returns its location
// record. It never materializes a section: values go straight from the
// graph's accessors through a buffered writer (and the running checksum).
func writeCSR(path string, g *graph.Graph) (CSRInfo, error) {
	n := int64(g.NumNodes())
	m := int64(g.NumEdges())
	dims := g.CoordDims()
	lay := layoutCSR(n, m, dims)

	f, err := os.Create(path)
	if err != nil {
		return CSRInfo{}, err
	}
	defer f.Close()
	crc := crc32.New(castagnoli)
	cw := &countingWriter{w: bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)}

	var hdr [csrHeaderSize]byte
	copy(hdr[:4], csrMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], csrVersion)
	if err := cw.write(hdr[:]); err != nil {
		return CSRInfo{}, err
	}

	var b8 [8]byte
	put32 := func(v int32) error {
		binary.LittleEndian.PutUint32(b8[:4], uint32(v))
		return cw.write(b8[:4])
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b8[:], v)
		return cw.write(b8[:])
	}

	// xadj: reconstructed from the degrees (xadj[0] is always 0).
	var cum int32
	if err := put32(0); err != nil {
		return CSRInfo{}, err
	}
	for v := int32(0); v < int32(n); v++ {
		cum += int32(g.Degree(v))
		if err := put32(cum); err != nil {
			return CSRInfo{}, err
		}
	}
	if err := cw.padTo(lay.adjOff); err != nil {
		return CSRInfo{}, err
	}
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.Adj(v) {
			if err := put32(u); err != nil {
				return CSRInfo{}, err
			}
		}
	}
	if err := cw.padTo(lay.ewgtOff); err != nil {
		return CSRInfo{}, err
	}
	for v := int32(0); v < int32(n); v++ {
		for _, w := range g.AdjWeights(v) {
			if err := put64(uint64(w)); err != nil {
				return CSRInfo{}, err
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if err := put64(uint64(g.NodeWeight(v))); err != nil {
			return CSRInfo{}, err
		}
	}
	if dims > 0 {
		x, y, z := g.Coords3()
		for _, arr := range [][]float64{x, y, z} {
			if arr == nil {
				continue
			}
			for _, c := range arr {
				if err := put64(uint64(floatBits(c))); err != nil {
					return CSRInfo{}, err
				}
			}
		}
	}
	if cw.off != lay.total {
		return CSRInfo{}, fmt.Errorf("store: csr writer produced %d bytes, layout says %d", cw.off, lay.total)
	}
	if err := cw.w.Flush(); err != nil {
		return CSRInfo{}, err
	}
	if err := f.Sync(); err != nil {
		return CSRInfo{}, err
	}
	return CSRInfo{
		File: CSRFile, Bytes: lay.total, CRC32C: crc.Sum32(),
		XadjOff: lay.xadjOff, AdjOff: lay.adjOff, EwgtOff: lay.ewgtOff,
		NwgtOff: lay.nwgtOff, CoordOff: lay.coordOff,
	}, nil
}

// MappedGraph is the store's view of the global graph. When Mapped reports
// true the Graph's CSR arrays are read-only views over the memory-mapped
// CSR segment — construction cost and heap footprint are O(1), the OS pages
// data in on access. Otherwise (mapping unsupported, or a big-endian host)
// the arrays were decoded onto the heap; the values are identical.
//
// The arrays alias the mapping: keep the Graph (or the MappedGraph)
// reachable while any slice derived from it is in use, and Close only when
// the run is over. An unclosed MappedGraph releases its mapping when the
// Graph becomes unreachable.
type MappedGraph struct {
	G      *graph.Graph
	mapped bool
	unmap  func() error
	once   *sync.Once
}

// Mapped reports whether the graph is backed by the mapped segment rather
// than heap copies.
func (m *MappedGraph) Mapped() bool { return m.mapped }

// Close releases the mapping (idempotent; a no-op for heap-backed graphs).
// The Graph's array contents must not be touched afterwards.
func (m *MappedGraph) Close() error {
	var err error
	m.once.Do(func() {
		if m.unmap != nil {
			err = m.unmap()
		}
	})
	return err
}

// MapGraph opens the store's global graph. The fast path maps the CSR
// segment and builds the Graph over its sections without reading them; the
// fallback decodes the sections into heap arrays. Structural validation is
// header/size-level (magic, version, exact segment size per the manifest) —
// content integrity is the writer's checksum, verifiable with Verify.
func (s *Store) MapGraph() (*MappedGraph, error) {
	man := s.manifest
	lay := layoutCSR(man.Nodes, man.Edges, man.CoordDims)
	f, err := os.Open(s.path(man.CSR.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() != lay.total {
		return nil, fmt.Errorf("store: csr segment is %d bytes, manifest layout says %d", st.Size(), lay.total)
	}
	var hdr [csrHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: csr header: %w", err)
	}
	if string(hdr[:4]) != csrMagic {
		return nil, fmt.Errorf("store: csr segment has magic %q, want %q", hdr[:4], csrMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != csrVersion {
		return nil, fmt.Errorf("store: csr segment version %d, this build reads %d", v, csrVersion)
	}

	if mmapSupported && hostLittleEndian {
		data, unmap, err := mapFile(f, lay.total)
		if err == nil {
			g := graphOverMapping(data, man, lay)
			once := new(sync.Once)
			mg := &MappedGraph{G: g, mapped: true, once: once, unmap: func() error { return unmap() }}
			// Backstop for callers that drop the graph without closing:
			// release the address range when the graph is collected. Close
			// and the cleanup share the Once.
			runtime.AddCleanup(g, func(u func() error) { once.Do(func() { u() }) }, unmap)
			return mg, nil
		}
		// Mapping can legitimately fail (filesystem without mmap support);
		// fall through to the heap decoder.
	}
	g, err := readCSRHeap(f, man, lay)
	if err != nil {
		return nil, err
	}
	return &MappedGraph{G: g, once: new(sync.Once)}, nil
}

// graphOverMapping builds the Graph whose arrays are views into data. The
// offsets are 8-aligned by layout and the mapping is page-aligned, so the
// views are well-aligned for their types.
func graphOverMapping(data []byte, man *Manifest, lay csrLayout) *graph.Graph {
	n, half := man.Nodes, 2*man.Edges
	xadj := int32View(data, lay.xadjOff, n+1)
	adj := int32View(data, lay.adjOff, half)
	var ewgt []int64 // a unit graph's weight section is never paged in
	if !man.unitEdgeWeights() {
		ewgt = int64View(data, lay.ewgtOff, half)
	}
	nwgt := int64View(data, lay.nwgtOff, n)
	g := graph.FromCSRTrusted(xadj, adj, ewgt, nwgt, graph.CSRAggregates{
		TotalNodeWeight: man.TotalNodeWeight,
		TotalEdgeWeight: man.TotalEdgeWeight,
		MaxNodeWeight:   man.MaxNodeWeight,
	})
	switch man.CoordDims {
	case 2:
		x := float64View(data, lay.coordOff, n)
		y := float64View(data, lay.coordOff+8*n, n)
		g.SetCoords(x, y)
	case 3:
		x := float64View(data, lay.coordOff, n)
		y := float64View(data, lay.coordOff+8*n, n)
		z := float64View(data, lay.coordOff+16*n, n)
		g.SetCoords3(x, y, z)
	}
	return g
}

// unitEdgeWeights reports whether the graph's edge weights are all 1: the
// writer stores positive weights, and those sum to the edge count only when
// each is 1.
func (m *Manifest) unitEdgeWeights() bool { return m.TotalEdgeWeight == m.Edges }

// readCSRHeap decodes the sections into freshly allocated arrays — the
// portable path, O(CSR) heap like any other loader. f is positioned after
// the header; sections are read in file order.
func readCSRHeap(f *os.File, man *Manifest, lay csrLayout) (*graph.Graph, error) {
	n, half := man.Nodes, 2*man.Edges
	br := bufio.NewReaderSize(f, 1<<20)
	off := int64(csrHeaderSize)
	skipTo := func(target int64) error {
		if target < off {
			return fmt.Errorf("store: csr sections out of order")
		}
		if _, err := io.CopyN(io.Discard, br, target-off); err != nil {
			return err
		}
		off = target
		return nil
	}
	readInt32s := func(count int64) ([]int32, error) {
		out := make([]int32, count)
		var buf [4]byte
		for i := range out {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			out[i] = int32(binary.LittleEndian.Uint32(buf[:]))
		}
		off += 4 * count
		return out, nil
	}
	readInt64s := func(count int64) ([]int64, error) {
		out := make([]int64, count)
		var buf [8]byte
		for i := range out {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			out[i] = int64(binary.LittleEndian.Uint64(buf[:]))
		}
		off += 8 * count
		return out, nil
	}
	readFloat64s := func(count int64) ([]float64, error) {
		raw, err := readInt64s(count)
		if err != nil {
			return nil, err
		}
		out := make([]float64, count)
		for i, v := range raw {
			out[i] = floatFromBits(uint64(v))
		}
		return out, nil
	}

	if err := skipTo(lay.xadjOff); err != nil {
		return nil, err
	}
	xadj, err := readInt32s(n + 1)
	if err != nil {
		return nil, fmt.Errorf("store: csr xadj: %w", err)
	}
	if err := skipTo(lay.adjOff); err != nil {
		return nil, err
	}
	adj, err := readInt32s(half)
	if err != nil {
		return nil, fmt.Errorf("store: csr adj: %w", err)
	}
	var ewgt []int64 // a unit graph's weight section is skipped
	if !man.unitEdgeWeights() {
		if err := skipTo(lay.ewgtOff); err != nil {
			return nil, err
		}
		if ewgt, err = readInt64s(half); err != nil {
			return nil, fmt.Errorf("store: csr ewgt: %w", err)
		}
	}
	if err := skipTo(lay.nwgtOff); err != nil {
		return nil, err
	}
	nwgt, err := readInt64s(n)
	if err != nil {
		return nil, fmt.Errorf("store: csr nwgt: %w", err)
	}
	g := graph.FromCSRTrusted(xadj, adj, ewgt, nwgt, graph.CSRAggregates{
		TotalNodeWeight: man.TotalNodeWeight,
		TotalEdgeWeight: man.TotalEdgeWeight,
		MaxNodeWeight:   man.MaxNodeWeight,
	})
	if man.CoordDims >= 2 {
		x, err := readFloat64s(n)
		if err != nil {
			return nil, fmt.Errorf("store: csr coords: %w", err)
		}
		y, err := readFloat64s(n)
		if err != nil {
			return nil, fmt.Errorf("store: csr coords: %w", err)
		}
		if man.CoordDims == 3 {
			z, err := readFloat64s(n)
			if err != nil {
				return nil, fmt.Errorf("store: csr coords: %w", err)
			}
			g.SetCoords3(x, y, z)
		} else {
			g.SetCoords(x, y)
		}
	}
	return g, nil
}

// verifyCSRChecksum streams the segment through the checksum — a full read
// by design, for integrity audits (Verify), never on the serve hot path.
func (s *Store) verifyCSRChecksum() error {
	f, err := os.Open(s.path(s.manifest.CSR.File))
	if err != nil {
		return err
	}
	defer f.Close()
	crc := crc32.New(castagnoli)
	if _, err := io.Copy(crc, f); err != nil {
		return err
	}
	if got := crc.Sum32(); got != s.manifest.CSR.CRC32C {
		return fmt.Errorf("store: csr segment checksum %08x, manifest records %08x", got, s.manifest.CSR.CRC32C)
	}
	return nil
}
