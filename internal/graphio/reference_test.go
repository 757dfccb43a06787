package graphio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/matching"
	"repro/internal/rating"
	"repro/internal/rng"
)

// referenceFloats is binSource.floats as it was: one window check per value.
func referenceFloats(s *binSource, c []float64) error {
	for i := range c {
		if s.fill(8); len(s.buf)-s.pos < 8 {
			return s.short()
		}
		c[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.buf[s.pos:]))
		s.pos += 8
	}
	return nil
}

// referenceDecodeBinary is decodeBinary as it was before the bulk kernels and
// the fused validation, kept verbatim from the section loops on: one uvarint
// call and one error check per array element, every id, weight and degree sum
// checked there, and then graph.FromCSR walking the arrays a second time for
// the same checks and the totals. It is the oracle the
// decoder must agree with — same accept/reject, same error text, and a graph
// equal to FromCSR's in everything a caller can observe.
func referenceDecodeBinary(br *binSource) (*graph.Graph, error) {
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
	if left := uint64(len(br.buf) - br.pos); br.r == nil && n64+half64 > left {
		return nil, fmt.Errorf("graphio: %d nodes and %d half-edges declared, %d bytes left: %w", n64, half64, left, io.ErrUnexpectedEOF)
	}
	n, half := int(n64), int(half64)

	xadj := make([]int32, n+1)
	sum := uint64(0)
	for v := 0; v < n; v++ {
		d, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graphio: reading degree of node %d: %w", v, err)
		}
		sum += d
		if sum > half64 {
			return nil, fmt.Errorf("graphio: degrees sum past declared %d half-edges", half)
		}
		xadj[v+1] = int32(sum)
	}
	if sum != half64 {
		return nil, fmt.Errorf("graphio: degrees sum to %d, declared %d", sum, half)
	}
	adj := make([]int32, half)
	for i := range adj {
		u, err := br.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graphio: reading adjacency: %w", err)
		}
		if u >= n64 {
			return nil, fmt.Errorf("graphio: neighbor id %d out of range [0, %d)", u, n)
		}
		adj[i] = int32(u)
	}
	ewgt := make([]int64, half)
	if flags&binFlagEdgeWeights != 0 {
		for i := range ewgt {
			w, err := br.uvarint()
			if err != nil {
				return nil, fmt.Errorf("graphio: reading edge weights: %w", err)
			}
			if w == 0 || w > math.MaxInt64 {
				return nil, fmt.Errorf("graphio: edge weight %d out of range [1, 2^63)", w)
			}
			ewgt[i] = int64(w)
		}
	} else {
		for i := range ewgt {
			ewgt[i] = 1
		}
	}
	var nwgt []int64
	if flags&binFlagNodeWeights != 0 {
		nwgt = make([]int64, n)
		for v := range nwgt {
			w, err := br.uvarint()
			if err != nil {
				return nil, fmt.Errorf("graphio: reading node weights: %w", err)
			}
			if w > math.MaxInt64 {
				return nil, fmt.Errorf("graphio: node weight %d overflows int64", w)
			}
			nwgt[v] = int64(w)
		}
	}
	g, err := graph.FromCSR(xadj, adj, ewgt, nwgt)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if flags&binFlagCoords != 0 {
		readFloats := func(what string) ([]float64, error) {
			c := make([]float64, n)
			if err := referenceFloats(br, c); err != nil {
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

// checkDecode decodes in from memory, from a reader and from a reader that
// delivers a byte at a time (every value straddles a refill), with the
// decoder and with the reference, and holds each pair together: same verdict,
// same graph and, with text set, the same error text.
func checkDecode(t *testing.T, what string, in []byte, text bool) {
	t.Helper()
	in = in[:len(in):len(in)]
	sources := map[string]func() *binSource{
		"memory": func() *binSource { return &binSource{buf: in} },
		"reader": func() *binSource { return &binSource{r: bytes.NewReader(in), buf: make([]byte, 0, 1<<16)} },
		"byte-wise": func() *binSource {
			return &binSource{r: iotest.OneByteReader(bytes.NewReader(in)), buf: make([]byte, 0, 64)}
		},
	}
	for name, src := range sources {
		got, gotErr := decodeBinary(src())
		want, wantErr := referenceDecodeBinary(src())
		if (gotErr == nil) != (wantErr == nil) || (text && gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s, %s source, %d bytes: error %v, reference %v", what, name, len(in), gotErr, wantErr)
		}
		if d := graph.Diff(got, want); d != "" {
			t.Fatalf("%s, %s source: decoded graph differs from the reference's graph.FromCSR: %s", what, name, d)
		}
	}
}

// referenceCases are small graphs covering every section and flag of the
// format: unit and real weights, 2D, 3D and no coordinates, sorted rows and —
// a contracted graph — unsorted ones, isolated nodes, the empty graph.
func referenceCases() map[string]*graph.Graph {
	rgg := gen.RGG(7, 3)
	contracted, _ := coarsen.Contract(rgg, matching.ComputeScratch(rgg, rating.NewRater(rating.ExpansionStar2, rgg), matching.GPA, rng.New(5), 0, nil))
	isolated := graph.NewBuilder(5)
	isolated.AddEdge(1, 3, 300) // a two-byte weight, nodes 0, 2 and 4 alone
	isolated.SetNodeWeight(4, 0)
	return map[string]*graph.Graph{
		"grid":       gen.Grid2D(6, 5),
		"grid3d":     gen.Grid3D(3, 3, 2),
		"social":     gen.PrefAttach(60, 3, 1),
		"contracted": contracted,
		"isolated":   isolated.Build(),
		"empty":      graph.NewBuilder(0).Build(),
	}
}

// TestDecodeBinaryMatchesReference is the differential pin of the decoder,
// and the graphio half of the fused-validation proof: on every prefix of
// every case's encoding, from all three sources, the bulk decoder accepts and
// refuses what the per-element one does with the same words, and the graph it
// adopts through FromCSRTrusted is the one FromCSR builds from the same
// arrays — aggregates and all.
func TestDecodeBinaryMatchesReference(t *testing.T) {
	for name, g := range referenceCases() {
		enc := AppendBinary(nil, 0, g)
		if name == "contracted" {
			if dec, err := DecodeBinary(enc); err != nil || graphtest.RowsAscend(dec) {
				t.Fatalf("contracted case does not exercise unsorted rows (err %v)", err)
			}
		}
		for cut := 0; cut <= len(enc); cut++ {
			checkDecode(t, name, enc[:cut], true)
		}
	}
}

// TestDecodeBinaryMatchesReferenceOnCorruption flips, overwrites and inserts
// bytes in valid encodings under fixed seeds: ids out of range, zero weights,
// degree sums off, counts the bytes cannot back, overlong and overflowing
// varints all land on the same verdict as the reference's. The words may
// differ in one corner, so they are not compared here: a degree near 2^64
// wraps the reference's running sum, which then fails a later check, where
// the kernel's bound refuses the degree itself.
func TestDecodeBinaryMatchesReferenceOnCorruption(t *testing.T) {
	SetDecodeBudget(1<<12, 1<<14)
	defer SetDecodeBudget(0, 0)
	for name, g := range referenceCases() {
		enc := AppendBinary(nil, 0, g)
		r := rng.New(uint64(len(enc)))
		for trial := 0; trial < 400; trial++ {
			in := bytes.Clone(enc)
			for hits := 1 + r.Intn(3); hits > 0 && len(in) > 0; hits-- {
				at := r.Intn(len(in))
				switch r.Intn(4) {
				case 0:
					in[at] ^= 1 << r.Intn(8)
				case 1:
					in[at] = byte(r.Intn(256))
				case 2:
					in = append(in[:at], append(bytes.Repeat([]byte{0xff}, 1+r.Intn(10)), in[at:]...)...)
				default:
					in = append(in[:at], in[at+1:]...)
				}
			}
			checkDecode(t, name, in, false)
		}
	}
}
