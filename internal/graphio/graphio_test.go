package graphio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// families lists one representative instance per generator family; every
// codec must round-trip each of them losslessly.
func families() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rgg":      gen.RGG(9, 1),
		"delaunay": gen.DelaunayX(9, 2),
		"grid":     gen.Grid2D(17, 13),
		"grid3d":   gen.Grid3D(7, 6, 5),
		"road":     gen.Road(700, 4, 3),
		"social":   gen.PrefAttach(600, 5, 4),
		"rmat":     gen.RMAT(9, 8, 5),
		"fem":      gen.FEMMesh(800, 4, 6),
		"banded":   gen.Banded(500, 10, 30, 0.7, 7),
	}
}

// sameStructure fails the test unless a and b agree on sizes, node weights,
// adjacency sets and edge weights. Adjacency order may differ (METIS readers
// sort it); the comparison is order-insensitive via EdgeWeightTo.
func sameStructure(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: size changed: n %d->%d m %d->%d", name, a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		if a.NodeWeight(v) != b.NodeWeight(v) {
			t.Fatalf("%s: node weight of %d changed: %d -> %d", name, v, a.NodeWeight(v), b.NodeWeight(v))
		}
		if a.Degree(v) != b.Degree(v) {
			t.Fatalf("%s: degree of %d changed: %d -> %d", name, v, a.Degree(v), b.Degree(v))
		}
		ws := a.AdjWeights(v)
		for i, u := range a.Adj(v) {
			if got := b.EdgeWeightTo(v, u); got != ws[i] {
				t.Fatalf("%s: edge {%d,%d} weight changed: %d -> %d", name, v, u, ws[i], got)
			}
		}
	}
}

// sameCoords fails the test unless a and b carry bit-identical coordinates.
func sameCoords(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	if a.CoordDims() != b.CoordDims() {
		t.Fatalf("%s: coord dims changed: %d -> %d", name, a.CoordDims(), b.CoordDims())
	}
	for d, ac := range a.Coords() {
		for i, x := range ac {
			if math.Float64bits(x) != math.Float64bits(b.Coords()[d][i]) {
				t.Fatalf("%s: coordinate %d of node %d changed", name, d, i)
			}
		}
	}
}

func TestMETISRoundTripFamilies(t *testing.T) {
	for name, g := range families() {
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		g2, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		sameStructure(t, name, g, g2)
	}
}

func TestBinaryRoundTripFamilies(t *testing.T) {
	for name, g := range families() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		sameStructure(t, name, g, g2)
		sameCoords(t, name, g, g2)

		// Deterministic: re-encoding the decoded graph reproduces the bytes.
		var buf2 bytes.Buffer
		if err := WriteBinary(&buf2, g2); err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: binary encoding not deterministic across a round trip", name)
		}
	}
}

func TestAutoDetect(t *testing.T) {
	g := gen.Grid2D(5, 4)
	for _, f := range []Format{FormatMETIS, FormatBinary} {
		var buf bytes.Buffer
		if err := Write(&buf, g, f); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		g2, err := Read(&buf, FormatAuto)
		if err != nil {
			t.Fatalf("auto-read of %v: %v", f, err)
		}
		sameStructure(t, f.String(), g, g2)
	}
}

func TestReadWriteFile(t *testing.T) {
	g := gen.Grid3D(4, 3, 3)
	dir := t.TempDir()
	for _, name := range []string{"g.graph", "g.bgraph"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g, FormatAuto); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameStructure(t, name, g, g2)
	}
	// Extension conventions: .bgraph must actually be binary.
	data, err := os.ReadFile(filepath.Join(dir, "g.bgraph"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:4]) != binaryMagic {
		t.Fatalf(".bgraph file does not start with the binary magic")
	}
}

func TestMETISWeightedRoundTrip(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetNodeWeight(0, 3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 9)
	b.AddEdge(0, 3, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "4 4 11\n") {
		t.Fatalf("unexpected header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameStructure(t, "weighted", g, g2)
}

func TestMETISUnweightedHeader(t *testing.T) {
	b := graph.NewBuilder(5)
	for v := int32(0); v < 4; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "5 4\n") {
		t.Fatalf("unexpected header: %q", buf.String())
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMETISComments(t *testing.T) {
	in := "% a comment\n3 2\n2\n1 3\n2\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestMETISIsolatedNode(t *testing.T) {
	// Node 2 has degree 0: its line is empty. The streaming reader must
	// consume exactly one line per node, not skip the blank one.
	in := "3 1\n3\n\n1\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 || g.Degree(1) != 0 {
		t.Fatalf("n=%d m=%d deg(1)=%d", g.NumNodes(), g.NumEdges(), g.Degree(1))
	}
}

// TestMETISErrors pins what ReadMETIS refuses, each with an error that
// names what is wrong.
func TestMETISErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "missing header"},
		{"x y\n", "bad header"},
		{"2 1\n2\n", "missing line for node 2"},
		{"2 5\n2\n1\n", "header declares 5 edges"},
		{"2 1 7\n2\n1\n", "unsupported format code"},
		{"2 1\n9\n1\n", "neighbor 9 out of range"},
		{"2 1 1\n2\n1 2\n", "missing edge weight"},
		{"2 1 1\n2 0\n1 0\n", "non-positive edge weight 0"},
		{"2 1 10\n-1 2\n1\n", "negative weight"},
		{"-1 0\n", "node count -1 out of range"},
		{"99999999999999 0\n", "node count 99999999999999 out of range"},
		// Parallel edges whose weights overflow int64 when merged.
		{"2 1 1\n2 9223372036854775807 2 9223372036854775807\n1 9223372036854775807 1 9223372036854775807\n", "non-positive edge weight"},
	} {
		if _, err := ReadMETIS(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadMETIS(%q) = %v, want an error naming %q", tc.in, err, tc.want)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	g := gen.Grid2D(4, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d bytes", cut)
		}
	}
	// Corrupt magic and version.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad magic")
	}
	bad = append([]byte(binaryMagic), 0x7f)
	bad = append(bad, data[5:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad version")
	}
}

// TestReadPartitionVerdicts pins which partition texts the reader accepts —
// and what AppendPartition makes of them — and, for the rest, the line its
// diagnostic names.
func TestReadPartitionVerdicts(t *testing.T) {
	for _, tc := range []struct {
		in       string
		n, k     int
		enc, err string // enc when accepted, else a substring of err
	}{
		{"0\n1\n1\n0\n", 4, 2, "0\n1\n1\n0\n", ""},
		{"0\r\n1\r\n\r\n 2\r\n", 3, 3, "0\n1\n2\n", ""},
		{"0\nx\n", 2, 2, "", "p:2: bad partition line"},
		{"0\n2\n", 2, 2, "", "p:2: block 2 outside [0, 2)"},
		{"0\n1\n", 3, 2, "", "p: partition has 2 entries, graph has 3 nodes"},
		{"0\n1\n0\n", 2, 2, "", "p:3: partition has more entries"},
		{strings.Repeat("0", 70000), 1, 1, "", "p: bufio.Scanner: token too long"},
	} {
		blocks, err := readPartition(strings.NewReader(tc.in), "p", tc.n, tc.k)
		if tc.err == "" {
			if got := string(AppendPartition(nil, blocks)); err != nil || got != tc.enc {
				t.Errorf("%q: re-encoded as %q (%v), want %q", tc.in, got, err, tc.enc)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%.20q: error %v, want %q", tc.in, err, tc.err)
		}
	}
}
