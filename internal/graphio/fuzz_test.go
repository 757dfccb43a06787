package graphio

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
)

// FuzzReadMETIS feeds arbitrary text to the METIS parser. Properties: the
// parser never panics; accepted input round-trips (write → read → same
// structure) — the parser only admits graphs the writer can faithfully
// reproduce.
func FuzzReadMETIS(f *testing.F) {
	f.Add("3 2\n2\n1 3\n2\n")
	f.Add("% comment\n3 2 1\n2 7\n1 7 3 2\n2 2\n")
	f.Add("2 1 11\n4 2 5\n1 1 5\n")
	f.Add("3 1\n3\n\n1\n")
	f.Add("1 0\n\n")
	f.Add("2 1 1\n2 9223372036854775807 2 9223372036854775807\n1 9223372036854775807 1 9223372036854775807\n") // parallel weights overflowing when merged
	var seed bytes.Buffer
	if err := WriteMETIS(&seed, gen.Grid2D(5, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())

	f.Fuzz(func(t *testing.T, in string) {
		// Guard against allocation bombs: a tiny input can declare an
		// enormous node count; cap what the fuzzer asks the parser to
		// materialize (the parser itself enforces only the int32 bound).
		if n, m, ok := peekMETISHeader(in); !ok || n > 1<<16 || m > 1<<16 {
			return
		}
		g, err := ReadMETIS(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		g2, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("re-parsing own output: %v\n%q", err, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() ||
			g2.TotalNodeWeight() != g.TotalNodeWeight() || g2.TotalEdgeWeight() != g.TotalEdgeWeight() {
			t.Fatalf("round trip changed graph: n %d->%d m %d->%d",
				g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
		}
	})
}

// peekMETISHeader cheaply extracts the declared node and edge counts of the
// first non-comment line, without building anything.
func peekMETISHeader(in string) (n, m int64, ok bool) {
	for len(in) > 0 {
		line := in
		if i := strings.IndexByte(in, '\n'); i >= 0 {
			line, in = in[:i], in[i+1:]
		} else {
			in = ""
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, 0, false
		}
		var err error
		if n, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
			return 0, 0, false
		}
		if m, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return 0, 0, false
		}
		return n, m, true
	}
	return 0, 0, false
}

// FuzzReadBinary feeds arbitrary bytes to the binary parser. Properties: no
// panic; accepted input re-encodes deterministically to a byte-identical
// artifact (decode → encode → decode → encode must converge immediately).
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, gen.Grid3D(4, 3, 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	seed.Reset()
	if err := WriteBinary(&seed, gen.PrefAttach(60, 3, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add([]byte("KPRG\x01\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, in []byte) {
		if n, m, ok := peekBinaryHeader(in); !ok || n > 1<<16 || m > 1<<17 {
			return
		}
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing own output: %v", err)
		}
		var buf2 bytes.Buffer
		if err := WriteBinary(&buf2, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("binary encoding did not converge after one round trip")
		}
	})
}

// peekBinaryHeader cheaply extracts the declared node and half-edge counts.
func peekBinaryHeader(in []byte) (n, half uint64, ok bool) {
	if len(in) < 4 || string(in[:4]) != binaryMagic {
		return 0, 0, false
	}
	in = in[4:]
	for i := 0; i < 2; i++ { // version, flags
		_, sz := binary.Uvarint(in)
		if sz <= 0 {
			return 0, 0, false
		}
		in = in[sz:]
	}
	n, sz := binary.Uvarint(in)
	if sz <= 0 {
		return 0, 0, false
	}
	in = in[sz:]
	half, sz = binary.Uvarint(in)
	if sz <= 0 {
		return 0, 0, false
	}
	return n, half, true
}

// FuzzReadPartition feeds arbitrary text to the partition reader for a graph
// of n nodes in k blocks. Properties: no panic; an accepted partition has n
// blocks in [0, k) and reads back equal after one AppendPartition.
func FuzzReadPartition(f *testing.F) {
	f.Add("0\n1\n1\n0\n", uint8(4), uint8(2))
	f.Add("0\r\n1\r\n\r\n2\r\n", uint8(3), uint8(3))
	f.Add(" 1 \n\n+0\n007\n", uint8(3), uint8(8))
	f.Add("0\nx\n1\n", uint8(3), uint8(2))                     // bad integer
	f.Add("0\n99999999999999999999\n", uint8(2), uint8(2))     // overflows int
	f.Add("0\n2\n", uint8(2), uint8(2))                        // block outside [0, k)
	f.Add("0\n-1\n", uint8(2), uint8(2))                       // negative block
	f.Add("0\n1\n", uint8(3), uint8(2))                        // too few lines
	f.Add("0\n1\n0\n", uint8(2), uint8(2))                     // too many lines
	f.Add(strings.Repeat("0", 70000)+"\n", uint8(1), uint8(1)) // over-long line
	f.Add("", uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, in string, n, k uint8) {
		blocks, err := readPartition(strings.NewReader(in), "fuzz", int(n), int(k))
		if err != nil {
			return
		}
		if len(blocks) != int(n) {
			t.Fatalf("accepted %d blocks for %d nodes", len(blocks), n)
		}
		for v, b := range blocks {
			if b < 0 || int(b) >= int(k) {
				t.Fatalf("accepted block %d of node %d outside [0, %d)", b, v, k)
			}
		}
		enc := AppendPartition(nil, blocks)
		again, err := readPartition(bytes.NewReader(enc), "re-encoded", int(n), int(k))
		if err != nil {
			t.Fatalf("re-reading own output: %v\n%q", err, enc)
		}
		if !slices.Equal(again, blocks) {
			t.Fatalf("round trip changed the partition: %v -> %v", blocks, again)
		}
	})
}
