package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// binaryHeader builds the prefix of a binary graph file declaring n nodes
// and half half-edges — all an attacker needs to write to command the
// reader's big allocations.
func binaryHeader(n, half uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	var scratch [binary.MaxVarintLen64]byte
	put := func(x uint64) { buf.Write(scratch[:binary.PutUvarint(scratch[:], x)]) }
	put(binaryVersion)
	put(0) // flags
	put(n)
	put(half)
	return buf.Bytes()
}

func TestReadBinaryRejectsOverBudgetNodes(t *testing.T) {
	SetDecodeBudget(1000, 0)
	t.Cleanup(func() { SetDecodeBudget(0, 0) })

	_, err := ReadBinary(bytes.NewReader(binaryHeader(1_000_000, 0)))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("ReadBinary(n=1e6, budget 1000) err = %v, want ErrLimit", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.What != "nodes" || le.Declared != 1_000_000 || le.Limit != 1000 {
		t.Fatalf("LimitError = %+v, want nodes/1e6/1000", err)
	}
	if !strings.Contains(le.Error(), "decode budget") {
		t.Fatalf("error text %q does not mention the budget", le.Error())
	}
}

func TestReadBinaryRejectsOverBudgetEdges(t *testing.T) {
	SetDecodeBudget(0, 1<<20)
	t.Cleanup(func() { SetDecodeBudget(0, 0) })

	// A ~25-byte file declaring 2^29 undirected edges: without the budget
	// the reader would attempt a multi-gigabyte adjacency allocation before
	// noticing the file ends.
	_, err := ReadBinary(bytes.NewReader(binaryHeader(4, 1<<30)))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("ReadBinary(half=2^30, budget 2^20) err = %v, want ErrLimit", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.What != "edges" || le.Declared != 1<<29 {
		t.Fatalf("LimitError = %+v, want edges/2^29", err)
	}
}

func TestReadMETISRejectsOverBudgetHeader(t *testing.T) {
	SetDecodeBudget(1000, 1000)
	t.Cleanup(func() { SetDecodeBudget(0, 0) })

	if _, err := ReadMETIS(strings.NewReader("2000000 3\n")); !errors.Is(err, ErrLimit) {
		t.Fatalf("ReadMETIS(n=2e6) err = %v, want ErrLimit", err)
	}
	if _, err := ReadMETIS(strings.NewReader("10 2000000\n")); !errors.Is(err, ErrLimit) {
		t.Fatalf("ReadMETIS(m=2e6) err = %v, want ErrLimit", err)
	}
	// Within budget still parses.
	g, err := ReadMETIS(strings.NewReader("3 2\n2\n1 3\n2\n"))
	if err != nil || g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("in-budget graph: g=%v err=%v", g, err)
	}
}

func TestDecodeBudgetDefaultsAndClamp(t *testing.T) {
	n, m := DecodeBudget()
	if n != defaultMaxDecodeNodes || m != defaultMaxDecodeEdges {
		t.Fatalf("DecodeBudget() = %d, %d; want defaults %d, %d",
			n, m, defaultMaxDecodeNodes, defaultMaxDecodeEdges)
	}
	// Budgets above the format limits clamp to them: the budget can only
	// tighten the format's own bounds, never widen them.
	SetDecodeBudget(1<<40, 1<<40)
	t.Cleanup(func() { SetDecodeBudget(0, 0) })
	n, m = DecodeBudget()
	if n != maxNodes || m != maxEdges {
		t.Fatalf("DecodeBudget() after oversized Set = %d, %d; want format limits %d, %d",
			n, m, uint64(maxNodes), uint64(maxEdges))
	}
}

func TestDecodeBudgetDefaultWithinFormatLimits(t *testing.T) {
	// Well-formed graphs under the default budget keep round-tripping: the
	// budget must be invisible to honest inputs.
	var buf bytes.Buffer
	g, err := ReadMETIS(strings.NewReader("4 3\n2\n1 3\n2 4\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("round-trip under default budget: %v", err)
	}
	if g2.NumNodes() != 4 || g2.NumEdges() != 3 {
		t.Fatalf("round-trip graph: n=%d m=%d", g2.NumNodes(), g2.NumEdges())
	}
}
