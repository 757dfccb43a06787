package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// maxNodes bounds the node count a reader accepts: node ids are int32.
const maxNodes = 1<<31 - 2

// maxEdges bounds the undirected edge count: 2m offsets must fit in int32.
const maxEdges = 1 << 30

// metisPresize caps the edges ReadMETIS reserves room for from its header:
// 4 MB of edge arrays with weights; a larger graph grows them by append.
const metisPresize = 1 << 18

// WriteMETIS writes the graph in the METIS/Chaco graph file format used by
// the partitioning community (and by the Walshaw archive): a header line
// "n m fmt" followed by one line per node listing its neighbors 1-indexed.
// fmt is 11 when both node and edge weights are present, 1 for edge weights
// only, 10 for node weights only, and omitted for unweighted graphs.
// Coordinates are not part of the format and are dropped; use FormatBinary
// to keep them.
func WriteMETIS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := int32(g.NumNodes())
	hasNW := false
	for v := int32(0); v < n; v++ {
		if g.NodeWeight(v) != 1 {
			hasNW = true
			break
		}
	}
	hasEW := false
	for v := int32(0); v < n && !hasEW; v++ {
		for _, wt := range g.AdjWeights(v) {
			if wt != 1 {
				hasEW = true
				break
			}
		}
	}
	switch {
	case hasNW && hasEW:
		fmt.Fprintf(bw, "%d %d 11\n", g.NumNodes(), g.NumEdges())
	case hasNW:
		fmt.Fprintf(bw, "%d %d 10\n", g.NumNodes(), g.NumEdges())
	case hasEW:
		fmt.Fprintf(bw, "%d %d 1\n", g.NumNodes(), g.NumEdges())
	default:
		fmt.Fprintf(bw, "%d %d\n", g.NumNodes(), g.NumEdges())
	}
	var scratch [24]byte
	writeInt := func(x int64, sep bool) {
		if sep {
			bw.WriteByte(' ')
		}
		bw.Write(strconv.AppendInt(scratch[:0], x, 10))
	}
	for v := int32(0); v < n; v++ {
		first := true
		if hasNW {
			writeInt(g.NodeWeight(v), false)
			first = false
		}
		adj := g.Adj(v)
		ws := g.AdjWeights(v)
		for i, u := range adj {
			writeInt(int64(u)+1, !first)
			first = false
			if hasEW {
				writeInt(ws[i], true)
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// metisReader tokenizes a METIS file without materializing lines, so inputs
// with arbitrarily long adjacency lines (high-degree nodes) stream through a
// fixed-size buffer.
type metisReader struct {
	br  *bufio.Reader
	tok []byte // token scratch, reused across tokens
}

// skipComments consumes comment lines (first non-blank byte '%') and the
// leading blanks of the following line. It must be called at a line start
// and leaves the position before the line's first significant byte — which
// may be the newline of an empty line. Returns io.EOF at end of input.
func (mr *metisReader) skipComments() error {
	for {
		c, err := mr.br.ReadByte()
		if err != nil {
			return err
		}
		switch c {
		case ' ', '\t', '\r':
			continue
		case '%':
			for {
				c2, err := mr.br.ReadByte()
				if err != nil {
					return err
				}
				if c2 == '\n' {
					break
				}
			}
		default:
			return mr.br.UnreadByte()
		}
	}
}

// token returns the next token on the current line; eol is true at the end
// of the line (the newline is consumed) or at end of input. The returned
// slice is valid until the next call.
func (mr *metisReader) token() (tok []byte, eol bool, err error) {
	for {
		c, err := mr.br.ReadByte()
		if err == io.EOF {
			return nil, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		if c == ' ' || c == '\t' || c == '\r' {
			continue
		}
		if c == '\n' {
			return nil, true, nil
		}
		mr.br.UnreadByte()
		break
	}
	mr.tok = mr.tok[:0]
	for {
		c, err := mr.br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, err
		}
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			mr.br.UnreadByte()
			break
		}
		mr.tok = append(mr.tok, c)
	}
	return mr.tok, false, nil
}

// skipLine consumes the remainder of the current line.
func (mr *metisReader) skipLine() error {
	for {
		c, err := mr.br.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if c == '\n' {
			return nil
		}
	}
}

// parseInt parses a decimal integer from a token without allocating.
func parseInt(tok []byte) (int64, error) {
	if len(tok) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	i, neg := 0, false
	if tok[0] == '-' || tok[0] == '+' {
		neg = tok[0] == '-'
		i = 1
		if len(tok) == 1 {
			return 0, fmt.Errorf("bad number %q", tok)
		}
	}
	var v int64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad number %q", tok)
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("number %q overflows int64", tok)
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, nil
}

// ReadMETIS parses a graph in METIS format, streaming token by token (no
// line-length limit). Comment lines starting with '%' are skipped; an empty
// line is a degree-0 node. The declared edge count is validated against the
// parsed one, and malformed input of every kind — bad numbers, out-of-range
// neighbors, non-positive edge weights, negative node weights — comes back
// as an error, never a panic.
func ReadMETIS(r io.Reader) (*graph.Graph, error) {
	mr := &metisReader{br: bufio.NewReaderSize(r, 1<<16)}
	if err := mr.skipComments(); err != nil {
		return nil, fmt.Errorf("graphio: missing header: %w", unexpectEOF(err))
	}
	header := [2]int64{}
	for i := range header {
		tok, eol, err := mr.token()
		if err != nil {
			return nil, fmt.Errorf("graphio: reading header: %w", err)
		}
		if eol {
			return nil, fmt.Errorf("graphio: malformed header: %d fields, want at least 2", i)
		}
		if header[i], err = parseInt(tok); err != nil {
			return nil, fmt.Errorf("graphio: bad header: %w", err)
		}
	}
	n, m := header[0], header[1]
	if n < 0 || n > maxNodes {
		return nil, fmt.Errorf("graphio: node count %d out of range [0, %d]", n, maxNodes)
	}
	if m < 0 || m > maxEdges {
		return nil, fmt.Errorf("graphio: edge count %d out of range [0, %d]", m, maxEdges)
	}
	// Budget check before the n-proportional allocations below: a
	// one-line header must not command gigabytes.
	if err := checkNodeBudget(uint64(n)); err != nil {
		return nil, err
	}
	if err := checkEdgeBudget(uint64(m)); err != nil {
		return nil, err
	}
	hasNW, hasEW := false, false
	if tok, eol, err := mr.token(); err != nil {
		return nil, fmt.Errorf("graphio: reading header: %w", err)
	} else if !eol {
		switch string(tok) {
		case "0", "00", "000":
		case "1", "01", "001":
			hasEW = true
		case "10", "010":
			hasNW = true
		case "11", "011":
			hasNW, hasEW = true, true
		default:
			return nil, fmt.Errorf("graphio: unsupported format code %q", tok)
		}
		// Ignore a trailing ncon field; multi-constraint weights are not
		// supported, only the single-weight layouts above.
		if err := mr.skipLine(); err != nil {
			return nil, fmt.Errorf("graphio: reading header: %w", err)
		}
	}

	// Each undirected edge is kept once, from its lower end, in arrays
	// presized from the declared m but by no more than metisPresize edges: a
	// short header cannot reserve more than a few MB before its lines exist.
	nwgt := make([]int64, n)
	for v := range nwgt {
		nwgt[v] = 1
	}
	var l graph.EdgeList
	l.U, l.V = make([]int32, 0, min(m, metisPresize)), make([]int32, 0, min(m, metisPresize))
	if hasEW {
		l.W = make([]int64, 0, min(m, metisPresize))
	}
	for v := int64(0); v < n; v++ {
		if err := mr.skipComments(); err != nil {
			return nil, fmt.Errorf("graphio: missing line for node %d: %w", v+1, unexpectEOF(err))
		}
		wantNW := hasNW
		wantEWFor := int64(-1) // neighbor awaiting its weight, -1 = none
		for {
			tok, eol, err := mr.token()
			if err != nil {
				return nil, fmt.Errorf("graphio: node %d: %w", v+1, err)
			}
			if eol {
				break
			}
			x, err := parseInt(tok)
			if err != nil {
				return nil, fmt.Errorf("graphio: node %d: %w", v+1, err)
			}
			switch {
			case wantNW:
				if x < 0 {
					return nil, fmt.Errorf("graphio: node %d: negative weight %d", v+1, x)
				}
				nwgt[v] = x
				wantNW = false
			case wantEWFor >= 0:
				if x <= 0 {
					return nil, fmt.Errorf("graphio: node %d: non-positive edge weight %d", v+1, x)
				}
				if wantEWFor-1 > v {
					l.U, l.V, l.W = append(l.U, int32(v)), append(l.V, int32(wantEWFor-1)), append(l.W, x)
				}
				wantEWFor = -1
			default:
				if x < 1 || x > n {
					return nil, fmt.Errorf("graphio: node %d: neighbor %d out of range [1, %d]", v+1, x, n)
				}
				if hasEW {
					wantEWFor = x
				} else if x-1 > v {
					l.U, l.V = append(l.U, int32(v)), append(l.V, int32(x-1))
				}
			}
		}
		if wantNW {
			return nil, fmt.Errorf("graphio: node %d: missing node weight", v+1)
		}
		if wantEWFor >= 0 {
			return nil, fmt.Errorf("graphio: node %d: missing edge weight", v+1)
		}
	}
	g, err := graph.FromEdgeList(nwgt, l)
	if err != nil {
		// Every id and weight was checked on its line: only parallel edges
		// whose weights overflow when merged get here.
		return nil, fmt.Errorf("graphio: merging parallel edges: %w", err)
	}
	if int64(g.NumEdges()) != m {
		return nil, fmt.Errorf("graphio: header declares %d edges, parsed %d", m, g.NumEdges())
	}
	return g, nil
}

// unexpectEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF, since callers
// only see it when required content is missing.
func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
