// Package graphio is the codec layer between on-disk graph files and the
// in-memory graph.Graph: it turns "graph" from an in-memory-only value into a
// first-class serializable artifact.
//
// Two formats are supported:
//
//   - METIS — the text format of the partitioning community (METIS, Chaco,
//     the Walshaw archive): a "n m fmt" header followed by one line per node
//     listing its 1-indexed neighbors, with optional node and edge weights.
//     ReadMETIS is a streaming tokenizer (no per-line string splitting), so
//     multi-gigabyte benchmark instances parse without line-length limits.
//   - Binary — a compact deterministic varint encoding of the CSR arrays
//     (magic "KPRG"), including the optional 2D/3D coordinates METIS cannot
//     carry. Writing the same graph always produces the same bytes, so
//     binary artifacts can be compared and content-addressed.
//
// Read with FormatAuto sniffs the binary magic and falls back to METIS, so
// callers never need to know what a file contains. ReadFile/WriteFile pick
// the format from the file extension (".bgraph"/".bin" = binary, anything
// else METIS).
//
// The repro facade re-exports the entry points as repro.ReadGraph and
// repro.WriteGraph; cmd/kappa and cmd/gengraph speak both formats through
// them.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/graph"
)

// Format names an on-disk graph encoding.
type Format int

const (
	// FormatAuto detects the format: by magic bytes when reading, by file
	// extension in ReadFile/WriteFile (METIS when unknown).
	FormatAuto Format = iota
	// FormatMETIS is the textual METIS/Chaco graph format.
	FormatMETIS
	// FormatBinary is the compact deterministic binary CSR format.
	FormatBinary
)

// String returns the flag-level name of the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatMETIS:
		return "metis"
	case FormatBinary:
		return "bin"
	default:
		return fmt.Sprintf("graphio.Format(%d)", int(f))
	}
}

// ParseFormat parses a flag-level format name, case-insensitively.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "auto", "":
		return FormatAuto, nil
	case "metis", "graph", "txt":
		return FormatMETIS, nil
	case "bin", "binary", "bgraph":
		return FormatBinary, nil
	default:
		return FormatAuto, fmt.Errorf("graphio: unknown format %q (want auto|metis|bin)", name)
	}
}

// formatForPath picks the format conventionally associated with a file name:
// ".bgraph" and ".bin" mean binary, everything else (".graph", ".metis", no
// extension) means METIS.
func formatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bgraph", ".bin":
		return FormatBinary
	default:
		return FormatMETIS
	}
}

// Read parses a graph from r. FormatAuto sniffs the binary magic and falls
// back to METIS.
func Read(r io.Reader, f Format) (*graph.Graph, error) {
	switch f {
	case FormatMETIS:
		return ReadMETIS(r)
	case FormatBinary:
		return ReadBinary(r)
	case FormatAuto:
		br := bufio.NewReaderSize(r, 1<<16)
		head, err := br.Peek(len(binaryMagic))
		if err == nil && string(head) == binaryMagic {
			return ReadBinary(br)
		}
		return ReadMETIS(br)
	default:
		return nil, fmt.Errorf("graphio: unknown format %v", f)
	}
}

// Write encodes g to w. FormatAuto writes METIS, the interchange default.
func Write(w io.Writer, g *graph.Graph, f Format) error {
	switch f {
	case FormatMETIS, FormatAuto:
		return WriteMETIS(w, g)
	case FormatBinary:
		return WriteBinary(w, g)
	default:
		return fmt.Errorf("graphio: unknown format %v", f)
	}
}

// ReadFile reads a graph file, detecting the format from the content (binary
// magic first, METIS otherwise) regardless of extension.
func ReadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.IsDir() {
		// A directory here is almost always a shard store (kappa shard's
		// output); reading it as a graph file can only fail, so name the
		// right entry point instead of surfacing a raw EISDIR.
		return nil, fmt.Errorf("graphio: %s is a directory, not a graph file; shard stores are served with the shard-store entry points (kappa serve -shards, store.Open)", path)
	}
	return Read(f, FormatAuto)
}

// WriteFile writes a graph file. FormatAuto picks the format from the
// extension (formatForPath).
func WriteFile(path string, g *graph.Graph, format Format) error {
	if format == FormatAuto {
		format = formatForPath(path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := Write(bw, g, format); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
