package graphio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The partition format is the one kappa -out, kappa worker -out and the
// service's /result write and kappa -eval reads: the block id of each node,
// one per line, in node order.

// AppendPartition appends the partition encoding of blocks to dst.
func AppendPartition(dst []byte, blocks []int32) []byte {
	dst = slices.Grow(dst, 2*len(blocks))
	for _, b := range blocks {
		dst = strconv.AppendInt(dst, int64(b), 10)
		dst = append(dst, '\n')
	}
	return dst
}

// readPartition parses a partition of n nodes into k blocks from r. Blank
// lines and white space around an id (a CR included) are ignored; errors
// name the offending line as name:line.
func readPartition(r io.Reader, name string, n, k int) ([]int32, error) {
	blocks := make([]int32, 0, n)
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad partition line %q: %w", name, lineNo, line, err)
		}
		if v < 0 || v >= k {
			return nil, fmt.Errorf("%s:%d: block %d outside [0, %d)", name, lineNo, v, k)
		}
		if len(blocks) == n {
			return nil, fmt.Errorf("%s:%d: partition has more entries than the graph's %d nodes", name, lineNo, n)
		}
		blocks = append(blocks, int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(blocks) != n {
		return nil, fmt.Errorf("%s: partition has %d entries, graph has %d nodes", name, len(blocks), n)
	}
	return blocks, nil
}

// ReadPartitionFile reads the partition file at path (readPartition).
func ReadPartitionFile(path string, n, k int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readPartition(f, path, n, k)
}
