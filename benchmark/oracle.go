package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"

	"repro/internal/graph"
	"repro/internal/part"
)

// output is what one op hands back for verification, after its clock has
// stopped: the partition, the cut the program reported for it, and the
// instance it partitions.
type output struct {
	g      *graph.Graph
	k      int
	eps    float64
	cut    int64
	blocks []int32
	// text is the service's rendering of the partition (one block id per
	// line); svc_mix sets it instead of blocks and verify decodes it.
	text []byte
	// copies are the partitions other parties of the op ended up holding
	// (the workers of a socket run); each must equal blocks.
	copies [][]int32
}

// verify is the result oracle. It returns nil when the partition is one a
// caller could use: one block per node, every block in [0,k), block-weight
// bookkeeping consistent, the reported cut equal to the recomputed cut,
// every block within Lmax, and every copy identical. Anything else is a
// failed op. It decodes o.text into o.blocks first where needed.
func verify(o *output) error {
	if o.text != nil {
		blocks, err := parseBlocks(o.text)
		if err != nil {
			return err
		}
		o.blocks, o.text = blocks, nil
	}
	if len(o.blocks) != o.g.NumNodes() {
		return fmt.Errorf("partition has %d entries, graph has %d nodes", len(o.blocks), o.g.NumNodes())
	}
	for v, b := range o.blocks {
		if b < 0 || int(b) >= o.k {
			return fmt.Errorf("node %d in block %d outside [0,%d)", v, b, o.k)
		}
	}
	p := part.FromBlocks(o.g, o.k, o.eps, o.blocks)
	if err := p.Validate(); err != nil {
		return err
	}
	if cut := p.Cut(); cut != o.cut {
		return fmt.Errorf("reported cut %d, recomputed cut %d", o.cut, cut)
	}
	if !p.Feasible() {
		return fmt.Errorf("heaviest block weighs %d, Lmax is %d", p.MaxBlockWeight(), p.Lmax())
	}
	for i, c := range o.copies {
		if !slices.Equal(c, o.blocks) {
			return fmt.Errorf("copy %d of the partition differs from the coordinator's", i)
		}
	}
	return nil
}

// parseBlocks decodes the service's result body: one decimal block id per
// line.
func parseBlocks(text []byte) ([]int32, error) {
	lines := bytes.Split(bytes.TrimSuffix(text, []byte("\n")), []byte("\n"))
	blocks := make([]int32, len(lines))
	for i, ln := range lines {
		b, err := strconv.ParseInt(string(ln), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("result line %d: %v", i+1, err)
		}
		blocks[i] = int32(b)
	}
	return blocks, nil
}

// partitionHash fingerprints a verified partition so that runs in different
// modes can be compared op by op without keeping the block arrays.
func partitionHash(blocks []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
