package wire

import (
	"fmt"
	"slices"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/graphio"
	"repro/internal/varint"
)

// AppendSubgraph encodes one PE's subgraph shard: the owned-node count, the
// id maps, and the local graph as a length-prefixed graphio binary artifact
// — the same format graph files use on disk, written by the same encoder
// body straight into dst. This is what the coordinator ships each worker per
// contraction level and what a shard store's files hold. The error is always
// nil; the signature stays because the benchmark module calls it.
func AppendSubgraph(dst []byte, sg *dist.Subgraph) ([]byte, error) {
	return appendShard(dst, nil, sg), nil
}

// appendShard appends prefix (a job's header) and the shard, growing dst at
// most once. The graph's length prefix is a uvarint of a size only known
// once the graph is encoded, so the graph goes in first, behind room for
// everything that precedes it at its widest; the prefix, the id maps and the
// length are then written into that room and the graph closes the gap.
func appendShard(dst, prefix []byte, sg *dist.Subgraph) []byte {
	mark := len(dst)
	head := len(prefix) + 3*varint.MaxLen + intsBound(sg.LocalToGlobal) + intsBound(sg.GhostOwner)
	dst = graphio.AppendBinary(dst, head, sg.Local)
	graphBytes := dst[mark+head:]
	i := mark + copy(dst[mark:], prefix)
	i = varint.Put(dst, i, varint.Zigzag(int64(sg.PE)))
	i = varint.Put(dst, i, uint64(sg.NumOwned))
	i = putInts(dst, i, sg.LocalToGlobal)
	i = putInts(dst, i, sg.GhostOwner)
	i = varint.Put(dst, i, uint64(len(graphBytes)))
	return dst[:i+copy(dst[i:], graphBytes)]
}

// DecodeSubgraph decodes a shard encoded by AppendSubgraph, straight from
// the bytes given, and rebuilds the ghost index; rest is the data following
// the shard.
func DecodeSubgraph(data []byte) (sg *dist.Subgraph, rest []byte, err error) {
	pe, data, err := readZigzag(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: shard PE: %w", err)
	}
	owned64, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: shard owned count: %w", err)
	}
	l2g, data, err := readInt32s(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: shard id map: %w", err)
	}
	ghostOwner, data, err := readInt32s(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: shard ghost owners: %w", err)
	}
	glen, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: shard graph length: %w", err)
	}
	if glen > uint64(len(data)) {
		return nil, nil, fmt.Errorf("wire: shard graph of %d bytes, %d left", glen, len(data))
	}
	local, err := graphio.DecodeBinary(data[:glen])
	if err != nil {
		return nil, nil, fmt.Errorf("wire: shard graph: %w", err)
	}
	if owned64 > uint64(local.NumNodes()) {
		return nil, nil, fmt.Errorf("wire: shard owns %d of %d nodes", owned64, local.NumNodes())
	}
	sg, err = dist.NewSubgraph(int32(pe), local, int(owned64), l2g, ghostOwner)
	if err != nil {
		return nil, nil, err
	}
	return sg, data[glen:], nil
}

// AppendContraction encodes a worker's PE-local contraction result, growing
// dst at most once.
func AppendContraction(dst []byte, p *coarsen.PEContraction) []byte {
	dst = slices.Grow(dst, contractionBound(p))
	return dst[:putContraction(dst[:cap(dst)], len(dst), p)]
}

// contractionBound is an upper bound on the encoding of p.
func contractionBound(p *coarsen.PEContraction) int {
	return 2*varint.MaxLen + intsBound(p.FineGlobal) + intsBound(p.FineCoarse)
}

// putContraction writes p at buf[i:], which the caller sized from
// contractionBound, and returns the index after it.
func putContraction(buf []byte, i int, p *coarsen.PEContraction) int {
	i = varint.Put(buf, i, varint.Zigzag(int64(p.FirstCoarse)))
	i = varint.Put(buf, i, varint.Zigzag(int64(p.NumCoarse)))
	i = putInts(buf, i, p.FineGlobal)
	return putInts(buf, i, p.FineCoarse)
}

// DecodeContraction decodes a PEContraction; rest is the trailing data.
func DecodeContraction(data []byte) (p *coarsen.PEContraction, rest []byte, err error) {
	p = &coarsen.PEContraction{}
	wrap := func(what string, err error) error {
		return fmt.Errorf("wire: contraction %s: %w", what, err)
	}
	if p.FirstCoarse, data, err = readInt32(data); err != nil {
		return nil, nil, wrap("first coarse id", err)
	}
	if p.NumCoarse, data, err = readInt32(data); err != nil {
		return nil, nil, wrap("coarse count", err)
	}
	if p.FineGlobal, data, err = readInt32s(data); err != nil {
		return nil, nil, wrap("fine ids", err)
	}
	if p.FineCoarse, data, err = readInt32s(data); err != nil {
		return nil, nil, wrap("fine→coarse map", err)
	}
	if err := p.CheckLengths(); err != nil {
		return nil, nil, fmt.Errorf("wire: %w", err)
	}
	return p, data, nil
}

// AppendPartition encodes a partition vector (block of every node). Blocks
// are non-negative and small, so plain uvarints are compact.
func AppendPartition(dst []byte, blocks []int32) []byte {
	return appendInts(dst, blocks)
}

// DecodePartition decodes a partition vector; rest is the trailing data.
func DecodePartition(data []byte) (blocks []int32, rest []byte, err error) {
	return readInt32s(data)
}

// Assign is the coordinator's reply to a worker's control hello: the
// worker's PE, the size of the system, the configuration of the distributed
// matching kernel, the protocol version (refuse on mismatch), and the
// fault-tolerance timing contract — the coordinator's heartbeat interval and
// the worker timeout it enforces, both in milliseconds (zero = disabled).
// Workers derive their own deadlines from these announcements, so one flag
// on the coordinator configures the whole system consistently.
type Assign struct {
	Version  int
	PE       int
	PEs      int
	Rating   int // rating.Func
	Matcher  int // matching.Algorithm
	Boundary bool
	//kappa:since 2
	HeartbeatMillis int // coordinator → worker heartbeat interval
	//kappa:since 2
	TimeoutMillis int // deadline the coordinator applies to this worker
}

// AppendAssign encodes an Assign payload.
func AppendAssign(dst []byte, a Assign) []byte {
	dst = appendUvarint(dst, uint64(a.Version))
	dst = appendUvarint(dst, uint64(a.PE))
	dst = appendUvarint(dst, uint64(a.PEs))
	dst = appendUvarint(dst, uint64(a.Rating))
	dst = appendUvarint(dst, uint64(a.Matcher))
	b := uint64(0)
	if a.Boundary {
		b = 1
	}
	dst = appendUvarint(dst, b)
	dst = appendUvarint(dst, uint64(a.HeartbeatMillis))
	return appendUvarint(dst, uint64(a.TimeoutMillis))
}

// DecodeAssign decodes an Assign payload.
func DecodeAssign(data []byte) (Assign, error) {
	var a Assign
	fields := []*int{&a.Version, &a.PE, &a.PEs, &a.Rating, &a.Matcher}
	for i, f := range fields {
		v, rest, err := readUvarint(data)
		if err != nil {
			return Assign{}, fmt.Errorf("wire: assign field %d: %w", i, err)
		}
		if v > 1<<31 {
			return Assign{}, fmt.Errorf("wire: assign field %d out of range", i)
		}
		*f = int(v)
		data = rest
	}
	v, data, err := readUvarint(data)
	if err != nil {
		return Assign{}, fmt.Errorf("wire: assign boundary flag: %w", err)
	}
	a.Boundary = v != 0
	// The timing fields were added in version 2. A payload that ends after
	// the boundary flag is a version-1 assignment: decode it with zero
	// timing so the caller's version check can report the mismatch cleanly
	// instead of this decoder failing on the absent fields.
	timing := []*int{&a.HeartbeatMillis, &a.TimeoutMillis}
	for i, f := range timing {
		if len(data) == 0 && i == 0 {
			return a, nil
		}
		v, rest, err := readUvarint(data)
		if err != nil {
			return Assign{}, fmt.Errorf("wire: assign timing field %d: %w", i, err)
		}
		if v > 1<<31 {
			return Assign{}, fmt.Errorf("wire: assign timing field %d out of range", i)
		}
		*f = int(v)
		data = rest
	}
	return a, nil
}

// LevelAborted is a worker's non-result answer to one PE's Job: the kernel
// aborted on a transport failure before producing a contraction.
type LevelAborted struct {
	PE    int
	Level int
}

// AppendLevelAborted encodes a LevelAborted payload.
func AppendLevelAborted(dst []byte, la LevelAborted) []byte {
	dst = appendUvarint(dst, uint64(la.PE))
	return appendUvarint(dst, uint64(la.Level))
}

// DecodeLevelAborted decodes a LevelAborted payload.
func DecodeLevelAborted(data []byte) (LevelAborted, error) {
	pe, data, err := readUvarint(data)
	if err != nil {
		return LevelAborted{}, fmt.Errorf("wire: level-aborted PE: %w", err)
	}
	level, _, err := readUvarint(data)
	if err != nil {
		return LevelAborted{}, fmt.Errorf("wire: level-aborted level: %w", err)
	}
	if pe > 1<<31 || level > 1<<31 {
		return LevelAborted{}, fmt.Errorf("wire: level-aborted fields out of range")
	}
	return LevelAborted{PE: int(pe), Level: int(level)}, nil
}

// AppendReassign encodes a Reassign payload: the complete PE set the
// receiving worker hosts from now on.
func AppendReassign(dst []byte, pes []int32) []byte {
	return appendInts(dst, pes)
}

// DecodeReassign decodes a Reassign payload.
func DecodeReassign(data []byte) ([]int32, error) {
	pes, _, err := readInt32s(data)
	if err != nil {
		return nil, fmt.Errorf("wire: reassign PE set: %w", err)
	}
	return pes, nil
}

// Job is one contraction-level work order: the level's derived seed, the
// pair-weight bound, and the worker's shard.
type Job struct {
	Level   int
	Seed    uint64
	MaxPair int64
	Shard   *dist.Subgraph
}

// AppendJobHeader encodes the Job fields that precede the shard: the level,
// the level seed, and the pair-weight bound. A complete Job payload is this
// header followed by AppendSubgraph bytes — callers that already hold a
// shard's encoded bytes (the on-disk store keeps exactly that encoding)
// splice them after the header instead of decoding and re-encoding the
// subgraph. AppendJob routes through this helper, so the two paths cannot
// drift.
func AppendJobHeader(dst []byte, level int, seed uint64, maxPair int64) []byte {
	dst = appendUvarint(dst, uint64(level))
	dst = appendUvarint(dst, seed)
	return appendZigzag(dst, maxPair)
}

// AppendJob encodes a Job payload, growing dst at most once.
func AppendJob(dst []byte, j Job) []byte {
	var header [3 * varint.MaxLen]byte
	return appendShard(dst, AppendJobHeader(header[:0], j.Level, j.Seed, j.MaxPair), j.Shard)
}

// DecodeJob decodes a Job payload.
func DecodeJob(data []byte) (Job, error) {
	var j Job
	level, data, err := readUvarint(data)
	if err != nil {
		return Job{}, fmt.Errorf("wire: job level: %w", err)
	}
	j.Level = int(level)
	if j.Seed, data, err = readUvarint(data); err != nil {
		return Job{}, fmt.Errorf("wire: job seed: %w", err)
	}
	if j.MaxPair, data, err = readZigzag(data); err != nil {
		return Job{}, fmt.Errorf("wire: job pair bound: %w", err)
	}
	if j.Shard, _, err = DecodeSubgraph(data); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Result is a worker's answer to a Job: how many of its owned nodes matched,
// the kernel wall-clock times, and — when any PE matched — its share of the
// fine→coarse map.
type Result struct {
	PE            int
	Matched       int
	MatchNanos    int64
	ContractNanos int64
	Part          *coarsen.PEContraction // nil when the level's matching was empty
}

// AppendResult encodes a Result payload, growing dst at most once.
func AppendResult(dst []byte, r Result) []byte {
	bound := 5 * varint.MaxLen
	if r.Part != nil {
		bound += contractionBound(r.Part)
	}
	dst = slices.Grow(dst, bound)
	dst = appendUvarint(dst, uint64(r.PE))
	dst = appendUvarint(dst, uint64(r.Matched))
	dst = appendZigzag(dst, r.MatchNanos)
	dst = appendZigzag(dst, r.ContractNanos)
	if r.Part == nil {
		return appendUvarint(dst, 0)
	}
	dst = appendUvarint(dst, 1)
	return dst[:putContraction(dst[:cap(dst)], len(dst), r.Part)]
}

// DecodeResult decodes a Result payload.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	pe, data, err := readUvarint(data)
	if err != nil {
		return Result{}, fmt.Errorf("wire: result PE: %w", err)
	}
	r.PE = int(pe)
	matched, data, err := readUvarint(data)
	if err != nil {
		return Result{}, fmt.Errorf("wire: result matched count: %w", err)
	}
	r.Matched = int(matched)
	if r.MatchNanos, data, err = readZigzag(data); err != nil {
		return Result{}, fmt.Errorf("wire: result match time: %w", err)
	}
	if r.ContractNanos, data, err = readZigzag(data); err != nil {
		return Result{}, fmt.Errorf("wire: result contract time: %w", err)
	}
	has, data, err := readUvarint(data)
	if err != nil {
		return Result{}, fmt.Errorf("wire: result part flag: %w", err)
	}
	if has != 0 {
		if r.Part, _, err = DecodeContraction(data); err != nil {
			return Result{}, err
		}
	}
	return r, nil
}
