// Package wire is the versioned binary codec layer of the out-of-process
// backend: it encodes everything that crosses a process boundary — dist.Msg
// batches (the superstep traffic of distributed coarsening), subgraph shards
// (what the coordinator ships each worker), per-PE contraction results (what
// comes back), and partition vectors — into compact, deterministic,
// allocation-conscious byte strings.
//
// Layering: graph serialization is delegated to internal/graphio (the binary
// graph format is a first-class artifact, not a protocol detail), and the
// Msg batch encoding is exposed through MsgCodec, which implements
// dist.BatchCodec so the socket transport and hub stay codec-agnostic.
//
// Compatibility: every control connection starts with a version handshake
// (Assign.Version = Version); peers with mismatched versions refuse to talk
// rather than misparse. Encodings are pure functions of their values, so
// equal inputs produce equal bytes on every platform (varints + IEEE-754
// bits, no host endianness, no maps iterated).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/varint"
)

// Version is the wire-protocol version, negotiated in the control
// handshake. Bump it whenever any frame or payload encoding changes.
// Version 2 added the fault-tolerance frames (heartbeat, level-aborted,
// reassign) and the heartbeat/timeout announcement in Assign. Version 3
// shrank a Result's contraction to the PE's coarse id range and its share of
// the fine→coarse map: the coordinator contracts its own copy of the level.
const Version = 3

// Control-frame kinds (see WriteFrame/ReadFrame).
const (
	// KindAssign is the coordinator's reply to a control hello: the
	// worker's PE assignment and the run configuration (AppendAssign).
	KindAssign byte = 1
	// KindJob carries one contraction-level job: level parameters plus the
	// worker's subgraph shard (AppendJob).
	KindJob byte = 2
	// KindResult carries a worker's level result: matching size and its
	// PE-local contraction (AppendResult).
	KindResult byte = 3
	// KindDone ends a session; its payload is the final partition vector
	// (possibly empty when the run failed).
	KindDone byte = 4
	// KindHeartbeat is an empty liveness frame, flowing both ways on the
	// control connection: the coordinator's heartbeats keep workers from
	// timing out during long coordinator-local phases (initial partitioning,
	// refinement), the workers' heartbeats refresh the coordinator's
	// per-worker read deadline. Receivers skip it wherever a frame is read.
	KindHeartbeat byte = 5
	// KindLevelAborted is a worker's non-result answer to a Job: the PE's
	// kernel died on a transport failure (typically because some OTHER
	// worker crashed and collapsed the superstep barrier). Sending an
	// explicit frame instead of closing the connection keeps the control
	// stream frame-aligned, so the coordinator can reuse it for the retry
	// (AppendLevelAborted).
	KindLevelAborted byte = 6
	// KindReassign tells a live worker the full set of PEs it now hosts —
	// the orphaned shards of a dead worker moved onto it. The worker
	// re-dials one transport connection per hosted PE before the level is
	// retried (AppendReassign).
	KindReassign byte = 7
)

// appendUvarint/readUvarint are the package's primitive: everything integer
// goes over the wire as a uvarint (zigzag for signed values).
func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("wire: truncated varint")
	}
	return v, data[n:], nil
}

// readInt32 decodes one zigzag value that must fit an int32.
func readInt32(data []byte) (int32, []byte, error) {
	v, data, err := readZigzag(data)
	if err == nil && v != int64(int32(v)) {
		err = fmt.Errorf("wire: value %d overflows int32", v)
	}
	return int32(v), data, err
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, varint.Zigzag(v))
}

func readZigzag(data []byte) (int64, []byte, error) {
	u, rest, err := readUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	return varint.Unzigzag(u), rest, nil
}

// intsBound is an upper bound on the length-prefixed zigzag encoding of xs.
func intsBound[T int32 | int64](xs []T) int { return varint.MaxLen + varint.ZigzagBound(xs) }

// putInts writes the length-prefixed zigzag encoding of xs at buf[i:], which
// the caller sized from intsBound, and returns the index after it.
func putInts[T int32 | int64](buf []byte, i int, xs []T) int {
	return varint.PutZigzags(buf, varint.Put(buf, i, uint64(len(xs))), xs)
}

// appendInts appends the length-prefixed zigzag encoding of xs, growing dst
// at most once.
func appendInts[T int32 | int64](dst []byte, xs []T) []byte {
	dst = slices.Grow(dst, intsBound(xs))
	return dst[:putInts(dst[:cap(dst)], len(dst), xs)]
}

// readInts decodes a length-prefixed zigzag array whose raw values lie in
// [0, hi] — the image of T under the zigzag map — in one bulk pass.
func readInts[T int32 | int64](data []byte, hi uint64) ([]T, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	// A varint takes at least one byte: cheap bound against allocation bombs.
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("wire: %d elements declared, %d bytes left", n, len(data))
	}
	xs := make([]T, n)
	switch _, used, st := varint.Ints(xs, data, true, 0, hi); st {
	case varint.Done:
		return xs, data[used:], nil
	case varint.OutOfRange:
		u, _ := binary.Uvarint(data[used:])
		return nil, nil, fmt.Errorf("wire: value %d overflows int32", varint.Unzigzag(u))
	default:
		return nil, nil, fmt.Errorf("wire: truncated varint")
	}
}

func readInt32s(data []byte) ([]int32, []byte, error) { return readInts[int32](data, math.MaxUint32) }
func readInt64s(data []byte) ([]int64, []byte, error) { return readInts[int64](data, math.MaxUint64) }

// appendFloat encodes one float64 as 8 little-endian IEEE-754 bytes.
func appendFloat(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

func readFloat(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("wire: truncated float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data[:8])), data[8:], nil
}
