package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
)

// FuzzMsgCodec feeds arbitrary bytes to the Msg batch decoder — the payload
// that crosses the socket transport every superstep, and the first thing a
// corrupted or duplicated frame lands on. Properties, matching the graphio
// fuzz targets: the decoder never panics on garbage; every batch the encoder
// produces round-trips exactly; and accepted input converges to a canonical
// encoding after one decode → encode cycle (garbage can carry a redundant
// R == 0 payload the canonical encoder elides, so byte-identity starts at
// the second encode).
func FuzzMsgCodec(f *testing.F) {
	c := MsgCodec{}
	f.Add([]byte{})
	f.Add([]byte{0x80}) // R flag without the R payload
	f.Add(c.AppendBatch(nil, []dist.Msg{
		{Kind: dist.MsgProposal, A: 1, B: 2, W: 3, R: 0.5},
		{Kind: dist.MsgFlag, A: -1, B: 0, W: 0},
	}))
	f.Add(c.AppendBatch(nil, []dist.Msg{
		{Kind: 0, A: math.MaxInt32, B: math.MinInt32, W: math.MaxInt64},
	}))
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, in []byte) {
		msgs, err := c.DecodeBatch(in, nil)
		if err != nil {
			return
		}
		// A batch encodes as the concatenation of self-delimiting messages,
		// so accepted bytes must re-encode to a decodable batch with the
		// same messages, and the canonical encoding must be a fixed point.
		enc := c.AppendBatch(nil, msgs)
		msgs2, err := c.DecodeBatch(enc, nil)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !sameMsgs(msgs, msgs2) {
			t.Fatalf("round trip changed batch: %v -> %v", msgs, msgs2)
		}
		enc2 := c.AppendBatch(nil, msgs2)
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding did not converge after one round trip")
		}
	})
}

// sameMsgs compares batches treating NaN R payloads as equal (NaN survives
// the IEEE-754 bits but breaks ==).
func sameMsgs(a, b []dist.Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.IsNaN(x.R) && math.IsNaN(y.R) {
			x.R, y.R = 0, 0
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// FuzzDecodeControl feeds arbitrary bytes to every control-frame payload
// decoder of the coordinator/worker loop — the first thing a corrupted,
// truncated or hostile frame lands on after ReadFrame. Properties: no decoder
// panics; an accepted payload never materializes more elements than it has
// bytes (every element costs at least one wire byte, so a short frame cannot
// command a large allocation); and re-encoding an accepted value yields a
// payload that decodes again and re-encodes to the same bytes — the decoded
// value survives a round trip, compared through its canonical encoding so
// NaN coordinates and the shard's rebuilt index do not get in the way. What
// the coordinator then does with a decoded result's parts, the stitch, is
// FuzzStitchMatchesReference's (internal/coarsen).
func FuzzDecodeControl(f *testing.F) {
	// A few header bytes of a shard graph may declare up to the graphio
	// decode budget; keep rejected inputs cheap for the fuzzer.
	graphio.SetDecodeBudget(1<<16, 1<<18)
	f.Cleanup(func() { graphio.SetDecodeBudget(0, 0) })

	g := gen.Grid2D(6, 5)
	sg := dist.ExtractAll(g, dist.Assign(g, dist.StrategyRanges, 2), 2)[1]
	f.Add(AppendJob(nil, Job{Level: 2, Seed: 0xfeed, MaxPair: 9, Shard: sg}))
	f.Add(AppendAssign(nil, Assign{Version: Version, PE: 1, PEs: 3, Rating: 2, Matcher: 1, Boundary: true, HeartbeatMillis: 50, TimeoutMillis: 500}))
	f.Add(AppendResult(nil, Result{PE: 1, Matched: 4, MatchNanos: 10, ContractNanos: 20,
		Part: &coarsen.PEContraction{FirstCoarse: 3, NumCoarse: 2, FineGlobal: []int32{0, 1, 2}, FineCoarse: []int32{3, 3, 4}}}))
	f.Add(AppendResult(nil, Result{PE: 0, Matched: 1, // a part that tiles on its own: the stitch accepts it
		Part: &coarsen.PEContraction{NumCoarse: 2, FineGlobal: []int32{0, 1, 2}, FineCoarse: []int32{0, 0, 1}}}))
	f.Add(AppendResult(nil, Result{PE: 0}))
	f.Add(AppendReassign(nil, []int32{0, 2, 5}))
	f.Add(AppendLevelAborted(nil, LevelAborted{PE: 2, Level: 7}))
	f.Add(AppendPartition(nil, []int32{0, 1, 1, 0, 3}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, in []byte) {
		// roundTrip checks enc (the re-encoding of a value decoded from in)
		// against the re-encoding of its own decoding.
		roundTrip := func(what string, elems int, enc []byte, again func([]byte) ([]byte, error)) {
			t.Helper()
			if elems > len(in) {
				t.Fatalf("%s: %d elements decoded from %d bytes", what, elems, len(in))
			}
			enc2, err := again(enc)
			if err != nil {
				t.Fatalf("%s: re-decoding own encoding: %v", what, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: value changed across a round trip", what)
			}
		}
		if a, err := DecodeAssign(in); err == nil {
			roundTrip("assign", 0, AppendAssign(nil, a), func(b []byte) ([]byte, error) {
				a2, err := DecodeAssign(b)
				return AppendAssign(nil, a2), err
			})
		}
		if j, err := DecodeJob(in); err == nil {
			enc := AppendJob(nil, j)
			elems := len(j.Shard.LocalToGlobal) + len(j.Shard.GhostOwner) + j.Shard.Local.NumNodes() + 2*j.Shard.Local.NumEdges()
			roundTrip("job", elems, enc, func(b []byte) ([]byte, error) {
				j2, err := DecodeJob(b)
				if err != nil {
					return nil, err
				}
				return AppendJob(nil, j2), nil
			})
		}
		if r, err := DecodeResult(in); err == nil {
			elems := 0
			if p := r.Part; p != nil {
				elems = len(p.FineGlobal) + len(p.FineCoarse)
			}
			roundTrip("result", elems, AppendResult(nil, r), func(b []byte) ([]byte, error) {
				r2, err := DecodeResult(b)
				return AppendResult(nil, r2), err
			})
		}
		if pes, err := DecodeReassign(in); err == nil {
			roundTrip("reassign", len(pes), AppendReassign(nil, pes), func(b []byte) ([]byte, error) {
				pes2, err := DecodeReassign(b)
				return AppendReassign(nil, pes2), err
			})
		}
		if la, err := DecodeLevelAborted(in); err == nil {
			roundTrip("level-aborted", 0, AppendLevelAborted(nil, la), func(b []byte) ([]byte, error) {
				la2, err := DecodeLevelAborted(b)
				return AppendLevelAborted(nil, la2), err
			})
		}
		if blocks, _, err := DecodePartition(in); err == nil {
			roundTrip("partition", len(blocks), AppendPartition(nil, blocks), func(b []byte) ([]byte, error) {
				blocks2, _, err := DecodePartition(b)
				return AppendPartition(nil, blocks2), err
			})
		}
	})
}
