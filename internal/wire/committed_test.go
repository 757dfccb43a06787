package wire

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
)

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames-v3.bin from the current encoder")

// framesPath holds one control frame of every kind as a Version 3 build
// wrote them, in the order of committedFrames.
const framesPath = "testdata/frames-v3.bin"

// committedFrames is the session the committed frames encode: a worker's
// assignment, a level's job over a real shard, its result with a
// contraction, a heartbeat, the fault frames and the final partition.
func committedFrames(t *testing.T) []struct {
	kind    byte
	payload []byte
} {
	g := gen.Grid2D(6, 5)
	sg := dist.ExtractAll(g, dist.Assign(g, dist.StrategyRanges, 2), 2)[1]
	job := AppendJob(nil, Job{Level: 3, Seed: 0xfeedface, MaxPair: 12, Shard: sg})
	part := &coarsen.PEContraction{FirstCoarse: 7, NumCoarse: 2, FineGlobal: []int32{15, 16, 17}, FineCoarse: []int32{7, 8, 7}}
	return []struct {
		kind    byte
		payload []byte
	}{
		{KindAssign, AppendAssign(nil, Assign{Version: 3, PE: 1, PEs: 2, Rating: 3, Matcher: 1, Boundary: true, HeartbeatMillis: 250, TimeoutMillis: 5000})},
		{KindJob, job},
		{KindResult, AppendResult(nil, Result{PE: 1, Matched: 2, MatchNanos: 12345, ContractNanos: -1, Part: part})},
		{KindHeartbeat, nil},
		{KindLevelAborted, AppendLevelAborted(nil, LevelAborted{PE: 1, Level: 3})},
		{KindReassign, AppendReassign(nil, []int32{0, 1})},
		{KindDone, AppendPartition(nil, []int32{0, 1, 1, 0, 3})},
	}
}

// TestDecodeCommittedV3Frames reads the committed Version 3 control frames
// and wants each to decode, to re-encode to its own bytes, and to be the bytes
// today's encoder writes for the same values: a change that alters the
// encoding of Version 3 fails here, not in a mixed-version deployment. Run
// with -update to rewrite the file when the version is raised on purpose.
func TestDecodeCommittedV3Frames(t *testing.T) {
	frames := committedFrames(t)
	if *updateFrames {
		var buf bytes.Buffer
		for _, f := range frames {
			if err := WriteFrame(&buf, f.kind, append(NewFrame(len(f.payload)), f.payload...)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(framesPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(framesPath)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(data))
	for i, want := range frames {
		kind, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want.kind || !bytes.Equal(payload, want.payload) {
			t.Fatalf("frame %d: kind %d, %d bytes; today's encoder writes kind %d, %d bytes", i, kind, len(payload), want.kind, len(want.payload))
		}
		var again []byte
		switch kind {
		case KindAssign:
			a, err := DecodeAssign(payload)
			if err != nil || a.Version != 3 {
				t.Fatalf("assign %+v, %v: want version 3", a, err)
			}
			again = AppendAssign(nil, a)
		case KindJob:
			j, err := DecodeJob(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = AppendJob(nil, j)
		case KindResult:
			res, err := DecodeResult(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = AppendResult(nil, res)
		case KindHeartbeat:
			again = payload
		case KindLevelAborted:
			la, err := DecodeLevelAborted(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = AppendLevelAborted(nil, la)
		case KindReassign:
			pes, err := DecodeReassign(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = AppendReassign(nil, pes)
		case KindDone:
			blocks, _, err := DecodePartition(payload)
			if err != nil {
				t.Fatal(err)
			}
			again = AppendPartition(nil, blocks)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("frame %d (kind %d) does not re-encode to its own bytes", i, kind)
		}
	}
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatalf("%s holds more frames than the session", framesPath)
	}
}
