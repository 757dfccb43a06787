package wire

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/dist"
	"repro/internal/gen"
)

func TestMsgBatchRoundTrip(t *testing.T) {
	msgs := []dist.Msg{
		{Kind: dist.MsgGhostState, A: 17, R: 2.5},
		{Kind: dist.MsgGhostState, A: -1, W: 1},
		{Kind: dist.MsgProposal, A: 1 << 30, B: -(1 << 30), R: math.Pi},
		{Kind: dist.MsgCoarseID, A: 5, B: 9},
		{Kind: dist.MsgCount, W: -12345678901234},
		{Kind: dist.MsgFlag, W: 1},
		{Kind: dist.MsgFlag},
	}
	var c MsgCodec
	enc := c.AppendBatch(nil, msgs)
	got, err := c.DecodeBatch(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msgs, got) {
		t.Fatalf("round trip changed batch:\n%v\n%v", msgs, got)
	}

	// The batch contract: concatenated encodings decode as one batch.
	enc2 := c.AppendBatch(append([]byte(nil), enc...), msgs)
	got2, err := c.DecodeBatch(enc2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2*len(msgs) {
		t.Fatalf("concatenated batches decoded to %d messages, want %d", len(got2), 2*len(msgs))
	}

	// Truncations error, never panic.
	for cut := 1; cut < len(enc); cut++ {
		if _, err := c.DecodeBatch(enc[:cut], nil); err == nil {
			// A cut can land exactly on a message boundary; that decodes
			// cleanly to a shorter batch, which is fine.
			if dec, _ := c.DecodeBatch(enc[:cut], nil); len(dec) >= len(msgs) {
				t.Fatalf("truncation at %d decoded all messages", cut)
			}
		}
	}
}

func TestSubgraphRoundTrip(t *testing.T) {
	g := gen.Grid3D(6, 5, 4)
	assign := dist.Assign(g, dist.StrategyRCB, 3)
	for _, sg := range dist.ExtractAll(g, assign, 3) {
		enc, err := AppendSubgraph(nil, sg)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := DecodeSubgraph(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if got.PE != sg.PE || got.NumOwned != sg.NumOwned {
			t.Fatalf("PE/owned changed: %d/%d -> %d/%d", sg.PE, sg.NumOwned, got.PE, got.NumOwned)
		}
		if !reflect.DeepEqual(got.LocalToGlobal, sg.LocalToGlobal) ||
			!reflect.DeepEqual(got.GhostOwner, sg.GhostOwner) {
			t.Fatal("id maps changed")
		}
		if got.Local.NumNodes() != sg.Local.NumNodes() || got.Local.NumEdges() != sg.Local.NumEdges() {
			t.Fatal("local graph size changed")
		}
		for v := int32(0); v < int32(sg.Local.NumNodes()); v++ {
			if !reflect.DeepEqual(got.Local.Adj(v), sg.Local.Adj(v)) ||
				!reflect.DeepEqual(got.Local.AdjWeights(v), sg.Local.AdjWeights(v)) {
				t.Fatalf("adjacency of %d changed", v)
			}
		}
		// The rebuilt global→local index answers like the original.
		for lv, gv := range sg.LocalToGlobal {
			back, ok := got.ToLocal(gv)
			if !ok || back != int32(lv) {
				t.Fatalf("ToLocal(%d) = %d, %v", gv, back, ok)
			}
		}
	}
}

func TestContractionRoundTrip(t *testing.T) {
	p := &coarsen.PEContraction{
		FirstCoarse: 42,
		NumCoarse:   3,
		FineGlobal:  []int32{10, 11, 12, 13},
		FineCoarse:  []int32{42, 42, 43, 44},
	}
	enc := AppendContraction(nil, p)
	got, rest, err := DecodeContraction(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed contraction:\n%+v\n%+v", p, got)
	}
	// A count or first id past int32 is refused, not wrapped.
	big := appendZigzag(appendZigzag(nil, 0), math.MaxInt32+1)
	if _, _, err := DecodeContraction(append(big, 0, 0)); err == nil {
		t.Fatal("accepted a coarse count past int32")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	blocks := []int32{0, 1, 2, 1, 0, 7, 3}
	enc := AppendPartition(nil, blocks)
	got, rest, err := DecodePartition(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(blocks, got) {
		t.Fatalf("round trip changed partition: %v -> %v", blocks, got)
	}
}

func TestAssignJobResultRoundTrip(t *testing.T) {
	a := Assign{Version: Version, PE: 1, PEs: 4, Rating: 3, Matcher: 1, Boundary: true,
		HeartbeatMillis: 250, TimeoutMillis: 5000}
	gota, err := DecodeAssign(AppendAssign(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if gota != a {
		t.Fatalf("assign changed: %+v -> %+v", a, gota)
	}

	g := gen.Grid2D(8, 8)
	sg := dist.ExtractAll(g, dist.Assign(g, dist.StrategyRanges, 2), 2)[1]
	j := Job{Level: 3, Seed: 0xdeadbeef, MaxPair: 17, Shard: sg}
	enc := AppendJob(nil, j)
	gotj, err := DecodeJob(enc)
	if err != nil {
		t.Fatal(err)
	}
	if gotj.Level != 3 || gotj.Seed != 0xdeadbeef || gotj.MaxPair != 17 || gotj.Shard.NumOwned != sg.NumOwned {
		t.Fatalf("job changed: %+v", gotj)
	}

	r := Result{PE: 2, Matched: 9, MatchNanos: 1e6, ContractNanos: 2e6,
		Part: &coarsen.PEContraction{FirstCoarse: 1, NumCoarse: 1, FineGlobal: []int32{0}, FineCoarse: []int32{1}}}
	gotr, err := DecodeResult(AppendResult(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if gotr.PE != 2 || gotr.Matched != 9 || gotr.MatchNanos != 1e6 || !reflect.DeepEqual(gotr.Part, r.Part) {
		t.Fatalf("result changed: %+v", gotr)
	}

	empty := Result{PE: 0, Matched: 0}
	gote, err := DecodeResult(AppendResult(nil, empty))
	if err != nil {
		t.Fatal(err)
	}
	if gote.Part != nil {
		t.Fatal("nil part became non-nil")
	}
}

func TestFaultFramesRoundTrip(t *testing.T) {
	la := LevelAborted{PE: 3, Level: 7}
	gotla, err := DecodeLevelAborted(AppendLevelAborted(nil, la))
	if err != nil {
		t.Fatal(err)
	}
	if gotla != la {
		t.Fatalf("level-aborted changed: %+v -> %+v", la, gotla)
	}
	if _, err := DecodeLevelAborted(nil); err == nil {
		t.Fatal("accepted empty level-aborted")
	}

	pes := []int32{0, 2, 5}
	gotpes, err := DecodeReassign(AppendReassign(nil, pes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pes, gotpes) {
		t.Fatalf("reassign changed: %v -> %v", pes, gotpes)
	}
	if _, err := DecodeReassign([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("accepted huge reassign count")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindJob, append(NewFrame(0), "payload"...)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, KindDone, nil); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	kind, payload, err := ReadFrame(br)
	if err != nil || kind != KindJob || string(payload) != "payload" {
		t.Fatalf("frame 1: kind %d payload %q err %v", kind, payload, err)
	}
	kind, payload, err = ReadFrame(br)
	if err != nil || kind != KindDone || len(payload) != 0 {
		t.Fatalf("frame 2: kind %d payload %q err %v", kind, payload, err)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite pins that a control frame leaves in one Write — one
// system call on a socket — whatever its size, with or without payload, and
// also when one frame buffer is written to several peers.
func TestWriteFrameOneWrite(t *testing.T) {
	big := append(NewFrame(0), bytes.Repeat([]byte{7}, 1<<17)...)
	frames := []struct {
		kind  byte
		frame []byte
	}{
		{KindHeartbeat, nil},
		{KindDone, NewFrame(0)},
		{KindJob, append(NewFrame(0), "payload"...)},
		{KindResult, big},
		{KindResult, big},
	}
	var w countingWriter
	for i, f := range frames {
		if err := WriteFrame(&w, f.kind, f.frame); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("frame %d took %d writes", i, w.writes-i)
		}
	}
	br := bufio.NewReader(&w.Buffer)
	for i, f := range frames {
		kind, payload, err := ReadFrame(br)
		if err != nil || kind != f.kind || (len(f.frame) > 0 && !bytes.Equal(payload, f.frame[frameHead:])) {
			t.Fatalf("frame %d read back as kind %d, %d bytes, err %v", i, kind, len(payload), err)
		}
	}
	if err := WriteFrame(&w, KindJob, []byte("bare")); err == nil {
		t.Fatal("accepted a buffer shorter than the header room")
	}
}

// TestWriteFrameTakesHeaderRoomOnTrust names the hazard of the one-write
// frame: the first frameHead bytes of the buffer ARE the header room, so a
// bare payload that long — AppendResult(nil, …), what callers passed before
// frames left in one write — is not refused: it goes out short of its first
// frameHead bytes. Only NewFrame begins a frame buffer.
func TestWriteFrameTakesHeaderRoomOnTrust(t *testing.T) {
	bare := []byte("eleven byte" + "s of header room, then the rest")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindJob, bare); err != nil {
		t.Fatal(err)
	}
	_, payload, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil || string(payload) != "s of header room, then the rest" {
		t.Fatalf("bare payload read back as %q, %v", payload, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	// Corrupt inputs error instead of panicking or over-allocating.
	if _, _, err := readInt32s([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("accepted huge element count")
	}
	if _, _, err := DecodeSubgraph([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted garbage shard")
	}
	if _, err := DecodeAssign(nil); err == nil {
		t.Fatal("accepted empty assign")
	}
	if _, err := DecodeJob([]byte{5}); err == nil {
		t.Fatal("accepted truncated job")
	}
	if _, err := DecodeResult([]byte{1}); err == nil {
		t.Fatal("accepted truncated result")
	}
}

// TestDecodeAssignV1 pins cross-version decoding: a version-1 assignment
// ends after the boundary flag (the timing fields arrived in v2), and must
// decode cleanly with zero timing so the worker's version check — not a
// confusing decoder error — reports the mismatch. A payload truncated
// between the two timing fields is still corrupt.
func TestDecodeAssignV1(t *testing.T) {
	var v1 []byte
	for _, v := range []uint64{1, 0, 2, 0, 0, 1} { // version, PE, PEs, rating, matcher, boundary
		v1 = appendUvarint(v1, v)
	}
	a, err := DecodeAssign(v1)
	if err != nil {
		t.Fatalf("v1 assignment failed to decode: %v", err)
	}
	if a.Version != 1 || a.PEs != 2 || !a.Boundary {
		t.Fatalf("v1 fields did not survive: %+v", a)
	}
	if a.HeartbeatMillis != 0 || a.TimeoutMillis != 0 {
		t.Fatalf("absent timing fields decoded non-zero: %+v", a)
	}
	if _, err := DecodeAssign(appendUvarint(v1, 20)); err == nil {
		t.Fatal("accepted an assignment truncated between the timing fields")
	}
}
