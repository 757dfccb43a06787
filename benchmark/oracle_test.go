package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
)

// gridOutput is a correct op output: a 4×4 grid (node v sits in row v/4,
// column v%4) cut into its left and right halves, which cuts the four edges
// between columns 1 and 2.
func gridOutput() output {
	blocks := make([]int32, 16)
	for v := range blocks {
		if v%4 >= 2 {
			blocks[v] = 1
		}
	}
	return output{g: gen.Grid2D(4, 4), k: 2, eps: 0.03, cut: 4, blocks: blocks}
}

// rowsOutput is another correct output for the same instance: top half
// against bottom half.
func rowsOutput() output {
	o := gridOutput()
	for v := range o.blocks {
		o.blocks[v] = int32(v / 8)
	}
	return o
}

func TestVerifyAcceptsCorrectPartition(t *testing.T) {
	o := gridOutput()
	o.copies = [][]int32{append([]int32(nil), o.blocks...)}
	if err := verify(&o); err != nil {
		t.Fatal(err)
	}
	text := gridOutput()
	text.blocks, text.text = nil, []byte(strings.Repeat("0\n0\n1\n1\n", 4))
	if err := verify(&text); err != nil {
		t.Fatal(err)
	}
}

// corruptions are the ways a result can be wrong; each must fail the oracle
// for its own reason, and so count in failed/attempted.
var corruptions = []struct {
	name    string
	corrupt func(*output)
	want    string // part of the oracle's complaint
}{
	{"block out of range", func(o *output) { o.blocks[5] = 2 }, "outside [0,2)"},
	{"negative block", func(o *output) { o.blocks[5] = -1 }, "outside [0,2)"},
	{"wrong reported cut", func(o *output) { o.cut = 3 }, "recomputed cut 4"},
	// Two nodes of column 2 join the left block: 10 of 16 nodes against an
	// Lmax of 9, with the cut (now 5) reported truthfully.
	{"overweight block", func(o *output) { o.blocks[2], o.blocks[6], o.cut = 0, 0, 5 }, "Lmax is 9"},
	{"wrong length", func(o *output) { o.blocks = o.blocks[:15] }, "15 entries"},
	{"copy differs", func(o *output) { o.copies = [][]int32{make([]int32, 16)} }, "copy 0"},
	{"unparsable text", func(o *output) { o.text = []byte("0\nx\n") }, "result line 2"},
	{"text of wrong length", func(o *output) { o.text = []byte("0\n1\n") }, "2 entries"},
}

func TestVerifyRejectsCorruptedPartitions(t *testing.T) {
	for _, c := range corruptions {
		o := gridOutput()
		c.corrupt(&o)
		err := verify(&o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: oracle said %v, want a complaint about %q", c.name, err, c.want)
		}
	}
}

// checked is an op as the timed loop records it.
func checked(index int, out output, err error) opRecord {
	r := opRecord{Index: index}
	r.check(out, err)
	return r
}

func TestJudgeCountsFailures(t *testing.T) {
	wrongCut := gridOutput()
	wrongCut.cut = 3
	// Completion order is not index order when two clients run.
	ops := []opRecord{
		checked(1, rowsOutput(), nil),
		checked(3, wrongCut, nil),
		checked(0, gridOutput(), nil),
		checked(2, output{}, errors.New("submit answered 429")),
	}
	var res runResult
	judge(&res, ops, 2)
	if res.Attempted != 4 || res.Failed != 2 || res.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 4, 2, false: %v", res.Attempted, res.Failed, res.Correct, res.Failures)
	}
	for i, r := range res.Ops {
		if r.Index != i {
			t.Fatalf("ops not in index order: %d at %d", r.Index, i)
		}
	}
	if res.Ops[0].Hash == "" || res.Ops[0].Hash == res.Ops[1].Hash {
		t.Errorf("hashes do not tell the column split from the row split: %q %q", res.Ops[0].Hash, res.Ops[1].Hash)
	}
	if res.Ops[0].Edges != 24 || res.Ops[3].Edges != 0 {
		t.Errorf("edges %d and %d, want 24 for the verified op and 0 for the failed one", res.Ops[0].Edges, res.Ops[3].Edges)
	}
	if got := cutSum(res.Ops, 2); got != 8 {
		t.Errorf("cut_sum %d, want 8", got)
	}
}

func TestJudgeFlagsNondeterminism(t *testing.T) {
	// Cycle 1: op 1 ran op 0's seed, so a different partition — even a valid
	// one — means the program is not deterministic.
	ops := []opRecord{checked(0, gridOutput(), nil), checked(1, rowsOutput(), nil)}
	var res runResult
	judge(&res, ops, 1)
	if res.Failed != 1 || !strings.Contains(res.Failures[0], "same seed") {
		t.Fatalf("failed %d, want 1 for the repeated seed: %v", res.Failed, res.Failures)
	}
}
