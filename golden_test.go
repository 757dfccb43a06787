package repro

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matching"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_partitions.txt from the current code")

const goldenPath = "testdata/golden_partitions.txt"

// goldenRow is one line of the golden partition table: the run's inputs
// (eight fields) and what it must produce (three fields). A preset that
// names a baseline tool (kmetis, parmetis, scotch) routes the row to
// RunBaseline, which reads only the instance, k and seed; such a row writes
// pes as 0 and coarsen, dist and matcher as "-".
type goldenRow struct {
	instance, preset       string
	k, pes                 int
	coarsen, dist, matcher string
	seed                   uint64

	cut     int64
	balance string // %.6f, compared as text
	hash    string // FNV-1a 64 of the little-endian Blocks, 16 hex digits
}

func (r *goldenRow) String() string {
	return fmt.Sprintf("%s %s %d %d %s %s %s %d %d %s %s", r.instance, r.preset, r.k, r.pes,
		r.coarsen, r.dist, r.matcher, r.seed, r.cut, r.balance, r.hash)
}

func parseGoldenRow(line string) (goldenRow, error) {
	f := strings.Fields(line)
	if len(f) != 11 {
		return goldenRow{}, fmt.Errorf("want 11 fields, got %d", len(f))
	}
	r := goldenRow{instance: f[0], preset: f[1], coarsen: f[4], dist: f[5], matcher: f[6], balance: f[9], hash: f[10]}
	var err error
	if r.k, err = strconv.Atoi(f[2]); err != nil {
		return r, err
	}
	if r.pes, err = strconv.Atoi(f[3]); err != nil {
		return r, err
	}
	if r.seed, err = strconv.ParseUint(f[7], 10, 64); err != nil {
		return r, err
	}
	if r.cut, err = strconv.ParseInt(f[8], 10, 64); err != nil {
		return r, err
	}
	return r, nil
}

// run partitions the row's instance under the row's configuration and fills
// in the three result fields.
func (r *goldenRow) run() error {
	g, err := gen.FromSpec(r.instance)
	if err != nil {
		return err
	}
	for _, tool := range []BaselineTool{KMetisLike, ParMetisLike, ScotchLike} {
		if tool.String() == r.preset {
			res := RunBaseline(g, r.k, 0.03, tool, r.seed)
			r.record(res.Blocks, res.Cut, res.Balance)
			return nil
		}
	}
	cfg, err := core.ConfigFromNames(r.preset, r.k, 0.03, r.seed, r.pes, 0, r.dist, r.coarsen)
	if err != nil {
		return err
	}
	found := false
	for _, alg := range []matching.Algorithm{matching.GPA, matching.SHEM, matching.Greedy} {
		if alg.String() == r.matcher {
			cfg.Matcher, found = alg, true
		}
	}
	if !found {
		return fmt.Errorf("unknown matcher %q", r.matcher)
	}
	res, err := Run(context.Background(), g, cfg)
	if err != nil {
		return err
	}
	r.record(res.Blocks, res.Cut, res.Balance)
	return nil
}

// record fills in the row's three result fields from a finished run.
func (r *goldenRow) record(blocks []int32, cut int64, balance float64) {
	h := fnv.New64a()
	var b [4]byte
	for _, blk := range blocks {
		binary.LittleEndian.PutUint32(b[:], uint32(blk))
		h.Write(b[:])
	}
	r.cut = cut
	r.balance = fmt.Sprintf("%.6f", balance)
	r.hash = fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenPartitions is the solution-quality gate: every row of
// testdata/golden_partitions.txt — (instance, preset, k, PEs, coarsen mode,
// distribution, matcher, seed) — must reproduce its committed cut, balance
// and partition hash exactly. A performance or refactoring change that
// claims "byte-identical partitions" is held to that claim here; a change
// that means to move results regenerates the table with
//
//	go test -run TestGoldenPartitions -update .
//
// and accounts for every changed row in CHANGES.md.
func TestGoldenPartitions(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	rows := 0
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		want, err := parseGoldenRow(line)
		if err != nil {
			t.Fatalf("%s:%d: %v", goldenPath, lineNo, err)
		}
		got := want
		if err := got.run(); err != nil {
			t.Fatalf("%s:%d: %v", goldenPath, lineNo, err)
		}
		rows++
		out = append(out, got.String())
		if got != want && !*updateGolden {
			t.Errorf("%s:%d: partition moved\n want %s\n  got %s", goldenPath, lineNo, want.String(), got.String())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatalf("%s holds no rows", goldenPath)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
