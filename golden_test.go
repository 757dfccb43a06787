package repro

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/remote"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_partitions.txt from the current code")

const goldenPath = "testdata/golden_partitions.txt"

// goldenRow is one line of the golden partition table: the run's inputs
// (eight fields) and what it must produce (three fields). A preset that
// names a baseline tool (kmetis, parmetis, scotch) routes the row to
// RunBaseline, which reads only the instance, k and seed; such a row writes
// pes as 0 and coarsen, dist and matcher as "-". Two coarsen values name an
// execution mode rather than core.CoarsenMode: "socket" serves the run to pes
// in-process workers over localhost (remote.ServeWith), "store" first shards
// the instance under dist into a fresh store and serves that
// (remote.ServeStore); both coarsen distributed.
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
// in the three result fields. A store row writes its store under dir.
func (r *goldenRow) run(dir string) error {
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
	mode := r.coarsen
	if mode == "socket" || mode == "store" {
		mode = "distributed"
	}
	cfg, err := core.ConfigFromNames(r.preset, r.k, 0.03, r.seed, r.pes, 0, r.dist, mode)
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
	var res Result
	switch r.coarsen {
	case "socket":
		res, err = serveGolden(g, nil, cfg)
	case "store":
		var st *store.Store
		if st, err = writeGoldenStore(filepath.Join(dir, "g.kst"), g, cfg); err == nil {
			res, err = serveGolden(nil, st, cfg)
		}
	default:
		res, err = Run(context.Background(), g, cfg)
	}
	if err != nil {
		return err
	}
	r.record(res.Blocks, res.Cut, res.Balance)
	return nil
}

// writeGoldenStore shards g into dir the way `kappa shard` does, under cfg's
// PEs and distribution, and opens the store.
func writeGoldenStore(dir string, g *graph.Graph, cfg core.Config) (*store.Store, error) {
	if _, err := store.Write(dir, g, store.WriteOptions{PEs: cfg.NumPEs(), Strategy: cfg.Distribution}); err != nil {
		return nil, err
	}
	return store.Open(dir)
}

// serveGolden runs cfg through the socket coordinator with one in-process
// worker per PE on a localhost listener: ServeWith on g, or ServeStore on st
// when st is set.
func serveGolden(g *graph.Graph, st *store.Store, cfg core.Config) (Result, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pes := cfg.NumPEs()
	if st != nil {
		pes = st.Manifest().PEs
	}
	done := make(chan error, pes)
	for range pes {
		go func() {
			_, err := remote.Work(ctx, "tcp", ln.Addr().String())
			done <- err
		}()
	}
	var res core.Result
	if st != nil {
		res, err = remote.ServeStore(ctx, ln, st, cfg, remote.ServeOptions{})
	} else {
		res, err = remote.ServeWith(ctx, ln, g, cfg, remote.ServeOptions{})
	}
	if err != nil {
		cancel() // the workers may still wait for a job
	}
	for range pes {
		if werr := <-done; err == nil {
			err = werr
		}
	}
	return res, err
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
		if err := got.run(t.TempDir()); err != nil {
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

// TestServeCommittedStore serves the store an earlier build wrote with
// `kappa shard -gen rgg:10 -pe 2` (testdata/rgg10-2pe-v2.kst, manifest
// version 2) and wants the partition of the golden row that shards the same
// instance fresh: a store stays servable, to the same bytes, by every later
// build that reads its manifest version.
func TestServeCommittedStore(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/rgg10-2pe-v2.kst"
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := st.Manifest().Version; got != 2 {
		t.Fatalf("%s: manifest version %d, want 2", path, got)
	}
	for _, line := range strings.Split(string(data), "\n") {
		want, err := parseGoldenRow(line)
		if err != nil || want.instance != "rgg:10" || want.coarsen != "store" || want.pes != st.Manifest().PEs {
			continue
		}
		cfg, err := core.ConfigFromNames(want.preset, want.k, 0.03, want.seed, want.pes, 0, want.dist, "distributed")
		if err != nil {
			t.Fatal(err)
		}
		res, err := serveGolden(nil, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := want
		got.record(res.Blocks, res.Cut, res.Balance)
		if got != want {
			t.Fatalf("%s served a different partition\n want %s\n  got %s", path, want.String(), got.String())
		}
		return
	}
	t.Fatalf("%s has no rgg:10 store row over %d PEs", goldenPath, st.Manifest().PEs)
}
