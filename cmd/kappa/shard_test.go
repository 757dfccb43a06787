package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graphio"
)

// TestShardServeMatchesInProcess is the CLI equivalence test of the
// out-of-core path: `kappa shard` writes a store from a gengraph file,
// `kappa serve -shards` streams it to two real worker processes, and the
// resulting partition must be byte-identical to the in-process distributed
// run over the same file at the same seed. This is the same contract the
// in-process internal/remote suite pins, here across the actual binaries.
func TestShardServeMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, gengraph := buildBinaries(t)
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "rgg.graph")
	storeDir := filepath.Join(dir, "rgg.kst")

	if out, err := exec.Command(gengraph, "-type", "rgg", "-scale", "10", "-seed", "5", "-o", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}
	if out, err := exec.Command(kappa, "shard", "-in", graphFile, "-pe", "2", "-dist", "rcb", "-o", storeDir).CombinedOutput(); err != nil {
		t.Fatalf("kappa shard: %v\n%s", err, out)
	}

	const k, pes, seed = 8, 2, 31337
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	partFile := filepath.Join(dir, "store.part")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serve := exec.CommandContext(ctx, kappa, "serve",
		"-shards", storeDir, "-k", strconv.Itoa(k),
		"-seed", strconv.Itoa(seed), "-listen", addr, "-out", partFile)
	serveOut, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}

	workers := make([]*exec.Cmd, pes)
	for i := range workers {
		workers[i] = exec.CommandContext(ctx, kappa, "worker", "-connect", addr, "-timeout", "90s")
		var started bool
		for try := 0; try < 100; try++ {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				conn.Close()
				started = true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !started {
			t.Fatal("coordinator never listened")
		}
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// The summary's store line proves the splice path ran: every shard must
	// have been streamed from disk rather than extracted from a live CSR.
	var streamed = -1
	sc := bufio.NewScanner(serveOut)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "store"); ok {
			if i := strings.Index(rest, "("); i >= 0 {
				if n, err := strconv.Atoi(strings.Fields(rest[i+1:])[0]); err == nil {
					streamed = n
				}
			}
		}
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if streamed != pes {
		t.Errorf("summary reports %d shards streamed, want %d", streamed, pes)
	}

	g, err := graphio.ReadFile(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	// The serve run left -dist at auto; the manifest's rcb strategy must win,
	// so the reference run pins rcb explicitly.
	rcb, err := dist.ParseStrategy("rcb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(core.Fast, k)
	cfg.Seed = seed
	cfg.PEs = pes
	cfg.Distribution = rcb
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	got, err := graphio.ReadPartitionFile(partFile, g.NumNodes(), k)
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != want.Blocks[v] {
			t.Fatalf("partition diverges at node %d: %d vs %d", v, got[v], want.Blocks[v])
		}
	}
}

// TestShardRejectsDirectoryInput pins the diagnostic for the easy mistake of
// pointing -in at a store directory: exit 1 with a message that names the
// right entry point, not an opaque decode error.
func TestShardRejectsDirectoryInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, gengraph := buildBinaries(t)
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "g.graph")
	storeDir := filepath.Join(dir, "g.kst")
	if out, err := exec.Command(gengraph, "-type", "grid", "-w", "16", "-h", "16", "-o", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}
	if out, err := exec.Command(kappa, "shard", "-in", graphFile, "-pe", "2", "-o", storeDir).CombinedOutput(); err != nil {
		t.Fatalf("kappa shard: %v\n%s", err, out)
	}

	out, err := exec.Command(kappa, "-in", storeDir, "-k", "4").CombinedOutput()
	if err == nil {
		t.Fatalf("kappa -in <store dir> succeeded; want failure\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "directory") || !strings.Contains(string(out), "-shards") {
		t.Fatalf("diagnostic should name the shard-store entry points:\n%s", out)
	}
}
