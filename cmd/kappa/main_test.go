package main

import (
	"bufio"
	"bytes"
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
	"repro/internal/graphio"
)

// buildBinaries compiles kappa and gengraph into a temp dir — the real
// artifacts users run, so the test exercises the exact CLI surface.
func buildBinaries(t *testing.T) (kappa, gengraph string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	kappa = filepath.Join(dir, "kappa")
	gengraph = filepath.Join(dir, "gengraph")
	for bin, pkg := range map[string]string{kappa: "repro/cmd/kappa", gengraph: "repro/cmd/gengraph"} {
		cmd := exec.Command(goTool, "build", "-o", bin, pkg)
		cmd.Dir = moduleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return kappa, gengraph
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// freePort reserves a localhost TCP port for the coordinator.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// TestServeWorkerProcessesMatchInProcess is the two-process equivalence
// test of the out-of-process backend: a coordinator and two workers run as
// separate OS processes on a METIS file written by the gengraph binary, and
// the resulting partition must be byte-identical to the in-process
// Exchanger run of the library at the same seed.
func TestServeWorkerProcessesMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, gengraph := buildBinaries(t)
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "rgg.graph")

	// Satellite: gengraph -o/-format flags write through the new codec layer.
	// rgg:13 keeps level 0 above the fold floor, so the workers run it.
	if out, err := exec.Command(gengraph, "-type", "rgg", "-scale", "13", "-seed", "5", "-o", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}

	const k, pes, seed = 8, 2, 31337
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	partFile := filepath.Join(dir, "serve.part")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serve := exec.CommandContext(ctx, kappa, "serve",
		"-in", graphFile, "-k", strconv.Itoa(k), "-pes", strconv.Itoa(pes),
		"-seed", strconv.Itoa(seed), "-listen", addr, "-out", partFile)
	serveOut, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}

	// Workers retry the dial until the coordinator listens.
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

	var cut int64 = -1
	sc := bufio.NewScanner(serveOut)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "cut"); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("parsing cut line %q: %v", sc.Text(), err)
			}
			cut = v
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

	// In-process reference run over the same file, same seed.
	g, err := graphio.ReadFile(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(core.Fast, k)
	cfg.Seed = seed
	cfg.PEs = pes
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut != want.Cut {
		t.Errorf("multi-process cut %d, in-process cut %d", cut, want.Cut)
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

// TestServeChaosWorkerKillProcesses is the cross-process chaos smoke: three
// real worker processes, one launched with a seeded fault schedule that
// kills its control connection while it sends its first level result. The
// coordinator must declare it dead, reassign its shard, and still produce
// the byte-identical partition of the healthy in-process run — the same
// property the in-process harness (internal/remote) pins, here across OS
// process boundaries.
func TestServeChaosWorkerKillProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, gengraph := buildBinaries(t)
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "rgg.graph")
	// On rgg:10 every level would fold onto the coordinator and the kill
	// would never fire; rgg:13's level 0 is shipped to the workers.
	if out, err := exec.Command(gengraph, "-type", "rgg", "-scale", "13", "-seed", "5", "-o", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}

	const k, pes, seed = 6, 3, 4242
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	partFile := filepath.Join(dir, "chaos.part")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serve := exec.CommandContext(ctx, kappa, "serve",
		"-in", graphFile, "-k", strconv.Itoa(k), "-pes", strconv.Itoa(pes),
		"-seed", strconv.Itoa(seed), "-listen", addr, "-out", partFile,
		"-worker-timeout", "30s", "-heartbeat", "100ms")
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
		args := []string{"worker", "-connect", addr, "-timeout", "90s", "-heartbeat", "100ms"}
		if i == 0 {
			// The victim: its control connection dies on its second write —
			// the first contraction-level result, i.e. mid-coarsening.
			args = append(args, "-faults", "ctrl:write:2:kill")
		}
		workers[i] = exec.CommandContext(ctx, kappa, args...)
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

	var cut int64 = -1
	var faultsLine string
	sc := bufio.NewScanner(serveOut)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "cut"); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("parsing cut line %q: %v", sc.Text(), err)
			}
			cut = v
		}
		if rest, ok := strings.CutPrefix(sc.Text(), "faults"); ok {
			faultsLine = strings.TrimSpace(rest)
		}
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("serve did not survive the worker kill: %v", err)
	}
	if err := workers[0].Wait(); err == nil {
		t.Error("the victim worker exited cleanly; its kill schedule never fired")
	}
	for i := 1; i < pes; i++ {
		if err := workers[i].Wait(); err != nil {
			t.Errorf("surviving worker %d: %v", i, err)
		}
	}
	if !strings.Contains(faultsLine, "workers_failed=1") {
		t.Errorf("faults summary %q does not report exactly one dead worker", faultsLine)
	}

	g, err := graphio.ReadFile(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(core.Fast, k)
	cfg.Seed = seed
	cfg.PEs = pes
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut != want.Cut {
		t.Errorf("chaos-run cut %d, healthy in-process cut %d", cut, want.Cut)
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

// TestServeFoldedRunWorkersWritePartition serves rgg:10, whose every level
// is below the fold floor: the coordinator runs them all itself, so the two
// worker processes get no job. They must still exit 0, say so, and write the
// coordinator's partition with -out.
func TestServeFoldedRunWorkersWritePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	dir := t.TempDir()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	serve := exec.CommandContext(ctx, kappa, "serve", "-gen", "rgg:10", "-k", "4", "-pes", "2",
		"-seed", "3", "-listen", addr, "-out", filepath.Join(dir, "serve.part"))
	var summary strings.Builder
	serve.Stdout = &summary
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	workers := make([]*exec.Cmd, 2)
	logs := make([]strings.Builder, 2)
	for i := range workers {
		workers[i] = exec.CommandContext(ctx, kappa, "worker", "-connect", addr, "-timeout", "90s",
			"-retry", "50", "-backoff", "50ms", "-out", filepath.Join(dir, fmt.Sprintf("worker%d.part", i)))
		workers[i].Stderr = &logs[i]
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !strings.Contains(summary.String(), "folded ") || strings.Contains(summary.String(), "folded    0 ") {
		t.Errorf("summary does not report folded levels:\n%s", summary.String())
	}
	want, err := os.ReadFile(filepath.Join(dir, "serve.part"))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d: %v\n%s", i, err, logs[i].String())
		}
		if !strings.Contains(logs[i].String(), "done after running 0 levels") {
			t.Errorf("worker %d ran levels of a run that folds them all:\n%s", i, logs[i].String())
		}
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("worker%d.part", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("worker %d wrote a partition other than the coordinator's", i)
		}
	}
}

// TestGengraphBinaryFormatRoundTrip pins the gengraph -format flag: a
// binary-format file written by the real binary parses back losslessly,
// coordinates included.
func TestGengraphBinaryFormatRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	_, gengraph := buildBinaries(t)
	dir := t.TempDir()
	binFile := filepath.Join(dir, "grid.bgraph")
	if out, err := exec.Command(gengraph, "-type", "grid3d", "-w", "8", "-h", "7", "-d", "6", "-o", binFile).CombinedOutput(); err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}
	g, err := graphio.ReadFile(binFile)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8*7*6 || g.CoordDims() != 3 {
		t.Fatalf("n=%d dims=%d", g.NumNodes(), g.CoordDims())
	}
}

// TestGengraphRejectsBadSizes holds gengraph to gen.FromSpec's size bounds:
// a size of 0 and a negative scale are usage errors, exit 2 with one line
// that names the flag, not a generator's panic.
func TestGengraphRejectsBadSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	_, gengraph := buildBinaries(t)
	for _, args := range [][]string{{"-type", "social", "-d", "0"}, {"-type", "rgg", "-scale", "-1"}} {
		out, err := exec.Command(gengraph, append(args, "-o", filepath.Join(t.TempDir(), "g.graph"))...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("%v: %v, want exit status 2\n%s", args, err, out)
		}
		if msg := string(out); strings.Contains(msg, "panic") || !strings.Contains(msg, "gengraph: "+args[2]+" ") {
			t.Fatalf("%v: output %q, want one error naming %s", args, msg, args[2])
		}
	}
}
