package store_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/store"
	"repro/internal/wire"
)

// weightedGraph builds a small weighted coordinate graph, so the CSR
// segment's ewgt/nwgt/coords sections all carry non-default values.
func weightedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 200
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.SetNodeWeight(v, int64(v%7)+1)
		b.SetCoord(v, float64(v%20), float64(v/20))
		b.AddEdge(v, (v+1)%n, int64(v%5)+1)
		b.AddEdge(v, (v+13)%n, 2)
	}
	return b.Build()
}

func writeStore(t *testing.T, g *graph.Graph, pes int, strategy dist.Strategy) (string, *store.Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "g.kst")
	m, err := store.Write(dir, g, store.WriteOptions{PEs: pes, Strategy: strategy, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return dir, m
}

// sameGraph compares every value a partitioning run can observe, and how
// the weights are held: a unit graph must come back a unit graph.
func sameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if d := graph.Diff(got, want); d != "" {
		t.Fatal(d)
	}
	if got.UnitEdgeWeights() != want.UnitEdgeWeights() {
		t.Fatalf("unit graph %v, want %v", got.UnitEdgeWeights(), want.UnitEdgeWeights())
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		pes      int
		strategy dist.Strategy
	}{
		{"weighted-2d", weightedGraph(t), 4, dist.StrategyAuto},
		{"rgg", gen.RGG(10, 1), 3, dist.StrategyRCB},
		{"grid3d", gen.Grid3D(8, 7, 5), 2, dist.StrategyRCB},
		{"no-coords", gen.PrefAttach(500, 4, 9), 4, dist.StrategyRanges},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, m := writeStore(t, tc.g, tc.pes, tc.strategy)
			if m.Nodes != int64(tc.g.NumNodes()) || m.Edges != int64(tc.g.NumEdges()) || m.PEs != tc.pes {
				t.Fatalf("manifest shape %d/%d/%d", m.Nodes, m.Edges, m.PEs)
			}
			if m.Strategy != tc.strategy.String() {
				t.Fatalf("manifest strategy %q, want %q", m.Strategy, tc.strategy)
			}
			s, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}

			mg, err := s.MapGraph()
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			sameGraph(t, tc.g, mg.G)

			// The parallel loader must reproduce exactly what the in-memory
			// coordinator would extract at level 0.
			want := dist.ExtractAll(tc.g, dist.Assign(tc.g, tc.strategy, tc.pes), tc.pes)
			got, err := s.LoadShards(2)
			if err != nil {
				t.Fatal(err)
			}
			// Exported fields and encoded bytes, not reflect.DeepEqual on
			// the struct: a Subgraph caches indexes it builds on demand.
			for pe := range want {
				g, w := got[pe], want[pe]
				if g.PE != w.PE || g.NumOwned != w.NumOwned ||
					!slices.Equal(g.LocalToGlobal, w.LocalToGlobal) || !slices.Equal(g.GhostOwner, w.GhostOwner) {
					t.Fatalf("shard %d diverged from in-memory extraction", pe)
				}
				sameGraph(t, w.Local, g.Local)
				gb, _ := wire.AppendSubgraph(nil, g)
				wb, _ := wire.AppendSubgraph(nil, w)
				if !bytes.Equal(gb, wb) {
					t.Fatalf("shard %d re-encodes differently from the in-memory extraction", pe)
				}
			}
		})
	}
}

// TestShardBytesMatchWireEncoding pins the splice contract: the stored
// shard file is byte-for-byte the wire.AppendSubgraph encoding the
// coordinator would produce at level 0.
func TestShardBytesMatchWireEncoding(t *testing.T) {
	g := gen.RGG(9, 5)
	const pes = 3
	dir, _ := writeStore(t, g, pes, dist.StrategyAuto)
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sgs := dist.ExtractAll(g, dist.Assign(g, dist.StrategyAuto, pes), pes)
	for pe := 0; pe < pes; pe++ {
		want, err := wire.AppendSubgraph(nil, sgs[pe])
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ShardBytes(pe)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d bytes differ from the live encoding", pe)
		}
	}
}

// TestWriteDeterministic: two writes of the same graph produce identical
// bytes — manifest, shards, and CSR segment.
func TestWriteDeterministic(t *testing.T) {
	g := gen.RGG(9, 2)
	dirA, _ := writeStore(t, g, 4, dist.StrategyAuto)
	dirB, _ := writeStore(t, g, 4, dist.StrategyAuto)
	entries, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4+2 { // shards + manifest + csr
		t.Fatalf("store has %d files", len(entries))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between two writes", e.Name())
		}
	}
}

// TestRunFromMappedGraph is the local byte-identity pin: a full pipeline
// run over the mapped graph equals the run over the original in-memory
// graph, bit for bit.
func TestRunFromMappedGraph(t *testing.T) {
	g := gen.RGG(10, 7)
	dir, _ := writeStore(t, g, 4, dist.StrategyAuto)
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := s.MapGraph()
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	cfg := core.NewConfig(core.Fast, 8)
	cfg.Seed = 4242
	cfg.PEs = 4
	cfg.Coarsen = core.CoarsenDistributed
	want, err := core.Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(context.Background(), mg.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cut != want.Cut || !reflect.DeepEqual(got.Blocks, want.Blocks) {
		t.Fatalf("mapped-graph run diverged: cut %d vs %d", got.Cut, want.Cut)
	}
}

// TestMapGraphHeapFootprint demonstrates the out-of-core claim: bringing
// the mapped graph up allocates O(1) heap, not O(CSR). (Heap-fallback
// platforms skip; there the loader is a conventional O(CSR) decoder.)
func TestMapGraphHeapFootprint(t *testing.T) {
	g := gen.Grid2D(400, 400) // ~160k nodes, ~319k edges; CSR segment ~8 MiB
	dir, m := writeStore(t, g, 2, dist.StrategyAuto)
	g = nil
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mg, err := s.MapGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !mg.Mapped() {
		t.Skip("mmap unavailable on this platform; heap fallback in use")
	}
	runtime.ReadMemStats(&after)
	defer mg.Close()

	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := m.CSR.Bytes / 8; delta > limit {
		t.Fatalf("MapGraph allocated %d heap bytes for a %d-byte CSR segment (limit %d)", delta, m.CSR.Bytes, limit)
	}
	// The values must still be fully usable.
	if mg.G.NumNodes() != 160000 || mg.G.Degree(0) != 2 {
		t.Fatal("mapped graph unreadable")
	}
}

func TestHostileManifests(t *testing.T) {
	g := gen.RGG(8, 1)
	dir, _ := writeStore(t, g, 2, dist.StrategyAuto)
	good, err := os.ReadFile(filepath.Join(dir, store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, f func(m *store.Manifest)) error {
		t.Helper()
		m, err := store.ReadManifest(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		f(m)
		return m.Validate()
	}

	t.Run("nodes-over-budget", func(t *testing.T) {
		err := mutate(t, func(m *store.Manifest) { m.Nodes = 1 << 40 })
		if !errors.Is(err, graphio.ErrLimit) {
			t.Fatalf("want ErrLimit, got %v", err)
		}
	})
	t.Run("edges-over-budget", func(t *testing.T) {
		err := mutate(t, func(m *store.Manifest) { m.Edges = 1 << 40 })
		if !errors.Is(err, graphio.ErrLimit) {
			t.Fatalf("want ErrLimit, got %v", err)
		}
	})
	t.Run("shard-bytes-inflated", func(t *testing.T) {
		err := mutate(t, func(m *store.Manifest) { m.Shards[0].Bytes = 1 << 50 })
		if !errors.Is(err, graphio.ErrLimit) {
			t.Fatalf("want ErrLimit, got %v", err)
		}
	})
	// A manifest past its byte budget is refused before it is parsed, and
	// the error states what was declared and the budget, nothing more.
	t.Run("manifest-bytes-over-budget", func(t *testing.T) {
		const budget = 8 << 20
		_, err := store.ReadManifest(io.MultiReader(bytes.NewReader(good), bytes.NewReader(make([]byte, budget))))
		var le *graphio.LimitError
		if !errors.As(err, &le) || le.What != "manifest bytes" || le.Declared != budget+1 || le.Limit != budget {
			t.Fatalf("want a manifest-bytes LimitError, got %v", err)
		}
		if want := "graphio: declared manifest bytes 8388609 exceeds decode budget 8388608"; err.Error() != want {
			t.Fatalf("error text %q, want %q", err, want)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		if err := mutate(t, func(m *store.Manifest) { m.Version = 99 }); err == nil {
			t.Fatal("version 99 accepted")
		}
	})
	// The writer writes version 2, the only version this build reads: a
	// version 1 store, whose shards carried coordinates, is refused.
	t.Run("versions", func(t *testing.T) {
		written := 0
		mutate(t, func(m *store.Manifest) { written = m.Version })
		if written != 2 {
			t.Fatalf("the writer wrote version %d, want 2", written)
		}
		for v, ok := range map[int]bool{0: false, 1: false, 2: true, 3: false} {
			if err := mutate(t, func(m *store.Manifest) { m.Version = v }); (err == nil) != ok {
				t.Errorf("version %d: accepted %v, want %v (%v)", v, err == nil, ok, err)
			}
		}
	})
	t.Run("path-traversal", func(t *testing.T) {
		if err := mutate(t, func(m *store.Manifest) { m.Shards[0].File = "../../etc/passwd" }); err == nil {
			t.Fatal("traversing file name accepted")
		}
	})
	t.Run("absolute-path", func(t *testing.T) {
		if err := mutate(t, func(m *store.Manifest) { m.CSR.File = "/etc/passwd" }); err == nil {
			t.Fatal("absolute file name accepted")
		}
	})
	t.Run("owned-sum-mismatch", func(t *testing.T) {
		if err := mutate(t, func(m *store.Manifest) { m.Shards[0].Owned++ }); err == nil {
			t.Fatal("incoherent owned sum accepted")
		}
	})
	// A strategy outside dist.ParseStrategy's vocabulary — one an older
	// build wrote and this one dropped, or a hostile name — is refused at
	// Open, and the error names the value.
	t.Run("unknown-strategy", func(t *testing.T) {
		for _, name := range []string{"bogus", "rcb/../../x", "\x00"} {
			err := mutate(t, func(m *store.Manifest) { m.Strategy = name })
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
				t.Errorf("strategy %q: got %v, want an error naming it", name, err)
			}
		}
		bad := bytes.Replace(good, []byte(`"strategy": "auto"`), []byte(`"strategy": "bogus"`), 1)
		if bytes.Equal(bad, good) {
			t.Fatal("manifest has no auto strategy field to replace")
		}
		if err := os.WriteFile(filepath.Join(dir, store.ManifestFile), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Fatalf("Open: got %v, want an error naming \"bogus\"", err)
		}
	})
}

func TestCorruptionDetected(t *testing.T) {
	g := gen.RGG(8, 3)
	dir, m := writeStore(t, g, 2, dist.StrategyAuto)

	flip := func(t *testing.T, name string, off int64) func() {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		orig := data[off]
		data[off] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return func() {
			data[off] = orig
			os.WriteFile(path, data, 0o644)
		}
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("shard-bit-flip", func(t *testing.T) {
		restore := flip(t, m.Shards[1].File, m.Shards[1].Bytes/2)
		defer restore()
		if _, err := s.ShardBytes(1); err == nil {
			t.Fatal("corrupted shard passed its checksum")
		}
	})
	t.Run("shard-truncated", func(t *testing.T) {
		path := filepath.Join(dir, m.Shards[0].File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(path, data, 0o644)
		if _, err := s.ShardBytes(0); err == nil {
			t.Fatal("truncated shard accepted")
		}
	})
	t.Run("csr-bit-flip", func(t *testing.T) {
		restore := flip(t, m.CSR.File, m.CSR.Bytes-3)
		defer restore()
		if err := s.Verify(); err == nil {
			t.Fatal("corrupted csr segment passed Verify")
		}
	})
}

func TestOpenRejectsNonStores(t *testing.T) {
	if _, err := store.Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("opened a missing directory")
	}
	empty := t.TempDir()
	if _, err := store.Open(empty); err == nil {
		t.Fatal("opened a directory without a manifest")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(file); err == nil {
		t.Fatal("opened a plain file")
	}
}

func TestWriteRejectsBadOptions(t *testing.T) {
	g := gen.RGG(6, 1)
	if _, err := store.Write(t.TempDir(), g, store.WriteOptions{PEs: 0}); err == nil {
		t.Fatal("0 PEs accepted")
	}
	if _, err := store.Write(t.TempDir(), g, store.WriteOptions{PEs: g.NumNodes() + 1}); err == nil {
		t.Fatal("more PEs than nodes accepted")
	}
}
