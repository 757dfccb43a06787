package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/store"
	"repro/internal/wire"
)

// seedStore writes one small real store and returns its manifest and first
// shard bytes as fuzz seeds.
func seedStore(f *testing.F) (manifest, shard []byte) {
	f.Helper()
	dir := filepath.Join(f.TempDir(), "seed.kst")
	g := gen.RGG(7, 1)
	if _, err := store.Write(dir, g, store.WriteOptions{PEs: 2, Strategy: dist.StrategyAuto}); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, store.ManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	shard, err = os.ReadFile(filepath.Join(dir, "shard-0000.kps"))
	if err != nil {
		f.Fatal(err)
	}
	return manifest, shard
}

// FuzzReadManifest: hostile manifests must fail with an error — never a
// panic, never size-proportional allocation (the validator checks declared
// counts against the decode budget before anything acts on them).
func FuzzReadManifest(f *testing.F) {
	manifest, _ := seedStore(f)
	f.Add(manifest)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":2,"pes":1,"nodes":99999999999,"shards":[{}]}`))
	f.Add([]byte(`{"version":2,"pes":2,"nodes":4,"edges":3,"shards":[{"file":"../x","pe":0},{"file":"b","pe":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := store.ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must re-validate cleanly: ReadManifest's contract
		// is that a returned manifest is coherent.
		if err := m.Validate(); err != nil {
			t.Fatalf("ReadManifest returned a manifest its own validator rejects: %v", err)
		}
	})
}

// FuzzReadShard: shard decoding (the same decoder workers run on job
// frames) must never panic and must respect the decode budget. The budget
// is tightened so mutated headers declaring huge-but-under-default-budget
// counts exercise the typed rejection path instead of multi-hundred-MB
// allocations per exec.
func FuzzReadShard(f *testing.F) {
	_, shard := seedStore(f)
	graphio.SetDecodeBudget(1<<16, 1<<17)
	f.Cleanup(func() { graphio.SetDecodeBudget(0, 0) })
	f.Add(shard)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0xff})
	f.Add(unsortedOwnedShard(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		sg, err := store.DecodeShard(data)
		if err != nil {
			return
		}
		if sg == nil || sg.Local == nil {
			t.Fatal("DecodeShard returned a nil subgraph without an error")
		}
		// What the per-PE kernels rely on must hold for whatever decodes.
		if owned := sg.LocalToGlobal[:sg.NumOwned]; !slices.IsSorted(owned) || len(slices.Compact(slices.Clone(owned))) != len(owned) {
			t.Fatal("DecodeShard accepted a shard whose owned ids do not ascend strictly")
		}
	})
}

// unsortedOwnedShard encodes a well-formed shard except that two owned
// global ids are swapped — the malformed input NewSubgraph used to accept.
func unsortedOwnedShard(t testing.TB) []byte {
	g := gen.Grid2D(4, 4)
	sg := dist.ExtractAll(g, dist.Assign(g, dist.StrategyRanges, 2), 2)[0]
	l2g := slices.Clone(sg.LocalToGlobal)
	l2g[1], l2g[2] = l2g[2], l2g[1]
	data, err := wire.AppendSubgraph(nil, &dist.Subgraph{
		PE: sg.PE, Local: sg.Local, NumOwned: sg.NumOwned, LocalToGlobal: l2g, GhostOwner: sg.GhostOwner,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeShardRejectsUnsortedOwned(t *testing.T) {
	if _, err := store.DecodeShard(unsortedOwnedShard(t)); err == nil {
		t.Fatal("a shard with swapped owned ids decoded without error")
	}
}
