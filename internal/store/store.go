// Package store implements kappastore, the on-disk sharded graph store the
// out-of-core serve path runs from. A store directory holds:
//
//	manifest.json    versioned description: counts, aggregate weights,
//	                 distribution strategy, per-shard records, checksums
//	shard-NNNN.kps   one shard per PE — the exact wire.AppendSubgraph
//	                 encoding of that PE's subgraph (local CSR + ghost
//	                 layer + local↔global id maps)
//	csr.kcb          the global graph as fixed-width little-endian CSR
//	                 sections, built for read-only memory mapping
//
// The shard files are the level-0 job payloads of the serve protocol,
// byte-for-byte: a coordinator splices them into wire frames without
// decoding, so serving from a store streams each worker exactly the bytes
// an in-memory coordinator would have extracted and encoded. The CSR
// segment gives the coordinator-local phases (initial partitioning on the
// coarsest graph's ancestry, final refinement) the same graph values
// without the coordinator ever allocating the global adjacency — the
// mapping's pages are the page cache's problem, not the Go heap's.
//
// Every reader validates declared sizes against the graphio decode budget
// before size-proportional work, with the same typed *graphio.LimitError
// contract the graph-file decoders follow.
package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/wire"
)

// Store is an opened shard store: the parsed, validated manifest and the
// directory to resolve shard and segment reads against. Open reads only the
// manifest — shards and the CSR segment are touched on demand.
type Store struct {
	dir      string
	manifest *Manifest
}

// Open reads and validates dir's manifest. It does not open shard files or
// the CSR segment; a coordinator that streams shards to workers holds
// nothing graph-sized after Open.
func Open(dir string) (*Store, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("store: %s is not a directory (a shard store is a directory holding %s)", dir, ManifestFile)
	}
	f, err := os.Open(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("store: %s has no readable manifest: %w", dir, err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", dir, err)
	}
	return &Store{dir: dir, manifest: m}, nil
}

// Manifest returns the store's validated manifest. Callers must treat it as
// read-only.
func (s *Store) Manifest() *Manifest { return s.manifest }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// ShardBytes reads one shard file whole and verifies its size and checksum
// against the manifest. The returned bytes are the exact AppendSubgraph
// encoding — spliceable into a wire Job frame, decodable with DecodeShard.
func (s *Store) ShardBytes(pe int) ([]byte, error) {
	if pe < 0 || pe >= len(s.manifest.Shards) {
		return nil, fmt.Errorf("store: shard %d of %d", pe, len(s.manifest.Shards))
	}
	info := &s.manifest.Shards[pe]
	path := s.path(info.File)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size() != info.Bytes {
		return nil, fmt.Errorf("store: shard %d is %d bytes, manifest records %d", pe, st.Size(), info.Bytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != info.Bytes {
		return nil, fmt.Errorf("store: shard %d read %d bytes, manifest records %d", pe, len(data), info.Bytes)
	}
	if got := crc32.Checksum(data, castagnoli); got != info.CRC32C {
		return nil, fmt.Errorf("store: shard %d checksum %08x, manifest records %08x", pe, got, info.CRC32C)
	}
	return data, nil
}

// DecodeShard decodes one shard's raw bytes (as stored on disk / shipped in
// a job frame). The embedded graph decode enforces the graphio budget; any
// trailing bytes are an error.
func DecodeShard(data []byte) (*dist.Subgraph, error) {
	sg, rest, err := wire.DecodeSubgraph(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("store: shard has %d trailing bytes", len(rest))
	}
	return sg, nil
}

// LoadShard reads, verifies, and decodes one PE's subgraph, and checks the
// decoded shape against the manifest's record.
func (s *Store) LoadShard(pe int) (*dist.Subgraph, error) {
	data, err := s.ShardBytes(pe)
	if err != nil {
		return nil, err
	}
	sg, err := DecodeShard(data)
	if err != nil {
		return nil, fmt.Errorf("store: shard %d: %w", pe, err)
	}
	info := &s.manifest.Shards[pe]
	if int(sg.PE) != pe || int64(sg.NumOwned) != info.Owned ||
		int64(sg.Local.NumNodes()) != info.Nodes || int64(sg.Local.NumEdges()) != info.Edges {
		return nil, fmt.Errorf("store: shard %d decodes to PE %d with %d/%d nodes and %d edges, manifest records %d/%d nodes and %d edges",
			pe, sg.PE, sg.NumOwned, sg.Local.NumNodes(), sg.Local.NumEdges(), info.Owned, info.Nodes, info.Edges)
	}
	return sg, nil
}

// LoadShards loads every shard with up to workers concurrent readers
// (0 = GOMAXPROCS) — the parallel loader: per-shard decode budgets, and at
// no point a global adjacency; peak memory is the decoded shards the caller
// asked for plus one file buffer per active reader.
func (s *Store) LoadShards(workers int) ([]*dist.Subgraph, error) {
	pes := s.manifest.PEs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > pes {
		workers = pes
	}
	out := make([]*dist.Subgraph, pes)
	err := forEachPE(pes, workers, func(pe int) (err error) {
		out[pe], err = s.LoadShard(pe)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Verify audits the store's content integrity: the CSR segment's checksum
// and every shard's size, checksum, and decoded shape. It reads everything
// — an offline audit, not something the serve path runs.
func (s *Store) Verify() error {
	if err := s.verifyCSRChecksum(); err != nil {
		return err
	}
	for pe := range s.manifest.Shards {
		if _, err := s.LoadShard(pe); err != nil {
			return err
		}
	}
	return nil
}

// WriteOptions configures Write.
type WriteOptions struct {
	// PEs is the shard count — one shard per processing element.
	PEs int
	// Strategy is the node-to-PE distribution to extract under. The
	// resulting store serves runs with exactly this strategy.
	Strategy dist.Strategy
	// Workers bounds how many shards are extracted and written
	// concurrently (0 = GOMAXPROCS). Peak memory over the write is the
	// input graph plus Workers in-flight shard encodings.
	Workers int
	// Seed is recorded in the manifest as provenance of the intended run.
	Seed uint64
}

// Write shards g into dir: assigns nodes to PEs under the strategy, extracts
// and encodes each PE's subgraph exactly as the serve protocol would,
// streams the global CSR segment, and writes the manifest last (via rename,
// so a crashed write never leaves a directory that Open accepts).
func Write(dir string, g *graph.Graph, o WriteOptions) (*Manifest, error) {
	if o.PEs < 1 {
		return nil, fmt.Errorf("store: need at least 1 PE, got %d", o.PEs)
	}
	if o.PEs > maxPEs {
		return nil, fmt.Errorf("store: %d PEs exceeds the manifest limit %d", o.PEs, maxPEs)
	}
	if g.NumNodes() < o.PEs {
		return nil, fmt.Errorf("store: cannot shard %d nodes across %d PEs", g.NumNodes(), o.PEs)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > o.PEs {
		workers = o.PEs
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	assign := dist.Assign(g, o.Strategy, o.PEs)
	ownedOf, local := dist.OwnedLists(assign, o.PEs)

	shards := make([]ShardInfo, o.PEs)
	err := forEachPE(o.PEs, workers, func(pe int) (err error) {
		if shards[pe], err = writeShard(dir, g, assign, pe, ownedOf[pe], local); err != nil {
			return fmt.Errorf("store: shard %d: %w", pe, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	csrInfo, err := writeCSR(filepath.Join(dir, CSRFile), g)
	if err != nil {
		return nil, err
	}

	m := &Manifest{
		Version:         ManifestVersion,
		PEs:             o.PEs,
		Nodes:           int64(g.NumNodes()),
		Edges:           int64(g.NumEdges()),
		TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(),
		MaxNodeWeight:   g.MaxNodeWeight(),
		AdjSorted:       g.AdjSorted(),
		CoordDims:       g.CoordDims(),
		Strategy:        o.Strategy.String(),
		Seed:            o.Seed,
		CSR:             csrInfo,
		Shards:          shards,
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("store: writer produced an invalid manifest: %w", err)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// writeShard extracts PE pe's subgraph and writes its encoding.
func writeShard(dir string, g *graph.Graph, assign []int32, pe int, owned, local []int32) (ShardInfo, error) {
	sg := dist.ExtractOwned(g, assign, int32(pe), owned, local)
	payload, err := wire.AppendSubgraph(nil, sg)
	if err != nil {
		return ShardInfo{}, err
	}
	name := shardFileName(pe)
	if err := os.WriteFile(filepath.Join(dir, name), payload, 0o644); err != nil {
		return ShardInfo{}, err
	}
	return ShardInfo{
		File:       name,
		PE:         pe,
		Owned:      int64(sg.NumOwned),
		Nodes:      int64(sg.Local.NumNodes()),
		Edges:      int64(sg.Local.NumEdges()),
		NodeWeight: sg.Local.TotalNodeWeight(),
		EdgeWeight: sg.Local.TotalEdgeWeight(),
		Bytes:      int64(len(payload)),
		CRC32C:     crc32.Checksum(payload, castagnoli),
	}, nil
}

func shardFileName(pe int) string { return fmt.Sprintf("shard-%04d.kps", pe) }

// writeManifest serializes m to a temporary file and renames it into place.
func writeManifest(dir string, m *Manifest) error {
	data, err := marshalManifest(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, ManifestFile))
}

// forEachPE calls fn for every PE on a crew of workers members and returns
// the error of the lowest PE whose call failed.
func forEachPE(pes, workers int, fn func(pe int) error) error {
	errs := make([]error, pes)
	crew := par.Start(workers, 0)
	crew.Run(pes, func(_, pe int) { errs[pe] = fn(pe) })
	crew.Stop()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
