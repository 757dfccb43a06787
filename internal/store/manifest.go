package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/dist"
	"repro/internal/graphio"
)

// ManifestVersion is the manifest schema this build writes and the only one
// it reads. Version bumps are explicit: a reader refuses a manifest it does
// not understand instead of misinterpreting it. Version 2 stores shards
// without coordinates.
const ManifestVersion = 2

const (
	// ManifestFile is the manifest's file name inside a store directory.
	ManifestFile = "manifest.json"
	// CSRFile is the global CSR segment's file name.
	CSRFile = "csr.kcb"

	// maxManifestBytes bounds how much manifest JSON readManifest accepts:
	// a manifest describes at most maxPEs shards at a few hundred bytes
	// each, so anything beyond this is hostile or corrupt.
	maxManifestBytes = 8 << 20
	// maxPEs bounds the shard count a manifest may declare. It matches the
	// practical ceiling of the serve protocol (one worker connection per
	// PE), far below anything that would make the []ShardInfo allocation
	// itself a resource attack.
	maxPEs = 1 << 16
)

// Manifest is the versioned description of one on-disk shard store: the
// global graph's shape and aggregate weights (so a coordinator can size
// balance constraints without touching the CSR), the distribution that
// produced the shards, the CSR segment's layout, and one record per shard
// with counts, byte size, and checksum.
//
// Everything a partitioning run derives from the global graph header —
// node/edge counts, total and maximum node weight — is recorded here at
// write time, which is what lets the mapped graph come up without scanning
// (and therefore paging in) its arrays. The adj_sorted field of older
// manifests is ignored, as every unknown field is.
type Manifest struct {
	Version int `json:"version"`
	PEs     int `json:"pes"`

	Nodes           int64 `json:"nodes"`
	Edges           int64 `json:"edges"` // undirected edge count
	TotalNodeWeight int64 `json:"total_node_weight"`
	TotalEdgeWeight int64 `json:"total_edge_weight"`
	MaxNodeWeight   int64 `json:"max_node_weight"`
	CoordDims       int   `json:"coord_dims"` // 0, 2, or 3

	// Strategy is the node-to-PE distribution the shards were extracted
	// under (dist.ParseStrategy vocabulary). A coordinator serving from
	// this store runs with exactly this strategy — the shard bytes embody
	// it. Seed records the run seed the store was produced for; it is
	// provenance, not a constraint (any seed partitions the same shards).
	Strategy string `json:"strategy"`
	Seed     uint64 `json:"seed"`

	CSR    CSRInfo     `json:"csr"`
	Shards []ShardInfo `json:"shards"`
}

// CSRInfo locates the global CSR segment and its sections. The offsets are
// derivable from the counts (the layout is fixed); they are recorded so the
// file is self-describing to other tooling, and validated against the
// derived layout on read.
type CSRInfo struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`

	XadjOff  int64 `json:"xadj_off"`
	AdjOff   int64 `json:"adj_off"`
	EwgtOff  int64 `json:"ewgt_off"`
	NwgtOff  int64 `json:"nwgt_off"`
	CoordOff int64 `json:"coord_off"` // 0 when the graph has no coordinates
}

// ShardInfo describes one PE's shard file: the exact wire.AppendSubgraph
// encoding of that PE's subgraph (local CSR + ghost layer + id maps).
type ShardInfo struct {
	File       string `json:"file"`
	PE         int    `json:"pe"`
	Owned      int64  `json:"owned"`       // nodes this PE owns
	Nodes      int64  `json:"nodes"`       // owned + ghost nodes in the local graph
	Edges      int64  `json:"edges"`       // local undirected edges
	NodeWeight int64  `json:"node_weight"` // local graph total node weight
	EdgeWeight int64  `json:"edge_weight"` // local graph total edge weight
	Bytes      int64  `json:"bytes"`
	CRC32C     uint32 `json:"crc32c"`
}

// readManifest parses and validates a manifest. Hostile input fails before
// any size-proportional work: the reader is byte-bounded, and every declared
// count is checked against the graphio decode budget (typed *LimitError,
// errors.Is(err, graphio.ErrLimit)) before a caller could act on it.
func readManifest(r io.Reader) (*Manifest, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxManifestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	if len(data) > maxManifestBytes {
		return nil, &graphio.LimitError{What: "manifest bytes", Declared: uint64(len(data)), Limit: maxManifestBytes}
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("store: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the manifest's internal coherence and its declared sizes
// against the decode budget. Budget violations are *graphio.LimitError;
// everything else is a plain descriptive error.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("store: manifest version %d, this build reads version %d", m.Version, ManifestVersion)
	}
	if m.PEs < 1 || m.PEs > maxPEs {
		return fmt.Errorf("store: manifest declares %d PEs (want 1..%d)", m.PEs, maxPEs)
	}
	budgetNodes, budgetEdges := graphio.DecodeBudget()
	if m.Nodes < 0 || m.Edges < 0 {
		return fmt.Errorf("store: manifest declares negative counts (nodes %d, edges %d)", m.Nodes, m.Edges)
	}
	if uint64(m.Nodes) > budgetNodes {
		return &graphio.LimitError{What: "nodes", Declared: uint64(m.Nodes), Limit: budgetNodes}
	}
	if uint64(m.Edges) > budgetEdges {
		return &graphio.LimitError{What: "edges", Declared: uint64(m.Edges), Limit: budgetEdges}
	}
	if m.TotalNodeWeight < 0 || m.TotalEdgeWeight < 0 || m.MaxNodeWeight < 0 {
		return fmt.Errorf("store: manifest declares negative aggregate weights")
	}
	if _, err := dist.ParseStrategy(m.Strategy); err != nil {
		return fmt.Errorf("store: manifest strategy: %w", err)
	}
	switch m.CoordDims {
	case 0, 2, 3:
	default:
		return fmt.Errorf("store: manifest declares %d coordinate dimensions (want 0, 2, or 3)", m.CoordDims)
	}
	if len(m.Shards) != m.PEs {
		return fmt.Errorf("store: manifest declares %d PEs but lists %d shards", m.PEs, len(m.Shards))
	}
	var owned int64
	for i := range m.Shards {
		s := &m.Shards[i]
		if s.PE != i {
			return fmt.Errorf("store: shard %d records PE %d", i, s.PE)
		}
		if err := checkLocalName(s.File); err != nil {
			return fmt.Errorf("store: shard %d: %w", i, err)
		}
		if s.Owned < 0 || s.Nodes < s.Owned || s.Edges < 0 || s.Bytes < 0 {
			return fmt.Errorf("store: shard %d declares incoherent counts (owned %d, nodes %d, edges %d, bytes %d)",
				i, s.Owned, s.Nodes, s.Edges, s.Bytes)
		}
		if uint64(s.Nodes) > budgetNodes {
			return &graphio.LimitError{What: "nodes", Declared: uint64(s.Nodes), Limit: budgetNodes}
		}
		if uint64(s.Edges) > budgetEdges {
			return &graphio.LimitError{What: "edges", Declared: uint64(s.Edges), Limit: budgetEdges}
		}
		// The shard file is read whole before decoding, so its size must be
		// plausible for its declared counts — a small declared graph cannot
		// smuggle in a huge read.
		if limit := maxShardBytes(s.Nodes, s.Edges); s.Bytes > limit {
			return &graphio.LimitError{What: "shard bytes", Declared: uint64(s.Bytes), Limit: uint64(limit)}
		}
		owned += s.Owned
	}
	if owned != m.Nodes {
		return fmt.Errorf("store: shards own %d nodes in total, manifest declares %d", owned, m.Nodes)
	}
	if err := checkLocalName(m.CSR.File); err != nil {
		return fmt.Errorf("store: csr segment: %w", err)
	}
	lay := layoutCSR(m.Nodes, m.Edges, m.CoordDims)
	if m.CSR.Bytes != lay.total {
		return fmt.Errorf("store: csr segment declares %d bytes, layout for %d nodes / %d edges is %d",
			m.CSR.Bytes, m.Nodes, m.Edges, lay.total)
	}
	if m.CSR.XadjOff != lay.xadjOff || m.CSR.AdjOff != lay.adjOff ||
		m.CSR.EwgtOff != lay.ewgtOff || m.CSR.NwgtOff != lay.nwgtOff || m.CSR.CoordOff != lay.coordOff {
		return fmt.Errorf("store: csr section offsets disagree with the derived layout")
	}
	return nil
}

// marshalManifest serializes a manifest with stable, human-diffable
// formatting.
func marshalManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// maxShardBytes bounds a shard file's size by its declared counts: the
// varint encoding spends at most ~25 bytes per node (degree + node weight +
// id-map entry) and ~15 per directed edge (neighbor + weight), plus a version
// 1 shard's coordinates and a small header. The bound is deliberately loose — it only
// has to stop a size-independent huge read, not model the format.
func maxShardBytes(nodes, edges int64) int64 {
	return 256 + 64*nodes + 32*edges
}

// checkLocalName accepts only a bare file name: no separators, no parent
// references — a manifest must not be able to address files outside its own
// directory.
func checkLocalName(name string) error {
	if name == "" || name == "." || name == ".." || filepath.Base(name) != name {
		return fmt.Errorf("store: %q is not a plain file name", name)
	}
	return nil
}
