package dist

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// Subgraph is one PE's share of a distributed graph: the nodes assigned to
// the PE ("owned", local ids [0, NumOwned)), followed by the ghost (halo)
// layer — every foreign node adjacent to an owned node — with both directions
// of the id mapping. Edges between two ghost nodes are not materialized; they
// belong to other PEs. This is the building block a genuinely distributed
// coarsening phase exchanges: each PE coarsens its owned nodes and reads
// ghost state written by the owners.
type Subgraph struct {
	PE    int32        // the PE this subgraph belongs to
	Local *graph.Graph // owned nodes then ghosts, weights copied; no coordinates

	NumOwned      int     // owned nodes are local ids [0, NumOwned)
	LocalToGlobal []int32 // len = Local.NumNodes(); the owned prefix strictly ascending
	GhostOwner    []int32 // owner PE of each ghost, parallel to local ids NumOwned...

	// ghostLocal maps a ghost's global id to its local id. Owned ids need no
	// index: their global ids ascend, so ToLocal binary-searches them.
	ghostLocal map[int32]int32

	peersOnce sync.Once
	peerOff   []int32 // see BoundaryPeers
	peers     []int32
}

// NewSubgraph reassembles a Subgraph from its parts — the constructor the
// wire codec uses after shipping a shard to another process. local's nodes
// must be ordered owned-first with the owned global ids strictly ascending
// (the order extraction produces and the per-PE kernels rely on: "smaller
// local id" and "smaller global id" agree for owned pairs); localToGlobal
// must have one entry per local node and ghostOwner one per ghost, and no
// global id may appear twice.
func NewSubgraph(pe int32, local *graph.Graph, numOwned int, localToGlobal, ghostOwner []int32) (*Subgraph, error) {
	if numOwned < 0 || numOwned > local.NumNodes() {
		return nil, fmt.Errorf("dist: owned count %d out of range [0, %d]", numOwned, local.NumNodes())
	}
	if len(localToGlobal) != local.NumNodes() {
		return nil, fmt.Errorf("dist: id map has %d entries for %d local nodes", len(localToGlobal), local.NumNodes())
	}
	if len(ghostOwner) != local.NumNodes()-numOwned {
		return nil, fmt.Errorf("dist: ghost owner list has %d entries for %d ghosts", len(ghostOwner), local.NumNodes()-numOwned)
	}
	owned := localToGlobal[:numOwned]
	for i := 1; i < len(owned); i++ {
		if owned[i-1] >= owned[i] {
			return nil, fmt.Errorf("dist: owned global ids not strictly ascending at local %d (%d after %d)", i, owned[i], owned[i-1])
		}
	}
	s := &Subgraph{
		PE:            pe,
		Local:         local,
		NumOwned:      numOwned,
		LocalToGlobal: localToGlobal,
		GhostOwner:    ghostOwner,
		ghostLocal:    make(map[int32]int32, len(ghostOwner)),
	}
	for lv := numOwned; lv < len(localToGlobal); lv++ {
		gv := localToGlobal[lv]
		if _, dup := s.ToLocal(gv); dup {
			return nil, fmt.Errorf("dist: global id %d appears twice in shard", gv)
		}
		s.ghostLocal[gv] = int32(lv)
	}
	return s, nil
}

// NumGhosts returns the size of the halo layer.
func (s *Subgraph) NumGhosts() int { return s.Local.NumNodes() - s.NumOwned }

// ToGlobal maps a local id (owned or ghost) to the global node id.
func (s *Subgraph) ToGlobal(local int32) int32 { return s.LocalToGlobal[local] }

// ToLocal maps a global id to the local id; ok is false when the node is
// neither owned by this PE nor in its ghost layer.
func (s *Subgraph) ToLocal(global int32) (local int32, ok bool) {
	if local, ok = s.ghostLocal[global]; ok {
		return local, true
	}
	i, ok := slices.BinarySearch(s.LocalToGlobal[:s.NumOwned], global)
	return int32(i), ok
}

// BoundaryPeers returns, for every owned node, the distinct owner PEs of
// its ghost neighbors in ascending order — the PEs that hold the node as a
// ghost and therefore must receive its state during ghost exchange — as one
// flat list: node lv's peers are peers[off[lv]:off[lv+1]], empty for
// interior nodes. Computed once per subgraph (matching and contraction both
// ask) and shared; callers must not modify the slices.
func (s *Subgraph) BoundaryPeers() (off, peers []int32) {
	s.peersOnce.Do(func() {
		s.peerOff = make([]int32, s.NumOwned+1)
		for lv := int32(0); lv < int32(s.NumOwned); lv++ {
			first := len(s.peers)
			for _, lu := range s.Local.Adj(lv) {
				if int(lu) < s.NumOwned {
					continue
				}
				if q := s.GhostOwner[int(lu)-s.NumOwned]; !slices.Contains(s.peers[first:], q) {
					s.peers = append(s.peers, q)
				}
			}
			slices.Sort(s.peers[first:]) // a handful of PEs
			s.peerOff[lv+1] = int32(len(s.peers))
		}
	})
	return s.peerOff, s.peers
}

// OwnedLists buckets a node-to-PE assignment in one pass: owned[pe] lists
// PE pe's nodes in ascending global id order (views into one n-long array),
// and local[v] is node v's local id in its owner's subgraph — the lookup
// every extraction relabels owned neighbours through.
func OwnedLists(assign []int32, pes int) (owned [][]int32, local []int32) {
	start := make([]int32, pes+1)
	for _, pe := range assign {
		start[pe+1]++
	}
	for pe := 0; pe < pes; pe++ {
		start[pe+1] += start[pe]
	}
	all := make([]int32, len(assign))
	local = make([]int32, len(assign))
	owned = make([][]int32, pes)
	for pe := range owned {
		owned[pe] = all[start[pe]:start[pe]:start[pe+1]]
	}
	for v, pe := range assign {
		local[v] = int32(len(owned[pe]))
		owned[pe] = append(owned[pe], int32(v))
	}
	return owned, local
}

// ExtractOwned builds PE pe's local subgraph from the global graph and a
// node-to-PE assignment. All edges incident to an owned node are kept —
// owned–owned edges once, owned–ghost edges once — so cut edges appear in
// the subgraphs of both endpoint owners. The bucketing is the caller's: owned
// is PE pe's node list in ascending global id order and local the shared
// lookup, both as OwnedLists returns them (local is read only at nodes
// assigned to pe), so a caller that extracts many PEs — ExtractAll
// concurrently, the shard store writer under a bound on live subgraphs — pays
// the O(n) ownership pass once instead of once per PE.
//
// The shard carries no coordinates: the per-PE kernels never read them, and
// the coordinator, which holds the level, computes the coarse ones itself.
//
// The local CSR is written directly: an owned row is the global row
// relabelled (owned neighbours through local, ghosts through a map over the
// ghost layer alone, numbered in discovery order), a ghost's row collects its
// owned neighbours in the order the owned rows are walked, which is ascending,
// and a row sort puts each owned row's ghost entries — or, over a contracted
// graph's unsorted adjacency, the whole row — in order. g must be a valid
// graph: symmetric, no parallel edges; self loops are dropped.
func ExtractOwned(g *graph.Graph, assign []int32, pe int32, owned, local []int32) *Subgraph {
	no := len(owned)
	s := &Subgraph{PE: pe, NumOwned: no, ghostLocal: make(map[int32]int32)}

	// Pass 1: row lengths, and the ghost layer in discovery order (owned
	// nodes are walked in global id order, so it is deterministic).
	l2g := make([]int32, no, no+no/8+16)
	copy(l2g, owned)
	deg := make([]int32, no, cap(l2g))
	for li, v := range owned {
		d := int32(0)
		for _, u := range g.Adj(v) {
			if u == v {
				continue
			}
			d++
			if assign[u] == pe {
				continue
			}
			lu, seen := s.ghostLocal[u]
			if !seen {
				lu = int32(len(l2g))
				s.ghostLocal[u] = lu
				l2g = append(l2g, u)
				deg = append(deg, 0)
				s.GhostOwner = append(s.GhostOwner, assign[u])
			}
			deg[lu]++
		}
		deg[li] = d
	}
	s.LocalToGlobal = l2g
	nl := len(l2g)

	xadj := make([]int32, nl+1)
	for lv, d := range deg {
		xadj[lv+1] = xadj[lv] + d
	}
	adj := make([]int32, xadj[nl])
	// A unit graph's shards are unit graphs: they get no weight array.
	var ewgt []int64
	if !g.UnitEdgeWeights() {
		ewgt = make([]int64, xadj[nl])
	}
	// The fill loop validates every entry it writes and sums the weights, the
	// copy below does the same for the node weights, so the arrays are adopted
	// without the second walk graph.FromCSR would make.
	agg, ok := fillRows(g, assign, pe, owned, local, s.ghostLocal, xadj, deg[no:], adj, ewgt)
	nwgt := make([]int64, nl)
	for lv, v := range l2g {
		w := g.NodeWeight(v)
		ok = ok && w >= 0
		nwgt[lv] = w
		agg.TotalNodeWeight += w
		agg.MaxNodeWeight = max(agg.MaxNodeWeight, w)
	}
	if !ok {
		invalidShard(pe)
	}
	s.Local = graph.FromCSRTrusted(xadj, adj, ewgt, nwgt, agg)
	return s
}

//kappa:invariant extraction relabels a graph that was validated where it entered the process; a neighbour outside the shard or a weight that is not positive is the caller's bug (an assignment, owned list or lookup that do not belong together)
func invalidShard(pe int32) {
	panic(fmt.Sprintf("dist: extracting PE %d produced an invalid CSR", pe))
}

// fillRows writes the local adjacency into the exactly-sized arrays: owned
// rows relabelled and sorted, ghost rows filled by counting. ghostFill
// (the ghosts' degrees on entry) is consumed as the per-ghost write cursor.
// A nil ewgt is a unit shard's: only adj is written, and every weight is 1.
// Each owned row is checked once it is sorted for what graph.FromCSR would
// check, neighbour in range and weight positive; a ghost row holds owned ids
// and weights of owned rows. agg carries the edge weight total, ok whether
// every check held.
//
//kappa:hotpath
func fillRows(g *graph.Graph, assign []int32, pe int32, owned, local []int32, ghostLocal map[int32]int32,
	xadj, ghostFill []int32, adj []int32, ewgt []int64) (agg graph.CSRAggregates, ok bool) {
	no := int32(len(owned))
	for gi := range ghostFill {
		ghostFill[gi] = xadj[int(no)+gi]
	}
	// What the checks need of the entries, gathered without a branch each:
	// the largest neighbour (a negative one reads as huge), the smallest
	// weight and the weight sum.
	largest, lightest, sum := uint32(0), int64(1), int64(0)
	unit := ewgt == nil
	var rs graph.RowSorter
	for li, v := range owned {
		p := xadj[li]
		ws := g.AdjWeights(v)
		for i, u := range g.Adj(v) {
			if u == v {
				continue
			}
			lu := local[u]
			if assign[u] != pe {
				lu = ghostLocal[u]
				q := ghostFill[lu-no]
				adj[q] = int32(li)
				if !unit {
					ewgt[q] = ws[i]
				}
				ghostFill[lu-no] = q + 1
				sum += ws[i]
			}
			adj[p] = lu
			if !unit {
				ewgt[p] = ws[i]
			}
			p++
		}
		row := adj[xadj[li]:p]
		if unit {
			slices.Sort(row)
			sum += int64(len(row))
		} else {
			rw := ewgt[xadj[li]:p]
			rs.Sort(row, rw)
			for _, w := range rw {
				lightest, sum = min(lightest, w), sum+w
			}
		}
		for _, t := range row {
			largest = max(largest, uint32(t))
		}
	}
	agg = graph.CSRAggregates{TotalEdgeWeight: sum / 2}
	return agg, int(largest) < len(xadj)-1 && lightest > 0 || len(adj) == 0
}

// ExtractAll extracts every PE's subgraph concurrently, on goroutines
// started for the call (a nil par.Crew). Ownership is bucketed in one shared
// pass so the total cost is O(n + Σ local work), not pes full scans.
func ExtractAll(g *graph.Graph, assign []int32, pes int) []*Subgraph {
	return ExtractAllOn(nil, g, assign, pes)
}

// ExtractAllOn is ExtractAll with the per-PE extractions a batch on run.
func ExtractAllOn(run *par.Crew, g *graph.Graph, assign []int32, pes int) []*Subgraph {
	owned, local := OwnedLists(assign, pes)
	out := make([]*Subgraph, pes)
	run.Run(pes, func(_, pe int) {
		out[pe] = ExtractOwned(g, assign, int32(pe), owned[pe], local)
	})
	return out
}
