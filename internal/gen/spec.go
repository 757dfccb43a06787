package gen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// FromSpec builds a benchmark-family graph from a compact textual spec of the
// form "family:arg" — the vocabulary of the kappa CLI's -gen flag and of the
// service API's "gen" job field:
//
//	rgg:S        random geometric graph, 2^S nodes
//	delaunay:S   Delaunay triangulation, 2^S points
//	grid:WxH     2D lattice
//	grid3d:XxYxZ 3D lattice
//	road:N       road-network-like graph
//	social:N     preferential-attachment network
//	rmat:S       RMAT power-law graph, 2^S nodes
//	fem:N        unstructured FEM triangle mesh
//	banded:N     banded sparse-matrix graph
//
// Every size argument is validated before any generator runs, so a hostile or
// mistyped spec comes back as an error instead of an attempted 2^63-node
// allocation — the admission-control property the serving layer relies on.
func FromSpec(spec string) (*graph.Graph, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "rgg":
		s, err := specScale(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: rgg spec: %w", err)
		}
		return RGG(s, 1), nil
	case "delaunay":
		s, err := specScale(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: delaunay spec: %w", err)
		}
		return DelaunayX(s, 1), nil
	case "grid":
		dims, err := specDims(arg, 2)
		if err != nil {
			return nil, fmt.Errorf("gen: grid spec must be WxH: %w", err)
		}
		return Grid2D(dims[0], dims[1]), nil
	case "grid3d":
		dims, err := specDims(arg, 3)
		if err != nil {
			return nil, fmt.Errorf("gen: grid3d spec must be XxYxZ: %w", err)
		}
		return Grid3D(dims[0], dims[1], dims[2]), nil
	case "road":
		n, err := specSize(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: road spec: %w", err)
		}
		return Road(n, 8, 1), nil
	case "social":
		n, err := specSize(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: social spec: %w", err)
		}
		return PrefAttach(n, 5, 1), nil
	case "rmat":
		s, err := specScale(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: rmat spec: %w", err)
		}
		return RMAT(s, 10, 1), nil
	case "fem":
		n, err := specSize(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: fem spec: %w", err)
		}
		return FEMMesh(n, 8, 1), nil
	case "banded":
		n, err := specSize(arg)
		if err != nil {
			return nil, fmt.Errorf("gen: banded spec: %w", err)
		}
		return Banded(n, 10, 30, 0.7, 1), nil
	default:
		if strings.ContainsAny(spec, `/\`) {
			// A path is a frequent mix-up: graph files belong to -in (or a
			// graph_file job field), shard directories to the shard-store
			// entry points — never to a generator spec.
			return nil, fmt.Errorf("gen: %q names a file path, not a generator; pass graph files via -in and shard directories via -shards", spec)
		}
		return nil, fmt.Errorf("gen: unknown generator %q", kind)
	}
}

// MaxSpecScale bounds 2^scale generators: 2^28 nodes is already past every
// benchmark family and keeps the shift far from overflow. gengraph holds its
// flags to the same bounds.
const MaxSpecScale = 28

// MaxSpecSize bounds node-count generators to the same ceiling.
const MaxSpecSize = 1 << MaxSpecScale

func specScale(arg string) (int, error) {
	s, err := strconv.Atoi(arg)
	if err != nil {
		return 0, fmt.Errorf("bad scale %q", arg)
	}
	if s < 1 || s > MaxSpecScale {
		return 0, fmt.Errorf("scale %d out of range [1, %d]", s, MaxSpecScale)
	}
	return s, nil
}

func specSize(arg string) (int, error) {
	n, err := strconv.Atoi(arg)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", arg)
	}
	if n < 1 || n > MaxSpecSize {
		return 0, fmt.Errorf("size %d out of range [1, %d]", n, MaxSpecSize)
	}
	return n, nil
}

func specDims(arg string, want int) ([]int, error) {
	parts := strings.Split(arg, "x")
	if len(parts) != want {
		return nil, fmt.Errorf("want %d dimensions, got %d", want, len(parts))
	}
	dims := make([]int, want)
	total := 1
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q", p)
		}
		if d < 1 {
			return nil, fmt.Errorf("dimension %d must be >= 1", d)
		}
		dims[i] = d
		total *= d
		if total > MaxSpecSize {
			return nil, fmt.Errorf("grid exceeds %d nodes", MaxSpecSize)
		}
	}
	return dims, nil
}
