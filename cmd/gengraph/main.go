// Command gengraph emits benchmark graphs through the graphio codec layer.
//
//	gengraph -type rgg -scale 15 > rgg15.graph
//	gengraph -type road -n 40000 -o deu.graph
//	gengraph -type grid3d -w 32 -h 32 -d 8 -format bin -o grid.bgraph
//
// The output format is METIS text by default; -format bin (or a .bgraph/.bin
// extension with -format auto) selects the compact binary encoding, which
// also preserves node coordinates.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
)

func main() {
	var (
		typ    = flag.String("type", "rgg", "rgg | delaunay | grid | grid3d | road | social | rmat | fem | banded")
		scale  = flag.Int("scale", 14, "log2 node count (rgg, delaunay, rmat)")
		n      = flag.Int("n", 10000, "node count (road, social, fem, banded)")
		w      = flag.Int("w", 64, "grid width / 3d x")
		h      = flag.Int("h", 64, "grid height / 3d y")
		d      = flag.Int("d", 8, "3d z; social attachment degree")
		seed   = flag.Uint64("seed", 1, "random seed")
		out    = flag.String("o", "", "output file (default stdout)")
		format = flag.String("format", "auto", "output format: auto | metis | bin (auto picks by extension, metis on stdout)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(2)
	}

	f, err := graphio.ParseFormat(*format)
	if err != nil {
		fail(err)
	}

	// Sizes are held to gen.FromSpec's bounds: a bad one is a usage error,
	// not a generator's panic. Every factor is checked before the grid size,
	// and the depth multiplies only a w·h within bounds, so no overflowed
	// product decides.
	if *scale < 1 || *scale > gen.MaxSpecScale {
		usage(fmt.Errorf("-scale %d out of range [1, %d]", *scale, gen.MaxSpecScale))
	}
	grid := *w * *h
	if *typ == "grid3d" && grid <= gen.MaxSpecSize {
		grid *= *d
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-n", *n}, {"-w", *w}, {"-h", *h}, {"-d", *d}, {"grid size", grid}} {
		if f.v < 1 || f.v > gen.MaxSpecSize {
			usage(fmt.Errorf("%s %d out of range [1, %d]", f.name, f.v, gen.MaxSpecSize))
		}
	}

	var g *graph.Graph
	switch *typ {
	case "rgg":
		g = gen.RGG(*scale, *seed)
	case "delaunay":
		g = gen.DelaunayX(*scale, *seed)
	case "grid":
		g = gen.Grid2D(*w, *h)
	case "grid3d":
		g = gen.Grid3D(*w, *h, *d)
	case "road":
		g = gen.Road(*n, 8, *seed)
	case "social":
		g = gen.PrefAttach(*n, *d, *seed)
	case "rmat":
		g = gen.RMAT(*scale, 10, *seed)
	case "fem":
		g = gen.FEMMesh(*n, 8, *seed)
	case "banded":
		g = gen.Banded(*n, 10, 30, 0.7, *seed)
	default:
		fail(fmt.Errorf("unknown type %q", *typ))
	}

	if *out == "" {
		if err := graphio.Write(os.Stdout, g, f); err != nil {
			fail(err)
		}
	} else if err := graphio.WriteFile(*out, g, f); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "gengraph: %s n=%d m=%d format=%s\n", *typ, g.NumNodes(), g.NumEdges(), f)
}
