// Mesh: finite-element domain decomposition, the workload that motivates the
// paper's introduction. A 2D triangle mesh with holes is split into 16
// subdomains for a hypothetical parallel solver; the cut size bounds the
// halo-exchange volume per iteration and the balance bounds the slowest
// rank's load, so we report both along with per-block halo statistics.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/part"
)

func main() {
	const k = 16
	mesh := repro.FEMMesh(20000, 8, 3)
	fmt.Printf("FEM mesh: n=%d m=%d\n", mesh.NumNodes(), mesh.NumEdges())

	run := func(cfg repro.Config) repro.Result {
		res, err := repro.Run(context.Background(), mesh, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	for _, v := range []repro.Variant{repro.Minimal, repro.Fast, repro.Strong} {
		cfg := repro.NewConfig(v, k)
		cfg.Seed = 11
		res := run(cfg)
		fmt.Printf("%-14s cut=%5d balance=%.3f time=%v\n",
			v, res.Cut, res.Balance, res.TotalTime.Round(1e6))
	}

	// Decompose with the Strong preset and report solver-facing statistics.
	cfg := repro.NewConfig(repro.Strong, k)
	cfg.Seed = 11
	res := run(cfg)
	p := part.FromBlocks(mesh, k, cfg.Eps, res.Blocks)

	boundary := make([]int, k)
	for _, v := range p.BoundaryNodes() {
		boundary[p.Block[v]]++
	}
	fmt.Println("\nper-subdomain halo statistics (Strong):")
	fmt.Printf("%5s %8s %10s %10s\n", "block", "nodes", "halo", "neighbors")
	for b := int32(0); b < int32(k); b++ {
		fmt.Printf("%5d %8d %10d %10d\n", b, p.BlockWeight(b), boundary[b], p.ExternalDegree(b))
	}
	fmt.Printf("\ntotal cut %d = halo-exchange edges per solver iteration\n", res.Cut)
}
