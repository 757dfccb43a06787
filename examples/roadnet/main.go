// Roadnet: partitioning a road network. The paper highlights that on the
// European road network KaPPa finds the natural cut structure (rivers,
// mountains) that Metis misses by a wide margin; this example reproduces
// that contrast on a synthetic road network with obstacle structure,
// comparing KaPPa against the Metis-like baselines.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	const k = 8
	road := repro.Road(40000, 12, 5)
	fmt.Printf("road network: n=%d m=%d (avg degree %.2f)\n",
		road.NumNodes(), road.NumEdges(), 2*float64(road.NumEdges())/float64(road.NumNodes()))

	cfg := repro.NewConfig(repro.Fast, k)
	cfg.Seed = 21
	res, err := repro.Run(context.Background(), road, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s cut=%5d balance=%.3f time=%v\n", "KaPPa-Fast", res.Cut, res.Balance, res.TotalTime.Round(1e6))

	for _, tool := range []repro.BaselineTool{repro.ScotchLike, repro.KMetisLike, repro.ParMetisLike} {
		br := repro.RunBaseline(road, k, 0.03, tool, 21)
		fmt.Printf("%-14s cut=%5d balance=%.3f time=%v\n", tool, br.Cut, br.Balance, br.Time.Round(1e6))
	}

	// Road networks come with coordinates, which KaPPa exploits for
	// geometric prepartitioning during coarsening; this is the workload the
	// current implementation is optimized for (§6.2).
	if road.HasCoords() {
		fmt.Println("\ncoordinates present: coarsening used recursive coordinate bisection")
	}
}
