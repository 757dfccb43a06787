// Social: partitioning a power-law social network. Heavy-tailed degree
// distributions break the assumptions of plain heavy-edge matching; the
// paper's expansion*2 rating, which penalizes heavy end nodes, keeps the
// contraction uniform. This example measures the edge-rating effect (Table 3)
// on a preferential-attachment graph.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/rating"
)

func main() {
	const k = 8
	g := repro.PrefAttach(20000, 6, 13)
	fmt.Printf("social network: n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	for _, rf := range []rating.Func{rating.Weight, rating.Expansion, rating.ExpansionStar, rating.ExpansionStar2, rating.InnerOuter} {
		cfg := repro.NewConfig(repro.Fast, k)
		cfg.Seed = 31
		cfg.Rating = rf
		var total int64
		const reps = 3
		for s := uint64(0); s < reps; s++ {
			cfg.Seed = 31 + s
			res, err := repro.Run(context.Background(), g, cfg)
			if err != nil {
				log.Fatal(err)
			}
			total += res.Cut
		}
		fmt.Printf("rating %-14s avg cut=%d\n", rf, total/reps)
	}

	fmt.Println("\nexpansion-family ratings discourage contracting hub nodes,")
	fmt.Println("keeping node weights uniform across the multilevel hierarchy.")
}
