// Command benchtables regenerates the tables and figures of the paper's
// evaluation section, and the ablations. Examples:
//
//	benchtables -table 3            # edge ratings & matchers (Table 3)
//	benchtables -table 10 -k 8      # KaPPa-Fast per instance (Table 10) at k=8
//	benchtables -table fig3         # scalability curves (Figure 3)
//	benchtables -table band         # band-depth ablation
//	benchtables -all -reps 3        # everything the paper reports
//
// Reps defaults to 3 (the paper uses 10); raise -reps for tighter averages.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	names := []string{"1"}
	for _, t := range bench.Tables() {
		names = append(names, t.Name)
	}
	var (
		table = flag.String("table", "", "table to regenerate: "+strings.Join(names, " | "))
		all   = flag.Bool("all", false, "regenerate everything")
		reps  = flag.Int("reps", 3, "repetitions per configuration (paper: 10)")
		ks    = flag.String("k", "", "comma-separated block counts (default: the table's)")
	)
	flag.Parse()
	o := bench.Options{Reps: *reps}
	if *ks != "" {
		for _, s := range strings.Split(*ks, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: bad -k value %q\n", s)
				os.Exit(1)
			}
			o.Ks = append(o.Ks, v)
		}
	}
	w := os.Stdout

	switch t, ok := bench.Lookup(*table); {
	case *all:
		bench.Table1(w)
		for _, t := range bench.Tables() {
			t.Print(w, o)
			fmt.Fprintln(w)
		}
	case *table == "1":
		bench.Table1(w)
	case ok:
		t.Print(w, o)
	default:
		flag.Usage()
		os.Exit(1)
	}
}
