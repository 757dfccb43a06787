package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func runCompare(args []string) error {
	fs := flag.NewFlagSet("kappabench compare", flag.ContinueOnError)
	same := fs.Bool("same", false, "the two sets come from one program on one seed: metrics that are exact counts must be identical")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: kappabench compare [-same] A.json B.json")
	}
	var sets [2]resultSet
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if breaches := compare(os.Stdout, &sets[0], &sets[1], *same); breaches > 0 {
		return fmt.Errorf("%d breach(es)", breaches)
	}
	return nil
}

// sameSeedBound is how much worse an exact end-to-end metric (cut_sum) may
// get between two sets measured on one seed. Its bound in the manifest has
// to cover the difference between the graph instances of different seeds;
// on one seed the value repeats exactly, so a change of the program is held
// to the half percent a quality regression is worth noticing at.
const sameSeedBound = 0.005

// compare prints, per workload and end-to-end metric, the baseline a and the
// candidate b, by how much b is worse (negative: better) as a share of a,
// and the bound; it returns the number of breaches. A candidate breaches by
// getting worse than the bound allows, by failing more ops than the
// baseline, or — with same set — by differing at all in an exact metric.
func compare(w io.Writer, a, b *resultSet, same bool) int {
	breaches := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value
			worse := ratio(vb-va, va)
			if d.better == "higher" {
				worse = -worse
			}
			bound := d.bound
			if exact[d.name] && a.Seed == b.Seed {
				bound = sameSeedBound
			}
			verdict := ""
			switch {
			case same && exact[d.name] && va != vb:
				verdict = "  BREACH: exact metric differs"
				breaches++
			case worse > bound:
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", wa.Name, d.name, va, vb, 100*worse, 100*bound, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-16s failed ops rose from %d of %d to %d of %d  BREACH\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			breaches++
		}
		if !same {
			continue
		}
		var names []string
		for name := range wa.PerLayer {
			if exact[name] && wa.PerLayer[name].Value != wb.PerLayer[name].Value {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-16s %-34s %14.6g %14.6g  BREACH: exact metric differs\n", wa.Name, name, wa.PerLayer[name].Value, wb.PerLayer[name].Value)
			breaches++
		}
	}
	return breaches
}
