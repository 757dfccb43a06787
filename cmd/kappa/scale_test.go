//go:build linux

package main

import (
	"flag"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var scaleShape = flag.Bool("scale", false, "run TestScaleShape, which partitions rgg:15, rgg:17 and rmat:15 in child kappa processes (make shape)")

// The scale predicate's bounds (EXPERIMENTS.md has the spread they come
// from): how much the partitioning time per edge may grow from rgg:15 to
// rgg:17, and the peak RSS per half-edge rgg:17 and rmat:15 may reach.
const (
	maxNsPerEdgeGrowth     = 1.10
	maxRSSPerHalfEdgeB     = 45.0
	maxRMATRSSPerHalfEdgeB = 178.0
)

// TestScaleShape is the scale predicate of `make shape`: it partitions
// rgg:15, rgg:17 and rmat:15, read from binary files, at k = 16 with
// KaPPa-Fast in child `kappa -in` processes (as scripts/scale.sh does), five
// seeds each, alternating the instances so that a drifting machine slows
// them alike. The median run time per edge (the run's own total, without
// reading the file) may grow from rgg:15 to rgg:17 by at most
// maxNsPerEdgeGrowth, and the peak RSS (getrusage of the child) per
// half-edge must stay under maxRSSPerHalfEdgeB on rgg:17 and under
// maxRMATRSSPerHalfEdgeB on rmat:15, whose coarse levels and grouped rows
// are most of its memory. It is a timing test, so it stays out of go test
// ./... behind -scale.
func TestScaleShape(t *testing.T) {
	if !*scaleShape {
		t.Skip("timing test: run make shape")
	}
	const seeds = 5
	small, large, rmat := "rgg:15", "rgg:17", "rmat:15"
	kappa, gengraph := buildBinaries(t)
	dir := t.TempDir()
	files := map[string]string{}
	for _, inst := range []string{small, large, rmat} {
		family, scale, _ := strings.Cut(inst, ":")
		files[inst] = filepath.Join(dir, family+scale+".bgraph")
		if out, err := exec.Command(gengraph, "-type", family, "-scale", scale, "-format", "bin", "-o", files[inst]).CombinedOutput(); err != nil {
			t.Fatalf("gengraph %s: %v\n%s", inst, err, out)
		}
	}
	edgesRe := regexp.MustCompile(`graph +n=\d+ m=(\d+)`)
	totalRe := regexp.MustCompile(`time +total (\S+)`)
	nsPerEdge := map[string][]float64{}
	peakRSS := map[string]float64{} // bytes per half-edge, of the heaviest run
	for seed := 1; seed <= seeds; seed++ {
		for _, s := range []string{small, large, rmat} {
			cmd := exec.Command(kappa, "-in", files[s], "-k", "16", "-seed", strconv.Itoa(seed))
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("kappa %s seed %d: %v", s, seed, err)
			}
			em, tm := edgesRe.FindSubmatch(out), totalRe.FindSubmatch(out)
			if em == nil || tm == nil {
				t.Fatalf("kappa %s seed %d: no edge count or total time in\n%s", s, seed, out)
			}
			m, err := strconv.ParseInt(string(em[1]), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			total, err := time.ParseDuration(string(tm[1]))
			if err != nil {
				t.Fatal(err)
			}
			nsPerEdge[s] = append(nsPerEdge[s], float64(total.Nanoseconds())/float64(m))
			maxrss := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss * 1024 // KiB on Linux
			peakRSS[s] = max(peakRSS[s], float64(maxrss)/float64(2*m))
		}
	}
	median := func(xs []float64) float64 { slices.Sort(xs); return xs[len(xs)/2] }
	nsSmall, nsLarge := median(nsPerEdge[small]), median(nsPerEdge[large])
	growth := nsLarge / nsSmall
	fmt.Printf("scale: %s %.0f ns/edge, %s %.0f ns/edge, growth %.2f (bound %.2f); peak RSS per half-edge %s %.1f B, %s %.1f B (bound %.0f B), %s %.1f B (bound %.0f B)\n",
		small, nsSmall, large, nsLarge, growth, maxNsPerEdgeGrowth, small, peakRSS[small], large, peakRSS[large], maxRSSPerHalfEdgeB,
		rmat, peakRSS[rmat], maxRMATRSSPerHalfEdgeB)
	if growth > maxNsPerEdgeGrowth {
		t.Errorf("run time per edge grows %.2f× from %s to %s, above the bound %.2f", growth, small, large, maxNsPerEdgeGrowth)
	}
	for s, bound := range map[string]float64{large: maxRSSPerHalfEdgeB, rmat: maxRMATRSSPerHalfEdgeB} {
		if peakRSS[s] > bound {
			t.Errorf("%s peaks at %.1f B of RSS per half-edge, above the bound %.0f B", s, peakRSS[s], bound)
		}
	}
}
