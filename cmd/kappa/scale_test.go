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
	"syscall"
	"testing"
	"time"
)

var scaleShape = flag.Bool("scale", false, "run TestScaleShape, which partitions rgg:15 and rgg:17 in child kappa processes (make shape)")

// The scale predicate's bounds (EXPERIMENTS.md has the spread they come
// from): how much the partitioning time per edge may grow from rgg:15 to
// rgg:17, and the peak RSS per half-edge rgg:17 may reach.
const (
	maxNsPerEdgeGrowth = 1.10
	maxRSSPerHalfEdgeB = 45.0
)

// TestScaleShape is the scale predicate of `make shape`: it partitions
// rgg:15 and rgg:17, read from binary files, at k = 16 with KaPPa-Fast in
// child `kappa -in` processes (as scripts/scale.sh does), five seeds each,
// alternating the instances so that a drifting machine slows both alike.
// The median run time per edge (the run's own total, without reading the
// file) may grow from rgg:15 to rgg:17 by at most maxNsPerEdgeGrowth, and
// rgg:17's peak RSS (getrusage of the child) per half-edge must stay under
// maxRSSPerHalfEdgeB. It is a timing test, so it stays out of go test ./...
// behind -scale.
func TestScaleShape(t *testing.T) {
	if !*scaleShape {
		t.Skip("timing test: run make shape")
	}
	const small, large, seeds = 15, 17, 5
	kappa, gengraph := buildBinaries(t)
	dir := t.TempDir()
	files := map[int]string{}
	for _, s := range []int{small, large} {
		files[s] = filepath.Join(dir, fmt.Sprintf("rgg%d.bgraph", s))
		if out, err := exec.Command(gengraph, "-type", "rgg", "-scale", strconv.Itoa(s), "-format", "bin", "-o", files[s]).CombinedOutput(); err != nil {
			t.Fatalf("gengraph rgg:%d: %v\n%s", s, err, out)
		}
	}
	edgesRe := regexp.MustCompile(`graph +n=\d+ m=(\d+)`)
	totalRe := regexp.MustCompile(`time +total (\S+)`)
	nsPerEdge := map[int][]float64{}
	peakRSS := map[int]float64{} // bytes per half-edge, of the heaviest run
	for seed := 1; seed <= seeds; seed++ {
		for _, s := range []int{small, large} {
			cmd := exec.Command(kappa, "-in", files[s], "-k", "16", "-seed", strconv.Itoa(seed))
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("kappa rgg:%d seed %d: %v", s, seed, err)
			}
			em, tm := edgesRe.FindSubmatch(out), totalRe.FindSubmatch(out)
			if em == nil || tm == nil {
				t.Fatalf("kappa rgg:%d seed %d: no edge count or total time in\n%s", s, seed, out)
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
	fmt.Printf("scale: rgg:%d %.0f ns/edge, rgg:%d %.0f ns/edge, growth %.2f (bound %.2f); peak RSS per half-edge rgg:%d %.1f B, rgg:%d %.1f B (bound %.0f B)\n",
		small, nsSmall, large, nsLarge, growth, maxNsPerEdgeGrowth, small, peakRSS[small], large, peakRSS[large], maxRSSPerHalfEdgeB)
	if growth > maxNsPerEdgeGrowth {
		t.Errorf("run time per edge grows %.2f× from rgg:%d to rgg:%d, above the bound %.2f", growth, small, large, maxNsPerEdgeGrowth)
	}
	if peakRSS[large] > maxRSSPerHalfEdgeB {
		t.Errorf("rgg:%d peaks at %.1f B of RSS per half-edge, above the bound %.0f B", large, peakRSS[large], maxRSSPerHalfEdgeB)
	}
}
