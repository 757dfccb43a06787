package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// resultSet is results.json: one complete set of runs — every workload,
// untraced and traced — of one program on one seed.
type resultSet struct {
	Env       envInfo          `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name        string                 `json:"name"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
	Attempted   int                    `json:"attempted"` // over both runs
	Failed      int                    `json:"failed"`
	N           int                    `json:"n"` // ops of the untraced run
	OpQuartiles [3]float64             `json:"op_quartiles_s"`
	// Hashes fingerprint the partitions of the fixed op set (untraced run).
	Hashes []string `json:"hashes"`
}

// runAll runs every workload twice, each run in a fresh child process — a
// re-exec of this binary — so that set-up time and peak memory are the
// workload's own: once untraced for the end-to-end metrics, once traced for
// the per-layer metrics. It then checks the cross-mode pins and writes
// results.json.
func runAll(args []string) error {
	fs := flag.NewFlagSet("kappabench all", flag.ContinueOnError)
	var f runFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: currentEnv(), Seed: f.seed, Seconds: f.seconds}
	var problems []string
	for _, w := range workloads {
		wr := workloadResult{Name: w.name}
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", w.name, "--trace", strconv.Itoa(trace),
				"--seed", strconv.FormatUint(f.seed, 10), "--seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
				"--out", f.out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			// The child's last line is the machine-readable result; the same
			// numbers are in its result file, read below.
			if i := bytes.LastIndexByte(bytes.TrimSuffix(stdout, []byte("\n")), '\n'); i >= 0 {
				os.Stdout.Write(stdout[:i+1])
			}
			if err != nil {
				return fmt.Errorf("%s trace %d: %w", w.name, trace, err)
			}
			var res runResult
			data, err := os.ReadFile(filepath.Join(f.out, fmt.Sprintf("run-%s-trace%d.json", w.name, trace)))
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				problems = append(problems, fmt.Sprintf("%s trace %d: %v", w.name, trace, res.Failures))
			}
			if trace == 1 {
				wr.PerLayer = res.Metrics
				continue
			}
			wr.EndToEnd, wr.N, wr.OpQuartiles = res.Metrics, res.Attempted, res.OpQuartiles
			for _, op := range res.Ops[:w.cycle] {
				wr.Hashes = append(wr.Hashes, op.Hash)
			}
		}
		set.Workloads = append(set.Workloads, wr)
	}

	// Cross-mode pin: serving from the store must give the partitions that
	// serving from memory gives, op by op.
	sock, st := set.workload("socket_dist"), set.workload("store_serve")
	if !slices.Equal(sock.Hashes, st.Hashes) || sock.EndToEnd["cut_sum"] != st.EndToEnd["cut_sum"] {
		problems = append(problems, fmt.Sprintf("socket_dist and store_serve disagree: cut_sum %v vs %v, hashes %v vs %v",
			sock.EndToEnd["cut_sum"].Value, st.EndToEnd["cut_sum"].Value, sock.Hashes, st.Hashes))
	}

	if err := writeJSON(filepath.Join(f.out, "results.json"), set); err != nil {
		return err
	}
	fmt.Printf("\n%-16s %6s %6s", "workload", "ops", "failed")
	for _, d := range endToEnd {
		fmt.Printf(" %14s", d.name)
	}
	fmt.Println()
	for _, wr := range set.Workloads {
		fmt.Printf("%-16s %6d %6d", wr.Name, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			fmt.Printf(" %14.6g", wr.EndToEnd[d.name].Value)
		}
		fmt.Println()
	}
	for _, p := range problems {
		fmt.Println("FAILED", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d check(s) failed", len(problems))
	}
	return nil
}

func (s *resultSet) workload(name string) *workloadResult {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return &workloadResult{Name: name}
}
