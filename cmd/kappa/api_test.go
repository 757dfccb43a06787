package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// waitHTTP polls url until it answers 200 or the deadline passes.
func waitHTTP(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy (last err %v)", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// httpGetBody fetches url and returns the body, failing on non-2xx.
func httpGetBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// TestAPIServerJobMatchesCLI is the process-level half of the service
// contract: a real kappad process partitions a job submitted over HTTP and
// the partition and ZeroTimes report are byte-identical to what the kappa
// CLI writes for the same flags — then a SIGTERM drains the daemon to a
// clean exit 0.
func TestAPIServerJobMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)

	// The CLI reference artifacts.
	outFile := filepath.Join(t.TempDir(), "cli.part")
	args := []string{"-gen", "rgg:10", "-k", "4", "-seed", "7",
		"-workers", "2", "-coarsen", "distributed", "-out", outFile}
	if out, err := exec.Command(kappa, args...).CombinedOutput(); err != nil {
		t.Fatalf("kappa CLI: %v\n%s", err, out)
	}
	cliPart, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	cliReport := runKappaReport(t, kappa)

	// The daemon.
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	base := "http://" + addr
	var stderr bytes.Buffer
	daemon := exec.Command(kappa, "api", "-listen", addr, "-queue", "4", "-jobs", "1")
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	waitHTTP(t, base+"/healthz")
	waitHTTP(t, base+"/readyz")

	spec := `{"gen":"rgg:10","k":4,"seed":7,"workers":2,"coarsen":"distributed"}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit body %q: %v", body, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(25 * time.Millisecond)
		if err := json.Unmarshal(httpGetBody(t, base+"/api/v1/jobs/"+st.ID), &st); err != nil {
			t.Fatal(err)
		}
	}

	apiPart := httpGetBody(t, base+"/api/v1/jobs/"+st.ID+"/result")
	if !bytes.Equal(apiPart, cliPart) {
		t.Fatalf("API partition differs from CLI -out (%d vs %d bytes)", len(apiPart), len(cliPart))
	}
	apiReport := httpGetBody(t, base+"/api/v1/jobs/"+st.ID+"/report?zero=1")
	if !bytes.Equal(apiReport, cliReport) {
		t.Fatalf("API zero-report differs from CLI -report:\n--- api ---\n%s\n--- cli ---\n%s", apiReport, cliReport)
	}

	// The kappa_jobs_* series are live on the same endpoint.
	metrics := string(httpGetBody(t, base+"/metrics"))
	for _, series := range []string{"kappa_jobs_submitted_total", "kappa_jobs_done_total", "kappa_jobs_queue_wait_seconds"} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics lacks %s", series)
		}
	}

	// SIGTERM drains to exit 0 — the graceful path, not a kill.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("daemon stderr lacks drain message:\n%s", stderr.String())
	}
}

// TestRunPathInterruptExitsOne pins the signal satellite on the classic CLI
// path: SIGINT cancels the run context and the process exits 1 with an
// "interrupted" diagnostic instead of dying mid-write. The signal goes out
// when the first -progress line arrives, so it lands mid-pipeline however
// slowly the loaded machine reaches the run.
func TestRunPathInterruptExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	// A run big enough to be mid-pipeline when the signal lands.
	cmd := exec.Command(kappa, "-gen", "rgg:15", "-k", "32", "-preset", "strong", "-progress")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(pipe)
	var stderr strings.Builder
	if !sc.Scan() {
		cmd.Wait()
		t.Fatal("kappa -progress printed nothing on stderr")
	}
	stderr.WriteString(sc.Text() + "\n")
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() { // the whole of stderr, before Wait closes the pipe
		stderr.WriteString(sc.Text() + "\n")
	}
	err = cmd.Wait()
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("kappa exited %v after SIGINT, want exit code 1\nstderr:\n%s", err, stderr.String())
	}
	if exit.ExitCode() != 1 {
		t.Fatalf("exit code %d after SIGINT, want 1\nstderr:\n%s", exit.ExitCode(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr lacks interrupted diagnostic:\n%s", stderr.String())
	}
}
