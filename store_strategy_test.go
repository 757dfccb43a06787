package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/remote"
	"repro/internal/store"
	"repro/internal/svc"
)

// TestStoresCompareResolvedStrategies holds both store front ends,
// remote.ServeStore and a kappa api job's shard_dir, to the rule of
// core.Config.AdoptStore: a requested strategy that dist.Assign resolves to
// the stored one on the stored graph is the stored assignment. An auto store
// with coordinates serves rcb with the bytes auto gives; a ranges store with
// coordinates still refuses rcb.
func TestStoresCompareResolvedStrategies(t *testing.T) {
	g := gen.RGG(10, 5)
	dir := t.TempDir()
	for name, s := range map[string]dist.Strategy{"auto.kst": dist.StrategyAuto, "ranges.kst": dist.StrategyRanges} {
		if _, err := store.Write(filepath.Join(dir, name), g, store.WriteOptions{PEs: 2, Strategy: s}); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) *store.Store {
		st, err := store.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	config := func(s dist.Strategy) core.Config {
		cfg := core.NewConfig(core.Fast, 4)
		cfg.Seed, cfg.Coarsen, cfg.Distribution = 3, core.CoarsenDistributed, s
		return cfg
	}

	want, err := serveGolden(nil, open("auto.kst"), config(dist.StrategyAuto))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := graphio.AppendPartition(nil, want.Blocks)
	got, err := serveGolden(nil, open("auto.kst"), config(dist.StrategyRCB))
	if err != nil {
		t.Fatalf("ServeStore, rcb on an auto store: %v", err)
	}
	if !bytes.Equal(graphio.AppendPartition(nil, got.Blocks), wantBytes) {
		t.Fatal("ServeStore, rcb on an auto store: partition differs from auto's")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A refusal comes before any worker is awaited; the deadline only
	// bounds a wrong acceptance.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := remote.ServeStore(ctx, ln, open("ranges.kst"), config(dist.StrategyRCB), remote.ServeOptions{}); !errors.Is(err, core.ErrInvalidConfig) {
		t.Fatalf("ServeStore, rcb on a ranges store: got %v, want ErrInvalidConfig", err)
	}

	srv := svc.New(svc.Options{Concurrency: 1, Queue: 2, GraphDir: dir})
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rr
	}
	submit := func(shardDir, strategy string) *httptest.ResponseRecorder {
		return do("POST", "/api/v1/jobs",
			`{"shard_dir":"`+shardDir+`","k":4,"seed":3,"coarsen":"distributed","dist":"`+strategy+`"}`)
	}
	for _, strategy := range []string{"auto", "rcb"} {
		rr := submit("auto.kst", strategy)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("shard_dir job, %s on an auto store: %d %s", strategy, rr.Code, rr.Body.String())
		}
		var st svc.Status
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
				t.Fatalf("status body %q: %v", rr.Body.String(), err)
			}
			if st.State == svc.StateDone || st.State == svc.StateFailed || st.State == svc.StateCanceled || time.Now().After(deadline) {
				break
			}
			rr = do("GET", "/api/v1/jobs/"+st.ID, "")
		}
		if st.State != svc.StateDone {
			t.Fatalf("shard_dir job, %s on an auto store: %s (%s)", strategy, st.State, st.Error)
		}
		if part := do("GET", st.Partition, "").Body.Bytes(); !bytes.Equal(part, wantBytes) {
			t.Fatalf("shard_dir job, %s on an auto store: partition differs from ServeStore's auto", strategy)
		}
	}
	if rr := submit("ranges.kst", "rcb"); rr.Code != http.StatusBadRequest {
		t.Fatalf("shard_dir job, rcb on a ranges store: status %d, want 400 (%s)", rr.Code, rr.Body.String())
	}
}
