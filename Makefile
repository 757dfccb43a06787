GO ?= go

.PHONY: all vet build test lint check docs fmt bench bench-build bench-baseline bench-compare scaling examples race fuzz loc loc-check

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs kappavet, the project-invariant static-analysis suite
# (determinism, hot-path allocations, error contracts, wire hygiene); see
# ARCHITECTURE.md "Static guarantees". Whole-module scope is required:
# wiresync audits encode/decode paths across packages.
lint:
	$(GO) run ./cmd/kappavet ./...

# bench-build vets and tests the nested benchmark module, which the root
# ./... patterns do not see: removing or renaming an exported name it imports
# fails here instead of in the benchmark driver.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check is the tier-1 gate enforced by CI.
check: vet build test lint bench-build loc-check

# loc prints the size simplification PRs are judged by: non-blank,
# non-comment lines of non-test Go outside benchmark/ and testdata/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'

# loc-check fails when the code outgrows LOC_MAX, the size the last PR that
# changed it left behind: growth is raised on purpose, in the diff that
# causes it, the way bench-baseline is; a PR that shrinks the code lowers it.
LOC_MAX = 15130
loc-check:
	@loc=$$($(MAKE) -s loc); if [ "$$loc" -gt $(LOC_MAX) ]; then \
		echo "make loc is $$loc, above LOC_MAX=$(LOC_MAX): shrink the change or raise LOC_MAX in the Makefile"; exit 1; fi

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# docs verifies the documentation layer: formatting, vet, and the runnable
# godoc examples (README / ARCHITECTURE code snippets are mirrored there).
docs: fmt vet
	$(GO) test -run Example ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The regression gate compares the Table1/Table2 suite, the two coarsening
# seam kernels (matching's edge order, dist's RCB), the initial partitioner,
# one refinement level (core's index build, schedule and pairwise FM pass;
# both on a mesh and on a power-law graph) and one distributed contraction
# level (core's extract → encode → decode → match → contract →
# encode → decode → stitch over two PEs) with, on their own, its stitch and
# its two decoders, one FM search's gain-queue traffic, and the crew's batch
# hand-off (par: a batch of two on a crew of two, 0 allocs/op), against the committed
# benchstat-comparable baseline (BENCH_BASELINE.txt). GOMAXPROCS=1 makes the
# gated metrics — allocs/op and B/op — machine-independent: the pipeline is
# deterministic, so single-threaded allocation counts are reproducible
# anywhere; timing is `benchmark compare`'s business. RefineLevel's workers=2
# sub-benchmarks stay out: their allocations depend on which crew member the
# scheduler lets refine which pair. Refresh the baseline intentionally with
# bench-baseline and commit it alongside the change that explains it.
BENCH_GATE ?= Table1|Table2|SortEdges|RCB|InitialPartition|RefineLevel/workers=1|DistributedLevel|Stitch|DecodeSubgraph|DecodeContraction|GainQueueRun|CrewBatch
BENCH_PKGS ?= . ./internal/matching ./internal/dist ./internal/initpart ./internal/core ./internal/pq ./internal/par
bench-baseline:
	GOMAXPROCS=1 $(GO) test -bench='$(BENCH_GATE)' -benchtime=1x -benchmem -run=^$$ $(BENCH_PKGS) | tee BENCH_BASELINE.txt

bench-compare:
	GOMAXPROCS=1 $(GO) test -bench='$(BENCH_GATE)' -benchtime=1x -benchmem -run=^$$ $(BENCH_PKGS) | tee /tmp/bench-current.txt
	$(GO) run ./cmd/benchcmp -baseline BENCH_BASELINE.txt -current /tmp/bench-current.txt

# scaling prints how much faster a refinement crew of two is than one worker
# on one refinement level of rgg15 and rmat12, next to the two-worker
# list-scheduling bound of the same rounds (TestRefineScaling). It needs two
# idle processors: on the reference box a process's threads can sit on one CPU
# for seconds, and then it reads 0.9. EXPERIMENTS.md "PR 22" has the numbers.
scaling:
	$(GO) test -v -run TestRefineScaling -count=1 -cpu 2 ./internal/core -scaling | grep -Ev '^(=== |--- |PASS|ok)'


# examples builds and runs every examples/* program end to end (CI runs
# this too, so the example code can never rot).
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d"; done

# race runs the race detector over the concurrency-heavy packages plus the
# pipeline contract tests (context cancellation, transport swap), the
# observability stack (concurrent scrapes against a running pipeline), the
# service layer (queue/drain/cancel handshakes under concurrent HTTP), and
# pairwise refinement with its boundary index (one goroutine per pair of a
# colour class against shared lists, each owned by a single pair). par, the
# one parallel runner, and every package whose split passes run on it go at
# three processor counts: a crew's three kinds of participant (batch owner,
# claiming helper, idle helper) run at the same time only from three
# processors up, and strictly take turns on one. core drives the run's crew
# through refinement rounds, quotient rows and a whole run; graph, coarsen,
# wire, matching, dist and part hold their batches — the node ranges of
# graph.ParallelRanges (the edge-list kernel under the codecs' round trips,
# the contraction, the stitch, the gap scan, the boundary scan), the
# per-block matchings, the per-PE extraction and RCB's halves, nested ones
# inline — to the serial result on inputs above their floors.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/par ./internal/core ./internal/graph ./internal/coarsen ./internal/wire ./internal/matching ./internal/dist ./internal/part
	$(GO) test -race ./internal/refine ./internal/remote ./internal/obs ./internal/svc ./internal/store .

# fuzz smokes the native Go fuzz targets for a few seconds each: the
# byte-level decoders — the file-format parsers (METIS text, binary CSR,
# partition files), the wire-format message codec every socket frame flows
# through, the control-frame payload decoders of the coordinator/worker
# loop, the shard-store readers (manifest JSON, shard files) and the
# service's job-spec admission (JSON, names, timeout) — which
# must never panic on malformed input, and the kernels that replaced a
# simpler implementation kept as a test reference, with which they must
# agree on every input: the two
# sort-free coarsening kernels (radix edge order, selection-based RCB), the
# boundary-indexed band builder, the pair search that stops when nothing can
# move — or, proved stuck by the index's per-block weight bounds, never starts
# —, the FM gain queue's lazily ordered run beside its heap, the direct-CSR
# shard extraction, the stitch that contracts the coordinator's own level by
# any part set a worker can send, the bulk varint kernels under the wire
# arrays and the edge-list kernel on one node range and on several; and the
# property that proof rests on, that a bound never exceeds its block's
# lightest node. CI runs this.
# FUZZMIN caps per-input minimization: binary-format targets surface many
# interesting inputs, and the default 60s minimization per input stalls a
# short smoke run before it fuzzes anything.
# Longer local sessions:
#   go test ./internal/graphio -run=^$ -fuzz=FuzzReadMETIS -fuzztime=5m
FUZZTIME ?= 10s
FUZZMIN ?= 100x
fuzz:
	$(GO) test ./internal/graphio -run=^$$ -fuzz=FuzzReadMETIS -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/graphio -run=^$$ -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/graphio -run=^$$ -fuzz=FuzzReadPartition -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/wire -run=^$$ -fuzz=FuzzMsgCodec -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/wire -run=^$$ -fuzz=FuzzDecodeControl -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/wire -run=^$$ -fuzz=FuzzBulkVarintMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/graph -run=^$$ -fuzz=FuzzFromEdgeListsMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/store -run=^$$ -fuzz=FuzzReadManifest -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/store -run=^$$ -fuzz=FuzzReadShard -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/svc -run=^$$ -fuzz=FuzzJobSpec -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/matching -run=^$$ -fuzz=FuzzSortEdgesMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/dist -run=^$$ -fuzz=FuzzRCBMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/dist -run=^$$ -fuzz=FuzzExtractMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/coarsen -run=^$$ -fuzz=FuzzStitchMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/part -run=^$$ -fuzz=FuzzMinWeightIsLowerBound -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/refine -run=^$$ -fuzz=FuzzBandMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/refine -run=^$$ -fuzz=FuzzPairSearchMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
	$(GO) test ./internal/pq -run=^$$ -fuzz=FuzzGainQueueMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
