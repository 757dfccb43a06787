#!/usr/bin/env bash
# ci-smoke.sh drives the kappa binaries end to end, as an operator would, and
# byte-compares what they write:
#
#   api    kappa api: submit, poll and fetch a job, whose partition must equal
#          the CLI's at the same flags; 429 backpressure with Retry-After; the
#          kappa_jobs_* metrics; a SIGTERM drain that exits 0.
#   shard  kappa shard -> kappa serve -shards with two worker processes: the
#          partition must equal the in-process run's and the in-memory serve
#          run's, and the time-zeroed report (arena and transport sections
#          included) the in-memory serve run's.
#
# Run it with `make ci-smoke`; CI runs the same target. It listens on
# 127.0.0.1 ports 9196-9198 and needs curl and python3.
set -eo pipefail

GO=${GO:-go}
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

$GO build -o "$DIR/kappa" ./cmd/kappa
$GO build -o "$DIR/gengraph" ./cmd/gengraph
KAPPA=$DIR/kappa
"$DIR/gengraph" -type rgg -scale 12 -seed 5 -o "$DIR/mesh.graph"

# waitport blocks until something accepts on 127.0.0.1:$1.
waitport() {
	for i in $(seq 1 100); do (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null && return; sleep 0.1; done
}

# jsonfield prints string field $1 of the JSON document on stdin. It starts
# no interpreter: the burst below must land while its first job still runs.
jsonfield() {
	sed -n "s/^ *\"$1\": *\"\([^\"]*\)\".*/\1/p"
}

echo "== api smoke"
"$KAPPA" api -listen 127.0.0.1:9196 -queue 1 -jobs 1 -graph-dir "$DIR" 2>"$DIR/kappad.log" &
KAPPAD=$!
API=http://127.0.0.1:9196
for i in $(seq 1 100); do curl -sf $API/healthz >/dev/null 2>&1 && break; sleep 0.1; done
curl -sf $API/readyz

# Submit a real job against the served graph directory and poll it home.
ID=$(curl -sf -X POST $API/api/v1/jobs \
	-d '{"graph_file":"mesh.graph","k":8,"seed":7,"coarsen":"distributed"}' | jsonfield id)
STATE=queued
for i in $(seq 1 300); do
	STATE=$(curl -sf $API/api/v1/jobs/$ID | jsonfield state)
	[ "$STATE" = done ] && break
	if [ "$STATE" = failed ] || [ "$STATE" = canceled ]; then
		echo "job $ID ended $STATE"; curl -s $API/api/v1/jobs/$ID; cat "$DIR/kappad.log"; exit 1
	fi
	sleep 0.2
done
[ "$STATE" = done ] || { echo "job stuck in $STATE"; cat "$DIR/kappad.log"; exit 1; }

# The partition must be byte-identical to the CLI at the same flags.
curl -sf $API/api/v1/jobs/$ID/result -o "$DIR/api.part"
"$KAPPA" -in "$DIR/mesh.graph" -k 8 -seed 7 -coarsen distributed -out "$DIR/cli.part"
cmp "$DIR/api.part" "$DIR/cli.part"
curl -sf "$API/api/v1/jobs/$ID/report?zero=1" | python3 -m json.tool >/dev/null

# Admission control: with one slot and one queue place, a burst of slow jobs
# must bounce with 429 + Retry-After, never queue unboundedly.
SLOW='{"gen":"rgg:14","k":32,"preset":"strong","seed":1}'
A=$(curl -sf -X POST $API/api/v1/jobs -d "$SLOW" | jsonfield id)
B=$(curl -sf -X POST $API/api/v1/jobs -d "$SLOW" | jsonfield id)
CODE=$(curl -s -o "$DIR/burst.json" -w '%{http_code}' -D "$DIR/burst.hdr" -X POST $API/api/v1/jobs -d "$SLOW")
[ "$CODE" = 429 ] || { echo "burst submit got $CODE, want 429"; cat "$DIR/burst.json"; exit 1; }
grep -qi '^retry-after:' "$DIR/burst.hdr"

# The kappa_jobs_* catalog is live on the same endpoint.
curl -sf $API/metrics -o "$DIR/api-metrics.txt"
grep -q '^kappa_jobs_submitted_total 3$' "$DIR/api-metrics.txt"
grep -q '^kappa_jobs_done_total 1$' "$DIR/api-metrics.txt"
grep -q 'kappa_jobs_rejected_total{reason="queue_full"} 1' "$DIR/api-metrics.txt"
grep -q '^kappa_jobs_queue_wait_seconds_count' "$DIR/api-metrics.txt"

# Cancel the burst jobs, then SIGTERM: the daemon must drain and exit 0.
curl -sf -X DELETE $API/api/v1/jobs/$A >/dev/null
curl -sf -X DELETE $API/api/v1/jobs/$B >/dev/null
kill -TERM $KAPPAD
if ! wait $KAPPAD; then echo "kappad exited non-zero after SIGTERM"; cat "$DIR/kappad.log"; exit 1; fi
grep -q 'drained cleanly' "$DIR/kappad.log"
echo "api run is byte-identical to the CLI"

echo "== shard smoke"
# Shard the graph into an on-disk store: 2 shards, rcb distribution.
"$KAPPA" shard -in "$DIR/mesh.graph" -pe 2 -dist rcb -o "$DIR/mesh.kst"

# Reference 1: the classic in-process run (partition contract).
"$KAPPA" -in "$DIR/mesh.graph" -k 8 -seed 7 -pes 2 -dist rcb \
	-coarsen distributed -out "$DIR/mem.part"

# serve NAME PORT ARGS... runs kappa serve with two worker processes and
# writes $DIR/NAME.part and the time-zeroed report $DIR/NAME.json.
serve() {
	local name=$1 port=$2
	shift 2
	"$KAPPA" serve "$@" -k 8 -seed 7 -listen 127.0.0.1:$port -out "$DIR/$name.part" \
		-report "$DIR/$name.json" -report-zero 2>"$DIR/$name.log" &
	local coord=$!
	waitport $port
	"$KAPPA" worker -connect 127.0.0.1:$port -timeout 90s &
	local w1=$!
	"$KAPPA" worker -connect 127.0.0.1:$port -timeout 90s &
	local w2=$!
	wait $coord
	wait $w1
	wait $w2
}

# Reference 2: serve from the in-memory graph (report contract: serve runs
# always carry a faults section, so reports compare serve against serve).
serve serve 9197 -in "$DIR/mesh.graph" -pes 2 -dist rcb

# The run under test: the coordinator streams shard bytes from the store and
# maps the CSR segment; it never holds the global adjacency on the heap.
serve store 9198 -shards "$DIR/mesh.kst"

# Byte-identity: the partition matches both references, the zeroed report
# matches the in-memory serve run's.
cmp "$DIR/mem.part" "$DIR/store.part"
cmp "$DIR/serve.part" "$DIR/store.part"
cmp "$DIR/serve.json" "$DIR/store.json"
echo "shard store run is byte-identical to the in-memory path"
