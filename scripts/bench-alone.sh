#!/usr/bin/env bash
# bench-alone.sh checks that every gated benchmark measures one thing: each
# row of the allocation gate (BENCH_GATE over BENCH_PKGS, as `make
# bench-compare` runs it) must read the same when its benchmark runs alone
# (-bench '^Name$'), within cmd/benchcmp's budgets in both directions. A row
# whose inputs another benchmark generated or cached for it reads less in the
# gate than alone and fails here.
#
#   make bench-alone        (≈ 2 min)
set -euo pipefail
GO=${GO:-go}
: "${BENCH_GATE:?set BENCH_GATE}" "${BENCH_PKGS:?set BENCH_PKGS}"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

GOMAXPROCS=1 $GO test -bench="$BENCH_GATE" -benchtime=1x -benchmem -run='^$' $BENCH_PKGS > "$dir/gate.txt"

# One alone run per (package, top-level benchmark) of the gate's rows; only
# the rows the gate has are kept.
awk '/^pkg: /{pkg=$2} /^Benchmark/{split($1, p, "/"); print pkg, p[1]}' "$dir/gate.txt" | sort -u |
	while read -r pkg name; do
		path=./${pkg#repro}
		GOMAXPROCS=1 $GO test -bench="^${name}\$" -benchtime=1x -benchmem -run='^$' "${path%/}" |
			awk -v rows="$(awk '/^Benchmark/{print $1}' "$dir/gate.txt" | tr '\n' ' ')" \
				'BEGIN{n=split(rows, r, " "); for (i=1;i<=n;i++) keep[r[i]]=1} /^Benchmark/{if ($1 in keep) print; next} {print}'
	done > "$dir/alone.txt"

echo "== gate rows against their alone runs"
$GO run ./cmd/benchcmp -baseline "$dir/alone.txt" -current "$dir/gate.txt"
echo "== alone runs against the gate rows"
$GO run ./cmd/benchcmp -baseline "$dir/gate.txt" -current "$dir/alone.txt"
