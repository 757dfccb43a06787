#!/usr/bin/env bash
# scale.sh measures the partitioner past the benchmark's 32 Ki-node
# instances, up to a million nodes: it writes rgg:16…20 and rmat:14…17 once,
# as binary graph files (gengraph -format bin) in a temporary directory, then
# partitions each with `kappa -in` (k = 16, seed 1, KaPPa-Fast, shared
# coarsening) and prints one row per instance: the time per edge of each
# phase — reading the file (process wall time less the run's total, so it
# includes start-up), the coarsening, initial partitioning and refinement,
# and the whole process — the process's peak RSS (getrusage), that peak per
# half-edge (bytes / 2m) and the cut.
# `make scale` runs it; it is not part of `make check`.
set -euo pipefail
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$GO" build -o "$tmp/kappa" ./cmd/kappa
"$GO" build -o "$tmp/gengraph" ./cmd/gengraph
instances=()
for s in 16 17 18 19 20; do instances+=("rgg $s"); done
for s in 14 15 16 17; do instances+=("rmat $s"); done
for inst in "${instances[@]}"; do
	set -- $inst
	"$tmp/gengraph" -type "$1" -scale "$2" -format bin -o "$tmp/$1$2.bgraph" 2>/dev/null
done
python3 - "$tmp" "${instances[@]}" <<'PY'
import re, subprocess, sys

tmp = sys.argv[1]
print(f"{'instance':<9} {'n':>8} {'m':>9} | ns/edge: {'read':>5} {'coarsen':>7} {'init':>5} {'refine':>6} {'wall':>6} | {'rss_mb':>6} {'B/half-edge':>11} {'cut':>7}")
for inst in sys.argv[2:]:
    family, scale = inst.split()
    # One measuring process per run: RUSAGE_CHILDREN then covers kappa alone.
    probe = ("import resource, subprocess, sys, time\n"
             "t = time.perf_counter(); out = subprocess.run(sys.argv[1:], check=True, capture_output=True, text=True).stdout\n"
             "print(out, time.perf_counter() - t, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    res = subprocess.run([sys.executable, "-c", probe, f"{tmp}/kappa", "-in", f"{tmp}/{family}{scale}.bgraph",
                          "-k", "16", "-seed", "1"], check=True, capture_output=True, text=True).stdout.split()
    wall, maxrss_kb = float(res[-2]), int(res[-1])
    out = " ".join(res[:-2])
    n, m = (int(x) for x in re.search(r"n=(\d+) m=(\d+)", out).groups())
    cut = int(re.search(r"cut (\d+)", out).group(1))
    # kappa prints Go durations: 950ms, 1.2s, 1m3.5s.
    ms = lambda d: sum(float(v) * {"h": 3.6e6, "m": 6e4, "s": 1e3, "ms": 1, "µs": 1e-3, "us": 1e-3, "ns": 1e-6}[u]
                       for v, u in re.findall(r"([\d.]+)(h|ms|µs|us|ns|m|s)", d))
    total, coarsen, init, refine = (ms(x) for x in re.search(
        r"total (\S+) \(coarsen (\S+), init (\S+), refine (\S+)\)", out).groups())
    per = lambda ms: ms * 1e6 / m
    print(f"{family}:{scale:<4} {n:>8} {m:>9} | {'':9}{per(wall * 1e3 - total):>5.0f} {per(coarsen):>7.0f} {per(init):>5.0f} "
          f"{per(refine):>6.0f} {per(wall * 1e3):>6.0f} | {maxrss_kb / 1024:>6.0f} {maxrss_kb * 1024 / (2 * m):>11.1f} {cut:>7}")
PY
