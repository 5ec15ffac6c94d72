#!/usr/bin/env bash
# Same-host A/B of two commits on the perfbench workloads.
#
#   tools/ab.sh [--base REV] [--head REV] [--pairs N] [--workload NAME]...
#               [--scratch DIR] [-- PERFBENCH_ARGS...]
#
# The base side is the merge-base of REV (default: main) and the head
# side. The head side is the checkout this script lives in, uncommitted
# edits included, or commit REV when --head is given. Each committed
# side is exported with `git archive` into its own directory under the
# scratch directory (default: ${TMPDIR:-/tmp}/cnvm-ab), so the
# repository's .git gains no worktree entry, and a later call reuses
# the export and its incremental perfbench build.
#
# Both sides' perfbench programs are built first, so no build lands
# inside a timed run. Then, for every workload (default: each one
# BENCHMARK.json names), perfbench/run.py runs N times (default 10) on
# each side, alternating which side goes first in each pair. Arguments
# after `--` go to run.py on both sides, e.g. `-- --seed 1009`.
#
# For each side it prints the attempted and failed op totals, the
# failed share and the median attempted ops per run. For every
# end-to-end metric BENCHMARK.json names, it prints each side's median,
# quartiles, min and max, the change of the medians, and how many pairs
# the head side won (ties count for neither). "gain"
# marks a metric where the head won at least 9 in 10 pairs and its
# median beat the base's by more than the base's interquartile range.
# Every run's JSON stays in the scratch directory.
#
# Exit status: 0 when every run passed; 1 when any op failed or any run
# exited non-zero; 2 on a usage error. Nothing under perfbench/ is
# written: run.py builds into each tree's .bench_build/.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
base_rev=main
head_rev=
pairs=10
workloads=()
scratch="${TMPDIR:-/tmp}/cnvm-ab"
extra=()

# Prints the header comment above and exits with status $1.
usage() {
    awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' \
        "$0" >&2
    exit "$1"
}

while [ $# -gt 0 ]; do
    case "$1" in
      --base) base_rev="${2:?}"; shift 2 ;;
      --head) head_rev="${2:?}"; shift 2 ;;
      --pairs) pairs="${2:?}"; shift 2 ;;
      --workload) workloads+=("${2:?}"); shift 2 ;;
      --scratch) scratch="${2:?}"; shift 2 ;;
      --help|-h) usage 0 ;;
      --) shift; extra=("$@"); break ;;
      *) echo "ab.sh: unknown argument '$1'" >&2; usage 2 ;;
    esac
done
case "$pairs" in
  ''|*[!0-9]*|0) echo "ab.sh: --pairs needs a positive integer" >&2; exit 2 ;;
esac

if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo/BENCHMARK.json")
fi

head_sha=$(git -C "$repo" rev-parse --verify "${head_rev:-HEAD}^{commit}")
base_sha=$(git -C "$repo" merge-base "$base_rev" "$head_sha")

# Exports commit $1 under the scratch directory (once) and prints its
# path.
export_tree() {
    local dir="$scratch/$1"
    if [ ! -d "$dir" ]; then
        rm -rf "$dir.part"
        mkdir -p "$dir.part"
        git -C "$repo" archive "$1" | tar -x -C "$dir.part"
        mv "$dir.part" "$dir"
    fi
    echo "$dir"
}

mkdir -p "$scratch"
base_dir=$(export_tree "$base_sha")
if [ -n "$head_rev" ]; then
    head_dir=$(export_tree "$head_sha")
    head_label=${head_sha:0:10}
else
    head_dir=$repo
    head_label="${head_sha:0:10} + working tree"
fi
echo "ab.sh: base ${base_sha:0:10} ($base_dir)" >&2
echo "ab.sh: head $head_label ($head_dir)" >&2

for dir in "$base_dir" "$head_dir"; do
    if ! python3 "$dir/perfbench/run.py" --help > /dev/null 2>&1; then
        echo "ab.sh: perfbench build failed in $dir" >&2
        exit 1
    fi
done

out="$scratch/runs-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
status=0

# Runs side $1 (base|head) of workload $2, pair $3.
run_side() {
    local dir=$base_dir
    [ "$1" = head ] && dir=$head_dir
    local log="$out/$2.$1.$3"
    if ! (cd "$dir" && python3 perfbench/run.py --workload "$2" \
            ${extra[@]+"${extra[@]}"}) > "$log.out" 2> "$log.err"; then
        echo "ab.sh: $2 $1 run $3 failed (see $log.err)" >&2
        status=1
    fi
    tail -n 1 "$log.out" > "$log.json"
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; ++i)); do
        echo "ab.sh: $w pair $i/$pairs" >&2
        if ((i % 2)); then
            run_side base "$w" "$i"
            run_side head "$w" "$i"
        else
            run_side head "$w" "$i"
            run_side base "$w" "$i"
        fi
    done
done

python3 - "$repo/BENCHMARK.json" "$out" "$pairs" "${workloads[@]}" <<'EOF' \
    || status=1
import json
import sys

bench_file, out, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
workloads = sys.argv[4:]
metrics = json.load(open(bench_file))["end_to_end"]


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load(workload, side, i):
    try:
        with open("%s/%s.%s.%d.json" % (out, workload, side, i)) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None


failed = False
for w in workloads:
    runs = {s: [load(w, s, i) for i in range(1, pairs + 1)]
            for s in ("base", "head")}
    if any(r is None or not r.get("correct") for s in runs
           for r in runs[s]):
        failed = True
    print("%s: %d pairs" % (w, pairs))
    # A run's attempted ops count the passes that fit in its window, so
    # a faster side attempts more (and keeps more pass records).
    for s in ("base", "head"):
        attempted = [(r or {}).get("attempted", 0) for r in runs[s]]
        total = sum(attempted)
        fails = sum((r or {}).get("failed", 1) for r in runs[s])
        print("  %-4s ops attempted %d, failed %d, failed share %.4g, "
              "median attempted per run %g"
              % (s, total, fails, fails / total if total else 1.0,
                 quantile(attempted, 0.5)))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] if r else None
                    for r in runs[s]] for s in runs}
        if any(v is None for s in vals for v in vals[s]):
            print("  %-24s missing in some runs" % name)
            continue
        won = sum(1 for b, h in zip(vals["base"], vals["head"])
                  if (h < b if lower else h > b))
        stats = {s: (quantile(v, 0.5), quantile(v, 0.25),
                     quantile(v, 0.75), min(v), max(v))
                 for s, v in vals.items()}
        bmed, bq1, bq3 = stats["base"][:3]
        hmed = stats["head"][0]
        delta = (hmed - bmed) / bmed * 100 if bmed else 0.0
        better = hmed < bmed if lower else hmed > bmed
        gain = (better and won * 10 >= 9 * pairs
                and abs(hmed - bmed) > bq3 - bq1)
        print("  %-24s %s" % (name, m["unit"]))
        for s in ("base", "head"):
            med, q1, q3, lo, hi = stats[s]
            print("    %-4s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "min %-12.6g max %-12.6g" % (s, med, q1, q3, lo, hi))
        print("    change %+.2f%%, head won %d/%d%s"
              % (delta, won, pairs, ", gain" if gain else ""))
print("runs: %s" % out)
sys.exit(1 if failed else 0)
EOF
exit "$status"
