#!/usr/bin/env bash
# Alternating parent/change runs of the repo's benchmark (BENCHMARK.json).
#
#   scripts/bench_pairs.sh REV [PAIRS] [WORKLOADS]
#
# REV is the parent revision, PAIRS the number of pairs (default 10) and
# WORKLOADS a comma list (default: every workload BENCHMARK.json lists).
# The change is the working tree this script runs from; the parent is
# REV exported with `git archive` into a temporary directory, removed on
# exit. Each side builds its own examples/twbench and runs
# BENCHMARK.json's command from its own tree, untraced, for
# `run_seconds`. Pair i uses seed i and runs the parent first when i is
# odd, the change first when i is even.
#
# Prints every pair's end-to-end values, then per workload and metric the
# two medians, the change/parent ratio and the pairs the change won, and
# the failed operations of each side. Exits 1 if any run failed.
#
# Offline (bash and python3 only) and slow: each run takes about
# run_seconds + 5 s, so ten pairs of all four workloads take ~50 min.
# Not run by CI.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_pairs.sh REV [PAIRS] [WORKLOADS]"
rev=${1:?$usage}
pairs=${2:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "$usage" >&2; exit 2; }

spec() { python3 -c "import json; b = json.load(open('BENCHMARK.json')); $1"; }
mapfile -t cmd < <(spec 'print("\n".join(b["command"]))')
seconds=$(spec 'print(b["run_seconds"])')
workloads=${3:-$(spec 'print(",".join(w["name"] for w in b["workloads"]))')}

change=$PWD
tmp=$(mktemp -d -t bench-pairs.XXXXXX)
parent=$tmp/parent
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"

for tree in "$parent" "$change"; do
  echo "==> building twbench in $tree" >&2
  (cd "$tree" && cargo build --release --offline --quiet --manifest-path examples/twbench/Cargo.toml)
done

mkdir -p "$tmp/runs"
failed_runs=0
run() { # side tree workload seed
  local out="$tmp/runs/$1.$3.$4"
  if ! (cd "$2" && "${cmd[@]}" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) \
    >"$out" 2>"$out.err"; then
    echo "FAIL: $1 $3 seed $4 (see below)" >&2
    tail -n 5 "$out.err" >&2
    failed_runs=$((failed_runs + 1))
  fi
}

IFS=, read -ra names <<<"$workloads"
for ((i = 1; i <= pairs; i++)); do
  for w in "${names[@]}"; do
    echo "==> pair $i/$pairs $w" >&2
    if ((i % 2)); then
      run parent "$parent" "$w" "$i"
      run change "$change" "$w" "$i"
    else
      run change "$change" "$w" "$i"
      run parent "$parent" "$w" "$i"
    fi
  done
done

python3 - "$tmp/runs" "$pairs" "$workloads" <<'EOF'
import json, os, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(",")
spec = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

def load(side, w, seed):
    """The final JSON line of one run, or None if it printed none."""
    try:
        lines = open(os.path.join(runs, f"{side}.{w}.{seed}")).read().splitlines()
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None

def value(run, name):
    return run["metrics"].get(name, {}).get("value") if run else None

def fmt(v):
    return "-" if v is None else f"{v:.5g}"

for w in workloads:
    res = {s: [load(s, w, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    print(f"\n## {w}: parent/change per pair")
    print("pair  " + "  ".join(f"{name:>24}" for name, _ in metrics))
    for i in range(pairs):
        cells = (fmt(value(res["parent"][i], n)) + "/" + fmt(value(res["change"][i], n))
                 for n, _ in metrics)
        print(f"{i + 1:>4}  " + "  ".join(f"{c:>24}" for c in cells))
    print(f"{'metric':24} {'parent':>12} {'change':>12} {'ratio':>8} {'won':>7}")
    for name, better in metrics:
        both = [(value(p, name), value(c, name)) for p, c in zip(res["parent"], res["change"])]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        won = sum((b > a) if better == "higher" else (b < a) for a, b in both)
        mp = statistics.median(a for a, _ in both)
        mc = statistics.median(b for _, b in both)
        ratio = mc / mp if mp else float("nan")
        print(f"{name:24} {mp:>12.6g} {mc:>12.6g} {ratio:>8.4f} {won:>4}/{len(both)}")
    for s in ("parent", "change"):
        ok = [r for r in res[s] if r]
        print(f"{s}: {sum(r['failed'] for r in ok)} of {sum(r['attempted'] for r in ok)} "
              f"operations failed, {pairs - len(ok)} runs without a result")
EOF
((failed_runs == 0))
