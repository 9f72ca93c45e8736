#!/usr/bin/env bash
# Same-machine A/B of the job benchmark (perfbench/, BENCHMARK.json).
#
#   scripts/bench_ab.sh <base-rev> [pairs=10]
#
# Compares the working tree (the change) against <base-rev> (the base):
#  1. `git archive`s <base-rev> into $BENCH_AB_DIR/base (default
#     ${TMPDIR:-/tmp}/bench_ab; the directory is reused and its base/
#     copy replaced);
#  2. builds each side in its own CARGO_TARGET_DIR ($BENCH_AB_DIR/
#     build-base, $BENCH_AB_DIR/build-change) — run.py builds on first
#     use, so the first pair also pays the two Release builds;
#  3. runs `perfbench/run.py --workload W --seed P --seconds S --trace 0`
#     for every BENCHMARK.json workload in <pairs> interleaved pairs: pair
#     P runs both sides back to back with seed P, the base first on odd
#     pairs and the change first on even ones, and S is BENCHMARK.json's
#     run_seconds;
#  4. prints, per workload and end-to-end metric, the base and change
#     medians, the delta, the base's interquartile range and every run,
#     plus each side's fail_ratio (failed / attempted jobs).
#
# Exits 1 when a change median is worse than the base median by more
# than the metric's BENCHMARK.json bound (a fraction of the base median),
# or when the change's fail_ratio is higher; 0 otherwise. A metric whose
# base IQR is wider than its bound is marked unresolved (unless every
# change run beats every base run) but does not fail the script. perfbench/ is
# called as it is on each side. Every run's JSON result line is kept in
# $BENCH_AB_DIR/runs.jsonl.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/bench_ab.sh <base-rev> [pairs=10]" >&2
  exit 2
fi
BASE_REV="$1"
PAIRS="${2:-10}"
AB_DIR="${BENCH_AB_DIR:-${TMPDIR:-/tmp}/bench_ab}"

git rev-parse --verify --quiet "$BASE_REV^{commit}" > /dev/null ||
  { echo "bench_ab: unknown revision $BASE_REV" >&2; exit 2; }
mkdir -p "$AB_DIR"
AB_DIR="$(cd "$AB_DIR" && pwd)"
rm -rf "$AB_DIR/base"
mkdir -p "$AB_DIR/base"
git archive "$BASE_REV" | tar -x -C "$AB_DIR/base"

RUNS="$AB_DIR/runs.jsonl"
: > "$RUNS"
read -r SECONDS_PER_RUN WORKLOADS < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))
' BENCHMARK.json)

# run_side <side> <workload> <seed>: one run.py invocation; appends
# {"side", "workload", "seed", "result"} to runs.jsonl (result null when
# the run printed no result line).
run_side() {
  local side="$1" workload="$2" seed="$3" dir out
  if [[ "$side" == base ]]; then dir="$AB_DIR/base"; else dir="$ROOT"; fi
  out="$(cd "$dir" && CARGO_TARGET_DIR="$AB_DIR/build-$side" \
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$SECONDS_PER_RUN" --trace 0 2> "$AB_DIR/last-$side.log" |
    tail -n 1)" || true
  python3 -c '
import json, sys
side, workload, seed, line = sys.argv[1:5]
try:
    result = json.loads(line)
except ValueError:
    result = None
print(json.dumps({"side": side, "workload": workload, "seed": int(seed),
                  "result": result}))
' "$side" "$workload" "$seed" "$out" >> "$RUNS"
  echo "bench_ab: pair $seed $workload $side done" >&2
}

for ((pair = 1; pair <= PAIRS; ++pair)); do
  for workload in $WORKLOADS; do
    if ((pair % 2 == 1)); then
      run_side base "$workload" "$pair"
      run_side change "$workload" "$pair"
    else
      run_side change "$workload" "$pair"
      run_side base "$workload" "$pair"
    fi
  done
done

python3 - "$RUNS" BENCHMARK.json <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


worse = []
for workload in (w["name"] for w in bench["workloads"]):
    print(f"== {workload}")
    sides = {}
    for side in ("base", "change"):
        mine = [r for r in runs if r["workload"] == workload
                and r["side"] == side]
        attempted = sum(r["result"]["attempted"] for r in mine
                        if r["result"] is not None)
        failed = sum(r["result"]["failed"] for r in mine
                     if r["result"] is not None)
        missing = sum(r["result"] is None for r in mine)
        sides[side] = {
            "runs": [r["result"]["metrics"] for r in mine
                     if r["result"] is not None],
            "fail_ratio": failed / attempted if attempted else 1.0,
            "missing": missing,
        }
        print(f"  {side}: {len(mine)} runs, {missing} without a result, "
              f"fail_ratio {sides[side]['fail_ratio']:.4f}")
    if sides["change"]["missing"] > sides["base"]["missing"]:
        worse.append(f"{workload}: more runs without a result")
    if sides["change"]["fail_ratio"] > sides["base"]["fail_ratio"]:
        worse.append(f"{workload}: fail_ratio rose")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base = [m[name]["value"] for m in sides["base"]["runs"] if name in m]
        change = [m[name]["value"] for m in sides["change"]["runs"]
                  if name in m]
        if len(base) < 2 or len(change) < 2:
            worse.append(f"{workload}: {name}: too few runs to compare")
            continue
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        q1, q3 = quartiles(base)
        delta = (change_med - base_med) / base_med if base_med else 0.0
        lower = metric["better"] == "lower"
        all_better = (max(change) < min(base) if lower
                      else min(change) > max(base))
        verdict = "ok"
        if (delta if lower else -delta) > bound:
            verdict = f"WORSE beyond bound {bound:g}"
            worse.append(f"{workload}: {name} {delta:+.1%}")
        elif base_med and (q3 - q1) / base_med > bound and not all_better:
            # Spread wider than the bound: "no regression" is not shown.
            verdict = f"unresolved: base IQR wider than bound {bound:g}"
        print(f"  {name} [{metric['unit']}]: base median {base_med:.4g}, "
              f"change median {change_med:.4g} ({delta:+.1%}), "
              f"base IQR {q3 - q1:.4g}: {verdict}")
        print(f"    base runs   {[round(x, 4) for x in base]}")
        print(f"    change runs {[round(x, 4) for x in change]}")

if worse:
    print("bench_ab: FAIL: " + "; ".join(worse))
    sys.exit(1)
print("bench_ab: no end-to-end metric worse beyond its bound")
EOF
