#!/usr/bin/env bash
# A/B a workload of the repo's benchmark between two built checkouts.
#
#   scripts/bench_pairs.sh <parent_dir> <change_dir> <workload> [pairs=10] [seconds=20] [trace=0]
#
# Both directories must already hold `target/release/perfbench`
# (`cargo build --release` in each; see .claude/skills/verify/SKILL.md §5).
# Runs `perfbench bench` `pairs` times on each side, alternating which
# side goes first, with a new seed per pair (both sides of a pair share
# it), and prints for every metric both medians, quartiles and how many
# pairs the change won, lost or tied (direction from BENCHMARK.json).
# With trace=1 the runs are traced and the table includes the per-layer
# ladder. Every run is appended as one JSON line to BENCH_HISTORY.jsonl at
# the root of this checkout. Exits 1 if any run reported `correct: false`.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-20}
trace=${6:-0}
root=$(cd "$(dirname "$0")/.." && pwd)
history=$root/BENCH_HISTORY.jsonl
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

rev_of() {
    local rev
    rev=$(git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown)
    if [ -n "$(git -C "$1" status --porcelain 2>/dev/null)" ]; then
        rev=$rev-dirty
    fi
    echo "$rev"
}

# run_side <side> <dir> <rev> <pair> <seed> <position>
run_side() {
    local out
    out=$(cd "$2" && ./target/release/perfbench bench \
        --workload "$workload" --seed "$5" --seconds "$seconds" --trace "$trace" 2>/dev/null) || true
    HOST=$(grep -m1 '^# host:' <<<"$out" | cut -c3-) RESULT=$(tail -n1 <<<"$out") \
        python3 - "$1" "$3" "$4" "$5" "$6" "$workload" "$seconds" "$trace" >>"$runs" <<'PY'
import json, os, sys, time
side, rev, pair, seed, position, workload, seconds, trace = sys.argv[1:]
result = json.loads(os.environ["RESULT"])
print(json.dumps({
    "schema": 1,
    "unix_time": int(time.time()),
    "rev": rev,
    "side": side,
    "host": os.environ["HOST"],
    "workload": workload,
    "seed": int(seed),
    "seconds": int(seconds),
    "traced": trace != "0",
    "pair": int(pair),
    "position": position,
    "correct": result["correct"],
    "attempted": result["attempted"],
    "failed": result["failed"],
    "metrics": {name: cell["value"] for name, cell in result["metrics"].items()},
}, sort_keys=True))
print(f"pair {pair} {side} ({position}, seed {seed}): correct {result['correct']} failed {result['failed']}",
      " ".join(f"{k}={c['value']:.6g}" for k, c in result["metrics"].items() if "." not in k),
      file=sys.stderr)
PY
    tail -n1 "$runs" >>"$history"
}

parent_rev=$(rev_of "$parent")
change_rev=$(rev_of "$change")
echo "# $workload: $pairs pairs x $seconds s, trace $trace; parent $parent_rev, change $change_rev"
seed0=$(date +%s)
for pair in $(seq 1 "$pairs"); do
    seed=$((seed0 + pair))
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$parent_rev" "$pair" "$seed" first
        run_side change "$change" "$change_rev" "$pair" "$seed" second
    else
        run_side change "$change" "$change_rev" "$pair" "$seed" first
        run_side parent "$parent" "$parent_rev" "$pair" "$seed" second
    fi
done

python3 - "$runs" "$change/BENCHMARK.json" <<'PY'
import json, statistics, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
sides = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
         for side in ("parent", "change")}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3

print(f"\n{'metric':<44} {'better':>6}  {'parent median (q1 … q3)':>40}  "
      f"{'change median (q1 … q3)':>40}  {'ratio':>6}  won/lost/tied")
for name in order:
    cols = {side: [r["metrics"][name] for r in rs if name in r["metrics"]]
            for side, rs in sides.items()}
    if not cols["parent"] or len(cols["parent"]) != len(cols["change"]):
        continue
    sign = 1 if better[name] == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(cols["parent"], cols["change"]))
    lost = sum(sign * (c - p) < 0 for p, c in zip(cols["parent"], cols["change"]))
    cells = {}
    for side, values in cols.items():
        q1, med, q3 = quartiles(values)
        cells[side] = (med, f"{med:.6g} ({q1:.6g} … {q3:.6g})")
    base = cells["parent"][0]
    ratio = f"{cells['change'][0] / base:.3f}" if base else "n/a"
    print(f"{name:<44} {better[name]:>6}  {cells['parent'][1]:>40}  {cells['change'][1]:>40}  "
          f"{ratio:>6}  {won}/{lost}/{len(cols['parent']) - won - lost}")

bad = [r for r in runs if not r["correct"]]
for r in bad:
    print(f"INCORRECT: pair {r['pair']} {r['side']} seed {r['seed']}", file=sys.stderr)
sys.exit(1 if bad else 0)
PY
