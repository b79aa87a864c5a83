#!/usr/bin/env bash
# A/B a workload of the repo's benchmark between two built checkouts.
#
#   scripts/bench_pairs.sh <parent_dir> <change_dir> <workload> [pairs=10] [seconds=20] [trace=0]
#
# Both directories must already hold `target/release/perfbench`
# (`cargo build --release` in each; see .claude/skills/verify/SKILL.md §5).
# Runs `perfbench bench` `pairs` times on each side, alternating which
# side goes first, with a new seed per pair (both sides of a pair share
# it), and prints the table of scripts/bench_table.py: for every metric
# both medians, quartiles and how many pairs the change won, lost or tied
# (direction from BENCHMARK.json).
# With trace=1 the runs are traced and the table includes the per-layer
# ladder. Every run is appended as one JSON line to BENCH_HISTORY.jsonl at
# the root of this checkout; a run whose checks failed keeps perfbench's
# `# CHECK FAILED: …` lines in its row's `check_failures` list, and they
# are echoed to stderr. Each row also carries `threads`, the on-CPU time of
# every thread of that perfbench process in ms per second, read from
# /proc/<pid>/task/*/schedstat at two instants in the middle of the run
# (from 3 s of warm-up + seconds/4 on, for seconds/4); threads that share a
# name are told apart in tid order as `name`, `name#2`, … (the lowest tid
# is the driver's main thread). Exits 1 if any run reported
# `correct: false`.
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
out_file=$(mktemp)
trap 'rm -f "$runs" "$out_file"' EXIT

# The checkout's short rev; a dirty tree is `<rev>+<8 hex of sha1(git diff
# HEAD)>`, so each dirty row names its diff. BENCH_HISTORY.jsonl is left
# out: this script appends to it, which must not dirty the next run's rev.
rev_of() {
    local rev
    local others=(-- . ':(exclude)BENCH_HISTORY.jsonl')
    rev=$(git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown)
    if [ -n "$(git -C "$1" status --porcelain "${others[@]}" 2>/dev/null)" ]; then
        rev=$rev+$(git -C "$1" diff HEAD "${others[@]}" | sha1sum | cut -c1-8)
    fi
    echo "$rev"
}

# Every thread of process <pid>, one per line: tid, name and on-CPU ns
# (the first field of its schedstat), tab-separated.
thread_times() {
    local task
    for task in /proc/"$1"/task/*; do
        printf '%s\t%s\t%s\n' "${task##*/}" "$(cat "$task/comm" 2>/dev/null)" \
            "$(cut -d' ' -f1 "$task/schedstat" 2>/dev/null)"
    done
}

# run_side <side> <dir> <rev> <pair> <seed> <position>
run_side() {
    local out pid before="" after=""
    local from window
    from=$(python3 -c "print(3 + $seconds / 4)")
    window=$(python3 -c "print($seconds / 4)")
    (cd "$2" && exec ./target/release/perfbench bench \
        --workload "$workload" --seed "$5" --seconds "$seconds" --trace "$trace" \
        >"$out_file" 2>/dev/null) &
    pid=$!
    sleep "$from"
    before=$(thread_times "$pid")
    sleep "$window"
    after=$(thread_times "$pid")
    wait "$pid" || true
    out=$(cat "$out_file")
    HOST=$(grep -m1 '^# host:' <<<"$out" | cut -c3-) RESULT=$(tail -n1 <<<"$out") \
        CHECKS=$(sed -n 's/^# CHECK FAILED: //p' <<<"$out") \
        BEFORE=$before AFTER=$after WINDOW=$window \
        python3 - "$1" "$3" "$4" "$5" "$6" "$workload" "$seconds" "$trace" >>"$runs" <<'PY'
import json, os, sys, time
side, rev, pair, seed, position, workload, seconds, trace = sys.argv[1:]
result = json.loads(os.environ["RESULT"])
checks = [line for line in os.environ["CHECKS"].splitlines() if line]


def times(env):
    rows = {}
    for line in os.environ[env].splitlines():
        fields = line.split("\t")
        if len(fields) == 3 and fields[0].isdigit() and fields[2].isdigit():
            rows[int(fields[0])] = (fields[1], int(fields[2]))
    return rows


before, after = times("BEFORE"), times("AFTER")
threads, seen = {}, {}
for tid in sorted(set(before) & set(after)):
    name = after[tid][0]
    seen[name] = seen.get(name, 0) + 1
    key = name if seen[name] == 1 else f"{name}#{seen[name]}"
    ms = (after[tid][1] - before[tid][1]) / 1e6
    threads[key] = round(ms / float(os.environ["WINDOW"]), 3)
row = {
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
}
if threads:
    row["threads"] = threads
if checks:
    row["check_failures"] = checks
print(json.dumps(row, sort_keys=True))
for check in checks:
    print(f"pair {pair} {side} (seed {seed}): CHECK FAILED: {check}", file=sys.stderr)
print(f"pair {pair} {side} ({position}, seed {seed}): correct {result['correct']} failed {result['failed']}",
      " ".join(f"{k}={c['value']:.6g}" for k, c in result["metrics"].items() if "." not in k),
      file=sys.stderr)
busy = sorted(threads.items(), key=lambda t: -t[1])[:6]
if busy:
    print(f"pair {pair} {side} threads ms/s:", " ".join(f"{k}={v:g}" for k, v in busy), file=sys.stderr)
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

python3 "$root/scripts/bench_table.py" "$runs" --spec "$change/BENCHMARK.json"
