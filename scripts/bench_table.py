#!/usr/bin/env python3
"""Render the parent/change summary table of benchmark runs.

    scripts/bench_table.py RUNS.jsonl [--spec BENCHMARK.json]
    scripts/bench_table.py BENCH_HISTORY.jsonl --compare <parent_rev> <change_rev> [--workload W]

The first form reads the runs of one `scripts/bench_pairs.sh` session
(each row has a `side` and a `pair`). The second picks the history rows
whose `rev` is one of the two given, pairs them by (workload, seed), and
renders one table per workload. Each table gives, for every metric in
BENCHMARK.json, both medians, quartiles and how many pairs the change
won, lost or tied. Exits 1 if any rendered run reported `correct: false`,
and prints each such run with the checks it failed (`check_failures`,
absent from rows recorded before the script kept them).
"""
import argparse
import json
import os
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def render(sides, spec):
    """Prints the table for `sides`: {"parent": [...], "change": [...]},
    two run lists in pair order."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
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


def session_sides(runs):
    return {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
            for side in ("parent", "change")}


def history_sides(runs, parent_rev, change_rev, workload):
    """{workload: sides} with the rows of the two revs paired by seed."""
    by_key = {}
    for r in runs:
        if workload and r["workload"] != workload:
            continue
        if r["rev"] in (parent_rev, change_rev):
            side = "parent" if r["rev"] == parent_rev else "change"
            by_key.setdefault((r["workload"], r["seed"]), {"parent": [], "change": []})[side].append(r)
    tables = {}
    for (w, _seed), rows in sorted(by_key.items()):
        sides = tables.setdefault(w, {"parent": [], "change": []})
        for p, c in zip(rows["parent"], rows["change"]):
            sides["parent"].append(p)
            sides["change"].append(c)
    return {w: sides for w, sides in tables.items() if sides["parent"]}


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", help="JSON lines, one benchmark run per line")
    ap.add_argument("--spec", default=os.path.join(root, "BENCHMARK.json"))
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_REV", "CHANGE_REV"))
    ap.add_argument("--workload")
    args = ap.parse_args()
    runs = [json.loads(line) for line in open(args.runs) if line.strip()]
    spec = json.load(open(args.spec))

    if args.compare:
        tables = history_sides(runs, *args.compare, args.workload)
        if not tables:
            print(f"no (workload, seed) pairs between {args.compare[0]} and {args.compare[1]}",
                  file=sys.stderr)
            return 1
        rendered = []
        for w, sides in tables.items():
            print(f"\n# {w}: {len(sides['parent'])} pairs; "
                  f"parent {args.compare[0]}, change {args.compare[1]}")
            render(sides, spec)
            rendered += sides["parent"] + sides["change"]
    else:
        sides = session_sides(runs)
        render(sides, spec)
        rendered = sides["parent"] + sides["change"]

    bad = [r for r in rendered if not r["correct"]]
    for r in bad:
        print(f"INCORRECT: pair {r['pair']} {r['side']} seed {r['seed']}", file=sys.stderr)
        for check in r.get("check_failures", []):
            print(f"    CHECK FAILED: {check}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
