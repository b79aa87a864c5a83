#!/usr/bin/env python3
"""Says which campaign cells moved between two CAMPAIGN.json files.

    scripts/campaign_diff.py A.json B.json

Both files come from `reproduce campaign --lane L --seed S --out DIR`.
Cells are matched by key. The script prints the cells found on only one
side, then every shared cell whose record differs, with the first field
that differs.

The `replay` invariant is ignored: the campaign runs it on every 8th
cell by position in the grid, so a cell gains or loses it whenever the
grid around it changes. A failed replay is dropped from the cell's
`failed` list for the same reason.

Exits 1 if any shared cell differs, 2 on a usage or read error, else 0.
Cells on only one side do not fail the comparison.
"""
import json
import sys

IGNORED_INVARIANT = "replay"


def load_cells(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    cells = {}
    for cell in doc["results"]:
        if cell["key"] in cells:
            raise ValueError(f"{path}: cell {cell['key']} appears twice")
        cells[cell["key"]] = normalise(cell)
    return cells


def normalise(cell):
    cell = dict(cell)
    if "invariants" in cell:
        cell["invariants"] = [
            inv for inv in cell["invariants"] if inv.get("name") != IGNORED_INVARIANT
        ]
    if "failed" in cell:
        cell["failed"] = [name for name in cell["failed"] if name != IGNORED_INVARIANT]
    return cell


def first_difference(a, b, path=""):
    """The path of the first field where `a` and `b` differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path}[{min(len(a), len(b))}]"
        return None
    return None if a == b else path


def lookup(record, path):
    value = record
    for part in path.replace("[", ".[").split(".")[1:]:
        if part.startswith("["):
            index = int(part[1:-1])
            value = value[index] if index < len(value) else "<absent>"
        else:
            value = value.get(part, "<absent>") if isinstance(value, dict) else "<absent>"
    return value


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        a, b = load_cells(argv[1]), load_cells(argv[2])
    except (OSError, ValueError, KeyError) as err:
        print(f"campaign_diff: {err}", file=sys.stderr)
        return 2

    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    shared = sorted(set(a) & set(b))
    for label, keys in (("A", only_a), ("B", only_b)):
        print(f"only in {label}: {len(keys)} cell(s)")
        for key in keys:
            print(f"  {key}")

    moved = 0
    for key in shared:
        path = first_difference(a[key], b[key])
        if path is not None:
            moved += 1
            print(f"differs: {key} at {path}: {lookup(a[key], path)!r} -> {lookup(b[key], path)!r}")
    print(f"{len(shared)} shared cell(s), {moved} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
