#!/usr/bin/env python3
"""Checks a scraped /metrics body against the Prometheus text exposition rules.

    scripts/check_exposition.py metrics.txt [FAMILY ...]

Rules (the same ones crates/engine/tests/support/exposition.rs applies in
the test suite):

* every non-comment line is `name[{labels}] value`, and the value parses;
* every family has exactly one `# HELP` and one `# TYPE` line;
* both come before the family's first sample;
* a family's lines are contiguous: once another family starts, it never
  resumes. A histogram's `_bucket`, `_sum` and `_count` samples belong
  to their base family.

Each FAMILY named on the command line must be present. Exits 1 with the
first broken rule, else prints the family count.
"""
import sys


def check(text):
    """Returns the family names of `text`; raises AssertionError on a broken rule."""
    help_count, kinds, samples = {}, {}, {}
    finished, current = set(), None
    for i, line in enumerate(text.splitlines(), 1):
        where = f"line {i}: {line!r}"
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            family = line.split(" ")[2]
            sample = False
        elif line.startswith("#"):
            continue
        else:
            series, _, value = line.rpartition(" ")
            assert series, f"no value: {where}"
            float(value)  # must parse
            name = series.split("{")[0]
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[: -len(suffix)] if name.endswith(suffix) else None
                if base and kinds.get(base) == "histogram":
                    family = base
                    break
            sample = True
        assert family, f"no metric name: {where}"
        if family != current:
            assert family not in finished, f"family {family} resumes after another family: {where}"
            if current is not None:
                finished.add(current)
            current = family
        if sample:
            assert help_count.get(family) and family in kinds, (
                f"sample of {family} before its HELP and TYPE: {where}")
            samples[family] = samples.get(family, 0) + 1
            continue
        assert not samples.get(family), f"preamble of {family} after its samples: {where}"
        if line.startswith("# HELP "):
            help_count[family] = help_count.get(family, 0) + 1
            assert help_count[family] == 1, f"second HELP for {family}: {where}"
        else:
            assert family not in kinds, f"second TYPE for {family}: {where}"
            kinds[family] = line.split(" ")[3] if len(line.split(" ")) > 3 else ""
    names = set(help_count) | set(kinds) | set(samples)
    for n in names:
        assert help_count.get(n) == 1 and n in kinds, f"family {n} lacks its HELP or TYPE line"
    return names


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    text = open(sys.argv[1]).read()
    try:
        names = check(text)
        for family in sys.argv[2:]:
            assert family in names, f"missing metric family {family}"
    except (AssertionError, ValueError) as e:
        sys.exit(f"{sys.argv[1]}: {e}")
    print(f"{sys.argv[1]}: {len(names)} well-formed metric families")


if __name__ == "__main__":
    main()
