#!/usr/bin/env python3
"""Compare two report directories written by `normlab repro --all --write-reports`.

    python3 scripts/compare_reports.py DIR_A DIR_B

Every <tag>.json and index.csv is loaded with its runtime_ms fields dropped,
and every JSON float kept as its text, so that 1 against 1.0, or a float
written with another repr, counts as a difference.  Prints how many report
files there are and which differ (present in one directory only, or
different contents), then, for each file present in both that differs, how
many numbers differ where the two files have the same structure and the
largest relative difference |a - b| / max(|a|, |b|) among them.  Exits 1 if
any differs or if index.csv is missing, else 0.
"""

import csv
import json
import math
import os
import sys


def _number(s):
    """A CSV cell that parses as a float, kept as its text like a JSON float; any other cell as it is."""
    try:
        float(s)
    except ValueError:
        return s
    return ("float", s)


def load(path):
    """A report file with every runtime_ms field dropped."""
    with open(path, encoding="utf-8") as f:
        if path.endswith(".csv"):
            return [{k: _number(v) for k, v in row.items() if k != "runtime_ms"} for row in csv.DictReader(f)]
        return json.load(f, object_hook=lambda d: {k: v for k, v in d.items() if k != "runtime_ms"},
                         parse_float=lambda s: ("float", s), parse_constant=lambda s: ("float", s))


def number_diffs(a, b):
    """The relative differences of the numbers that differ between two loaded reports, where their
    structure matches (the same keys, list lengths and kinds of value)."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [r for k in a for r in number_diffs(a[k], b[k])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [r for x, y in zip(a, b) for r in number_diffs(x, y)]
    numeric = [isinstance(v, tuple) or isinstance(v, int) and not isinstance(v, bool) for v in (a, b)]
    if not all(numeric) or a == b:
        return []
    x, y = (float(v[1]) if isinstance(v, tuple) else float(v) for v in (a, b))
    if x == y:  # the same number written another way
        return [0.0]
    if not (math.isfinite(x) and math.isfinite(y)):
        return [math.inf]
    return [abs(x - y) / max(abs(x), abs(y))]


def main(a: str, b: str) -> int:
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    assert "index.csv" in names, names
    differ = [n for n in names
              if not (os.path.exists(os.path.join(a, n)) and os.path.exists(os.path.join(b, n)))
              or load(os.path.join(a, n)) != load(os.path.join(b, n))]
    print(f"{len(names)} report files, {len(differ)} differ beyond runtime_ms: {differ}")
    for n in differ:
        if os.path.exists(os.path.join(a, n)) and os.path.exists(os.path.join(b, n)):
            rel = number_diffs(load(os.path.join(a, n)), load(os.path.join(b, n)))
            print(f"  {n}: {len(rel)} numbers differ, largest relative difference {max(rel, default=0.0):.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
