#!/usr/bin/env python3
"""Compare two report directories written by `normlab repro --all --write-reports`.

    python3 scripts/compare_reports.py DIR_A DIR_B

Every <tag>.json and index.csv is loaded with its runtime_ms fields dropped,
and every JSON float kept as its text, so that 1 against 1.0, or a float
written with another repr, counts as a difference.  Prints how many report
files there are and which differ (present in one directory only, or
different contents); exits 1 if any differs or if index.csv is missing,
else 0.
"""

import csv
import json
import os
import sys


def load(path):
    """A report file with every runtime_ms field dropped."""
    with open(path, encoding="utf-8") as f:
        if path.endswith(".csv"):
            return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in csv.DictReader(f)]
        return json.load(f, object_hook=lambda d: {k: v for k, v in d.items() if k != "runtime_ms"},
                         parse_float=lambda s: ("float", s), parse_constant=lambda s: ("float", s))


def main(a: str, b: str) -> int:
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    assert "index.csv" in names, names
    differ = [n for n in names
              if not (os.path.exists(os.path.join(a, n)) and os.path.exists(os.path.join(b, n)))
              or load(os.path.join(a, n)) != load(os.path.join(b, n))]
    print(f"{len(names)} report files, {len(differ)} differ beyond runtime_ms: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
