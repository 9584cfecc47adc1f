"""Spans around the calls into normlab's public functions, from the benchmark side.

`Tracer.install` wraps each function in `TRACED` and rebinds the wrapper in
every normlab module that holds the original: `from .normcomp import opnorm`
gives the importing module its own reference, so patching the defining
module alone would miss those calls.  `OperatorPQ.range_values` is wrapped
on the class.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; `write` puts them on disk at the end of the run.  Self time is a
span's duration minus the durations of its child spans.  Inclusive time
`.s` counts only the outermost span of a name, so recursion (`na_set` on
structural blocks, `dual_attainer` on block spaces) is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (layer, function, stats).  Stats beyond calls/s/self_s read the call:
# columns  - columns evaluated, the last axis of the returned array
# evals    - the NormResult's n_evals
# eps      - the profile's number of eps
# distinct_ratio - distinct operators (first argument) per call
TRACED = (
    ("spaces", "pnorm", ("calls", "self_s")),
    ("spaces", "pnorm_cols", ("calls", "columns", "self_s")),
    ("spaces", "sphere_grid_2d", ("calls", "columns", "self_s")),
    ("operators", "range_values", ("calls", "columns", "self_s")),
    ("operators", "norm_dual_vector", ("calls", "self_s")),
    ("operators", "dual_attainer", ("calls", "self_s")),
    ("normcomp", "opnorm", ("calls", "s", "self_s", "evals", "distinct_ratio")),
    ("normcomp", "opnorm_oracle", ("calls", "s")),
    ("normcomp", "ascend", ("calls", "s", "self_s")),
    ("normcomp", "polish", ("calls", "s")),
    ("normcomp", "cluster_representatives", ("calls", "s")),
    ("attainment", "na_set", ("calls", "s", "self_s", "distinct_ratio")),
    ("attainment", "sbpb_profile", ("calls", "s", "self_s", "eps")),
    ("attainment", "dist_to_set", ("calls",)),
    ("convexity", "kim_lee_check", ("s", "self_s")),
    ("convexity", "delta_numeric", ("s", "self_s")),
    ("repro", "reproduce", ("calls", "s", "self_s")),
    ("repro", "positive_side_batch", ("s",)),
    ("repro", "write_reports", ("s",)),
    ("cli", "main", ("s", "self_s")),
)

# the wall time of a traced round, for the tracing overhead against wall_s
TRACED_WALL = "traced.wall_s"

UNITS = {"calls": "count", "columns": "count", "evals": "count", "eps": "count",
         "s": "s", "self_s": "s", "distinct_ratio": "ratio"}
BETTER = {"distinct_ratio": "higher"}
COUNT_STATS = ("calls", "columns", "evals", "eps", "distinct_ratio")


def metric_specs() -> list[dict]:
    """The per-layer metrics, in the form BENCHMARK.json lists them."""
    out = []
    for layer, fn, stats in TRACED:
        for st in stats:
            out.append({"name": f"{layer}.{fn}.{st}", "unit": UNITS[st],
                        "better": BETTER.get(st, "lower")})
    out.append({"name": TRACED_WALL, "unit": "s", "better": "lower"})
    return out


def _operator_key(T) -> tuple:
    m = T.matrix
    return (m.tobytes(), m.shape, repr(T.domain), repr(T.range))


_EXTRACT = {
    "columns": lambda r: int(r.shape[-1]),
    "evals": lambda r: int(r.n_evals),
    "eps": lambda r: len(r.epsilons),
}


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn, _ in TRACED]
        self.reset()

    def reset(self):
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.stack = [-1]
        self.depth = [0] * len(self.names)
        self.sums = [dict() for _ in self.names]
        self.keys = [set() for _ in self.names]

    def _wrap(self, idx: int, fn, stats):
        extract = [(st, _EXTRACT[st]) for st in stats if st in _EXTRACT]
        distinct = "distinct_ratio" in stats
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_of.append(idx)
            self.parent.append(self.stack[-1])
            self.outer.append(self.depth[idx] == 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            self.depth[idx] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                self.start[i] = t0
                self.depth[idx] -= 1
                self.stack.pop()
            sums = self.sums[idx]
            for st, get in extract:
                sums[st] = sums.get(st, 0) + get(result)
            if distinct:
                self.keys[idx].add(_operator_key(args[0]))
            return result

        return traced

    def install(self, normlab) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "normlab" or name.startswith("normlab."))]
        for idx, (layer, fname, stats) in enumerate(TRACED):
            if fname == "range_values":
                cls = normlab.OperatorPQ
                cls.range_values = self._wrap(idx, cls.range_values, stats)
                continue
            orig = getattr(sys.modules[f"normlab.{layer}"], fname)
            wrapper = self._wrap(idx, orig, stats)
            for m in modules:
                for attr in [k for k, v in vars(m).items() if v is orig]:
                    setattr(m, attr, wrapper)

    def aggregate(self) -> dict:
        """Per-layer values of the spans recorded since the last reset."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, idx in enumerate(self.name_of):
            calls[idx] += 1
            own[idx] += dur[i] - child[i]
            if self.outer[i]:
                incl[idx] += dur[i]
        out = {}
        for idx, (layer, fname, stats) in enumerate(TRACED):
            for st in stats:
                if st == "calls":
                    v = calls[idx]
                elif st == "s":
                    v = incl[idx]
                elif st == "self_s":
                    v = own[idx]
                elif st == "distinct_ratio":
                    v = len(self.keys[idx]) / calls[idx] if calls[idx] else 0.0
                else:
                    v = self.sums[idx].get(st, 0)
                out[f"{layer}.{fname}.{st}"] = v
        return out

    def write(self, path) -> None:
        """The recorded spans as gzipped CSV: id, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("id,name,start,end,parent\n")
            for i, (idx, s, e, par) in enumerate(zip(self.name_of, self.start, self.end, self.parent)):
                f.write(f"{i},{self.names[idx]},{s!r},{e!r},{par}\n")
