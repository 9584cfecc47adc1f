#!/usr/bin/env python3
"""normlab benchmark: one workload in one process.

    python3 bench/run.py --workload gallery --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; normlab is imported from its `src/`.
A run sets up the workload, then repeats whole rounds of it for as long as
the next round is due to end within --seconds (at least one round), checks
every output, and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics (wall_s, setup_s, op_p50_ms,
peak_rss_mb); --trace 1 wraps normlab's public functions and gives the
per-layer metrics of tracer.TRACED instead, counts per round, times as the
median over rounds.  `attempted` and `failed` are one round's counts, which
every round must repeat.  Problems and run metadata go to stderr and to
.bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "gallery": "gallery",
    "operator-batch": "operator_batch",
    "functional-scan": "functional_scan",
}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no normlab source)."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread: the operators are at most 6x6.  Before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_normlab():
    if not (SRC / "normlab" / "__init__.py").is_file():
        raise SetupError(f"no normlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import normlab
    import normlab.cli  # noqa: F401  (the gallery drives cli.main)

    if not Path(normlab.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"normlab imported from {normlab.__file__}, not from {SRC}")
    return normlab


def make_workload(name: str, seed: int, normlab):
    """The workload module's inputs for this seed; imports it from the benchmark directory."""
    module = importlib.import_module(WORKLOADS[name])
    return module.Workload(seed, str(OUT), normlab)


def setup_probe(name: str, seed: int) -> float:
    """import normlab + generating the workload's inputs, in this fresh process,
    in reference-speed seconds."""
    t0 = time.perf_counter()
    normlab = import_normlab()
    make_workload(name, seed, normlab)
    raw = time.perf_counter() - t0
    from timing import REF_KERNEL_S, probe

    probe()  # the first run pays numpy's lazy set-up
    return raw * REF_KERNEL_S / statistics.median(probe() for _ in range(5))


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh processes: the import is only cold once per process."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_metadata(normlab) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "normlab": normlab.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    pin_threads()

    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        normlab = import_normlab()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # numpy is loaded by now, under the pinned thread counts
    from timing import Round, SpeedClock
    from tracer import COUNT_STATS, TRACED_WALL, Tracer, metric_specs

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(normlab)
    workload = make_workload(args.workload, args.seed, normlab)
    setup_s = measure_setup(args.workload, args.seed)

    rounds: list[Round] = []
    layers, problems = [], []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        with SpeedClock(periodic=tracer is None) as clock:
            rnd = workload.run_round(clock)
        rnd.scale(clock)
        rounds.append(rnd)
        problems.extend(rnd.problems)
        if tracer is not None:
            # per-layer times in reference-speed seconds, like the wall time
            scale = rnd.wall / rnd.wall_raw
            layers.append({k: v * scale if k.rsplit(".", 1)[1] not in COUNT_STATS else v
                           for k, v in tracer.aggregate().items()})
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break  # the next round would end past --seconds

    # every round attempts the same operations, so the counts are one round's
    attempted, failed = rounds[0].attempted, rounds[0].failed
    if any((r.attempted, r.failed) != (attempted, failed) for r in rounds):
        problems.append(f"attempted/failed differ between rounds: "
                        f"{[(r.attempted, r.failed) for r in rounds]}")
    wall_s = statistics.median(r.wall for r in rounds)
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1000.0 * statistics.median(t for r in rounds for t in r.op), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {}
        for spec in metric_specs():
            name = spec["name"]
            if name == TRACED_WALL:
                value = wall_s
            elif name.rsplit(".", 1)[1] in COUNT_STATS:
                value = layers[0][name]
                if any(lay[name] != value for lay in layers):
                    problems.append(f"{name} differs between rounds: {[lay[name] for lay in layers]}")
            else:
                value = statistics.median(lay[name] for lay in layers)
            metrics[name] = (value, spec["unit"])
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv.gz")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "round_walls_raw_s": [r.wall_raw for r in rounds],
        "attempted": attempted, "failed": failed,
        "op_times_s": [t for r in rounds for t in r.op],
        "op_times_raw_s": [t for r in rounds for t in r.op_raw],
        "problems": problems, **run_metadata(normlab),
    }
    with open(OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("problems", "op_times_s", "op_times_raw_s")}), file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
