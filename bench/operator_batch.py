"""Workload `operator-batch`: seeded random operators over {1, 1.5, 2, 3, inf}^2.

For each (p, q) pair one round analyses two operators: a 2x2 operator in
full (`opnorm` -> `na_set` -> `sbpb_profile` at the 32 default eps) and an
n x n operator with n = 3 + k mod 4 for the k-th pair, normed by
multistart.  One operation is one pair, both analyses: the two halves take
different times, and the median of their mixture would fall in the gap
between them.

Every 2D result with an exact reference must have
lower_bound <= ref <= upper_bound.  `_sweep2d` closes every bracket to zero
width and rounds neither bound outward, so the bracket excludes the norm
whenever the norm is not a float64; such an analysis is a failed
operation.  For the seven reference pairs whose norm is the l_r norm of a
row or column with r in {1.5, 2, 3}, or a singular value, the norm of a
Gaussian draw is irrational (but for draws of vanishing probability), so
the seeded operator fails on every seed.  For the three pairs whose norm is
a largest entry or a largest sum of entries, (1, 1), (1, inf) and
(inf, inf), whether the bracket holds turns on the last bit of rounding and
so on the draw; their 2x2 operators come from the constant FIXED_SEED, so
that `failed` is the same on every seed (9 of 25).  The seed draws the
other 22 2x2 operators, the 25 n x n operators and the sample vectors.

Checks, with the benchmark's own arithmetic (refs.py, plain floats):
|value - ref| <= 2 tol wherever a reference exists; every witness attains
value - tol; no unit vector of a benchmark-drawn sample exceeds
upper_bound; rho(eps) is nonincreasing, eta >= 0 and NA(T) is non-empty;
a multistart value never exceeds its reference beyond rounding and lies
within 1e-6 of it.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

import numpy as np

import refs
from timing import Round

INF = math.inf
EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
PAIRS = [(p, q) for p in EXPONENTS for q in EXPONENTS]
DIMS = (3, 4, 5, 6)  # the n x n operator of the k-th pair has n = DIMS[k % 4]
# the 2x2 operators of the pairs whose norm is a largest entry or sum of entries
FIXED_SEED = 1604
FIXED_PAIRS = {(1.0, 1.0), (1.0, INF), (INF, INF)}
SAMPLES = 64
# relative rounding of a float p-norm of at most 10 terms, with margin
ROUND_REL = 1e-13
MULTISTART_GAP = 1e-6


def _gauss_matrix(rng: random.Random, rows: int, cols: int) -> list[list[float]]:
    return [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]


def _pnorm(xs, p: float) -> float:
    a = [abs(v) for v in xs]
    m = max(a)
    if p == INF or m == 0.0:
        return m
    return m * math.fsum((v / m) ** p for v in a) ** (1.0 / p)


def _apply(rows, x):
    return [math.fsum(r * v for r, v in zip(row, x)) for row in rows]


def _value(rows, x, p, q) -> float:
    """||A x||_q / ||x||_p in plain float arithmetic."""
    return _pnorm(_apply(rows, x), q) / _pnorm(x, p)


class Case:
    """One operator with its reference, drawn before timing starts."""

    def __init__(self, rows, p, q, normlab):
        self.rows, self.p, self.q = rows, p, q
        n = len(rows)
        sl = normlab.SequenceSpace
        self.T = normlab.OperatorPQ(np.asarray(rows), sl(n, p), sl(n, q))
        self.ref = refs.opnorm_ref(rows, p, q)
        self.eps = normlab.default_epsilons(self.T.domain)


def _analyse(nl, c):
    """One 2D operator in full: norm, attainment set, 32-eps profile."""
    nr = nl.opnorm(c.T)
    na = nl.na_set(c.T, norm_result=nr)
    return nr, na, nl.sbpb_profile(c.T, c.eps, norm_result=nr, na=na)


class Workload:
    name = "operator-batch"

    def __init__(self, seed: int, out_dir: str, normlab):
        self.nl = normlab
        rng = random.Random(seed)
        fixed_rng = random.Random(FIXED_SEED)
        self.flat, self.multi = [], []
        for k, (p, q) in enumerate(PAIRS):
            rows = _gauss_matrix(fixed_rng if (p, q) in FIXED_PAIRS else rng, 2, 2)
            self.flat.append(Case(rows, p, q, normlab))
            n = DIMS[k % len(DIMS)]
            self.multi.append(Case(_gauss_matrix(rng, n, n), p, q, normlab))
        self.samples = [[rng.gauss(0.0, 1.0) for _ in range(max(DIMS))] for _ in range(SAMPLES)]

    def run_round(self, clock) -> Round:
        nl = self.nl
        rnd = Round()
        for flat, multi in zip(self.flat, self.multi):
            (nr, na, prof), raw, span = clock.time(_analyse, nl, flat)
            nr_n, raw_n, span_n = clock.time(nl.opnorm, multi.T)
            rnd.add(raw + raw_n, (span[0], span_n[1]))
            excluded = flat.ref is not None and not self._bracket_holds(nr, flat.ref)
            rnd.record(self._check_norm(flat, nr) + self._check_profile(flat, na, prof)
                       + self._check_norm(multi, nr_n) + self._check_multistart(multi, nr_n),
                       failed=excluded)
        return rnd

    def _check_multistart(self, c: Case, nr) -> list[str]:
        if c.ref is None:
            return []
        errs = []
        v = Decimal(nr.value)
        if v > c.ref * (1 + Decimal(ROUND_REL)):
            errs.append(f"{self._tag(c)}: multistart {nr.value!r} exceeds ref {float(c.ref)!r}")
        if (v - c.ref).copy_abs() > Decimal(MULTISTART_GAP):
            errs.append(f"{self._tag(c)}: multistart {nr.value!r} misses ref {float(c.ref)!r}")
        return errs

    @staticmethod
    def _tag(c) -> str:
        return f"{len(c.rows)}x{len(c.rows)} p={c.p} q={c.q}"

    @staticmethod
    def _bracket_holds(nr, ref: Decimal) -> bool:
        return Decimal(nr.lower_bound) <= ref <= Decimal(nr.upper_bound)

    def _check_norm(self, c: Case, nr) -> list[str]:
        errs = []
        tag = self._tag(c)
        if c.ref is not None and (Decimal(nr.value) - c.ref).copy_abs() > Decimal(2 * nr.tol):
            errs.append(f"{tag}: value {nr.value!r} vs ref {float(c.ref)!r} beyond 2 tol")
        if not nr.witnesses:
            errs.append(f"{tag}: no witness")
        for w in nr.witnesses:
            x = [float(v) for v in w.coords]
            if _value(c.rows, x, c.p, c.q) < nr.value - nr.tol:
                errs.append(f"{tag}: witness {x} attains less than value - tol")
        n = len(c.rows)
        top = max(_value(c.rows, s[:n], c.p, c.q) for s in self.samples)
        if top > nr.upper_bound * (1.0 + ROUND_REL):
            errs.append(f"{tag}: sampled value {top!r} above upper_bound {nr.upper_bound!r}")
        return errs

    def _check_profile(self, c: Case, na, prof) -> list[str]:
        tag = self._tag(c)
        errs = []
        if not na.points:
            errs.append(f"{tag}: NA(T) is empty")
        if any(b > a for a, b in zip(prof.rho, prof.rho[1:])):
            errs.append(f"{tag}: rho(eps) increases")
        if any(h < 0.0 for h in prof.eta):
            errs.append(f"{tag}: negative eta")
        if len(prof.eta) != 32:
            errs.append(f"{tag}: profile has {len(prof.eta)} eps, 32 due")
        return errs
