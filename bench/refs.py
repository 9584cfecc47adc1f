"""Reference values computed apart from normlab, with the standard library only.

Every value is a ``Decimal`` at 60 significant digits.  Float inputs are
converted exactly (``Decimal(float)`` is exact), so a comparison of a float
bound against a reference is a comparison of two exact numbers.  Magnitudes
use ``copy_abs()``: ``abs()`` and unary ``+`` round to the context.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

PREC = 60

INF = math.inf


def _dec(x) -> Decimal:
    """The exact value of a float."""
    return Decimal(float(x))


def _pnorm(xs, p) -> Decimal:
    """l_p norm of a sequence of floats, exact inputs, 60-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = PREC
        a = [_dec(v).copy_abs() for v in xs]
        if p == INF:
            return max(a)
        if p == 1.0:
            return sum(a, Decimal(0))
        P = _dec(p)
        s = sum((v ** P for v in a if v), Decimal(0))
        return s ** (Decimal(1) / P) if s else Decimal(0)


def dual(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def opnorm_ref(rows, p: float, q: float) -> Decimal | None:
    """||A||_{p->q} where a closed form exists, else None.

    p = q = 2 on a 2x2 matrix: the largest singular value,
    sqrt((S + sqrt(S^2 - 4 D^2)) / 2) with S the squared Frobenius norm and D
    the determinant.  p = 1: the largest column q-norm.  q = inf: the largest
    row p'-norm.
    """
    if p == 1.0:
        cols = list(zip(*rows))
        return max(_pnorm(c, q) for c in cols)
    if q == INF:
        pd = dual(p)
        return max(_pnorm(r, pd) for r in rows)
    if p == 2.0 and q == 2.0 and len(rows) == 2 and len(rows[0]) == 2:
        with localcontext() as ctx:
            ctx.prec = PREC
            (a, b), (c, d) = [[_dec(v) for v in r] for r in rows]
            S = a * a + b * b + c * c + d * d
            det = a * d - b * c
            disc = S * S - 4 * det * det
            return ((S + disc.sqrt()) / 2).sqrt()
    return None


def kim_lee_l2_min_eta(eps: float) -> Decimal:
    """min over unit functionals on l_2^2 of eta(eps, x*): exactly eps^2 / 2."""
    with localcontext() as ctx:
        ctx.prec = PREC
        e = _dec(eps)
        return e * e / 2


def modulus_ref(eps: float, p: float) -> tuple[Decimal, bool]:
    """(delta_{l_p^2}(eps), two_sided).

    2 <= p < inf: the closed form 1 - (1 - (eps/2)^p)^(1/p).  p in {1, inf}:
    0, since the unit sphere contains a segment of length 2.  1 < p < 2:
    Hanner's modulus, the root of (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2,
    attained in two dimensions by the pair (a, b), (b, a).  The numeric sweep
    is a sampled minimum, so it may only sit above the true value; the
    closed forms also bound it from above (two_sided), Hanner's root is used
    as the lower bound only.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        e = _dec(eps)
        if p == 1.0 or p == INF:
            return Decimal(0), True
        P = _dec(p)
        if p >= 2.0:
            return 1 - (1 - (e / 2) ** P) ** (1 / P), True
        half = e / 2
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(220):
            mid = (lo + hi) / 2
            v = (1 - mid + half) ** P + (1 - mid - half).copy_abs() ** P
            if v > 2:
                lo = mid
            else:
                hi = mid
        return lo, False


def two_pow_inv(p: float) -> Decimal:
    """2^(1/p), the p-distance between e1 and +-e2."""
    with localcontext() as ctx:
        ctx.prec = PREC
        if p == INF:
            return Decimal(1)
        return Decimal(2) ** (1 / _dec(p))


def arc_midpoint(q: float) -> Decimal:
    """2 / 2^(1/2 + 1/q): the l_q rotation's value at (1, 1)/sqrt(2)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        return 2 / Decimal(2) ** (Decimal("0.5") + 1 / _dec(q))


def one_minus(x: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return 1 - _dec(x)


def ratio(num: int, den: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return Decimal(num) / Decimal(den)
