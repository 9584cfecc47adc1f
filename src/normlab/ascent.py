"""Gradient ascent of ||T x|| on the unit sphere of a domain of any dimension.

`ascend` climbs every start of one operator at once; `_climb` climbs
columns under one matrix or one per column, kept feasible by an `admits`
test where the nD profile gives one; `_backtrack` is their one line search.
`_start_coords` gives multistart's deterministic and seeded starts.
"""

from __future__ import annotations

import numpy as np

from .spaces import INF, pnorm_cols, sample_sphere_coords
from .operators import OperatorPQ, apply_cols, dual_attainer, norm_dual_vector

ASCENT_ITERS = 500
FIRST_RUNGS = 8  # rungs of `_backtrack`'s first call: a failed step usually passes one or two halvings down


def ascend(T: OperatorPQ, X0, iters: int = ASCENT_ITERS):
    """Maximize ||T x||_range over the domain unit sphere from each column of
    X0 (a vector is one column) at once; returns the final columns and values.

    Primary step is the dual-map fixed point (exact power iteration for
    p = q = 2); on non-improvement a column falls back to a renormalized
    gradient step with halving, stopping below step 1e-12 (`_backtrack`: a
    step and its next seven halvings in one call, the rest in a second,
    with the bits of trying them one at a time).  Each column keeps its own
    step and stops once it stops improving, and every operation is
    column-invariant: a column ends with the bits it would reach alone.
    """
    X = np.array(X0, dtype=float).reshape(T.domain.dim, -1)
    X /= T.domain.norm_cols(X)
    f = _climb(T.domain, T.range, T.matrix, X, np.full(X.shape[1], 0.5), 1.0, 1e-12, 1e-15, iters)
    return X, f


def _climb(dom, rng, A, X, steps, cap, floor, gain, iters, admits=None):
    """Climb ||A x|| from every unit column x of X at once, in place, with A
    one matrix or one per column; returns the final values.  Without
    `admits` a column first tries the dual-map fixed point; then, or with
    `admits` only, the `_backtrack` line search along the gradient.  Each
    column stops once it stops improving."""
    Y = apply_cols(A, X)
    f = rng.norm_cols(Y)
    AT = np.swapaxes(A, -1, -2)
    live = np.arange(X.shape[1])
    for _ in range(iters):
        Z = apply_cols(AT if AT.ndim == 2 else AT[live], norm_dual_vector(rng, Y[:, live]))
        up = np.zeros(live.size, dtype=bool)
        if admits is None:
            C = dual_attainer(dom, Z)
            YC = apply_cols(A if A.ndim == 2 else A[live], C)
            fc = rng.norm_cols(YC)
            up = fc > f[live] + gain
            X[:, live[up]], Y[:, live[up]], f[live[up]] = C[:, up], YC[:, up], fc[up]
        zn = pnorm_cols(Z, 2.0)
        back = np.flatnonzero(~up & (zn > 0.0))  # the gradient fallback's columns, into live
        up[back] = _backtrack(dom, rng, A, X, Y, f, Z[:, back] / zn[back], live[back], steps, cap, floor, gain,
                              admits)
        live = live[up]
        if not live.size:
            break
    return f


def _backtrack(dom, rng, A, X, Y, f, D, cols, steps, cap, floor, gain, admits=None):
    """Renormalized steps from the columns `cols` of X along the directions
    D, halving from `steps[cols]` (each above `floor`) until a column's value
    beats f by more than `gain` at a point `admits(XT, cols)` accepts, or its
    step would fall to `floor`.  A is one matrix, or one per column of X.
    Accepted points go into X, Y and f, and twice their step, capped at
    `cap`, into `steps`; returns which columns were accepted.

    The first call evaluates each column's step and its next seven halvings
    above the floor; a column that none of those pass evaluates the rest of
    its ladder, every halving above the floor, in a second call.  Each takes
    its first rung that passes.  The rungs are exact powers of two apart and
    evaluation is column-invariant, so every column gets the bits of halving
    one evaluation at a time."""
    accepted = np.zeros(cols.size, dtype=bool)
    idx, top = np.arange(cols.size), steps[cols]
    for rest in (False, True):
        if rest:  # the failed columns' later halvings
            top = np.ldexp(top[~hit], -FIRST_RUNGS)
            idx, top = idx[~hit][top > floor], top[top > floor]
        if not idx.size:
            break
        rungs = int(np.log2(top.max() / floor)) + 2 if rest else FIRST_RUNGS  # the rest: one spare
        S = np.ldexp(top[:, None], -np.arange(rungs))
        on = S > floor
        on[:, 0] = True
        r, i = np.nonzero(on)  # a prefix of each row, rungs in order
        j = cols[idx[r]]
        XT = X[:, j] + S[r, i] * D[:, idx[r]]
        XT /= dom.norm_cols(XT)
        YT = apply_cols(A if A.ndim == 2 else A[j], XT)
        ft = rng.norm_cols(YT)
        up = ft > f[j] + gain
        if admits is not None:  # asked only where the value gains
            up[up] = admits(XT[:, up], j[up])
        ok = np.zeros(on.shape, dtype=bool)
        ok[r, i] = up
        hit, first = ok.any(axis=1), ok.argmax(axis=1)
        n = on.sum(axis=1)
        h, at = np.flatnonzero(hit), (np.cumsum(n) - n + first)[hit]  # into XT
        jh = cols[idx[h]]
        X[:, jh], Y[:, jh], f[jh], steps[jh] = XT[:, at], YT[:, at], ft[at], np.minimum(cap, 2.0 * S[h, first[h]])
        accepted[idx[h]] = True
    return accepted


def _start_coords(T: OperatorPQ, seed: int) -> np.ndarray:
    dim = T.domain.dim
    cols = [np.eye(dim), -np.eye(dim)]
    p = getattr(T.domain, "p", None)
    if p == INF and dim <= 8:
        signs = np.array(
            [[1.0 if (k >> i) & 1 else -1.0 for k in range(2 ** dim)] for i in range(dim)]
        )
        cols.append(signs)
    cols.append(sample_sphere_coords(T.domain, 64, seed))
    X = np.hstack(cols)
    return X / T.domain.norm_cols(X)


def objective_grad(T: OperatorPQ, x) -> np.ndarray:
    """Gradient of x -> ||T x||_q^q for finite q > 1: T^t (q sign(y) |y|^(q-1))."""
    q = getattr(T.range, "p", None)
    if q is None or q == INF or q <= 1.0:
        raise ValueError("objective_grad requires a flat range with finite q > 1; "
                         "kinked norms are handled by the subgradient fallback")
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("objective_grad requires nonzero x")
    y = T.matrix @ x
    return T.matrix.T @ (q * np.sign(y) * np.abs(y) ** (q - 1.0))
