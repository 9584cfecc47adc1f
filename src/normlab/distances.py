"""Distance kernels in a domain norm: from columns to finite sets of
representatives, paired or by slot, and to the sphere a block-structured
attainment set spans.
"""

from __future__ import annotations

import numpy as np

from .spaces import INF, SequenceSpace, pnorm_cols
from .operators import APPLY_CHUNK


def _min_dists(space, C, reps) -> np.ndarray:
    """Distance from each column of C[:, j] to the nearest of reps[j] (inf if none): slot i measures every
    row against its i-th representative, in calls of up to APPLY_CHUNK columns (temporaries stay in cache)."""
    n = np.array([len(r) for r in reps])
    start = np.cumsum(n) - n
    D, step = np.empty((n.sum(), C.shape[2])), max(1, APPLY_CHUNK // (C.shape[2] or 1))
    for i in range(n.max(initial=0)):
        js = np.flatnonzero(n > i)
        for j in np.split(js, range(step, js.size, step)):
            Y = C[:, j] - np.column_stack([reps[r][i] for r in j])[:, :, None]
            D[start[j] + i] = space.norm_cols(Y.reshape(C.shape[0], -1)).reshape(j.size, -1)
    out = np.full((n.size, C.shape[2]), INF)
    for r in np.flatnonzero(n):
        D[start[r]:start[r] + n[r]].min(axis=0, out=out[r])
    return out


def _pairing(count, own):
    """Pair column c of a batch with each representative of its owner
    own[c], owner o's being columns first[o] : first[o] + count[o] of their
    stack.  Returns the paired columns and representatives, the columns
    with any pair, and where their pairs start."""
    first = np.cumsum(count) - count
    n = count[own]
    start = np.cumsum(n) - n
    col = np.repeat(np.arange(own.size), n)
    rows = np.flatnonzero(n)
    return col, first[own][col] + np.arange(col.size) - start[col], rows, start[rows]


def _paired_dists(space, R, X, pairs) -> np.ndarray:
    """Distance from each column of X to the nearest representative (column
    of R) it is paired with, inf with none."""
    col, rep, rows, start = pairs
    d = np.full(X.shape[1], INF)
    if col.size:
        d[rows] = np.minimum.reduceat(space.norm_cols(X[:, col] - R[:, rep]), start)
    return d


def _slice_space(space, a: int, b: int):
    """The norm of `space` on its coordinates a:b (a block of a BlockSpace)."""
    if isinstance(space, SequenceSpace):
        return SequenceSpace(b - a, space.p)
    return space.blocks[space._offsets().index(a)]


def _sphere_dists(space, X, P, slices, atts) -> np.ndarray:
    """Distance from each column x of X to { t_i a_i on slice i, 0 elsewhere :
    a_i in atts[i], t >= 0, ||t||_P = 1 }, P < inf: dist^P is ||x off the
    slices||^P + min over t of sum_i min_a ||x_i - t_i a||^P.  When each slice
    is l_P and its attainers are exactly +-a for a signed axis a (any a if
    P = 2), it is exact: with v_i the coordinate (projection) of x_i on a and
    u the rest of x, dist^P = ||u||^P + |1 - ||v||_P|^P."""
    rest, V = X.copy(), []
    for (a, b), A in zip(slices, atts):
        lp_pair = getattr(_slice_space(space, a, b), "p", None) == P and len(A) == 2
        if not (lp_pair and np.array_equal(A[0], -A[1]) and (P == 2.0 or np.count_nonzero(A[0]) == 1)):
            return _multiplier_dists(space, X, P, slices, atts)
        V.append(A[0] @ X[a:b])
        rest[a:b] -= np.outer(A[0], V[-1])
    return (space.norm_cols(rest) ** P + np.abs(1.0 - pnorm_cols(np.array(V), P)) ** P) ** (1.0 / P)


def _multiplier_dists(space, X, P, slices, atts, levels: int = 5, grid: int = 65) -> np.ndarray:
    """`_sphere_dists` for any attainers.  With w_i = t_i^P the constraint is
    sum w = 1: on a grid of each w_i, cells are taken steepest first (those a
    multiplier admits) until it holds, and the grid is zoomed in `levels`
    times.  t is rescaled onto ||t||_P = 1: the distance is never below the
    true one, and equals it for convex h_i(w_i), as with axis attainers."""
    k, n = len(slices), X.shape[1]
    rest = X.copy()
    for a, b in slices:
        rest[a:b] = 0.0
    spaces = [_slice_space(space, a, b) for a, b in slices]

    def f(T):  # (k, g, n) -> min over slice i's attainers a of ||x_i - t a||^P
        return np.stack([
            np.min([sp.norm_cols((X[a:b, None, :] - v[:, None, None] * t).reshape(b - a, -1)) for v in A],
                   axis=0).reshape(t.shape)
            for (a, b), sp, A, t in zip(slices, spaces, atts, T)
        ]) ** P

    lo, hi = np.zeros((k, 1, n)), np.ones((k, 1, n))
    for _ in range(levels):
        W = lo + (hi - lo) * np.linspace(0.0, 1.0, grid)[:, None]
        dw = np.diff(W, axis=1).reshape(-1, n)
        order = np.argsort(np.diff(f(W ** (1.0 / P)), axis=1).reshape(-1, n) / dw, axis=0, kind="stable")
        take = np.zeros(dw.shape, dtype=bool)
        filled = lo.sum(axis=0) + np.cumsum(np.take_along_axis(dw, order, axis=0), axis=0)
        np.put_along_axis(take, order, filled <= 1.0, axis=0)
        w = lo + (take * dw).reshape(k, grid - 1, n).sum(axis=1, keepdims=True)
        cell = (hi - lo) / (grid - 1)
        lo, hi = np.maximum(w - 2.0 * cell, 0.0), np.minimum(w + 2.0 * cell, 1.0)
    t = w ** (1.0 / P)
    t = t / pnorm_cols(t[:, 0], P)
    return (space.norm_cols(rest) ** P + f(t).sum(axis=0)[0]) ** (1.0 / P)
