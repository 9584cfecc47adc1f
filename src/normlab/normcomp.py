"""Operator norm computation with certificates.

2D domains get a certified branch-and-bound sweep: a dense angle grid
(>= 2e4 points) with rigorous per-cell upper bounds, refined until the
bracket [lower, upper] closes to the requested tolerance.  The per-cell
bound uses |g(y) - g(x)| <= L * ||y - x||_1 with L = max column range-norm,
plus the fact that both sphere coordinates are monotone within a grid cell
that does not straddle a quadrant (octant for the max-norm square) boundary.
Refinement goes level by level, each level one array pass over the live
cells: prune, split (one evaluation call for all midpoints), bound the
children.  At most DEFAULT_BUDGET cells are split, a constant; the level
that would pass it splits the highest bounds first, and the bounds of the
cells left unsplit stay in the bracket.  A result's n_evals counts every
column the sweep evaluates, zoom probes included.  Operators that share a
2D domain and a range are swept together, as one array of cells with an
owner per column, each with the result of its lone sweep.

`opnorm` tries, in order: an exactly reducible structure (block diagonal
with outer domain exponent <= outer range exponent, or a zero-padded 2D
block), composing its parts' norms (`_composed`, which composes the oracle
too); the row closed form max_i ||r_i||_p' (`_row_norms`) of a functional,
or of l_p^n (n >= 3) into l_inf^m; the 2D sweep; multistart ascent (one
batched `ascend`), flagged heuristic.  `_norms` decides how a group's
certified norms are taken: by rows or swept.

An independent brute-force grid oracle cross-checks every certified value.
Inside `_sharing` (one `repro.run_all`) 2D results are shared by operator content.
"""

from __future__ import annotations

import copy
import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from .spaces import (
    INF,
    TWO_PI,
    SequenceSpace,
    UnitVector,
    _sphere_grid_3d,
    dual_exponent,
    pnorm_cols,
    sample_sphere_coords,
    sphere_param_2d,
    uniform_grid_2d,
    unit,
)
from .operators import OperatorPQ, apply_cols, dual_attainer, norm_dual_vector, space_from_json, to_json

METHOD_SWEEP2D = "SWEEP2D"
METHOD_MULTISTART = "MULTISTART"
METHOD_ORACLE = "ORACLE"
METHOD_EXACT = "EXACT"

DEFAULT_GRID = 24576  # multiple of 8: quadrant and square-corner breakpoints on-grid
DEFAULT_BUDGET = 40000  # cells one 2D sweep splits at most
ASCENT_ITERS = 500
FIRST_RUNGS = 8  # rungs of `_backtrack`'s first call: a failed step usually passes one or two halvings down
ZOOM_PROBES = 33  # probes per bracket and level of `_zoom_max`


class UncertifiedNormError(RuntimeError):
    """Raised when an operation requires a certified norm but got a heuristic one."""


@dataclass
class NormResult:
    """Computed operator norm with witnesses and a two-sided certificate."""

    value: float
    witnesses: list
    method: str
    grid_size: int
    tol: float
    lower_bound: float
    upper_bound: float
    certified: bool
    n_evals: int = 0
    notes: str = ""
    space: object = None  # the domain
    # in memory only, what the result was computed from: a 2D sweep's uniform
    # base grid, or a reduced operator's part results in `_reduce` order
    pool: EvalPool | None = field(default=None, repr=False, compare=False)
    parts: list | None = field(default=None, repr=False, compare=False)

    to_json_dict = to_json

    @staticmethod
    def from_json_dict(d: dict) -> "NormResult":
        space = space_from_json(d["space"])
        return NormResult(**dict(d, witnesses=[UnitVector(w, space) for w in d["witnesses"]], space=space))


@dataclass
class EvalPool:
    """Evaluation pool backing witness extraction and attainment scans."""

    coords: np.ndarray  # (dim, n)
    values: np.ndarray  # (n,)
    thetas: np.ndarray | None = None  # set for 2D sweep pools, aligned with columns


_SHARED = ContextVar("shared_2d_results", default=None)  # the store of the innermost open `_sharing`


@contextmanager
def _sharing():
    """Share 2D sweeps, oracles and attainment sets (`_shared`) in this context until the block exits."""
    token = _SHARED.set({} if _SHARED.get() is None else _SHARED.get())
    try:
        yield
    finally:
        _SHARED.reset(token)


def _shared(kind, ops, run, *key):
    """run(ops, *key), one result per operator, through the store of `_sharing`: an operator between
    sequence spaces is looked up by its matrix bits and spaces, `kind` and `key` (any other, a `Norm2D`'s
    say, is run), the misses in one call.  The store keeps no pool; a hit is a copy of its own, no pool."""
    store = _SHARED.get()
    keys = [(kind, T.matrix.shape, T.matrix.tobytes(), T.domain, T.range) + key
            if store is not None and type(T.domain) is type(T.range) is SequenceSpace else None for T in ops]
    out = [copy.deepcopy(store.get(k)) if k else None for k in keys]
    miss = [i for i, r in enumerate(out) if r is None]
    for i, r in zip(miss, run([ops[i] for i in miss], *key) if miss else ()):
        out[i] = r
        if keys[i]:
            store[keys[i]] = copy.deepcopy(replace(r, pool=None) if isinstance(r, NormResult) else r)
    return out


def _zoom_max(f, a, b):
    """Maximization on every bracket [a_i, b_i] at once, by zooming.

    A level probes ZOOM_PROBES equally spaced interior angles of every live
    bracket in one call `f(t, idx)`, `idx` the (nondecreasing) bracket of
    each probe, so each bracket may have its own objective, then keeps the
    two cells around the middle of the first run of the bracket's largest
    values.  A bracket stops once no wider than golden section's after 48
    steps, (b - a) 0.618^48, or below 1e-15, after one level at least.
    Elementwise steps give each bracket the bits it gets alone.  Returns
    the arrays (argmax, max) of the best probe seen, ties to the first.
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    stop = (b - a) * ((math.sqrt(5.0) - 1.0) / 2.0) ** 48
    u = np.arange(ZOOM_PROBES + 2) / (ZOOM_PROBES + 1)  # the cell ends of a level, as fractions
    t_best, v_best = np.empty(a.size), np.full(a.size, -np.inf)
    live = np.arange(a.size)
    while live.size:
        lo, w = a[live], b[live] - a[live]
        T = lo[:, None] + w[:, None] * u[1:-1]
        V = f(T.ravel(), np.repeat(live, ZOOM_PROBES)).reshape(T.shape)
        m = V.max(axis=1)
        top = V == m[:, None]
        first = top.argmax(axis=1)
        end = (~top & (np.arange(ZOOM_PROBES) > first[:, None])).argmax(axis=1)  # 0: the run reaches the last probe
        k = (first + np.where(end > 0, end, ZOOM_PROBES) - 1) // 2
        better = m > v_best[live]
        t_best[live[better]], v_best[live[better]] = T[better, k[better]], m[better]
        a[live], b[live] = lo + w * u[k], lo + w * u[k + 2]
        w = b[live] - a[live]
        live = live[(w > stop[live]) & (w >= 1e-15)]
    return t_best, v_best


def _bisect(f, lo, hi, level, lo_in):
    """Bisect every bracket [lo_i, hi_i] across which f crosses level_i, at once.

    `lo_in[i]` tells whether f(lo_i) >= level_i.  Returns the final end on the
    side where f >= level.  A step depends only on (lo, hi), so once a step
    moves no end none will: stopping there gives the ends of 60 halvings.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    for _ in range(60):  # 60 halvings take any angle bracket below one ulp
        mid = 0.5 * (lo + hi)
        to_lo = (f(mid) >= level) == lo_in
        if not np.any(mid != np.where(to_lo, lo, hi)):
            break
        lo = np.where(to_lo, mid, lo)
        hi = np.where(to_lo, hi, mid)
    return np.where(lo_in, lo, hi)


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


def _column_lipschitz(T: OperatorPQ) -> float:
    """L with ||T v||_range <= L ||v||_1: the max column range-norm."""
    cols = T.range.norm_cols(T.matrix)
    return float(np.max(cols)) if cols.size else 0.0


def _angle_grid(space, grid: int):
    """The read-only uniform angle grid of a 2D space with `grid` cells, and its points (closed)."""
    thetas = np.linspace(0.0, TWO_PI, grid + 1)
    X = uniform_grid_2d(space, grid, closed=True)
    for a in (thetas, X):
        a.flags.writeable = False
    return thetas, X


def _grid_pool(T: OperatorPQ, thetas, X) -> EvalPool:
    """T's evaluation pool on a shared read-only angle grid."""
    g = T.range_values(X)
    g.flags.writeable = False
    return EvalPool(X, g, thetas)


def _base_pool(T: OperatorPQ, seed: int, base: EvalPool | None = None) -> EvalPool:
    """T's pool in dimension >= 3: samples + starts, or the points of `base` (same domain and seed)."""
    if base is None:
        samples = sample_sphere_coords(T.domain, 1024, seed + 7)
        base = EvalPool(np.hstack([samples, _start_coords(T, seed + 11)]), None)
    return replace(base, values=T.range_values(base.coords))


def _rounding_allowance(m: int) -> float:
    """A computed ||A x||_q into an m-dimensional range, or a cell bound, errs by at most (32 + m) u ||T||
    (u = 2^-53; sphere coordinates, products and slack 32 u, the q-norm's sum one u per term).  Bounds move
    out by twice that, the relative allowance returned (at least 2^-46): a bracket holds the exact norm."""
    return (64 + 2 * max(m, 32)) * 2.0 ** -53


def _sweep2d(ops: list[OperatorPQ], tol: float, grid: int) -> list[NormResult]:
    """The certified branch-and-bound sweeps of operators that share a 2D
    domain and a range, and their witnesses: one result per operator, each
    the same, bit for bit, as the sweep of that operator alone.

    The base grid is built once and shared by every result's pool.  The live
    cells of all operators are the columns of one array: rows (t, x_0, x_1, g)
    of the cell's left end over the same rows of its right end, with `own`
    the operator of each cell.  The cells are sorted by owner, each owner's
    in the order of its lone sweep.  Each refinement level evaluates the
    midpoints of all cells at once (one `sphere_grid` and one `norm_cols`
    call, each column by its owner's matrix), then bounds, prunes and splits
    every child against its owner's lower bound, tolerance and budget.
    """
    space, rng = ops[0].domain, ops[0].range
    n = len(ops)
    mats = np.array([T.matrix for T in ops])
    grid = max(grid, 20000)
    grid += (-grid) % 8
    thetas, X = _angle_grid(space, grid)
    n_evals = np.full(n, grid + 1)  # until the zoom, grid + 1 plus the cells split so far
    rnd = _rounding_allowance(rng.dim)
    up, down = 1.0 + rnd, 1.0 - rnd

    lip = np.array([_column_lipschitz(T) for T in ops])
    rate = None  # slack per unit theta on a generic 2D norm
    notes = ""
    if not isinstance(space, SequenceSpace):
        # generic 2D norm handle: estimated theta-Lipschitz bound, safety 2x
        speed = float(np.max((np.abs(np.diff(X[0])) + np.abs(np.diff(X[1]))) / np.diff(thetas)))
        rate = 2.0 * lip * speed
        notes = "cell bounds use a numerically estimated parametrization Lipschitz constant"

    lb, theta_best, prune_tol = np.empty(n), np.empty(n), np.empty(n)
    held = np.zeros(n)  # each operator's largest bound of a cell left unsplit

    def values(X, own):
        """||T x||_range for each column x of X, T the operator `own` names; counted in n_evals."""
        n_evals[:] += np.bincount(own, minlength=n)
        return rng.norm_cols(apply_cols(mats[0] if n == 1 else mats[own], X))

    def split(C, own):
        """The cells (columns of the rows C, operators `own`) to split, in
        the order owner, highest bound first, ties to the lower angle: cells
        whose rounded-up bound cannot beat their owner's rounded-down lower
        bound by more than 2 tol are pruned, and the rest split as far as the
        owner's budget allows.  The bounds of the cells not split go into
        `held`."""
        t0, a0, b0, g0, t1, a1, b1, g1 = C
        # on l_p^2 both sphere coordinates are monotone within a cell
        slack = lip[own] * (np.abs(a1 - a0) + np.abs(b1 - b0)) if rate is None else rate[own] * (t1 - t0)
        ub = (np.maximum(g0, g1) + slack) * up
        live = np.flatnonzero(ub > (lb * down + 2.0 * prune_tol)[own])
        s = live[np.lexsort((t0[live], -ub[live], own[live]))]
        o = own[s]
        s = s[np.arange(s.size) - np.searchsorted(o, o) < DEFAULT_BUDGET - (n_evals[o] - grid - 1)]
        ub[s] = 0.0  # every bound is >= 0: a run's largest is now that of a cell not split
        first = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])  # the first cell of each run of one owner
        np.maximum.at(held, own[first], np.maximum.reduceat(ub, first))
        return s

    # the base level, one operator at a time; the cells are views of the grid
    pools, cells = [], []
    for j, T in enumerate(ops):
        pool = _grid_pool(T, thetas, X)
        best = int(np.argmax(pool.values))
        lb[j], theta_best[j] = pool.values[best], thetas[best]
        prune_tol[j] = max(tol, 2.0 * rnd * lb[j])  # a tol below this floor would never prune the top cell
        ends = (thetas, *X, pool.values)
        C = [r[:-1] for r in ends] + [r[1:] for r in ends]
        s = split(C, np.full(grid, j))
        pools.append(pool)
        cells.append(np.vstack([r[s] for r in C]))
    C, own = np.hstack(cells), np.repeat(np.arange(n), [c.shape[1] for c in cells])

    levels = []  # every level's owners, points and values
    while own.size:
        # All midpoints of the level at once.  Cells still cover the circle: a tiled base end is the
        # formula point of a real angle a few ulps from its grid angle (axis ends exact), so a midpoint,
        # the formula at tm, leaves its cell's arc only in a cell a few ulps wide, beyond the nearer end,
        # and [a, m], [m, b] still cover [a, b].  A child's coordinates are monotone in one closed
        # quadrant; one past an axis by d moves the other coordinate off +-1 by d^2 at most (|x|^p =
        # cos^2; 0 on the square), far inside `rnd`.
        tm = 0.5 * (C[0] + C[4])
        Xm = space.sphere_grid(tm)
        gm = values(Xm, own)
        levels.append((own, Xm, gm))
        first = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])  # each owner's first cell
        top = np.repeat(np.maximum.reduceat(gm, first), np.diff(first, append=own.size))
        at = np.flatnonzero(gm == top)
        k = at[np.r_[True, own[at][1:] != own[at][:-1]]]  # each owner's first maximum of the level
        k = k[gm[k] > lb[own[k]]]
        lb[own[k]], theta_best[own[k]] = gm[k], tm[k]
        mid = np.vstack([tm, Xm, gm])
        C = np.hstack([np.vstack([C[:4], mid]), np.vstack([mid, C[4:]])])
        own = np.concatenate([own, own])
        s = split(C, own)
        C, own = C[:, s], own[s]
    upper = np.maximum(lb, held)

    # sharpen each maximizer within its bracket
    h = TWO_PI / grid
    t_star, g_star = _zoom_max(lambda t, i: values(space.sphere_grid(t), i), theta_best - h, theta_best + h)
    better = g_star > lb
    lb = np.where(better, g_star, lb)
    upper = np.where(better, np.maximum(upper, lb), upper)

    lower = lb * down
    achieved = np.maximum(tol, 0.5 * (upper - lower))
    X_star = space.sphere_grid(t_star)
    t0, w_own = [], []  # the witness brackets and their operators
    for j, pool in enumerate(pools):
        # the operator's evaluations: base grid, refinement levels, sharpened maximizer
        mine = [(Xm[:, o == j], gm[o == j]) for o, Xm, gm in levels]
        reps = cluster_representatives(
            np.hstack([X] + [x for x, _ in mine] + [X_star[:, j:j + 1]]),
            np.concatenate([pool.values] + [g for _, g in mine] + [g_star[j:j + 1]]),
            space, lb[j] - achieved[j], cluster_tol=0.1, limit=16,
        )
        t0 += [_theta_of(space, x) for x, _v in reps]
        w_own += [j] * len(reps)
    t0, w_own = np.array(t0), np.array(w_own)
    t_ref, _ = _zoom_max(lambda t, i: values(space.sphere_grid(t), w_own[i]), t0 - 2 * h, t0 + 2 * h)
    W = space.sphere_grid(t_ref)

    results = []
    for j, pool in enumerate(pools):
        note = notes
        if achieved[j] > tol:
            note = (note + "; " if note else "") + (
                f"tolerance relaxed to {achieved[j]:.2e} (plateau, refinement budget or rounding floor)"
            )
        witnesses = [unit(x, space) for x in W[:, w_own == j].T]
        witnesses.sort(key=lambda w: _theta_of(space, w.coords))
        results.append(NormResult(
            value=float(lb[j]),
            witnesses=witnesses,
            method=METHOD_SWEEP2D,
            grid_size=grid,
            tol=float(achieved[j]),
            lower_bound=float(lower[j]),
            upper_bound=float(upper[j]),
            certified=True,
            n_evals=int(n_evals[j]),
            notes=note,
            space=space,
            pool=pool,
        ))
    return results


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


def polish(T: OperatorPQ, x0, steps: int = 120, alpha0: float = 1e-3):
    """Local hill climb (small renormalized gradient steps, no global jumps)."""
    dom, rng = T.domain, T.range
    A = T.matrix
    x = np.asarray(x0, dtype=float)
    x = x / dom.norm(x)
    f = rng.norm(A @ x)
    a = alpha0
    for _ in range(steps):
        u = norm_dual_vector(rng, A @ x)
        z = A.T @ u
        zn = np.linalg.norm(z)
        if zn == 0.0:
            break
        xt = x + a * (z / zn)
        xt = xt / dom.norm(xt)
        ft = rng.norm(A @ xt)
        if ft > f + 1e-16:
            x, f = xt, ft
            a = min(1e-2, 2.0 * a)
        else:
            a *= 0.5
            if a < 1e-14:
                break
    return x, f


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


def _multistart(T: OperatorPQ, seed: int):
    finals, values = ascend(T, _start_coords(T, seed))
    samples = sample_sphere_coords(T.domain, 512, seed + 1)
    coords = np.hstack([samples, finals])
    vals = np.concatenate([T.range_values(samples), values])
    pool = EvalPool(coords, vals)
    k = int(np.argmax(vals))
    return float(vals[k]), pool


def cluster_representatives(coords: np.ndarray, values: np.ndarray, space, value_floor: float, cluster_tol: float,
                            limit: int | None = None):
    """Greedy clustering of near-maximal points, highest value first and, among tied values, lowest column
    first: a list of (x, value) representatives with pairwise domain-norm distance >= cluster_tol (the first
    `limit` of them, if given)."""
    idx = np.nonzero(values >= value_floor)[0]
    order = idx[np.argsort(-values[idx], kind="stable")]
    keep = _greedy(coords[:, order], np.zeros(order.size, dtype=int), space.norm_cols, cluster_tol, limit)
    return [(coords[:, k].copy(), float(values[k])) for k in order[keep]]


def _greedy(C, own, norm_cols, cluster_tol, limit=None) -> np.ndarray:
    """Greedy clustering of the columns of C, each owner's (own, in runs) in column order: a column is a
    representative unless within cluster_tol of an earlier one of its owner.  One `norm_cols` call per round,
    which takes each owner's next representative, so stopping after `limit` rounds keeps each owner's first
    `limit` representatives.  With one owner and a `SequenceSpace`'s norm_cols, whose value is never below
    0.99 of a column's largest |coordinate|, a round measures only the live columns within 2 cluster_tol of
    its representative in every coordinate (cut from the coordinate with the fewest, each sorted once): the
    norm is column-invariant, so the round removes what the full scan would."""
    n, h = C.shape[1], 2.0 * cluster_tol
    if n and own[0] == own[-1] and isinstance(getattr(norm_cols, "__self__", None), SequenceSpace):
        S = np.argsort(C, axis=1, kind="stable")
        V = np.take_along_axis(C, S, axis=1)
        alive, reps, r = np.ones(n + 1, dtype=bool), [], 0  # alive[n]: a sentinel that ends the scan
        while r < n and (limit is None or len(reps) < limit):
            reps.append(r)
            x = C[:, r:r + 1]
            cut = [(v.searchsorted(xk - h, "left"), v.searchsorted(xk + h, "right")) for v, xk in zip(V, x.flat)]
            k = min(range(len(cut)), key=lambda i: cut[i][1] - cut[i][0])
            w = S[k, slice(*cut[k])]
            w = w[alive[w]]
            D = C[:, w] - x
            box = (np.abs(D) <= h).all(axis=0)
            alive[w[box][norm_cols(D[:, box]) < cluster_tol]] = False
            r += 1 + int(alive[r + 1:].argmax())
        return np.array(reps, dtype=int)
    alive, reps = np.ones(n, dtype=bool), []
    while alive.any() and (limit is None or len(reps) < limit):
        live = np.flatnonzero(alive)
        lo = own[live]
        first = live[np.r_[True, lo[1:] != lo[:-1]]]
        reps.append(first)
        x = C[:, first[np.searchsorted(own[first], lo)]]
        alive[live] &= norm_cols(C[:, live] - x) >= cluster_tol
    reps = np.concatenate(reps) if reps else np.zeros(0, dtype=int)
    return reps[np.argsort(own[reps], kind="stable")]


def _reduce(T: OperatorPQ):
    """T's exact 2D parts, if its norm is exactly the max of theirs.

    Returns (parts, offsets, note, oracle note), where part i acts on the
    coordinates from offsets[i] on, or None.  A zero-padded [R | 0] on l_p^n
    with R's domain exponent p is one part at offset 0; a block diagonal
    between outer l_P / l_Q sums with P <= Q has one part per block.  A 2D
    operator is its own part and is not reduced.
    """
    if T.structure is None or T.domain.dim == 2:
        return None
    kind, payload = T.structure
    P = getattr(T.domain, "p", getattr(T.domain, "outer_p", None))
    Q = getattr(T.range, "p", getattr(T.range, "outer_p", None))
    if kind == "pad" and isinstance(T.domain, SequenceSpace) and P == getattr(payload.domain, "p", None):
        return ((payload,), (0,), "zero-padded block: norm equals the 2D block norm exactly",
                "oracle of the zero-padded 2D block")
    if kind == "blockdiag" and P is not None and Q is not None and P <= Q:
        offsets = np.cumsum([0] + [op.domain.dim for op in payload[:-1]]).tolist()
        return (payload, offsets, "block diagonal: norm equals the max block norm exactly "
                "(outer domain exponent <= outer range exponent)",
                "oracle composed over diagonal blocks (max of block oracles)")
    return None


def _composed(T: OperatorPQ, reduced, run, note: str) -> NormResult:
    """The result of a reduced T from its parts' results, which `run` gives for each group of parts that
    shares its spaces (`_by_spaces`) and which it keeps: the largest value and bounds, the combined cost,
    `note`, and the witnesses of every part within its tol of the max, embedded at its offset (16 at most)."""
    subs, n = _by_spaces(reduced[0], run), T.domain.dim
    top = subs[int(np.argmax([s.value for s in subs]))]
    witnesses = [unit(np.pad(w.coords, (off, n - off - w.coords.size)), T.domain)
                 for s, off in zip(subs, reduced[1]) if s.value >= top.value - s.tol for w in s.witnesses]
    return NormResult(value=top.value, witnesses=witnesses[:16], method=top.method,
                      grid_size=max(s.grid_size for s in subs), tol=max(s.tol for s in subs),
                      lower_bound=max(s.lower_bound for s in subs), upper_bound=max(s.upper_bound for s in subs),
                      certified=all(s.certified for s in subs), n_evals=sum(s.n_evals for s in subs),
                      notes=note, space=T.domain, parts=subs)


def opnorm(
    T: OperatorPQ,
    tol: float = 1e-4,
    *,
    grid: int = DEFAULT_GRID,
    seed: int = 0,
) -> NormResult:
    """sup of ||T x||_range over the domain unit sphere, with witnesses.

    Dispatch, in order: an exactly reducible structure composes its parts'
    norms; a functional, or l_p^n (n >= 3) into l_inf^m, takes the row closed
    form; a 2D domain the certified sweep; anything else multistart ascent,
    flagged heuristic.
    """
    if not (0.0 < tol <= 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2]; got {tol}")

    reduced = _reduce(T)
    if reduced is not None:
        return _composed(T, reduced, lambda ops: _norms(ops, tol, grid) if ops[0].domain.dim == 2
                         else [opnorm(R, tol, grid=grid, seed=seed) for R in ops], reduced[2])
    if _by_rows(T) or T.domain.dim == 2:
        return _norms([T], tol, grid)[0]
    return _opnorm_multistart(T, tol, seed)


def _by_rows(T: OperatorPQ) -> bool:
    """Whether T's norm is the row closed form: T maps l_p^n into the scalars, or, n >= 3, into l_inf^m (on a
    2D domain the sweep's grid pool serves the attainment set and the profile)."""
    return isinstance(T.domain, SequenceSpace) and (T.range.dim == 1 or T.domain.dim >= 3 and isinstance(
        T.range, SequenceSpace) and T.range.p == INF)


def _row_norms(ops: list[OperatorPQ]):
    """The row closed form ||T|| = max_i ||r_i||_p' of operators that share their spaces (`_by_rows`), in one
    array pass: the (k, m) dual norms of their rows, and each one's attainers as the columns of an array,
    +-`dual_attainer` of its maximal rows (ties kept, 16 points at most, each once), normalized as `unit` does."""
    dom = ops[0].domain
    R = np.concatenate([T.matrix for T in ops])
    norms = pnorm_cols(R.T, dual_exponent(dom.p), True).reshape(len(ops), -1)
    top = norms == norms.max(axis=1, keepdims=True)
    top &= np.cumsum(top, axis=1) <= 8
    X = dual_attainer(dom, R[top.ravel()].T)
    X /= pnorm_cols(X, dom.p, True)
    X = np.stack([X, -X], axis=2).reshape(dom.dim, -1)  # x_1, -x_1, x_2, -x_2, ...
    W = np.split(X, 2 * np.cumsum(top.sum(axis=1))[:-1], axis=1)
    return norms, [w[:, ~np.tril((w[:, :, None] == w[:, None]).all(axis=0), -1).any(axis=1)] for w in W]


def _norms(ops: list[OperatorPQ], tol: float, grid: int) -> list[NormResult]:
    """The certified norms of operators that share their spaces: by rows, each bracket rounded outward by
    `_rounding_allowance`, or in one batched 2D sweep."""
    if not _by_rows(ops[0]):
        return _shared("sweep", ops, _sweep2d, tol, grid)
    (norms, W), dom = _row_norms(ops), ops[0].domain
    rnd = _rounding_allowance(dom.dim)
    return [NormResult(value=float(v), witnesses=[UnitVector(w, dom) for w in ws.T], method=METHOD_EXACT,
                       grid_size=0, tol=tol, lower_bound=float(v * (1.0 - rnd)), upper_bound=float(v * (1.0 + rnd)),
                       certified=True, n_evals=norms.shape[1], notes="closed form: the largest dual norm of a row",
                       space=dom) for v, ws in zip(norms.max(axis=1), W)]


def _by_spaces(ops: list[OperatorPQ], run) -> list:
    """`run(group)` on each group of `ops` that share a domain and a range,
    one result per operator, in the order of `ops`."""
    groups: list[list[int]] = []
    for i, T in enumerate(ops):
        g = next((g for g in groups if ops[g[0]].domain == T.domain and ops[g[0]].range == T.range), None)
        if g is None:
            groups.append([i])
        else:
            g.append(i)
    out = [None] * len(ops)
    for g in groups:
        for i, r in zip(g, run([ops[i] for i in g])):
            out[i] = r
    return out


def _theta_of(space, x) -> float:
    """Sweep parameter of a 2D point (inverse parametrization per space type)."""
    if isinstance(space, SequenceSpace):
        return sphere_param_2d(x, space.p)
    return float(math.atan2(x[1], x[0]) % TWO_PI)


def _rank1_attainers(space: SequenceSpace, row, level) -> tuple[list[np.ndarray], bool]:
    """The points x of the unit sphere of `space` with |<row, x>| >= level (within value_tol of ||row||_*),
    and whether they span a continuum: +-`dual_attainer` for 1 < p < inf; for p in {1, inf} the vertices
    of the ball (the +-e_i, or the sign vectors) that reach it, or the best one, a continuum when more than
    one per sign."""
    if 1.0 < space.p < INF:
        x = dual_attainer(space, row)
        return [x, -x], not row.any()
    X = np.diag(np.where(row >= 0.0, 1.0, -1.0))
    if space.p == INF:  # sign(row), flipped where 2 |row_i| <= ||row||_1 - level
        free = np.flatnonzero(2.0 * np.abs(row) <= np.abs(row).sum() - level)
        if free.size > 20:
            raise ValueError(f"{2 ** free.size} attaining sign vectors are too many to list")
        X = np.tile(X.sum(axis=0), (2 ** free.size, 1))
        flips = list(itertools.product((1.0, -1.0), repeat=free.size))
        X[:, free] *= np.reshape(flips, (len(flips), free.size))
    v = X @ row
    X = X[v >= min(level, v.max())]
    return list(np.unique(np.vstack([X, -X]), axis=0)), len(X) > 1


def _opnorm_multistart(T, tol, seed):
    value, pool = _multistart(T, seed)
    reps = cluster_representatives(
        pool.coords, pool.values, T.domain, value - tol, cluster_tol=0.1, limit=16
    )
    witnesses = [unit(x, T.domain) for x, _ in reps]
    return NormResult(
        value=value,
        witnesses=witnesses,
        method=METHOD_MULTISTART,
        grid_size=0,
        tol=tol,
        lower_bound=value,
        upper_bound=value + tol,
        certified=False,
        n_evals=int(pool.values.size),
        notes="heuristic: multistart ascent; upper bound is not certified",
        space=T.domain,
    )


def opnorm_oracle(T: OperatorPQ, grid: int = 100000) -> NormResult:
    """Independent pure-evaluation maximum over a dense grid, no refinement.

    2D uses an angle grid; 3D a spherical product grid; a reduced T composes
    its parts' oracles as `opnorm` composes norms (evaluation-only on each 2D
    part; parts that share a domain and a range share one grid).  Unstructured
    dimensions above 3 are rejected.
    """
    if grid < 1000:
        raise ValueError(f"oracle grid must be >= 1000; got {grid}")

    reduced = _reduce(T)
    if reduced is not None:
        return _composed(T, reduced, lambda ops: _shared("oracle", ops, _oracle_2d, grid) if ops[0].domain.dim == 2
                         else [opnorm_oracle(R, grid) for R in ops], reduced[3])

    if T.domain.dim == 2:
        return _shared("oracle", [T], _oracle_2d, grid)[0]
    if T.domain.dim == 3:
        m = int(math.ceil(math.sqrt(grid)))
        X = _sphere_grid_3d(T.domain, m)
        g = T.range_values(X)
        k = int(np.argmax(g))
        value = float(g[k])
        spacing = math.pi / m
        return NormResult(
            value=value,
            witnesses=[unit(X[:, k], T.domain)],
            method=METHOD_ORACLE,
            grid_size=int(X.shape[1]),
            tol=spacing,
            lower_bound=value,
            upper_bound=value + _column_lipschitz(T) * 3.0 * spacing,
            certified=False,
            n_evals=int(X.shape[1]),
            notes="3D product grid; upper bound is a heuristic spacing estimate",
            space=T.domain,
        )
    raise ValueError("oracle grids are exhaustive only up to dimension 3")


def _oracle_2d(ops: list[OperatorPQ], grid: int) -> list[NormResult]:
    """The 2D angle-grid oracle of operators sharing a domain: one grid, each
    operator evaluated on it in turn; on l_p^2 with grid % 8 == 0 only columns
    0 to grid/2, as the grid is exactly antipodal and x, -x have the same value
    bit for bit (negation is exact in `apply_cols` and `pnorm_cols`)."""
    space = ops[0].domain
    _, X = _angle_grid(space, grid)
    if isinstance(space, SequenceSpace) and grid % 8 == 0:
        X = X[:, :grid // 2 + 1]
    step = float(np.max(np.abs(np.diff(X[0])) + np.abs(np.diff(X[1]))))
    results = []
    for T in ops:
        g = T.range_values(X)
        k = int(np.argmax(g))
        slack = step * _column_lipschitz(T)
        value = float(g[k])
        results.append(NormResult(
            value=value,
            witnesses=[unit(X[:, k], space)],
            method=METHOD_ORACLE,
            grid_size=grid,
            tol=max(slack / 2.0, 1e-15),
            lower_bound=value,
            upper_bound=value + slack,
            certified=isinstance(space, SequenceSpace),
            n_evals=int(X.shape[1]),
            space=space,
        ))
    return results


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
