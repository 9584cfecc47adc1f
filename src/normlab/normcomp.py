"""Operator norm computation with certificates.

2D domains get a certified branch-and-bound sweep: a dense angle grid
(>= 2e4 points) with rigorous per-cell upper bounds, refined until the
bracket [lower, upper] closes to the requested tolerance.  The per-cell
bound uses |g(y) - g(x)| <= L * ||y - x||_1 with L = max column range-norm,
plus the fact that both sphere coordinates are monotone within a grid cell
that does not straddle a quadrant (octant for the max-norm square) boundary.

Higher dimensions use multistart ascent (a dual-map fixed point step with a
projected-gradient fallback); those values are flagged as heuristic unless
the operator carries an exactly reducible structure (block diagonal with
outer domain exponent <= outer range exponent, or a zero-padded 2D block),
in which case the certificate composes from certified 2D sweeps.

An independent brute-force grid oracle cross-checks every certified value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .spaces import (
    INF,
    TWO_PI,
    SequenceSpace,
    UnitVector,
    pnorm,
    sample_sphere_coords,
    sphere_param_2d,
    unit,
)
from .operators import OperatorPQ, dual_attainer, norm_dual_vector

METHOD_SWEEP2D = "SWEEP2D"
METHOD_MULTISTART = "MULTISTART"
METHOD_ORACLE = "ORACLE"
METHOD_EXACT = "EXACT"

DEFAULT_GRID = 24576  # multiple of 8: quadrant and square-corner breakpoints on-grid
DEFAULT_BUDGET = 40000
ASCENT_ITERS = 500


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

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "witnesses": [w.coords.tolist() for w in self.witnesses],
            "method": self.method,
            "grid_size": self.grid_size,
            "tol": self.tol,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "certified": self.certified,
            "n_evals": self.n_evals,
            "notes": self.notes,
        }

    @staticmethod
    def from_json_dict(d: dict, space) -> "NormResult":
        return NormResult(
            value=float(d["value"]),
            witnesses=[UnitVector(np.asarray(w), space) for w in d["witnesses"]],
            method=d["method"],
            grid_size=int(d["grid_size"]),
            tol=float(d["tol"]),
            lower_bound=float(d["lower_bound"]),
            upper_bound=float(d["upper_bound"]),
            certified=bool(d["certified"]),
            n_evals=int(d.get("n_evals", 0)),
            notes=d.get("notes", ""),
        )


@dataclass
class EvalPool:
    """Evaluation pool backing witness extraction and attainment scans."""

    coords: np.ndarray  # (dim, n)
    values: np.ndarray  # (n,)
    thetas: np.ndarray | None = None  # set for 2D sweep pools, aligned with columns
    base_count: int = 0  # leading columns forming the uniform base grid/sample


def _golden_max(f, a, b, iters: int = 48):
    """Golden-section maximization on every bracket [a_i, b_i] at once.

    `f` maps an array of angles to an array of values; it is called once per
    step on the probes of all live brackets.  Each bracket takes exactly the
    steps it would take alone and is frozen once b - a < 1e-15.  Bookkeeping
    is in plain floats: cheaper than arrays for the usual one to few brackets.
    Returns the arrays (argmax, max).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    # one state [a, b, c, d, f(c), f(d)] per bracket
    brackets = [list(s) for s in zip(*(x.tolist() for x in (a, b, c, d, f(c), f(d))))]
    live = brackets
    for _ in range(iters):
        live = [s for s in live if s[1] - s[0] >= 1e-15]
        if not live:
            break
        slots = []  # 2: a new c is probed, 3: a new d
        for s in live:
            lo, hi, c, d, fc, fd = s
            if fc >= fd:  # the maximum lies in [lo, d]
                s[1], s[3], s[5] = d, c, fc
                s[2] = d - invphi * (d - lo)
                slots.append(2)
            else:
                s[0], s[2], s[4] = c, d, fd
                s[3] = c + invphi * (hi - c)
                slots.append(3)
        values = f(np.array([s[k] for s, k in zip(live, slots)])).tolist()
        for s, k, v in zip(live, slots, values):
            s[k + 2] = v
    best = [(s[2], s[4]) if s[4] >= s[5] else (s[3], s[5]) for s in brackets]
    return np.array([t for t, _ in best]), np.array([v for _, v in best])


def _bisect(f, lo, hi, level, lo_in):
    """Bisect every bracket [lo_i, hi_i] across which f crosses level_i, at once.

    `lo_in[i]` tells whether f(lo_i) >= level_i.  Returns the final end on the
    side where f >= level.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    for _ in range(60):  # 60 halvings take any angle bracket below one ulp
        mid = 0.5 * (lo + hi)
        to_lo = (f(mid) >= level) == lo_in
        lo = np.where(to_lo, mid, lo)
        hi = np.where(to_lo, hi, mid)
    return np.where(lo_in, lo, hi)


def _column_lipschitz(T: OperatorPQ) -> float:
    """L with ||T v||_range <= L ||v||_1: the max column range-norm."""
    cols = T.range.norm_cols(T.matrix)
    return float(np.max(cols)) if cols.size else 0.0


@dataclass
class _Sweep:
    value: float
    lower: float
    upper: float
    theta_best: float
    pool: EvalPool
    n_evals: int
    achieved_tol: float
    notes: str


def _sweep2d(T: OperatorPQ, tol: float, grid: int, budget: int) -> _Sweep:
    space = T.domain

    grid = max(grid, 20000)
    grid += (-grid) % 8  # keep quadrant/octant breakpoints on the grid
    thetas = np.linspace(0.0, TWO_PI, grid + 1)
    X = space.sphere_grid(thetas)
    g = T.range_values(X)
    n_evals = grid + 1

    lip = _column_lipschitz(T)
    monotone_cells = isinstance(space, SequenceSpace)
    notes = ""
    if monotone_cells:
        cell_slack = lip * (np.abs(np.diff(X[0])) + np.abs(np.diff(X[1])))
    else:
        # generic 2D norm handle: estimated theta-Lipschitz bound, safety 2x
        speed = (np.abs(np.diff(X[0])) + np.abs(np.diff(X[1]))) / np.diff(thetas)
        L_theta = 2.0 * lip * float(np.max(speed))
        cell_slack = np.full(grid, L_theta) * np.diff(thetas)
        notes = "cell bounds use a numerically estimated parametrization Lipschitz constant"

    best = int(np.argmax(g))
    lb = float(g[best])
    theta_best = float(thetas[best])
    # Rounding allowance: a computed ||A x||_q, or a cell bound, errs by at most
    # (32 + m) u ||T|| for an m-dimensional range (u = 2^-53; sphere coordinates,
    # products and slack 32 u, the q-norm's sum one u per term).  Bounds move out
    # by twice that (at least 2^-46), so the bracket holds the exact norm of the
    # float matrix.  A tol below twice it never prunes the top cell: use the floor.
    rnd = (64 + 2 * max(T.range.dim, 32)) * 2.0 ** -53
    up, down = 1.0 + rnd, 1.0 - rnd
    prune_tol = max(tol, 2.0 * rnd * lb)

    # cells whose rounded-up bound cannot beat the rounded-down lower bound by
    # more than 2 tol are pruned; the largest pruned bound stays in the bracket
    ub_cells = (np.maximum(g[:-1], g[1:]) + cell_slack) * up
    live = ub_cells > lb * down + 2.0 * prune_tol
    pruned = float(np.max(ub_cells[~live], initial=0.0))
    heap = [
        (-float(ub_cells[i]), float(thetas[i]), float(thetas[i + 1]), float(g[i]), float(g[i + 1]),
         (float(X[0, i]), float(X[1, i])), (float(X[0, i + 1]), float(X[1, i + 1])))
        for i in np.nonzero(live)[0]
    ]
    heapq.heapify(heap)

    extra_t: list[float] = []
    extra_g: list[float] = []
    splits = 0
    slack_rate = None
    if not monotone_cells:
        slack_rate = cell_slack[0] / (thetas[1] - thetas[0])  # slack per unit theta

    # midpoints are evaluated in batches to amortize per-call overhead
    while heap and splits < budget:
        batch = []
        while heap and len(batch) < 64:
            if -heap[0][0] <= lb * down + 2.0 * prune_tol:
                break
            batch.append(heapq.heappop(heap))
        if not batch:
            break
        tms = np.fromiter((0.5 * (it[1] + it[2]) for it in batch), float, len(batch))
        Xm = space.sphere_grid(tms)
        gms = T.range_values(Xm)
        n_evals += len(batch)
        splits += len(batch)
        extra_t.extend(tms.tolist())
        extra_g.extend(gms.tolist())
        k = int(np.argmax(gms))
        if gms[k] > lb:
            lb, theta_best = float(gms[k]), float(tms[k])
        for j, (neg_ub, ta, tb, ga, gb, xa, xb) in enumerate(batch):
            tm = float(tms[j])
            gm = float(gms[j])
            xm = (float(Xm[0, j]), float(Xm[1, j]))
            for (t0, t1, g0, g1, x0, x1) in (
                (ta, tm, ga, gm, xa, xm),
                (tm, tb, gm, gb, xm, xb),
            ):
                if monotone_cells:
                    slack = lip * (abs(x1[0] - x0[0]) + abs(x1[1] - x0[1]))
                else:
                    slack = slack_rate * (t1 - t0)
                ub = (max(g0, g1) + slack) * up
                if ub > lb * down + 2.0 * prune_tol:
                    heapq.heappush(heap, (-ub, t0, t1, g0, g1, x0, x1))
                else:
                    pruned = max(pruned, ub)

    upper = max(lb, pruned, -heap[0][0] if heap else 0.0)

    # sharpen the maximizer within its bracket
    h = TWO_PI / grid
    t_star, g_star = _golden_max(_angle_values(T), theta_best - h, theta_best + h)
    t_star, g_star = float(t_star[0]), float(g_star[0])
    n_evals += 100
    if g_star > lb:
        lb = g_star
        theta_best = t_star
        upper = max(upper, lb)
    extra_t.append(t_star)
    extra_g.append(g_star)

    pool_t = np.concatenate([thetas, np.asarray(extra_t)])
    pool_g = np.concatenate([g, np.asarray(extra_g)])
    pool_X = np.hstack([X, space.sphere_grid(np.asarray(extra_t))])
    lower = lb * down
    achieved = max(tol, 0.5 * (upper - lower))
    if achieved > tol:
        notes = (notes + "; " if notes else "") + (
            f"tolerance relaxed to {achieved:.2e} (plateau, refinement budget or rounding floor)"
        )
    return _Sweep(
        value=lb,
        lower=lower,
        upper=upper,
        theta_best=theta_best,
        pool=EvalPool(pool_X, pool_g, pool_t, base_count=grid + 1),
        n_evals=n_evals,
        achieved_tol=achieved,
        notes=notes,
    )


def ascend(T: OperatorPQ, x0, iters: int = ASCENT_ITERS):
    """Maximize ||T x||_range over the domain unit sphere from x0.

    Primary step is the dual-map fixed point (exact power iteration for
    p = q = 2); on non-improvement it falls back to a renormalized gradient
    step with halving, stopping below step 1e-12.
    """
    dom, rng = T.domain, T.range
    A = T.matrix
    x = np.asarray(x0, dtype=float)
    x = x / dom.norm(x)
    y = A @ x
    f = rng.norm(y)
    alpha = 0.5
    for _ in range(iters):
        u = norm_dual_vector(rng, y)
        z = A.T @ u
        improved = False
        cand = dual_attainer(dom, z)
        yc = A @ cand
        fc = rng.norm(yc)
        if fc > f + 1e-15:
            x, f, y = cand, fc, yc
            improved = True
        else:
            zn = np.linalg.norm(z)
            if zn > 0.0:
                a = alpha
                while a > 1e-12:
                    xt = x + a * (z / zn)
                    xt = xt / dom.norm(xt)
                    yt = A @ xt
                    ft = rng.norm(yt)
                    if ft > f + 1e-15:
                        x, f, y = xt, ft, yt
                        alpha = min(1.0, 2.0 * a)
                        improved = True
                        break
                    a *= 0.5
        if not improved:
            break
    return x, f


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


def _start_coords(T: OperatorPQ, n_starts: int, seed: int) -> np.ndarray:
    dim = T.domain.dim
    cols = [np.eye(dim), -np.eye(dim)]
    p = getattr(T.domain, "p", None)
    if p == INF and dim <= 8:
        signs = np.array(
            [[1.0 if (k >> i) & 1 else -1.0 for k in range(2 ** dim)] for i in range(dim)]
        )
        cols.append(signs)
    fill = max(n_starts, 64)
    cols.append(sample_sphere_coords(T.domain, fill, seed))
    X = np.hstack(cols)
    return X / T.domain.norm_cols(X)


def _multistart(T: OperatorPQ, tol: float, seed: int, n_starts: int = 64):
    starts = _start_coords(T, n_starts, seed)
    finals = []
    values = []
    for j in range(starts.shape[1]):
        x, f = ascend(T, starts[:, j])
        finals.append(x)
        values.append(f)
    samples = sample_sphere_coords(T.domain, 512, seed + 1)
    sample_vals = T.range_values(samples)
    coords = np.hstack([samples, np.column_stack(finals)])
    vals = np.concatenate([sample_vals, np.asarray(values)])
    pool = EvalPool(coords, vals, thetas=None, base_count=samples.shape[1])
    k = int(np.argmax(vals))
    return float(vals[k]), pool


def cluster_representatives(
    coords: np.ndarray,
    values: np.ndarray,
    space,
    value_floor: float,
    cluster_tol: float,
):
    """Greedy clustering of near-maximal points, highest value first.

    Returns a list of (x, value) representatives with pairwise domain-norm
    distance >= cluster_tol.
    """
    idx = np.nonzero(values >= value_floor)[0]
    if idx.size == 0:
        return []
    order = idx[np.argsort(-values[idx])]
    C = coords[:, order]
    V = values[order]
    alive = np.ones(C.shape[1], dtype=bool)
    reps: list[tuple[np.ndarray, float]] = []
    while True:
        live = np.nonzero(alive)[0]
        if live.size == 0:
            break
        k = live[0]
        x = C[:, k]
        reps.append((x.copy(), float(V[k])))
        alive[live] &= space.norm_cols(C[:, live] - x[:, None]) >= cluster_tol
    return reps


def _structure_paths(T: OperatorPQ):
    """Yield (kind, payload) if the operator's norm reduces exactly to 2D parts."""
    if T.structure is None:
        return None
    kind = T.structure[0]
    if kind == "pad":
        R = T.structure[1]
        dom_p = getattr(T.domain, "p", None)
        if isinstance(T.domain, SequenceSpace) and dom_p == getattr(R.domain, "p", None):
            return ("pad", R)
        return None
    if kind == "blockdiag":
        ops = T.structure[1]
        P = getattr(T.domain, "p", getattr(T.domain, "outer_p", None))
        Q = getattr(T.range, "p", getattr(T.range, "outer_p", None))
        if P is not None and Q is not None and P <= Q:
            return ("blockdiag", ops)
        return None
    return None


def _embed_block(x: np.ndarray, i: int, block_dim: int, total: int) -> np.ndarray:
    v = np.zeros(total)
    v[i * block_dim:(i + 1) * block_dim] = x
    return v


def opnorm(
    T: OperatorPQ,
    tol: float = 1e-4,
    *,
    grid: int = DEFAULT_GRID,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    method: str | None = None,
) -> NormResult:
    """sup of ||T x||_range over the domain unit sphere, with witnesses.

    Dispatch: exactly reducible structures compose certified 2D sweeps;
    2D domains run the certified sweep; rank-one operators into the scalars
    use the closed-form dual norm; anything else is multistart ascent and is
    flagged heuristic.  `method` forces "SWEEP2D" or "MULTISTART".
    """
    result, _ = _opnorm_full(T, tol, grid=grid, budget=budget, seed=seed, method=method)
    return result


def _opnorm_full(T, tol, *, grid=DEFAULT_GRID, budget=DEFAULT_BUDGET, seed=0, method=None):
    if not (0.0 < tol <= 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2]; got {tol}")

    if method == METHOD_MULTISTART:
        return _opnorm_multistart(T, tol, seed)
    if method == METHOD_SWEEP2D:
        if T.domain.dim != 2:
            raise ValueError("SWEEP2D requires a 2-dimensional domain")
        return _opnorm_sweep(T, tol, grid, budget)
    if method is not None:
        raise ValueError(f"unknown method {method!r}")

    reduced = _structure_paths(T)
    if reduced is not None and T.domain.dim != 2:
        return _opnorm_structured(T, reduced, tol, grid, budget, seed)
    if T.range.dim == 1 and isinstance(T.domain, SequenceSpace):
        return _opnorm_rank1(T, tol)
    if T.domain.dim == 2:
        return _opnorm_sweep(T, tol, grid, budget)
    return _opnorm_multistart(T, tol, seed)


def _opnorm_sweep(T, tol, grid, budget):
    sw = _sweep2d(T, tol, grid, budget)
    reps = cluster_representatives(
        sw.pool.coords,
        sw.pool.values,
        T.domain,
        sw.value - sw.achieved_tol,
        cluster_tol=0.1,
    )
    h = TWO_PI / max(sw.pool.base_count - 1, 1)
    witnesses = []
    for x, _v in reps[:16]:
        # one bracket per call: an argmax placed to ~sqrt(u) follows batch rounding
        t0 = _theta_of(T.domain, x)
        t_ref, _ = _golden_max(_angle_values(T), t0 - 2 * h, t0 + 2 * h)
        witnesses.append(unit(T.domain.sphere_grid(t_ref)[:, 0], T.domain))
    witnesses.sort(key=lambda w: _theta_of(T.domain, w.coords))
    result = NormResult(
        value=sw.value,
        witnesses=witnesses,
        method=METHOD_SWEEP2D,
        grid_size=sw.pool.base_count - 1,
        tol=sw.achieved_tol,
        lower_bound=sw.lower,
        upper_bound=sw.upper,
        certified=True,
        n_evals=sw.n_evals,
        notes=sw.notes,
    )
    return result, sw.pool


def _angle_values(T: OperatorPQ):
    """theta -> ||T x(theta)||_range over an array of sweep angles."""
    return lambda ts: T.range_values(T.domain.sphere_grid(ts))


def _theta_of(space, x) -> float:
    """Sweep parameter of a 2D point (inverse parametrization per space type)."""
    if isinstance(space, SequenceSpace):
        return sphere_param_2d(x, space.p)
    return float(math.atan2(x[1], x[0]) % TWO_PI)


def _opnorm_rank1(T, tol):
    row = T.matrix[0]
    pd = (
        1.0
        if T.domain.p == INF
        else (INF if T.domain.p == 1.0 else T.domain.p / (T.domain.p - 1.0))
    )
    value = pnorm(row, pd)
    x = dual_attainer(T.domain, row)
    witnesses = [unit(x, T.domain), unit(-x, T.domain)]
    result = NormResult(
        value=value,
        witnesses=witnesses,
        method=METHOD_EXACT,
        grid_size=0,
        tol=tol,
        lower_bound=value,
        upper_bound=value,
        certified=True,
        n_evals=1,
        notes="rank-one closed form (dual norm of the row)",
    )
    return result, None


def _opnorm_structured(T, reduced, tol, grid, budget, seed):
    kind = reduced[0]
    if kind == "pad":
        R = reduced[1]
        sub, _ = _opnorm_full(R, tol, grid=grid, budget=budget, seed=seed)
        witnesses = []
        for w in sub.witnesses:
            v = np.zeros(T.domain.dim)
            v[:2] = w.coords
            witnesses.append(unit(v, T.domain))
        result = NormResult(
            value=sub.value,
            witnesses=witnesses,
            method=sub.method,
            grid_size=sub.grid_size,
            tol=sub.tol,
            lower_bound=sub.lower_bound,
            upper_bound=sub.upper_bound,
            certified=sub.certified,
            n_evals=sub.n_evals,
            notes="zero-padded block: norm equals the 2D block norm exactly",
        )
        return result, None

    ops = reduced[1]
    subs = [_opnorm_full(op, tol, grid=grid, budget=budget, seed=seed)[0] for op in ops]
    values = np.array([s.value for s in subs])
    k = int(np.argmax(values))
    block_dim = ops[0].domain.dim
    witnesses = []
    for i, s in enumerate(subs):
        if s.value >= values[k] - s.tol:
            for w in s.witnesses:
                witnesses.append(
                    unit(_embed_block(w.coords, i, block_dim, T.domain.dim), T.domain)
                )
    result = NormResult(
        value=float(values[k]),
        witnesses=witnesses[:16],
        method=METHOD_SWEEP2D,
        grid_size=max(s.grid_size for s in subs),
        tol=max(s.tol for s in subs),
        lower_bound=float(max(s.lower_bound for s in subs)),
        upper_bound=float(max(s.upper_bound for s in subs)),
        certified=all(s.certified for s in subs),
        n_evals=sum(s.n_evals for s in subs),
        notes="block diagonal: norm equals the max block norm exactly "
        "(outer domain exponent <= outer range exponent)",
    )
    return result, None


def _opnorm_multistart(T, tol, seed):
    value, pool = _multistart(T, tol, seed)
    reps = cluster_representatives(
        pool.coords, pool.values, T.domain, value - tol, cluster_tol=0.1
    )
    witnesses = [unit(x, T.domain) for x, _ in reps[:16]]
    result = NormResult(
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
    )
    return result, pool


def opnorm_oracle(T: OperatorPQ, grid: int = 100000) -> NormResult:
    """Independent pure-evaluation maximum over a dense grid, no refinement.

    2D uses an angle grid; 3D a spherical product grid; exactly reducible
    structures compose block oracles (the oracle stays evaluation-only on
    each 2D constituent).  Unstructured dimensions above 3 are rejected.
    """
    if grid < 1000:
        raise ValueError(f"oracle grid must be >= 1000; got {grid}")

    reduced = _structure_paths(T)
    if reduced is not None and T.domain.dim > 2:
        if reduced[0] == "pad":
            sub = opnorm_oracle(reduced[1], grid)
            return NormResult(
                value=sub.value,
                witnesses=[],
                method=METHOD_ORACLE,
                grid_size=grid,
                tol=sub.tol,
                lower_bound=sub.lower_bound,
                upper_bound=sub.upper_bound,
                certified=sub.certified,
                n_evals=sub.n_evals,
                notes="oracle of the zero-padded 2D block",
            )
        subs = [opnorm_oracle(op, grid) for op in reduced[1]]
        k = int(np.argmax([s.value for s in subs]))
        return NormResult(
            value=subs[k].value,
            witnesses=[],
            method=METHOD_ORACLE,
            grid_size=grid,
            tol=max(s.tol for s in subs),
            lower_bound=max(s.lower_bound for s in subs),
            upper_bound=max(s.upper_bound for s in subs),
            certified=all(s.certified for s in subs),
            n_evals=sum(s.n_evals for s in subs),
            notes="oracle composed over diagonal blocks (max of block oracles)",
        )

    if T.domain.dim == 2:
        thetas = np.linspace(0.0, TWO_PI, grid + 1)
        X = T.domain.sphere_grid(thetas)
        g = T.range_values(X)
        k = int(np.argmax(g))
        lip = _column_lipschitz(T)
        slack = float(np.max(np.abs(np.diff(X[0])) + np.abs(np.diff(X[1])))) * lip
        value = float(g[k])
        return NormResult(
            value=value,
            witnesses=[unit(X[:, k], T.domain)],
            method=METHOD_ORACLE,
            grid_size=grid,
            tol=max(slack / 2.0, 1e-15),
            lower_bound=value,
            upper_bound=value + slack,
            certified=isinstance(T.domain, SequenceSpace),
            n_evals=grid + 1,
            notes="",
        )
    if T.domain.dim == 3:
        m = int(math.ceil(math.sqrt(grid)))
        phi = np.linspace(0.0, TWO_PI, 2 * m, endpoint=False)
        psi = np.linspace(0.0, math.pi, m)
        P, S = np.meshgrid(phi, psi, indexing="ij")
        U = np.vstack(
            [
                (np.cos(P) * np.sin(S)).ravel(),
                (np.sin(P) * np.sin(S)).ravel(),
                np.cos(S).ravel(),
            ]
        )
        norms = T.domain.norm_cols(U)
        norms = np.where(norms > 0.0, norms, 1.0)
        X = U / norms
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
        )
    raise ValueError("oracle grids are exhaustive only up to dimension 3")


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
