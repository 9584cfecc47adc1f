"""Norm-attaining sets, distances to them, and the modulus profile eta(eps, T).

On a 2D domain NA(T) is represented by cluster representatives of the
near-attaining evaluations; a continuum of maximizers (more than 25% of the
grid nearly attains) is flagged, and distances to it can only be
overestimated.  In dimension >= 3 NA(T) is built exactly from the structure
or the row that certified the norm, with no search; a continuum spanned by
parts keeps them, and `AttainmentSet.dists` measures the distance to it.

The profile rho(eps) = sup{ ||T x|| : dist(x, NA) >= eps } is computed from
one shared evaluation pool per operator (base grid/samples plus all refined
candidates from every eps pass), so the monotonicity of rho in eps holds
exactly as computed: feasible sets nest within one pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spaces import INF, TWO_PI, SequenceSpace, UnitVector, pnorm_cols, unit
from .operators import OperatorPQ, apply_cols, space_from_json, to_json
from .normcomp import (
    DEFAULT_GRID,
    EvalPool,
    NormResult,
    UncertifiedNormError,
    _angle_values,
    _base_pool,
    _bisect,
    _climb,
    _golden_max,
    _rank1_attainers,
    _reduce,
    _theta_of,
    cluster_representatives,
    opnorm,
)

FEAS_SLACK = 1e-12  # inclusive feasibility: dist >= eps - FEAS_SLACK
CONTINUUM_FRACTION = 0.25


@dataclass
class AttainmentSet:
    """Unit-vector attainers of NA(T).  `slices`, when set, are the coordinates
    of T's maximal parts, whose attainers are the points supported there; with
    P the domain's outer exponent, NA is every x that is t_i a_i on slice i (a_i
    an attainer there) and 0 elsewhere, t >= 0, ||t||_P = 1; for P = inf, every
    unit x that is an attainer on one slice."""

    points: list
    value_tol: float
    cluster_tol: float
    continuum_flag: bool
    norm_value: float
    slices: tuple | None = None

    @property
    def na_empty(self) -> bool:
        return len(self.points) == 0

    def dists(self, X) -> np.ndarray:
        """Distance from each column of X to NA in the domain norm; inf if NA is empty."""
        if self.na_empty:
            return np.full(X.shape[1], INF)
        space, slices = self.points[0].space, self.slices
        if slices is None:
            return _min_dists(space, X, [p.coords for p in self.points])
        P = getattr(space, "p", getattr(space, "outer_p", None))
        atts = [[p.coords[a:b] for p in self.points if not (p.coords[:a].any() or p.coords[b:].any())]
                for a, b in slices]
        if P == INF:  # off its slice, a unit x already lies in the unit ball
            return np.min([_min_dists(_slice_space(space, a, b), X[a:b], A)
                           for (a, b), A in zip(slices, atts)], axis=0)
        return _sphere_dists(space, X, P, slices, atts)

    def to_json_dict(self) -> dict:
        """The encoded fields plus "space", the points' space ({"dim": 0, "p": None} if there are none)."""
        return dict(to_json(self), space=to_json(self.points[0].space) if self.points else {"dim": 0, "p": None})

    @staticmethod
    def from_json_dict(d: dict) -> "AttainmentSet":
        d = dict(d)
        space = d.pop("space")  # derived from the points, not a field
        space = space_from_json(space) if d["points"] else None
        slices = None if d["slices"] is None else tuple(map(tuple, d["slices"]))
        return AttainmentSet(**dict(d, points=[UnitVector(c, space) for c in d["points"]], slices=slices))


def _min_dists(space, X: np.ndarray, reps: list[np.ndarray]) -> np.ndarray:
    """Distance from each column of X to the nearest representative."""
    if not reps:
        return np.full(X.shape[1], INF)
    if X.shape[1] < len(reps):  # one norm call per point, not per representative
        R = np.column_stack(reps)
        return np.array([np.min(space.norm_cols(R - x[:, None])) for x in X.T])
    D = np.empty((len(reps), X.shape[1]))  # filled in place: half the memory of stacking a list of rows
    for i, r in enumerate(reps):
        D[i] = space.norm_cols(X - r[:, None])
    return D.min(axis=0)


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


def na_set(
    T: OperatorPQ,
    value_tol: float = 1e-6,
    cluster_tol: float = 0.1,
    *,
    tol: float = 1e-4,
    seed: int = 0,
    grid: int = DEFAULT_GRID,
    norm_result: NormResult | None = None,
) -> AttainmentSet:
    """{ x on the unit sphere : ||Tx|| >= ||T|| - value_tol }.

    Requires a certified norm first; refuses otherwise, since attainment is
    relative to ||T||.  On a 2D domain: cluster representatives of the
    norm's grid, refined by golden section, or the signed axis vector of
    their cluster where that attains as much.  In dimension >= 3 the set
    is built from T's structure or its row, with no search.  The norm's own
    grid and part norms are reused, with the same results as recomputing them.
    """
    for name, v in (("value_tol", value_tol), ("cluster_tol", cluster_tol)):
        if not (0.0 < v <= 0.1):
            raise ValueError(f"{name} must lie in (0, 0.1]; got {v}")
    nr = norm_result if norm_result is not None else opnorm(T, tol=tol, seed=seed, grid=grid)
    if not nr.certified:
        raise UncertifiedNormError("norm attainment needs a certified operator norm; got a heuristic one")
    return _na(T, nr, value_tol, cluster_tol, tol, seed, grid)


def _na(T: OperatorPQ, nr: NormResult, value_tol, cluster_tol, tol, seed, grid, pool=None) -> AttainmentSet:
    """NA(T) from its certified norm: on a 2D domain from `pool`, its base
    evaluation pool; in dimension >= 3 from T's structure or its row."""
    if T.domain.dim == 2:
        pool = pool if pool is not None else _base_pool(T, seed, grid, nr)
        return _na_from_pool(T, pool, nr, value_tol, cluster_tol)
    reduced, spans = _reduce(T), None
    if reduced is None:
        if T.range.dim != 1 or not isinstance(T.domain, SequenceSpace):
            raise ValueError("a certified norm in dimension >= 3 comes from a structure or a rank-one row")
        points, continuum = _rank1_attainers(T.domain, T.matrix[0], value_tol)
    else:
        subs = nr.parts or [opnorm(R, tol=tol, seed=seed, grid=grid) for R in reduced[0]]
        top = max(sub.value for sub in subs)
        points, slices, continuum, n = [], [], False, T.domain.dim
        for R, off, sub in zip(reduced[0], reduced[1], subs):
            if sub.value >= top - value_tol:
                na = na_set(R, value_tol, cluster_tol, tol=tol, seed=seed, grid=grid, norm_result=sub)
                points += [np.pad(x.coords, (off, n - off - x.coords.size)) for x in na.points]
                slices.append((off, off + R.domain.dim))
                continuum |= na.continuum_flag
        P, Q = (getattr(s, "p", getattr(s, "outer_p", None)) for s in (T.domain, T.range))
        if P == INF or (P == Q and len(slices) > 1):  # free coordinates, or the sphere the parts span
            spans, continuum = tuple(slices), True
    points.sort(key=lambda x: tuple(np.round(x, 9)))
    points = [unit(x, T.domain) for x in points]
    return AttainmentSet(points, value_tol, cluster_tol, continuum, nr.value, spans)


def _axis_attainers(R: OperatorPQ, points: list, cluster_tol) -> list[np.ndarray]:
    """R's attainers, each replaced by the signed unit axis vector nearest it
    when that vector lies in its cluster and attains at least as much: an
    exact attainer, as the closed-form distance to a spanned sphere needs."""
    out: dict[tuple, np.ndarray] = {}
    for x in points:
        e = np.where(np.arange(x.size) == np.argmax(np.abs(x)), np.sign(x), 0.0)
        e = e / R.domain.norm(e)  # 1.0 on every l_p or block space, not on a general norm
        snap = R.domain.norm(e - x) < cluster_tol and R.range.norm(R.apply(e)) >= R.range.norm(R.apply(x))
        out.setdefault(tuple(e if snap else x), e if snap else x)
    return list(out.values())


def _na_from_pool(T: OperatorPQ, pool: EvalPool, nr: NormResult, value_tol, cluster_tol) -> AttainmentSet:
    """The attainment set of a 2D operator from its base evaluation pool and certified norm."""
    coords, values = pool.coords, pool.values
    if nr.witnesses:
        E = np.column_stack([w.coords for w in nr.witnesses])
        coords = np.hstack([coords, E])
        values = np.concatenate([values, T.range_values(E)])

    frac = float(np.mean(pool.values[: pool.base_count] >= nr.value - value_tol))
    continuum = frac > CONTINUUM_FRACTION

    reps = cluster_representatives(coords, values, T.domain, nr.value - value_tol, cluster_tol)

    # refine, by golden section, the representatives not yet exact
    refined = list(reps)
    todo = [i for i, (_x, v) in enumerate(reps) if v < nr.value - 1e-12]
    if todo:
        t0 = np.array([_theta_of(T.domain, reps[i][0]) for i in todo])
        h = TWO_PI / (pool.base_count - 1)
        t_ref, v_ref = _golden_max(_angle_values(T), t0 - 2 * h, t0 + 2 * h)
        for i, x, v in zip(todo, T.domain.sphere_grid(t_ref).T, v_ref.tolist()):
            refined[i] = (x, v)

    # re-merge after refinement and drop anything that drifted below the band
    final: list[tuple[np.ndarray, float]] = []
    for x, v in sorted(refined, key=lambda t: -t[1]):
        if v < nr.value - value_tol:
            continue
        if all(T.domain.norm(x - y) >= cluster_tol for y, _ in final):
            final.append((x, v))

    points = _axis_attainers(T, [x for x, _ in final], cluster_tol)
    points.sort(key=lambda x: _theta_of(T.domain, x))
    return AttainmentSet([unit(x, T.domain) for x in points], value_tol, cluster_tol, continuum, nr.value)


def dist_to_set(x, S: AttainmentSet) -> float:
    """dist(x, NA) in the domain norm (`AttainmentSet.dists`); inf if S is empty."""
    if isinstance(x, UnitVector):
        coords, space = x.coords, x.space
    else:
        raise TypeError("dist_to_set expects a UnitVector")
    if S.na_empty:
        return INF
    if S.points[0].space != space:
        raise ValueError(f"space mismatch: {space} vs {S.points[0].space}")
    return float(S.dists(coords[:, None])[0])


@dataclass
class SbpbProfile:
    """Grid of (eps, rho, eta): eta(eps) = max(0, ||T|| - rho(eps))."""

    epsilons: list
    rho: list
    eta: list
    na_empty: bool
    norm_value: float
    continuum_flag: bool = False
    notes: str = ""

    to_json_dict = to_json

    @staticmethod
    def from_json_dict(d: dict) -> "SbpbProfile":
        return SbpbProfile(**d)

    def to_csv_text(self) -> str:
        lines = ["epsilon,rho,eta"]
        for e, r, h in zip(self.epsilons, self.rho, self.eta):
            lines.append(f"{e!r},{r!r},{h!r}")
        return "\n".join(lines) + "\n"


def default_epsilons(space) -> list[float]:
    """32 log-spaced eps values reaching past the largest distance constants."""
    p = getattr(space, "p", None)
    if p is None:
        inner = [getattr(b, "p", 2.0) for b in getattr(space, "blocks", [])]
        p = min([getattr(space, "outer_p", 2.0)] + inner)
    top = (2.0 ** (1.0 / p) if p != INF else 1.0) * 1.05
    return list(np.geomspace(1e-3, top, 32))


def _constrained_ascend(dom, rng, mats, own, X0, dist_of, eps, iters=200):
    """Hill climb on ||T x|| from each column of X0 at once, with T =
    mats[own[j]] for column j, keeping column j at dist_of(x, own[j]) >=
    eps[j] (`normcomp._climb`).  Returns the final columns, values and
    owners of the columns that start feasible."""
    X = X0 / dom.norm_cols(X0)
    feasible = dist_of(X, own) >= eps - FEAS_SLACK
    X, eps, own = X[:, feasible], eps[feasible], own[feasible]
    A = mats[0] if len(mats) == 1 else mats[own]  # a batch of one indexes no per-column stack
    f = _climb(dom, rng, A, X, np.full(X.shape[1], 0.25), 0.5, 1e-10, 1e-16, iters,
               lambda XT, j: dist_of(XT, own[j]) >= eps[j] - FEAS_SLACK)
    return X, f, own


@dataclass
class _ProfilePart:
    """One operator's share of a profile, before and after 2D refinement.

    `best` holds, per eps, (value, point) of the first largest evaluation
    with dist >= eps found so far, or None.  On a 2D domain `cuts` and
    `peaks` are the brackets `_refine_2d` still has to refine; on higher
    ones `starts` are the columns `_ascend_nd` still has to climb.
    """

    T: OperatorPQ
    value: float  # the certified norm
    na: AttainmentSet
    epsilons: list
    reps: list  # possibly repaired representative coords
    repaired: int
    best: list
    cuts: tuple = ()  # (lo, hi, level, lo_in): feasibility-boundary cells
    peaks: tuple = ()  # (lo, hi, level): top feasible local maxima
    starts: tuple = ()  # (coords, eps): the top feasible evaluations of each eps

    def profile(self) -> SbpbProfile:
        value, n = self.value, len(self.epsilons)
        if self.na.na_empty:
            rho, eta = [value] * n, [0.0] * n
            notes = "diagnostic: empty attainment set in finite dimension (numerical artifact); eta forced to 0"
        else:
            rho = [0.0 if b is None else b[0] for b in self.best]
            eta = [value if b is None else max(0.0, value - b[0]) for b in self.best]
            notes = ""
            if self.repaired:
                notes = f"diagnostic: {self.repaired} missed attainment cluster(s) absorbed during profiling"
        return SbpbProfile(self.epsilons, rho, eta, self.na.na_empty, value, self.na.continuum_flag, notes)


def _fold(parts: list[_ProfilePart], own, X, values, dists) -> None:
    """Fold into each part's `best` the columns of X it owns (own[j] is the
    index of column j's part, -1 for none), as they would enter its pool."""
    for j, part in enumerate(parts):
        k = own == j
        if k.any():
            new = _best_feasible(X[:, k], values[k], dists[k], part.epsilons)
            part.best = [n if n is not None and (o is None or n[0] > o[0]) else o for o, n in zip(part.best, new)]


def _best_feasible(coords, values, dists, epsilons) -> list:
    """Per eps: (value, point) of the first largest value with dist >= eps, or None."""
    best = []
    for eps in epsilons:
        v = np.where(dists >= eps - FEAS_SLACK, values, -np.inf)
        j = int(np.argmax(v))
        best.append((float(v[j]), coords[:, j].copy()) if v[j] > -np.inf else None)
    return best


def _profile_part(T, na: AttainmentSet, nr: NormResult, epsilons, pool: EvalPool) -> _ProfilePart:
    """Distances, repair and the best feasible evaluations of T's pool; on a
    2D domain also the brackets to refine, on higher ones the ascent's starts."""
    if na.na_empty:
        return _ProfilePart(T, nr.value, na, epsilons, [], 0, [])
    coords, values = pool.coords, pool.values
    extras: list[np.ndarray] = [w.coords for w in nr.witnesses]
    if T.domain.dim != 2:
        extras.extend(p.coords for p in na.points)
    if extras:
        E = np.column_stack(extras)
        coords = np.hstack([coords, E])
        values = np.concatenate([values, T.range_values(E)])

    reps = [p.coords for p in na.points]
    dists = na.dists(coords)

    # repair: a near-attaining point far from every representative means the
    # attainment scan missed a cluster; absorb it instead of rating it feasible
    for _ in range(3):
        mask = (values > nr.value - na.value_tol) & (dists > na.cluster_tol)
        if not np.any(mask):
            break
        add = cluster_representatives(coords[:, mask], values[mask], T.domain, nr.value - na.value_tol,
                                      na.cluster_tol)
        reps += [x for x, _ in add]
        dists = np.minimum(dists, _min_dists(T.domain, coords, [x for x, _ in add]))
    repaired = len(reps) - len(na.points)

    best = _best_feasible(coords, values, dists, epsilons)
    if T.domain.dim != 2:
        starts, start_eps = [], []  # the top 8 feasible evaluations of every eps, one column each
        order = np.argsort(-values, kind="stable")  # by (value, index), for every eps
        for eps in epsilons:
            top = order[dists[order] >= eps - FEAS_SLACK][:8]
            starts += top.tolist()
            start_eps += [eps] * top.size
        return _ProfilePart(T, nr.value, na, epsilons, reps, repaired, best,
                            starts=(coords[:, starts], np.array(start_eps)) if starts else ())

    thetas = pool.thetas[: pool.base_count]
    base_d = dists[: pool.base_count]
    base_v = values[: pool.base_count]
    h = TWO_PI / (pool.base_count - 1)
    # the feasibility boundary cells and top-10 feasible local maxima of every eps
    cut, cut_lv, peak, peak_lv = [], [], [], []
    for eps in epsilons:
        feas = base_d >= eps - FEAS_SLACK
        i = np.nonzero(feas[:-1] != feas[1:])[0].tolist()
        cut += i
        cut_lv += [eps - FEAS_SLACK] * len(i)
        vmask = np.where(feas, base_v, -np.inf)
        local = np.nonzero(
            (vmask[1:-1] >= vmask[:-2]) & (vmask[1:-1] >= vmask[2:]) & feas[1:-1]
        )[0] + 1
        top = local[np.argsort(-base_v[local], kind="stable")][:10].tolist()
        peak += top
        peak_lv += [eps - FEAS_SLACK] * len(top)
    cut, peak = np.array(cut, dtype=int), np.array(peak, dtype=int)
    cut_lv, peak_lv = np.array(cut_lv, dtype=float), np.array(peak_lv, dtype=float)
    return _ProfilePart(
        T, nr.value, na, epsilons, reps, repaired, best,
        cuts=(thetas[cut], thetas[cut + 1], cut_lv, base_d[cut] >= cut_lv),
        peaks=(thetas[peak] - h, thetas[peak] + h, peak_lv),
    )


def _refine_2d(parts: list[_ProfilePart]) -> None:
    """Refine the brackets of operators sharing a 2D domain and range, in one
    bisection and one golden-section call, and fold each operator's refined
    points into its `best` as they would enter its evaluation pool."""
    parts = [p for p in parts if p.cuts]  # higher dimensions and empty NA have none
    if not parts:
        return
    space, rng = parts[0].T.domain, parts[0].T.range
    count = np.array([len(p.reps) for p in parts])
    R = np.column_stack([r for p in parts for r in p.reps])
    ids = np.arange(len(parts))
    c_own = np.repeat(ids, [p.cuts[0].size for p in parts])
    p_own = np.repeat(ids, [p.peaks[0].size for p in parts])
    lo, hi, c_lv, lo_in = (np.concatenate([p.cuts[k] for p in parts]) for k in range(4))
    c_pairs = _pairing(count, c_own)
    t_cut = _bisect(lambda t: _paired_dists(space, R, space.sphere_grid(t), c_pairs), lo, hi, c_lv, lo_in)

    mats = np.stack([p.T.matrix for p in parts])
    a, b, p_lv = (np.concatenate([p.peaks[k] for p in parts]) for k in range(3))
    t_peak, _ = _golden_max(
        lambda t, idx: rng.norm_cols(apply_cols(mats[p_own[idx]], space.sphere_grid(t))), a, b)

    # each operator's refined cuts, then its peaks, as one pool extension
    own = np.concatenate([c_own, p_own])
    X_new = space.sphere_grid(np.concatenate([t_cut, t_peak]))
    d_new = _paired_dists(space, R, X_new, _pairing(count, own))
    keep = d_new >= np.concatenate([c_lv, p_lv])
    _fold(parts, np.where(keep, own, -1), X_new, rng.norm_cols(apply_cols(mats[own], X_new)), d_new)


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


def _ascend_nd(parts) -> None:
    """Climb the starts of operators sharing a domain and a range in
    dimension >= 3, all as columns of one `_constrained_ascend`, and fold
    each operator's final points into its `best` as they would enter its
    pool.  A column's distance is to its owner's attainment set and
    repaired representatives, as `_profile_part` measured them."""
    parts = [p for p in parts if p.starts]  # 2D and empty NA have none
    if not parts:
        return
    dom, rng = parts[0].T.domain, parts[0].T.range
    # a finite set is its representatives; a set spanned by slices pairs only its repairs
    reps = [p.reps if p.na.slices is None else p.reps[len(p.na.points):] for p in parts]
    count = np.array([len(r) for r in reps])
    R = np.column_stack([r for rs in reps for r in rs]) if count.any() else None
    spanned = [j for j, p in enumerate(parts) if p.na.slices is not None]

    def dist_of(X, own):
        d = _paired_dists(dom, R, X, _pairing(count, own))
        for j in spanned:
            m = own == j
            if m.any():
                d[m] = np.minimum(d[m], parts[j].na.dists(X[:, m]))
        return d

    own = np.repeat(np.arange(len(parts)), [p.starts[1].size for p in parts])
    X, v, own = _constrained_ascend(dom, rng, np.stack([p.T.matrix for p in parts]), own,
                                    np.hstack([p.starts[0] for p in parts]),
                                    dist_of, np.concatenate([p.starts[1] for p in parts]))
    _fold(parts, own, X, v, dist_of(X, own))


def _profile_parts(ops, epsilons, norms=None, nas=None, *, tol: float = 1e-4, value_tol: float = 1e-6,
                   cluster_tol: float = 0.1, seed: int = 0, grid: int = DEFAULT_GRID) -> list[_ProfilePart]:
    """The profiles of operators that share a domain and a range, in any
    dimension: `sbpb_profile` of each T of `ops` with its entry of `norms`
    and `nas` (computed when not given).

    One operator at a time takes its certified norm, its pool and its
    attainment set, and keeps only its share of the profile, so one pool of
    values is live at a time; the first pool lends its points to the others.
    One refinement then serves all the 2D shares, and one constrained ascent
    all the nD ones.  Results are the same, bit for bit, as one call per
    operator.
    """
    epsilons = sorted(float(e) for e in epsilons)
    for e in epsilons:
        if not (0.0 < e <= 4.2):
            raise ValueError(f"eps must lie in (0, 2 * max diameter]; got {e}")
    parts, base = [], None
    for k, T in enumerate(ops):
        nr = opnorm(T, tol=tol, seed=seed, grid=grid) if norms is None else norms[k]
        if not nr.certified:
            raise UncertifiedNormError("profile computation requires a certified norm")
        pool = _base_pool(T, seed, grid, nr, base)
        base = replace(pool, values=None) if base is None else base
        na = _na(T, nr, value_tol, cluster_tol, tol, seed, grid, pool) if nas is None else nas[k]
        parts.append(_profile_part(T, na, nr, epsilons, pool))
    _refine_2d(parts)
    _ascend_nd(parts)
    return parts


def sbpb_profile(
    T: OperatorPQ,
    epsilons=None,
    *,
    tol: float = 1e-4,
    value_tol: float = 1e-6,
    cluster_tol: float = 0.1,
    seed: int = 0,
    grid: int = DEFAULT_GRID,
    na: AttainmentSet | None = None,
    norm_result: NormResult | None = None,
) -> SbpbProfile:
    """rho(eps) = sup{ ||Tx|| : dist(x, NA(T)) >= eps } and eta = ||T|| - rho.

    Conventions: an empty feasible set gives rho = 0 and eta = ||T||
    (the sup over the empty set; the property holds vacuously); an empty
    NA(T) gives rho = ||T|| and eta = 0 with a diagnostic note, since in
    finite dimension that can only be a numerical artifact.
    """
    epsilons = default_epsilons(T.domain) if epsilons is None else epsilons
    (part,) = _profile_parts([T], epsilons, None if norm_result is None else [norm_result],
                             None if na is None else [na], tol=tol, value_tol=value_tol,
                             cluster_tol=cluster_tol, seed=seed, grid=grid)
    return part.profile()


def sbpb_witness(
    T: OperatorPQ,
    eps: float,
    eta: float,
    *,
    tol: float = 1e-4,
    value_tol: float = 1e-6,
    cluster_tol: float = 0.1,
    seed: int = 0,
) -> UnitVector | None:
    """A unit x0 with ||T x0|| > ||T|| - eta and dist(x0, NA) >= eps, if one exists.

    Returning a point means the property fails at (eps, eta); None means it
    holds at this search resolution.  eta = 0 always returns None (the strict
    inequality is unsatisfiable).
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    (part,) = _profile_parts([T], [eps], tol=tol, value_tol=value_tol, cluster_tol=cluster_tol, seed=seed)
    best = part.best[0] if part.best else None  # no best: an empty attainment set
    if best is not None and best[0] > part.value - eta:
        return unit(best[1], T.domain)
    return None
