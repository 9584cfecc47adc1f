"""Norm-attaining sets, distances to them, and the modulus profile eta(eps, T).

On a 2D domain NA(T) is represented by cluster representatives of the
near-attaining evaluations; a continuum of maximizers (more than 25% of the
grid nearly attains) is flagged, and distances to it can only be
overestimated.  In dimension >= 3 NA(T) is built exactly from the structure
or the rows that certified the norm (the union of the attainers of the rows
within value_tol of ||T||), with no search; a continuum spanned by parts
keeps them, and `AttainmentSet.dists` measures the distance to it.

The profile rho(eps) = sup{ ||T x|| : dist(x, NA) >= eps } is computed from
one evaluation pool per operator (base grid or samples plus every refined
candidate), so rho is monotone in eps exactly as computed.  Operators on a
2D domain go in passes: consecutive operators whose grids of values fit in
POOL_BUDGET, their norms, values, attainment sets and profiles taken in
array operations over one row per operator, with each one's bits alone.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spaces import INF, TWO_PI, SequenceSpace, UnitVector, dual_exponent, pnorm_cols, unit
from .operators import APPLY_CHUNK, OperatorPQ, apply_cols, space_from_json, to_json
from .ascent import _climb
from .distances import _min_dists, _paired_dists, _pairing, _slice_space, _sphere_dists
from .normcomp import (
    DEFAULT_GRID,
    EvalPool,
    NormResult,
    UncertifiedNormError,
    _angle_grid,
    _base_pool,
    _bisect,
    _by_rows,
    _check_grid,
    _greedy,
    _norms,
    _rank1_attainers,
    _reduce,
    _rounding_allowance,
    _row_norms,
    _shared,
    _theta_of,
    _zoom_max,
    cluster_representatives,
    opnorm,
)

FEAS_SLACK = 1e-12  # inclusive feasibility: dist >= eps - FEAS_SLACK
CONTINUUM_FRACTION = 0.25
POOL_BUDGET = 4 * APPLY_CHUNK  # values one 2D pass holds (1 MB); twice that raised the gallery's peak memory


def pass_size(grid: int) -> int:
    """Operators per 2D pass on `grid` cells (rounded up to a multiple of 8): as many grids of values as fit."""
    return max(1, POOL_BUDGET // (grid + (-grid) % 8 + 1))


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
            return _min_dists(space, X[:, None], [[p.coords for p in self.points]])[0]
        P, atts = getattr(space, "p", getattr(space, "outer_p", None)), self._atts
        if P == INF:  # off its slice, a unit x already lies in the unit ball
            return np.min([_min_dists(_slice_space(space, a, b), X[a:b, None], [A])[0]
                           for (a, b), A in zip(slices, atts)], axis=0)
        return _sphere_dists(space, X, P, slices, atts)

    @cached_property
    def _atts(self) -> list:  # each slice's attainers, the points supported on it: built once per set
        return [[p.coords[a:b] for p in self.points if not (p.coords[:a].any() or p.coords[b:].any())]
                for a, b in self.slices]

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


def _check_tols(value_tol, cluster_tol) -> None:
    """Refuse a value_tol or cluster_tol outside (0, 0.1]."""
    for name, v in (("value_tol", value_tol), ("cluster_tol", cluster_tol)):
        if not (0.0 < v <= 0.1):
            raise ValueError(f"{name} must lie in (0, 0.1]; got {v}")


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
    relative to ||T||.  On a 2D domain a pass of one (`_pass_na`) on the
    norm's grid; in dimension >= 3 built from T's structure or its row, with
    no search, reusing the part norms.  Both give what recomputing gives.
    """
    _check_tols(value_tol, cluster_tol)
    _check_grid(grid)
    nr = norm_result if norm_result is not None else opnorm(T, tol=tol, seed=seed, grid=grid)
    if not nr.certified:
        raise UncertifiedNormError("norm attainment needs a certified operator norm; got a heuristic one")
    return _na(T, nr, value_tol, cluster_tol, tol, seed, grid)


def _na(T: OperatorPQ, nr: NormResult, value_tol, cluster_tol, tol, seed, grid) -> AttainmentSet:
    """NA(T) from its certified norm: on a 2D domain as a pass of one on
    the norm's grid; in dimension >= 3 from T's structure or its rows."""
    if T.domain.dim == 2:  # shared by the bits of the norm's value and witnesses
        bits = [float(nr.value).hex()] + [w.coords.tobytes() for w in nr.witnesses]
        return _shared("na", [T], lambda ops, *_: _pass_na(_open_pass(ops, [nr], grid, None, tol), value_tol,
                                                            cluster_tol), value_tol, cluster_tol, tol, grid, *bits)[0]
    reduced, spans = _reduce(T), None
    if reduced is None:  # the union of the attainers of the rows within value_tol of the norm
        if not _by_rows(T):
            raise ValueError("a certified norm in dimension >= 3 comes from a structure or the rows")
        norms = pnorm_cols(T.matrix.T, dual_exponent(T.domain.p), True)  # `_row_norms`' bits
        level = nr.value - value_tol
        sets = [_rank1_attainers(T.domain, row, level) for row in T.matrix[norms >= level]]
        points = list({x.tobytes(): x for pts, _ in sets for x in pts}.values())  # rows may share attainers
        continuum = any(c for _, c in sets)
    else:
        subs = nr.parts or opnorm(T, tol, grid=grid, seed=seed).parts  # a reloaded result's parts, recomposed
        top = max(sub.value for sub in subs)
        points, slices, continuum, n = [], [], False, T.domain.dim
        for R, off, sub in zip(reduced[0], reduced[1], subs):
            if sub.value >= top - value_tol:  # certified, as nr is (`normcomp._composed`)
                na = _na(R, sub, value_tol, cluster_tol, tol, seed, grid)
                points += [np.pad(x.coords, (off, n - off - x.coords.size)) for x in na.points]
                slices.append((off, off + R.domain.dim))
                continuum |= na.continuum_flag
        P, Q = (getattr(s, "p", getattr(s, "outer_p", None)) for s in (T.domain, T.range))
        if P == INF or (P == Q and len(slices) > 1):  # free coordinates, or the sphere the parts span
            spans, continuum = tuple(slices), True
    points.sort(key=lambda x: tuple(np.round(x, 9)))
    points = [unit(x, T.domain) for x in points]
    return AttainmentSet(points, value_tol, cluster_tol, continuum, nr.value, spans)


# consecutive operators of a 2D group on one angle grid (thetas, X): their norms, and in row j of C (2, k,
# G + w) and V (k, G + w) the points and values of operator j's pool: the grid, then its norm's witnesses
# padded with zero points of value -inf to the pass's most witnesses
_Pass = namedtuple("_Pass", "ops value thetas X C V")


def _norms_of(space, X) -> np.ndarray:
    """space.norm of each column of X, with its bits (`pnorm` takes its root with Python's pow)."""
    return pnorm_cols(X, space.p, True) if isinstance(space, SequenceSpace) else np.array([space.norm(x) for x in X.T])


def _row_values(rng, mats, C) -> np.ndarray:
    """||mats[j] c||_rng for each column c of C[:, j] (C[:, 0] if C has one row), with the bits of `range_values`."""
    Y = sum(mats[:, :, t, None] * C[t][:, None, :] for t in range(C.shape[0]))
    return rng.norm_cols(Y.transpose(1, 0, 2).reshape(mats.shape[1], -1)).reshape(mats.shape[0], -1)


def _open_pass(ops, norms, grid, shared, tol) -> _Pass:
    """The pass of `ops` on `grid` cells, (thetas, X) = `shared` or built here, from their certified `norms`;
    None takes them from `_norms`, a row group's as `_row_norms`' arrays."""
    grid += (-grid) % 8
    dom, rng, k, mats = ops[0].domain, ops[0].range, len(ops), np.stack([T.matrix for T in ops])
    if norms is None and _by_rows(ops[0]):
        row_norms, W = _row_norms(ops)
        value, pools = row_norms.max(axis=1), []
    else:
        norms = norms if norms is not None else _norms(ops, tol, grid)
        if not all(nr.certified for nr in norms):
            raise UncertifiedNormError("profile computation requires a certified norm")
        value = np.array([nr.value for nr in norms])
        W = [np.reshape([w.coords for w in nr.witnesses], (-1, 2)).T for nr in norms]
        pools = [nr.pool for nr in norms if nr.pool is not None and nr.grid_size == grid]
    thetas, X = shared or ((pools[0].thetas, pools[0].coords) if pools else _angle_grid(dom, grid))
    G, n = thetas.size, np.array([ws.shape[1] for ws in W])
    w = n.max()
    C = np.concatenate([np.broadcast_to(X[:, None], (2, k, G)), np.zeros((2, k, w))], axis=2)
    for j, ws in enumerate(W):
        C[:, j, G:G + n[j]] = ws
    V = np.empty((k, G + w))
    V[:, :G] = [pl.values for pl in pools] if len(pools) == k else _row_values(rng, mats, X[:, None])
    V[:, G:] = np.where(np.arange(w) < n[:, None], _row_values(rng, mats, C[:, :, G:]), -np.inf)
    return _Pass(ops, value, thetas, X, C, V)


def _pass_na(P: _Pass, value_tol, cluster_tol) -> list[AttainmentSet]:
    """The attainment sets of a pass's operators (`na_set` on a 2D domain): each row's values within
    value_tol of its norm, clustered greedily by value; the representatives below the norm refined by
    one zoom call, re-merged, and each replaced by the signed unit axis vector nearest it when that is
    in its cluster and attains as much up to rounding (an exact attainer, as a spanned sphere needs)."""
    space, G, floor = P.ops[0].domain, P.thetas.size, P.value - value_tol
    down = 1.0 - _rounding_allowance(P.ops[0].range.dim)  # antipodes snap alike
    near = P.V >= floor[:, None]
    rows, cols = np.divmod(np.flatnonzero(near), near.shape[1])
    order = np.lexsort((cols, -P.V[rows, cols], rows))  # each row's by value, ties to the lower column
    reps = order[_greedy(P.C[:, rows[order], cols[order]], rows[order], space.norm_cols, cluster_tol)]
    own, X, v = rows[reps], P.C[:, rows[reps], cols[reps]], P.V[rows[reps], cols[reps]]
    todo = np.flatnonzero(v < P.value[own] - 1e-12)
    if todo.size:
        mats, rng, h = np.stack([T.matrix for T in P.ops])[own[todo]], P.ops[0].range, TWO_PI / (G - 1)
        t0 = np.array([_theta_of(space, x) for x in X[:, todo].T])
        t, v[todo] = _zoom_max(lambda t, idx: rng.norm_cols(apply_cols(mats[idx], space.sphere_grid(t))),
                               t0 - 2 * h, t0 + 2 * h)
        X[:, todo] = space.sphere_grid(t)
    order = np.lexsort((-v, own))
    order = order[v[order] >= floor[own[order]]]
    keep = order[_greedy(X[:, order], own[order], lambda Y: _norms_of(space, Y), cluster_tol)]
    own, X = own[keep], X[:, keep]

    E = np.where(np.arange(2)[:, None] == np.argmax(np.abs(X), axis=0), np.sign(X), 0.0)
    E /= _norms_of(space, E)  # 1.0 on every l_p space, not on a general norm
    points = [{} for _ in P.ops]
    for o, e, x, c in zip(own.tolist(), E.T, X.T, (_norms_of(space, E - X) < cluster_tol).tolist()):
        T = P.ops[o]
        y = e if c and T.range.norm(T.apply(e)) >= T.range.norm(T.apply(x)) * down else x
        points[o].setdefault(tuple(y), y)
    points = [sorted(pts.values(), key=lambda x: _theta_of(space, x)) for pts in points]
    U = np.array(sum(points, [])).T.reshape(2, -1)
    U = iter((U / _norms_of(space, U)).T)  # as `unit` does
    continuum = np.count_nonzero(near[:, :G], axis=1) / G > CONTINUUM_FRACTION
    return [AttainmentSet([UnitVector(next(U), space) for _ in pts], value_tol, cluster_tol, bool(c), float(v))
            for pts, c, v in zip(points, continuum, P.value)]


def dist_to_set(x, S: AttainmentSet) -> float:
    """dist(x, NA) in the domain norm (`AttainmentSet.dists`); inf if S is empty."""
    if not isinstance(x, UnitVector):
        raise TypeError("dist_to_set expects a UnitVector")
    if S.na_empty:
        return INF
    if S.points[0].space != x.space:
        raise ValueError(f"space mismatch: {x.space} vs {S.points[0].space}")
    return float(S.dists(x.coords[:, None])[0])


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


@dataclass
class _ProfilePart:
    """One operator's share of a profile: `best` holds, per eps, (value, point) of the first largest
    evaluation with dist >= eps found so far, or None; `cuts` and `peaks` (2D) are the brackets
    `_refine_2d` still has to refine, `starts` (nD) the columns `_ascend_nd` still has to climb."""

    T: OperatorPQ
    value: float  # the certified norm
    na: AttainmentSet
    epsilons: list
    reps: list  # possibly repaired representative coords
    repaired: int
    best: list
    cuts: tuple = ()  # (lo, hi, level, lo_in): feasibility-boundary cells
    peaks: tuple = ()  # (lo, hi, level): top feasible grid local maxima (at least both neighbours)
    starts: tuple = ()  # (coords, eps): the top feasible evaluations of each eps

    def profile(self) -> SbpbProfile:
        value, n = self.value, len(self.epsilons)
        if self.na.na_empty:
            rho, eta = [value] * n, [0.0] * n
            notes = "diagnostic: empty attainment set in finite dimension (numerical artifact); eta forced to 0"
        else:
            rho = [0.0 if b is None else b[0] for b in self.best]
            eta = [value if b is None else max(0.0, value - b[0]) for b in self.best]
            notes = (f"diagnostic: {self.repaired} missed attainment cluster(s) absorbed during profiling"
                     if self.repaired else "")
        return SbpbProfile(self.epsilons, rho, eta, self.na.na_empty, value, self.na.continuum_flag, notes)


def _levels(D, epsilons) -> np.ndarray:
    """Each distance's count K of the sorted levels lv = eps - FEAS_SLACK it reaches: D >= lv[m] exactly when m < K."""
    lv, L = np.array(epsilons) - FEAS_SLACK, len(epsilons)
    K = (D >= (lv[0] if L else np.nan)).astype(np.min_scalar_type(L))
    if L > 1:  # one comparison serves one level; search only the entries from the second level to the last
        K[D >= lv[-1]] = L
        mid = (D >= lv[1]) & (K < L)
        K[mid] = np.searchsorted(lv, D[mid], "right")
    return K


def _firsts(own, K, L, n):
    """(m, s) for each owner's first n entries s with K[s] > m at each level m < L, by level, then entry
    (the entries sorted by owner)."""
    F = K > np.arange(L)[:, None]
    e = F.cumsum(1) - F  # the entries with K > m before s
    return np.nonzero(F & (e - e[:, np.searchsorted(own, own)] < n))


def _fold(parts: list[_ProfilePart], own, X, values, dists) -> None:
    """Fold into each part's `best` the columns of X it owns (own[j], -1 for none), as they would enter its pool.
    Taken by (owner, -value, column), an owner's first column with K > m (`_levels`) is its best at level m: the
    records of K's running maximum, each from the largest K before it to its own.  It replaces a best held only
    when higher; a value of -inf (a padded witness) is none."""
    o = np.lexsort((-values, own))  # stable: ties to the lower column
    o = o[own[o] >= 0]
    fo, fk, L = own[o], _levels(dists[o], parts[0].epsilons), len(parts[0].epsilons)
    prev = np.maximum(np.r_[0, np.maximum.accumulate(fk + (s := fo * (L + 1)))[:-1]] - s, 0)
    for p in np.flatnonzero((fk > prev) & (values[o] > -np.inf)):
        part, new, a, b = parts[fo[p]], (float(values[o[p]]), X[:, o[p]].copy()), prev[p], fk[p]
        part.best[a:b] = [new if old is None or new[0] > old[0] else old for old in part.best[a:b]]


def _profile_part(T, na: AttainmentSet, nr: NormResult, epsilons, pool: EvalPool) -> _ProfilePart:
    """Distances, repair, the best feasible evaluations of T's pool and the ascent's starts (dimension >= 3)."""
    if na.na_empty:
        return _ProfilePart(T, nr.value, na, epsilons, [], 0, [])
    E = np.column_stack([w.coords for w in nr.witnesses] + [p.coords for p in na.points])
    coords = np.hstack([pool.coords, E])
    values = np.concatenate([pool.values, T.range_values(E)])
    dists = na.dists(coords)
    reps, repaired = _repair(T.domain, coords, values, dists, nr.value, na)
    part = _ProfilePart(T, nr.value, na, epsilons, reps, repaired, [None] * len(epsilons))
    _fold([part], own := np.zeros(values.size, int), coords, values, dists)
    order = np.argsort(-values, kind="stable")  # by (value, index): the top 8 feasible evaluations of every eps
    m, s = _firsts(own, _levels(dists[order], epsilons), len(epsilons), 8)
    part.starts = (coords[:, order[s]], np.array(epsilons)[m]) if s.size else ()
    return part


def _repair(space, coords, values, dists, value, na):
    """Absorb near-attaining points far from every representative (a missed cluster), in up to three
    rounds, instead of rating them feasible; updates `dists`, returns the representatives and the count added."""
    reps = [p.coords for p in na.points]
    for _ in range(3):
        mask = (values > value - na.value_tol) & (dists > na.cluster_tol)
        if not np.any(mask):
            break
        add = [x for x, _ in cluster_representatives(coords[:, mask], values[mask], space, value - na.value_tol,
                                                     na.cluster_tol)]
        reps += add
        np.minimum(dists, _min_dists(space, coords[:, None], [add])[0], out=dists)
    return reps, len(reps) - len(na.points)


def _pass_parts(P: _Pass, nas, epsilons) -> list[_ProfilePart]:
    """Each pass operator's share of the profile, row by row: distances, repair, the best feasible
    evaluations, and per eps the brackets `_refine_2d` refines (boundary cells, the top 10 peaks: feasible
    grid points at least as high as both neighbours, feasible or not), all from one scan of the grid: each
    column's count K of levels (`_levels`), the cells where K changes and the local maxima.  A row's best
    at a level lies at a local maximum, a cut end, column 0 or G - 1, or a witness: `_fold` reads those."""
    G, space, V, k = P.thetas.size, P.ops[0].domain, P.V, len(nas)
    reps, repaired = [[p.coords for p in na.points] for na in nas], [0] * k
    D = _min_dists(space, P.C, reps)
    vt, ct = (np.array([getattr(na, a) for na in nas]) for a in ("value_tol", "cluster_tol"))
    for r in np.flatnonzero(((V > (P.value - vt)[:, None]) & (D > ct[:, None])).any(axis=1) & [bool(x) for x in reps]):
        reps[r], repaired[r] = _repair(space, P.C[:, r], V[r], D[r], float(P.value[r]), nas[r])
    lv, W, L, K = np.array(epsilons) - FEAS_SLACK, V.shape[1], len(epsilons), _levels(D, epsilons)
    r, i = np.divmod(np.flatnonzero(K[:, 1:G] != K[:, :G - 1]), G - 1)  # the cells where K changes
    # a cut at level m: feasibility differs across it
    m, q = np.nonzero((K[r, i] > (ms := np.arange(L)[:, None])) != (K[r, i + 1] > ms))
    # the local maxima: feasible at the first level and at least both neighbours (feasible or not: the zoom
    # of a point whose higher neighbour is infeasible climbs out of feasibility)
    v = V[:, 1:G - 1]
    lr, li = np.divmod(np.flatnonzero((v >= V[:, :G - 2]) & (v >= V[:, 2:G]) & (K[:, 1:G - 1] > 0)), G - 2)
    o = np.lexsort((-V[lr, li + 1], lr))  # each row's by value, ties to the lower column
    lr, li = lr[o], li[o] + 1
    pm, ps = _firsts(lr, K[lr, li], L, 10)  # each level's first 10 feasible local maxima of each row
    cr, ci, pr, pc = r[q], i[q], lr[ps], li[ps]
    t, h, parts = P.thetas, TWO_PI / (G - 1), []
    for j, (T, val, na) in enumerate(zip(P.ops, P.value, nas)):
        c, p = cr == j, pr == j  # each row's cuts and peaks, by level, then as listed
        parts.append(_ProfilePart(T, float(val), na, epsilons, [], 0, []) if na.na_empty else
                     _ProfilePart(T, float(val), na, epsilons, reps[j], repaired[j], [None] * L,
                                  cuts=(t[ci[c]], t[ci[c] + 1], lv[m[c]], K[j, ci[c]] > m[c]),
                                  peaks=(t[pc[p]] - h, t[pc[p]] + h, lv[pm[p]])))
    cand = np.zeros(V.shape, bool)  # the candidate columns, in (row, column) order
    cand[lr, li] = cand[r, i] = cand[r, i + 1] = cand[:, np.r_[0, G - 1:W]] = True
    rows, cols = np.nonzero(cand)
    _fold(parts, rows, P.C[:, rows, cols], V[rows, cols], D[rows, cols])  # an empty NA's best, [], has no levels
    return parts


def _refine_2d(parts: list[_ProfilePart]) -> None:
    """Refine the brackets of operators sharing a 2D domain and range, in one
    bisection and one zoom call (each distinct (operator, peak bracket) zoomed
    once, its result given to every eps that lists it), and fold each operator's
    refined points into its `best` as they would enter its evaluation pool."""
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

    mats = np.stack([p.T.matrix for p in parts])  # a batch of one climbs with its matrix, no per-column stack
    a, b, p_lv = (np.concatenate([p.peaks[k] for p in parts]) for k in range(3))
    # a peak is listed again at every eps it stays feasible for: zoom each distinct bracket once
    _, j, inv = np.unique(np.column_stack([p_own, a.view(np.int64), b.view(np.int64)]), axis=0,
                          return_index=True, return_inverse=True)
    t_peak = _zoom_max(
        lambda t, idx: rng.norm_cols(apply_cols(mats[p_own[j[idx]]], space.sphere_grid(t))), a[j], b[j])[0][inv]

    # each operator's refined cuts, then its peaks, as one pool extension
    own = np.concatenate([c_own, p_own])
    X_new = space.sphere_grid(np.concatenate([t_cut, t_peak]))
    d_new = _paired_dists(space, R, X_new, _pairing(count, own))
    keep = d_new >= np.concatenate([c_lv, p_lv])
    _fold(parts, np.where(keep, own, -1), X_new, rng.norm_cols(apply_cols(mats[own], X_new)), d_new)


def _ascend_nd(parts) -> None:
    """Climb the feasible starts of operators sharing a domain and a range in dimension >= 3 in one `_climb`, each
    column kept at its eps from its owner's set and repairs, and fold the final points into each one's `best`."""
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
    X, eps = np.hstack([p.starts[0] for p in parts]), np.concatenate([p.starts[1] for p in parts])
    X /= dom.norm_cols(X)
    feasible = dist_of(X, own) >= eps - FEAS_SLACK  # climb the columns that start feasible, and keep them so
    X, eps, own = X[:, feasible], eps[feasible], own[feasible]
    mats = np.stack([p.T.matrix for p in parts])  # a batch of one climbs with its matrix, no per-column stack
    v = _climb(dom, rng, mats[0] if len(parts) == 1 else mats[own], X, np.full(X.shape[1], 0.25), 0.5, 1e-10,
               1e-16, 200, lambda XT, j: dist_of(XT, own[j]) >= eps[j] - FEAS_SLACK)
    _fold(parts, own, X, v, dist_of(X, own))


def _profile_parts(ops, epsilons, norms=None, nas=None, *, tol: float = 1e-4, value_tol: float = 1e-6,
                   cluster_tol: float = 0.1, seed: int = 0, grid: int = DEFAULT_GRID) -> list[_ProfilePart]:
    """`sbpb_profile` of each T of `ops`, which share a domain and a range, with its entry of `norms` and
    `nas` (computed when not given), bit for bit.  On a 2D domain in passes of `pass_size(grid)` operators
    (`_open_pass`, `_pass_na`, `_pass_parts`), then one refinement; in dimension >= 3 one operator at a
    time, the first pool lending its points to the others, then one constrained ascent."""
    _check_tols(value_tol, cluster_tol)
    _check_grid(grid)
    epsilons = sorted(float(e) for e in epsilons)
    for e in epsilons:
        if not (0.0 < e <= 4.2):
            raise ValueError(f"eps must lie in (0, 2 * max diameter]; got {e}")
    parts, base = [], None
    if ops and ops[0].domain.dim == 2:
        size = pass_size(grid)
        for s in range(0, len(ops), size):
            P = _open_pass(ops[s:s + size], None if norms is None else norms[s:s + size], grid, base, tol)
            base = (P.thetas, P.X)
            parts += _pass_parts(P, _pass_na(P, value_tol, cluster_tol) if nas is None else nas[s:s + size], epsilons)
        _refine_2d(parts)
        return parts
    for k, T in enumerate(ops):
        nr = opnorm(T, tol=tol, seed=seed, grid=grid) if norms is None else norms[k]
        if not nr.certified:
            raise UncertifiedNormError("profile computation requires a certified norm")
        pool = _base_pool(T, seed, base)
        base = replace(pool, values=None) if base is None else base
        na = _na(T, nr, value_tol, cluster_tol, tol, seed, grid) if nas is None else nas[k]
        parts.append(_profile_part(T, na, nr, epsilons, pool))
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
    if not eta >= 0.0:  # refuses NaN too
        raise ValueError(f"eta must be nonnegative; got {eta}")
    (part,) = _profile_parts([T], [eps], tol=tol, value_tol=value_tol, cluster_tol=cluster_tol, seed=seed)
    best = part.best[0] if part.best else None  # no best: an empty attainment set
    if best is not None and best[0] > part.value - eta:
        return unit(best[1], T.domain)
    return None
