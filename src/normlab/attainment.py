"""Norm-attaining sets, distances to them, and the modulus profile eta(eps, T).

NA(T) is represented by finitely many cluster representatives of the
near-attaining evaluations; a continuum of maximizers (detected when more
than 25% of sampled directions nearly attain) is flagged, not silently
clustered.  Distances to NA are distances to the representatives, which can
only overestimate the true distance when the set is a continuum; the
computed eta is then an underestimate, which is the conservative direction
for failure detection.

The profile rho(eps) = sup{ ||T x|| : dist(x, NA) >= eps } is computed from
one shared evaluation pool per operator (base grid/samples plus all refined
candidates from every eps pass), so the monotonicity of rho in eps holds
exactly as computed: feasible sets nest within one pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import INF, TWO_PI, SequenceSpace, UnitVector, unit, sample_sphere_coords
from .operators import OperatorPQ
from .normcomp import (
    DEFAULT_GRID,
    EvalPool,
    NormResult,
    UncertifiedNormError,
    _angle_values,
    _bisect,
    _golden_max,
    _multistart,
    _start_coords,
    _structure_paths,
    _theta_of,
    cluster_representatives,
    opnorm,
    polish,
)

FEAS_SLACK = 1e-12  # inclusive feasibility: dist >= eps - FEAS_SLACK
CONTINUUM_FRACTION = 0.25


@dataclass
class AttainmentSet:
    """Clustered unit-vector representatives of NA(T)."""

    points: list
    value_tol: float
    cluster_tol: float
    continuum_flag: bool
    norm_value: float

    @property
    def na_empty(self) -> bool:
        return len(self.points) == 0

    def coords_matrix(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 0))
        return np.column_stack([p.coords for p in self.points])

    def to_json_dict(self) -> dict:
        space = self.points[0].space if self.points else None
        p = getattr(space, "p", getattr(space, "outer_p", None)) if space else None
        return {
            "points": [p_.coords.tolist() for p_ in self.points],
            "value_tol": self.value_tol,
            "cluster_tol": self.cluster_tol,
            "continuum_flag": self.continuum_flag,
            "norm_value": self.norm_value,
            "space": {
                "dim": space.dim if space else 0,
                "p": ("inf" if p == INF else p) if p is not None else None,
            },
        }

    @staticmethod
    def from_json_dict(d: dict) -> "AttainmentSet":
        sp = d["space"]
        p = sp["p"]
        space = SequenceSpace(sp["dim"], INF if p == "inf" else float(p))
        return AttainmentSet(
            points=[UnitVector(np.asarray(c), space) for c in d["points"]],
            value_tol=float(d["value_tol"]),
            cluster_tol=float(d["cluster_tol"]),
            continuum_flag=bool(d["continuum_flag"]),
            norm_value=float(d["norm_value"]),
        )


def _min_dists(space, X: np.ndarray, reps: list[np.ndarray]) -> np.ndarray:
    """Distance from each column of X to the nearest representative."""
    if not reps:
        return np.full(X.shape[1], INF)
    if X.shape[1] < len(reps):  # one norm call per point, not per representative
        R = np.column_stack(reps)
        return np.array([np.min(space.norm_cols(R - x[:, None])) for x in X.T])
    return np.min(np.vstack([space.norm_cols(X - r[:, None]) for r in reps]), axis=0)


def _structural_seeds(T: OperatorPQ, value_tol, cluster_tol, tol, seed) -> list[np.ndarray]:
    """Exact attainers inherited from a reducible structure, embedded."""
    reduced = _structure_paths(T)
    if reduced is None:
        return []
    seeds: list[np.ndarray] = []
    if reduced[0] == "pad":
        R = reduced[1]
        sub = na_set(R, value_tol, cluster_tol, tol=tol, seed=seed)
        for pt in sub.points:
            v = np.zeros(T.domain.dim)
            v[:2] = pt.coords
            seeds.append(v)
        return seeds
    ops = reduced[1]
    block_dim = ops[0].domain.dim
    values = [opnorm(op, tol=tol, seed=seed).value for op in ops]
    vmax = max(values)
    for i, op in enumerate(ops):
        if values[i] >= vmax - value_tol:
            sub = na_set(op, value_tol, cluster_tol, tol=tol, seed=seed)
            for pt in sub.points:
                v = np.zeros(T.domain.dim)
                v[i * block_dim:(i + 1) * block_dim] = pt.coords
                seeds.append(v)
    return seeds


def _base_pool(T: OperatorPQ, seed: int, grid: int = DEFAULT_GRID) -> EvalPool:
    """Uniform evaluation pool: 2D angle grid, or samples + starts for n >= 3."""
    if T.domain.dim == 2:
        grid += (-grid) % 8
        thetas = np.linspace(0.0, TWO_PI, grid + 1)
        X = T.domain.sphere_grid(thetas)
        return EvalPool(X, T.range_values(X), thetas, base_count=grid + 1)
    samples = sample_sphere_coords(T.domain, 1024, seed + 7)
    starts = _start_coords(T, 16, seed + 11)
    X = np.hstack([samples, starts])
    return EvalPool(X, T.range_values(X), None, base_count=samples.shape[1])


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
    """Cluster representatives of { x on the unit sphere : ||Tx|| >= ||T|| - value_tol }.

    Requires a certified norm first; refuses otherwise, since attainment is
    relative to ||T||.  Each cluster representative is refined by local
    ascent before being reported.
    """
    for name, v in (("value_tol", value_tol), ("cluster_tol", cluster_tol)):
        if not (0.0 < v <= 0.1):
            raise ValueError(f"{name} must lie in (0, 0.1]; got {v}")
    nr = norm_result if norm_result is not None else opnorm(T, tol=tol, seed=seed)
    if not nr.certified:
        raise UncertifiedNormError(
            "norm attainment needs a certified operator norm; got a heuristic one"
        )

    pool = _base_pool(T, seed, grid)
    coords = pool.coords
    values = pool.values
    extra: list[np.ndarray] = [w.coords for w in nr.witnesses]
    if T.domain.dim != 2:
        _best, ms_pool = _multistart(T, tol, seed)
        extra.extend(
            ms_pool.coords[:, j]
            for j in range(ms_pool.coords.shape[1])
            if ms_pool.values[j] >= nr.value - value_tol
        )
        extra.extend(_structural_seeds(T, value_tol, cluster_tol, tol, seed))
    if extra:
        E = np.column_stack(extra)
        coords = np.hstack([coords, E])
        values = np.concatenate([values, T.range_values(E)])

    frac = float(np.mean(pool.values[: pool.base_count] >= nr.value - value_tol))
    continuum = frac > CONTINUUM_FRACTION

    reps = cluster_representatives(
        coords, values, T.domain, nr.value - value_tol, cluster_tol
    )

    refined: list[tuple[np.ndarray, float]] = []
    for x, v in reps:
        if v >= nr.value - 1e-12:  # already exact; polishing is a no-op
            refined.append((x, v))
        elif T.domain.dim == 2:
            # one bracket per call: a position placed to ~sqrt(u) must not follow the others
            t0, h = _theta_of(T.domain, x), TWO_PI / (pool.base_count - 1)
            t_ref, v_ref = _golden_max(_angle_values(T), t0 - 2 * h, t0 + 2 * h)
            refined.append((T.domain.sphere_grid(t_ref)[:, 0], float(v_ref[0])))
        else:
            refined.append(polish(T, x))

    # re-merge after refinement and drop anything that drifted below the band
    final: list[tuple[np.ndarray, float]] = []
    for x, v in sorted(refined, key=lambda t: -t[1]):
        if v < nr.value - value_tol:
            continue
        if all(T.domain.norm(x - y) >= cluster_tol for y, _ in final):
            final.append((x, v))

    if T.domain.dim == 2:
        final.sort(key=lambda t: _theta_of(T.domain, t[0]))
    else:
        final.sort(key=lambda t: tuple(np.round(t[0], 9)))
    points = [unit(x, T.domain) for x, _ in final]
    return AttainmentSet(
        points=points,
        value_tol=value_tol,
        cluster_tol=cluster_tol,
        continuum_flag=continuum,
        norm_value=nr.value,
    )


def dist_to_set(x, S: AttainmentSet) -> float:
    """min over representatives of ||x - s|| in the domain norm; inf if S is empty."""
    if isinstance(x, UnitVector):
        coords, space = x.coords, x.space
    else:
        raise TypeError("dist_to_set expects a UnitVector")
    if S.na_empty:
        return INF
    if S.points[0].space != space:
        raise ValueError(f"space mismatch: {space} vs {S.points[0].space}")
    return float(min(space.norm(coords - pt.coords) for pt in S.points))


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

    def to_json_dict(self) -> dict:
        return {
            "epsilons": list(map(float, self.epsilons)),
            "rho": list(map(float, self.rho)),
            "eta": list(map(float, self.eta)),
            "na_empty": self.na_empty,
            "norm_value": self.norm_value,
            "continuum_flag": self.continuum_flag,
            "notes": self.notes,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SbpbProfile":
        return SbpbProfile(
            epsilons=[float(v) for v in d["epsilons"]],
            rho=[float(v) for v in d["rho"]],
            eta=[float(v) for v in d["eta"]],
            na_empty=bool(d["na_empty"]),
            norm_value=float(d["norm_value"]),
            continuum_flag=bool(d.get("continuum_flag", False)),
            notes=d.get("notes", ""),
        )

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


def _constrained_ascend(T, x0, dist_fn, eps, iters=200):
    """Hill climb on ||Tx|| keeping dist(x) >= eps; backtracks on violations."""
    dom, rng = T.domain, T.range
    A = T.matrix
    x = np.asarray(x0, dtype=float)
    x = x / dom.norm(x)
    if dist_fn(x) < eps - FEAS_SLACK:
        return None
    f = rng.norm(A @ x)
    a = 0.25
    from .operators import norm_dual_vector

    for _ in range(iters):
        u = norm_dual_vector(rng, A @ x)
        z = A.T @ u
        zn = np.linalg.norm(z)
        if zn == 0.0:
            break
        improved = False
        step = a
        while step > 1e-10:
            xt = x + step * (z / zn)
            xt = xt / dom.norm(xt)
            if dist_fn(xt) >= eps - FEAS_SLACK:
                ft = rng.norm(A @ xt)
                if ft > f + 1e-16:
                    x, f = xt, ft
                    a = min(0.5, 2.0 * step)
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    return x, f


@dataclass
class _ProfilePool:
    coords: np.ndarray
    values: np.ndarray
    dists: np.ndarray
    reps: list  # possibly repaired representative coords
    repaired: int


def _profile_pool(T, na: AttainmentSet, nr: NormResult, epsilons, seed, grid=DEFAULT_GRID) -> _ProfilePool:
    pool = _base_pool(T, seed, grid)
    coords = pool.coords
    values = pool.values
    extras: list[np.ndarray] = [w.coords for w in nr.witnesses]
    if T.domain.dim != 2:
        extras.extend(
            _structural_seeds(T, na.value_tol, na.cluster_tol, 1e-4, seed)
        )
    if extras:
        E = np.column_stack(extras)
        coords = np.hstack([coords, E])
        values = np.concatenate([values, T.range_values(E)])

    reps = [p.coords for p in na.points]
    dists = _min_dists(T.domain, coords, reps)

    # repair: a near-attaining point far from every representative means the
    # attainment scan missed a cluster; absorb it instead of rating it feasible
    repaired = 0
    for _ in range(3):
        mask = (values > nr.value - na.value_tol) & (dists > na.cluster_tol)
        if not np.any(mask):
            break
        add = cluster_representatives(
            coords[:, mask],
            values[mask],
            T.domain,
            nr.value - na.value_tol,
            na.cluster_tol,
        )
        reps.extend(x for x, _ in add)
        repaired += len(add)
        dists = _min_dists(T.domain, coords, reps)

    if T.domain.dim == 2:
        thetas = pool.thetas[: pool.base_count]
        base_d = dists[: pool.base_count]
        base_v = values[: pool.base_count]
        h = TWO_PI / (pool.base_count - 1)
        # the feasibility boundary cells and top-10 feasible local maxima of
        # every eps, refined together: one bisection call and one golden call
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
            top = local[np.argsort(-base_v[local])][:10].tolist()
            peak += top
            peak_lv += [eps - FEAS_SLACK] * len(top)
        cut, peak = np.array(cut, dtype=int), np.array(peak, dtype=int)
        level = np.array(cut_lv + peak_lv)
        t_cut = _bisect(
            lambda t: _min_dists(T.domain, T.domain.sphere_grid(t), reps),
            thetas[cut], thetas[cut + 1], level[: cut.size], base_d[cut] >= level[: cut.size],
        )
        t_peak, _ = _golden_max(_angle_values(T), thetas[peak] - h, thetas[peak] + h)
        X_new = T.domain.sphere_grid(np.concatenate([t_cut, t_peak]))
        d_new = _min_dists(T.domain, X_new, reps)
        keep = d_new >= level
        coords = np.hstack([coords, X_new[:, keep]])
        values = np.concatenate([values, T.range_values(X_new[:, keep])])
        dists = np.concatenate([dists, d_new[keep]])
    else:
        def dist_of(x: np.ndarray) -> float:
            return float(_min_dists(T.domain, x[:, None], reps)[0])

        new_c: list[np.ndarray] = []
        new_v: list[float] = []
        new_d: list[float] = []
        for eps in epsilons:
            feas_idx = np.nonzero(dists >= eps - FEAS_SLACK)[0]
            if feas_idx.size == 0:
                continue
            top = feas_idx[np.argsort(-values[feas_idx])][:8]
            for j in top:
                out = _constrained_ascend(T, coords[:, j], dist_of, eps)
                if out is None:
                    continue
                x_ref, v_ref = out
                new_c.append(x_ref)
                new_v.append(v_ref)
                new_d.append(dist_of(x_ref))
        if new_c:
            coords = np.hstack([coords, np.column_stack(new_c)])
            values = np.concatenate([values, np.asarray(new_v)])
            dists = np.concatenate([dists, np.asarray(new_d)])
    return _ProfilePool(coords, values, dists, reps, repaired)


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
    nr = norm_result if norm_result is not None else opnorm(T, tol=tol, seed=seed)
    if not nr.certified:
        raise UncertifiedNormError("profile computation requires a certified norm")
    if na is None:
        na = na_set(T, value_tol, cluster_tol, tol=tol, seed=seed, grid=grid, norm_result=nr)

    if epsilons is None:
        epsilons = default_epsilons(T.domain)
    epsilons = sorted(float(e) for e in epsilons)
    for e in epsilons:
        if not (0.0 < e <= 4.2):
            raise ValueError(f"eps must lie in (0, 2 * max diameter]; got {e}")

    if na.na_empty:
        return SbpbProfile(
            epsilons=epsilons,
            rho=[nr.value] * len(epsilons),
            eta=[0.0] * len(epsilons),
            na_empty=True,
            norm_value=nr.value,
            continuum_flag=na.continuum_flag,
            notes="diagnostic: empty attainment set in finite dimension "
            "(numerical artifact); eta forced to 0",
        )

    pp = _profile_pool(T, na, nr, epsilons, seed, grid)
    rho: list[float] = []
    eta: list[float] = []
    for eps in epsilons:
        feas = pp.dists >= eps - FEAS_SLACK
        if not np.any(feas):
            rho.append(0.0)
            eta.append(nr.value)
        else:
            r = float(np.max(pp.values[feas]))
            rho.append(r)
            eta.append(max(0.0, nr.value - r))
    notes = ""
    if pp.repaired:
        notes = f"diagnostic: {pp.repaired} missed attainment cluster(s) absorbed during profiling"
    return SbpbProfile(
        epsilons=epsilons,
        rho=rho,
        eta=eta,
        na_empty=False,
        norm_value=nr.value,
        continuum_flag=na.continuum_flag,
        notes=notes,
    )


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
    nr = opnorm(T, tol=tol, seed=seed)
    if not nr.certified:
        raise UncertifiedNormError("witness search requires a certified norm")
    na = na_set(T, value_tol, cluster_tol, tol=tol, seed=seed, norm_result=nr)
    if na.na_empty:
        return None
    pp = _profile_pool(T, na, nr, [float(eps)], seed)
    feas = pp.dists >= eps - FEAS_SLACK
    if not np.any(feas):
        return None
    j = int(np.argmax(np.where(feas, pp.values, -np.inf)))
    if pp.values[j] > nr.value - eta:
        return unit(pp.coords[:, j], T.domain)
    return None
