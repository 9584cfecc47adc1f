"""Moduli of uniform convexity, the functional-case modulus check, and
Auerbach systems for 2D norms.

General 2D norms enter through the ``Norm2D`` handle: any positively
homogeneous convex evaluator, with the unit sphere parametrized by radial
rescaling of the angle sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    INF,
    TWO_PI,
    SequenceSpace,
    _sphere_grid_3d,
    dual_exponent,
    pnorm,
    sample_sphere_coords,
)
from .operators import OperatorPQ, space_from_json, to_json
from .attainment import _profile_parts
from .normcomp import _golden_max

# Thresholds for the functional-case verdicts, at the default sampler
# resolution (256 functionals on the dual sphere, 33 profiled in 2D, eps <= 1).
ETA_POSITIVE_FLOOR = 1e-6
ETA_NEAR_ZERO_CEIL = 0.02


@dataclass
class Norm2D:
    """A general 2D norm: positively homogeneous convex evaluator.

    `fn` must accept a (2, n) array of column vectors and return their n
    norms.  Construction rejects degenerate evaluators (zero or non-finite
    on a ray, or failing a sampled midpoint-convexity test).
    """

    fn: object
    name: str = "custom"
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        thetas = np.linspace(0.0, TWO_PI, 257)
        U = np.vstack([np.cos(thetas), np.sin(thetas)])
        vals = np.asarray(self.fn(U), dtype=float)
        if vals.shape != (257,) or not np.all(np.isfinite(vals)) or np.min(vals) <= 1e-12:
            raise ValueError("degenerate 2D norm: non-finite or vanishing on a ray")
        rng = np.random.default_rng(1234)
        A = rng.standard_normal((2, 128))
        B = rng.standard_normal((2, 128))
        mid = self.fn((A + B) / 2.0)
        if np.any(mid > (self.fn(A) + self.fn(B)) / 2.0 + 1e-9):
            raise ValueError("degenerate 2D norm: sampled midpoint convexity fails")

    def norm(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float).reshape(2, 1))[0])

    def norm_cols(self, X) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X, dtype=float)), dtype=float)

    def sphere_grid(self, thetas) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        U = np.vstack([np.cos(thetas), np.sin(thetas)])
        return U / self.norm_cols(U)

    def __repr__(self):
        return f"Norm2D({self.name})"


def lp_handle(p) -> Norm2D:
    """The l_p^2 norm wrapped as a general handle (mainly for testing)."""
    from .spaces import pnorm_cols

    return Norm2D(lambda X: pnorm_cols(X, p), name=f"l_{p:g}")


@dataclass
class ConvexityModulus:
    """delta(eps) = min over unit pairs at distance >= eps of 1 - ||midpoint||."""

    space: object
    epsilons: list
    delta: list
    witness_pairs: list  # one (x, y) coordinate pair per eps

    def to_csv_text(self) -> str:
        lines = ["epsilon,delta"]
        for e, d in zip(self.epsilons, self.delta):
            lines.append(f"{e!r},{d!r}")
        return "\n".join(lines) + "\n"

    to_json_dict = to_json

    @staticmethod
    def from_json_dict(d: dict) -> "ConvexityModulus":
        pairs = [(np.asarray(x), np.asarray(y)) for x, y in d["witness_pairs"]]
        return ConvexityModulus(**dict(d, space=space_from_json(d["space"]), witness_pairs=pairs))


def _pair_tables_2d(space, grid: int):
    grid += (-grid) % 4  # keep the axes on the grid
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    X = space.sphere_grid(thetas)
    iu, ju = np.triu_indices(grid, k=1)
    DX = X[:, iu] - X[:, ju]
    MX = (X[:, iu] + X[:, ju]) / 2.0
    dist = space.norm_cols(DX)
    val = 1.0 - space.norm_cols(MX)
    return thetas, X, iu, ju, dist, val


def delta_numeric(space, epsilons, *, grid: int = 640, refine: bool = True) -> ConvexityModulus:
    """Sampled modulus of uniform convexity with local refinement (dim <= 3).

    One shared pair table serves every eps, so delta is nondecreasing in eps
    exactly as computed.  Ties are broken toward the lexicographically
    smallest angle pair, which lands on (e1, e2) for the flat square cases.
    """
    epsilons = [float(e) for e in epsilons]
    for e in epsilons:
        if not (0.0 < e <= 2.0 + 1e-9):
            raise ValueError(f"eps must lie in (0, 2]; got {e}")
    if space.dim == 2:
        return _delta_2d(space, epsilons, grid, refine)
    if space.dim == 3:
        return _delta_3d(space, epsilons)
    raise ValueError("modulus sweep supports dimensions 2 and 3 only")


def _delta_2d(space, epsilons, grid, refine):
    thetas, X, iu, ju, dist, val = _pair_tables_2d(space, grid)
    ti, tj = thetas[iu], thetas[ju]
    # the pool of (angle 1, angle 2, distance, value) pairs: the table, then the
    # exact antipodal pairs, whose distances are 2 ||x|| = 2 to rounding
    pool = [(ti, tj, dist, val),
            (thetas, (thetas + math.pi) % TWO_PI, 2.0 * space.norm_cols(X), 1.0 - np.zeros(X.shape[1]))]

    if refine:
        # chains: the six best feasible pairs of each eps, refined on shrinking
        # 9x9 angle grids around their best pair, all chains one level at a time
        chains = []
        for eps in epsilons:
            feas = dist >= eps - 1e-12
            if np.any(feas):
                # the six smallest by (value, index): no tie at rank six is
                # left to the order a sort kernel happens to leave it in
                key = np.where(feas, val, np.inf)
                cand = np.flatnonzero(key <= np.partition(key, 5)[5])
                order = cand[np.lexsort((cand, key[cand]))][:6]
                chains += [(eps, k) for k in order if feas[k]]
        n = len(chains)
        rows = np.arange(n)
        eps_lo = np.array([e for e, _ in chains]) - 1e-12
        k = np.array([k for _, k in chains], dtype=int)
        best_v, best_1, best_2 = val[k], ti[k], tj[k]
        span = TWO_PI / grid
        found = []  # per level: (a, b, dist, value, row has a feasible pair), each (n, 9)
        for _ in range(7 if n else 0):
            g1 = np.linspace(best_1 - span, best_1 + span, 9, axis=1)
            g2 = np.linspace(best_2 - span, best_2 + span, 9, axis=1)
            P = space.sphere_grid(np.hstack([g1, g2]).ravel()).reshape(2, n, 18)
            x0, Y = P[:, :, :9, None], P[:, :, None, 9:]  # row a, column b
            dloc = space.norm_cols((Y - x0).reshape(2, -1)).reshape(n, 9, 9)
            vloc = 1.0 - space.norm_cols(((Y + x0) / 2.0).reshape(2, -1)).reshape(n, 9, 9)
            ok = dloc >= eps_lo[:, None, None]
            m = np.argmin(np.where(ok, vloc, np.inf), axis=2)[:, :, None]
            v_row = np.take_along_axis(vloc, m, axis=2)[:, :, 0]
            b_row = np.take_along_axis(g2, m[:, :, 0], axis=1)
            row_ok = ok.any(axis=2)
            found.append((g1, b_row, np.take_along_axis(dloc, m, axis=2)[:, :, 0], v_row, row_ok))
            # the first strict improvement in row order, as a sequential scan takes it
            cand = np.where(row_ok, v_row, np.inf)
            i = np.argmin(cand, axis=1)
            better = cand[rows, i] < best_v
            best_v = np.where(better, cand[rows, i], best_v)
            best_1 = np.where(better, g1[rows, i], best_1)
            best_2 = np.where(better, b_row[rows, i], best_2)
            span /= 2.0
        if found:
            # pool order: chain, then level, then row
            a, b, d, v, ok = (np.stack(f, axis=1).ravel() for f in zip(*found))
            pool.append((a[ok], b[ok], d[ok], v[ok]))
    T1, T2, D, V = (np.concatenate(c) for c in zip(*pool))

    deltas = []
    witnesses = []
    for eps in epsilons:
        feas = D >= eps - 1e-12
        if not np.any(feas):
            deltas.append(1.0)
            x = space.sphere_grid(0.0)[:, 0]
            witnesses.append((x, -x))
            continue
        vmin = float(np.min(V[feas]))
        cand = np.nonzero(feas & (V <= vmin + 1e-9))[0]
        # lexicographically smallest angle pair among the near-minimal ones
        a1 = np.round(T1[cand] % TWO_PI, 12)
        a2 = np.round(T2[cand] % TWO_PI, 12)
        k = cand[np.lexsort((a2, a1))][0]
        P = space.sphere_grid(np.asarray([T1[k], T2[k]]))
        deltas.append(max(vmin, 0.0))
        witnesses.append((P[:, 0], P[:, 1]))
    return ConvexityModulus(space, epsilons, deltas, witnesses)


def _delta_3d(space, epsilons):
    X = _sphere_grid_3d(space, 26)
    n = X.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    dist = space.norm_cols(X[:, iu] - X[:, ju])
    val = 1.0 - space.norm_cols((X[:, iu] + X[:, ju]) / 2.0)
    deltas = []
    witnesses = []
    for eps in epsilons:
        feas = dist >= eps - 1e-12
        if not np.any(feas):
            deltas.append(1.0)
            witnesses.append((X[:, 0], -X[:, 0]))
            continue
        k = int(np.argmin(np.where(feas, val, np.inf)))
        deltas.append(max(float(val[k]), 0.0))
        witnesses.append((X[:, iu[k]], X[:, ju[k]]))
    return ConvexityModulus(space, epsilons, deltas, witnesses)


def delta_closed_form_high_p(eps: float, p: float) -> float:
    """1 - (1 - (eps/2)^p)^(1/p): independent oracle for l_p, p >= 2."""
    if p < 2.0:
        raise ValueError("closed form used as an oracle only for p >= 2")
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


@dataclass
class AuerbachSystem:
    """Unit vectors e1, e2 and unit-norm functionals with y_i*(e_j) = delta_ij."""

    vectors: tuple
    functionals: tuple
    space: object

    def biorthogonality_residual(self) -> float:
        E = np.column_stack(self.vectors)
        F = np.vstack(self.functionals)
        return float(np.max(np.abs(F @ E - np.eye(2))))

    def norm_residual(self) -> float:
        r = max(abs(self.space.norm(v) - 1.0) for v in self.vectors)
        rd = max(abs(_dual_norm_2d(self.space, f) - 1.0) for f in self.functionals)
        return float(max(r, rd))

    to_json_dict = to_json

    @staticmethod
    def from_json_dict(d: dict) -> "AuerbachSystem":
        return AuerbachSystem(**dict(d, vectors=tuple(map(np.asarray, d["vectors"])),
                                     functionals=tuple(map(np.asarray, d["functionals"])),
                                     space=space_from_json(d["space"])))


def _dual_norm_2d(space, f) -> float:
    """sup |<f, x>| over the unit sphere of a 2D space."""
    f = np.asarray(f, dtype=float)
    if isinstance(space, SequenceSpace):
        return pnorm(f, dual_exponent(space.p))
    thetas = np.linspace(0.0, TWO_PI, 4097)
    X = space.sphere_grid(thetas)
    vals = np.abs(f @ X)
    k = int(np.argmax(vals))
    h = thetas[1] - thetas[0]
    _, v = _golden_max(lambda t, _: np.abs(f @ space.sphere_grid(t)), thetas[k] - h, thetas[k] + h)
    return max(float(vals[k]), float(v[0]))


def auerbach_2d(norm_handle) -> AuerbachSystem:
    """An Auerbach system for a 2D norm.

    l_p spaces get the canonical coordinate system (exact: the coordinate
    functionals are biorthogonal with unit dual norm for every p).  General
    handles maximize |det(u, v)| over unit pairs by sweep plus alternating
    refinement; the functionals are the rows of the inverse basis matrix,
    which at a determinant maximizer have unit dual norm.
    """
    if getattr(norm_handle, "dim", None) != 2:
        raise ValueError("Auerbach construction requires a 2D norm")
    if isinstance(norm_handle, SequenceSpace):
        E = np.eye(2)
        return AuerbachSystem(vectors=(E[0], E[1]), functionals=(E[0].copy(), E[1].copy()), space=norm_handle)

    grid = 2048
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    X = norm_handle.sphere_grid(thetas)
    D = np.abs(X[0][:, None] * X[1][None, :] - X[1][:, None] * X[0][None, :])
    k = int(np.argmax(D))
    i, j = divmod(k, grid)
    t1, t2 = float(thetas[i]), float(thetas[j])

    def dets(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return np.abs(P[0] * Q[1] - P[1] * Q[0])

    sphere = norm_handle.sphere_grid
    for _ in range(6):  # alternating 1D refinements converge fast here
        t1 = float(_golden_max(lambda t, _: dets(sphere(t), sphere(t2)), t1 - 0.01, t1 + 0.01)[0][0])
        t2 = float(_golden_max(lambda t, _: dets(sphere(t1), sphere(t)), t2 - 0.01, t2 + 0.01)[0][0])
    E = norm_handle.sphere_grid(np.asarray([t1, t2]))
    F = np.linalg.inv(E)
    return AuerbachSystem(vectors=(E[:, 0], E[:, 1]), functionals=(F[0], F[1]), space=norm_handle)


@dataclass
class KimLeeReport:
    """Functional-case modulus scan over sampled unit functionals.

    For each eps: the minimum over sampled functionals of eta(eps, x*) where
    x* acts as a rank-one operator into the scalars, plus the first minimizing
    functional among the `n_profiled` of the `n_samples` that were profiled
    (on l_p^2 one per signed-permutation orbit, so a witness is an orbit
    representative).  `uniformly_convex_expected` states the verdict the scan is
    checked against: min eta > 0 on p in (1, inf), and an eta ~ 0 witness on
    p in {1, inf}.
    """

    space: object
    epsilons: list
    min_eta: list
    witness_functionals: list
    n_samples: int
    n_profiled: int
    uniformly_convex_expected: bool
    consistent: bool
    positive_floor: float = ETA_POSITIVE_FLOOR
    near_zero_ceil: float = ETA_NEAR_ZERO_CEIL

    to_json_dict = to_json

    @staticmethod
    def from_json_dict(d: dict) -> "KimLeeReport":
        return KimLeeReport(**dict(d, space=space_from_json(d["space"]),
                                   witness_functionals=[np.asarray(w) for w in d["witness_functionals"]]))


def kim_lee_check(space, epsilons, functional_samples: int = 256, seed: int = 0) -> KimLeeReport:
    """Scan unit functionals on `space` and profile eta(eps, x*) for each.

    Functionals are sampled on the dual sphere (a grid for 2D); each one is
    treated as a rank-one operator into the scalars and profiled with the
    same machinery as full operators, in one `_profile_parts` call with the
    same results as one profile each: on a 2D space in passes of 15
    functionals over the shared grid, in dimension 3 one constrained ascent.
    On l_p^2 with n % 8 == 0 the angle grid is closed under the eight signed
    permutations, isometries that keep eta(eps, x*), so only j <= n/8, one
    functional per orbit, is profiled (`n_profiled`); otherwise all n are.
    """
    if space.dim not in (2, 3):
        raise ValueError("functional scan supports dimensions 2 and 3")
    epsilons = sorted(float(e) for e in epsilons)
    F = sample_sphere_coords(space.dual(), functional_samples, seed)
    orbits = isinstance(space, SequenceSpace) and space.dim == 2 and functional_samples % 8 == 0
    n_profiled = functional_samples // 8 + 1 if orbits else functional_samples
    scalar = SequenceSpace(1, 2.0)  # all q-norms agree on the scalars
    ops = [OperatorPQ(F[:, j].reshape(1, space.dim), space, scalar) for j in range(n_profiled)]
    eta = np.array([part.profile().eta for part in _profile_parts(ops, epsilons, seed=seed, grid=8192)])
    first = eta.argmin(axis=0)  # per eps, the first functional of least eta
    min_eta, witnesses = eta[first, np.arange(first.size)].tolist(), [F[:, j] for j in first]

    p = getattr(space, "p", 2.0)
    expected_uc = (p != 1.0) and (p != INF)
    if expected_uc:
        consistent = all(h > ETA_POSITIVE_FLOOR for h in min_eta)
    else:
        consistent = any(
            h < ETA_NEAR_ZERO_CEIL for e, h in zip(epsilons, min_eta) if e <= 1.0
        )
    return KimLeeReport(
        space=space,
        epsilons=epsilons,
        min_eta=min_eta,
        witness_functionals=witnesses,
        n_samples=functional_samples,
        n_profiled=n_profiled,
        uniformly_convex_expected=expected_uc,
        consistent=consistent,
    )
