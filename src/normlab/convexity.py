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
    dual_exponent,
    pnorm,
    sample_sphere_coords,
)
from .operators import OperatorPQ
from .attainment import sbpb_profile
from .normcomp import _golden_max

# Thresholds for the functional-case verdicts, at the default sampler
# resolution (256 functionals on the dual sphere, eps <= 1).
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

    def sphere_point(self, theta: float) -> np.ndarray:
        return self.sphere_grid(np.asarray([float(theta)]))[:, 0]

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

    def to_json_dict(self) -> dict:
        p = getattr(self.space, "p", None)
        return {
            "space": {
                "dim": self.space.dim,
                "p": "inf" if p == INF else p,
            },
            "epsilons": list(map(float, self.epsilons)),
            "delta": list(map(float, self.delta)),
            "witness_pairs": [
                [np.asarray(x).tolist(), np.asarray(y).tolist()]
                for x, y in self.witness_pairs
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ConvexityModulus":
        sp = d["space"]
        p = sp["p"]
        space = SequenceSpace(sp["dim"], INF if p == "inf" else float(p))
        return ConvexityModulus(
            space=space,
            epsilons=[float(v) for v in d["epsilons"]],
            delta=[float(v) for v in d["delta"]],
            witness_pairs=[(np.asarray(x), np.asarray(y)) for x, y in d["witness_pairs"]],
        )


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
    ti = thetas[iu]
    tj = thetas[ju]

    pool_t1 = [ti]
    pool_t2 = [tj]
    pool_d = [dist]
    pool_v = [val]

    # exact antipodal pairs: distances there are 2 ||x|| = 2 to rounding
    anti = X
    pool_t1.append(thetas)
    pool_t2.append((thetas + math.pi) % TWO_PI)
    pool_d.append(2.0 * space.norm_cols(anti))
    pool_v.append(1.0 - np.zeros(anti.shape[1]))

    if refine:
        span0 = TWO_PI / grid
        for eps in epsilons:
            feas = dist >= eps - 1e-12
            if not np.any(feas):
                continue
            order = np.argsort(np.where(feas, val, np.inf))[:6]
            for k in order:
                if not feas[k]:
                    continue
                t1, t2 = float(ti[k]), float(tj[k])
                span = span0
                best = (val[k], t1, t2)
                for _ in range(7):
                    g1 = np.linspace(best[1] - span, best[1] + span, 9)
                    g2 = np.linspace(best[2] - span, best[2] + span, 9)
                    for a in g1:
                        P = space.sphere_grid(np.concatenate([[a], g2]))
                        x0 = P[:, :1]
                        Y = P[:, 1:]
                        dloc = space.norm_cols(Y - x0)
                        vloc = 1.0 - space.norm_cols((Y + x0) / 2.0)
                        ok = dloc >= eps - 1e-12
                        if np.any(ok):
                            m = int(np.argmin(np.where(ok, vloc, np.inf)))
                            pool_t1.append(np.full(1, a))
                            pool_t2.append(np.asarray([g2[m]]))
                            pool_d.append(np.asarray([dloc[m]]))
                            pool_v.append(np.asarray([vloc[m]]))
                            if vloc[m] < best[0]:
                                best = (float(vloc[m]), float(a), float(g2[m]))
                    span /= 2.0

    T1 = np.concatenate(pool_t1)
    T2 = np.concatenate(pool_t2)
    D = np.concatenate(pool_d)
    V = np.concatenate(pool_v)

    deltas = []
    witnesses = []
    for eps in epsilons:
        feas = D >= eps - 1e-12
        if not np.any(feas):
            deltas.append(1.0)
            x = space.sphere_point(0.0)
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
    m = 26
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
    norms = space.norm_cols(U)
    X = U / np.where(norms > 0.0, norms, 1.0)
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

    def to_json_dict(self) -> dict:
        p = getattr(self.space, "p", None)
        return {
            "vectors": [np.asarray(v).tolist() for v in self.vectors],
            "functionals": [np.asarray(f).tolist() for f in self.functionals],
            "space": {
                "dim": self.space.dim,
                "p": ("inf" if p == INF else p) if p is not None else "custom",
            },
        }

    @staticmethod
    def from_json_dict(d: dict) -> "AuerbachSystem":
        sp = d["space"]
        space = SequenceSpace(sp["dim"], INF if sp["p"] == "inf" else float(sp["p"]))
        return AuerbachSystem(
            vectors=tuple(np.asarray(v) for v in d["vectors"]),
            functionals=tuple(np.asarray(f) for f in d["functionals"]),
            space=space,
        )


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
    _, v = _golden_max(lambda t: np.abs(f @ space.sphere_grid(t)), thetas[k] - h, thetas[k] + h)
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
        return AuerbachSystem(
            vectors=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            functionals=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            space=norm_handle,
        )

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
        t1 = float(_golden_max(lambda t: dets(sphere(t), sphere(t2)), t1 - 0.01, t1 + 0.01)[0][0])
        t2 = float(_golden_max(lambda t: dets(sphere(t1), sphere(t)), t2 - 0.01, t2 + 0.01)[0][0])
    P = norm_handle.sphere_grid(np.asarray([t1, t2]))
    E = P.copy()
    F = np.linalg.inv(E)
    return AuerbachSystem(
        vectors=(E[:, 0], E[:, 1]),
        functionals=(F[0], F[1]),
        space=norm_handle,
    )


@dataclass
class KimLeeReport:
    """Functional-case modulus scan over sampled unit functionals.

    For each eps: the minimum over sampled functionals of eta(eps, x*) where
    x* acts as a rank-one operator into the scalars, plus the minimizing
    functional.  `uniformly_convex_expected` states the verdict the scan is
    checked against: min eta > 0 on p in (1, inf), and an eta ~ 0 witness on
    p in {1, inf}.
    """

    space: object
    epsilons: list
    min_eta: list
    witness_functionals: list
    n_samples: int
    uniformly_convex_expected: bool
    consistent: bool
    positive_floor: float = ETA_POSITIVE_FLOOR
    near_zero_ceil: float = ETA_NEAR_ZERO_CEIL

    def to_json_dict(self) -> dict:
        p = getattr(self.space, "p", None)
        return {
            "space": {"dim": self.space.dim, "p": "inf" if p == INF else p},
            "epsilons": list(map(float, self.epsilons)),
            "min_eta": list(map(float, self.min_eta)),
            "witness_functionals": [np.asarray(w).tolist() for w in self.witness_functionals],
            "n_samples": self.n_samples,
            "uniformly_convex_expected": self.uniformly_convex_expected,
            "consistent": self.consistent,
            "positive_floor": self.positive_floor,
            "near_zero_ceil": self.near_zero_ceil,
        }


def kim_lee_check(space, epsilons, functional_samples: int = 256, seed: int = 0) -> KimLeeReport:
    """Scan unit functionals on `space` and profile eta(eps, x*) for each.

    Functionals are sampled on the dual sphere (a grid for 2D); each one is
    treated as a rank-one operator into the scalars and profiled with the
    same machinery as full operators.
    """
    if space.dim not in (2, 3):
        raise ValueError("functional scan supports dimensions 2 and 3")
    epsilons = sorted(float(e) for e in epsilons)
    dual = space.dual()
    F = sample_sphere_coords(dual, functional_samples, seed)
    scalar = SequenceSpace(1, 2.0)  # all q-norms agree on the scalars

    min_eta = [INF] * len(epsilons)
    witnesses = [F[:, 0]] * len(epsilons)
    for j in range(F.shape[1]):
        row = F[:, j]
        T = OperatorPQ(row.reshape(1, space.dim), space, scalar)
        prof = sbpb_profile(T, epsilons, seed=seed, grid=8192)
        for i, h in enumerate(prof.eta):
            if h < min_eta[i]:
                min_eta[i] = h
                witnesses[i] = row

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
        min_eta=[float(h) for h in min_eta],
        witness_functionals=witnesses,
        n_samples=functional_samples,
        uniformly_convex_expected=expected_uc,
        consistent=consistent,
    )
