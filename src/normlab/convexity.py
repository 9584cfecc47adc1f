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
    pnorm_cols,
    sample_sphere_coords,
)
from .operators import OperatorPQ, space_from_json, to_json
from .attainment import _profile_parts
from .normcomp import _bisect, _check_grid, _zoom_max

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


# pi - phi at or below which an eps-chord is taken as the antipodal pair
ANTIPODAL_GAP = 1e-7


def delta_numeric(space, epsilons, *, grid: int = 64) -> ConvexityModulus:
    """Modulus of uniform convexity by the eps-chord (dim <= 3).

    In a normed plane delta(eps) is the infimum of 1 - ||(x + y)/2|| over
    unit x, y with ||x - y|| = eps, and ||x - y|| does not decrease as y
    runs along the circle from x to -x: each x(theta) has one chord point,
    found by bisection.  The first least of `grid` angles on the fundamental
    domain ([0, pi/2) on l_p^2, [0, pi) on a `Norm2D`) is refined on
    shrinking 9-point grids, each bisecting from a bracket predicted by the
    grid before and checked at its ends (else from [0, pi]).  A 3D
    `SequenceSpace` takes l_p^2's values (delta(l_p^n) = delta(l_p^2)),
    witnesses padded with a zero.  A pair feasible at eps is feasible below
    it, so the running minimum from the largest eps down makes delta
    nondecreasing in eps exactly as computed.
    """
    _check_grid(grid)
    epsilons = [float(e) for e in epsilons]
    for e in epsilons:
        if not (0.0 < e <= 2.0 + 1e-9):
            raise ValueError(f"eps must lie in (0, 2]; got {e}")
    if isinstance(space, SequenceSpace) and space.dim == 3:
        mod = delta_numeric(SequenceSpace(2, space.p), epsilons, grid=grid)
        pad = [(np.append(x, 0.0), np.append(y, 0.0)) for x, y in mod.witness_pairs]
        return ConvexityModulus(space, epsilons, mod.delta, pad)
    if space.dim == 2:
        period = math.pi / 2.0 if isinstance(space, SequenceSpace) else math.pi
        deltas, witnesses = _delta_chord(space, epsilons, grid, period)
    elif space.dim == 3:
        deltas, witnesses = _delta_3d(space, epsilons)
    else:
        raise ValueError("modulus sweep supports dimensions 2 and 3 only")
    best = None
    for i in sorted(range(len(epsilons)), key=epsilons.__getitem__, reverse=True):
        if best is not None and deltas[best] < deltas[i]:
            deltas[i], witnesses[i] = deltas[best], witnesses[best]
        else:
            best = i
    return ConvexityModulus(space, epsilons, deltas, witnesses)


def _chords(space, thetas, eps, lo=None, hi=None):
    """(1 - ||(x + y)/2||, x, y, phi) at the eps-chord of every x(theta_i), eps_i.

    The level is eps exactly: a slack below it would let through, at eps = 2
    on l_2, a chord at pi - phi ~ 1e-6 of value 1 - 1e-6.  Where the distance
    is flat near -x, the chord angle is known only to about sqrt(u), so a
    chord within ANTIPODAL_GAP of pi is (x, -x), of value exactly 1; that
    moves only values within about ANTIPODAL_GAP / 2 of 1.  An outward level,
    eps (1 + 8u), would lose l_1's (e1, e2), whose distance computes to 2.0.
    A bracket [lo_i, hi_i] is kept where the distance is below eps at lo_i
    and reaches it at hi_i (or hi_i = pi), else [0, pi] is bisected: the
    distance does not decrease, so both hold the same first crossing.
    """
    n = thetas.size
    X = space.sphere_grid(thetas)
    if lo is None:
        lo, hi = np.zeros(n), np.full(n, math.pi)
    else:  # the distance at both ends in one call
        d = space.norm_cols(np.hstack([X, X]) - space.sphere_grid(np.concatenate([thetas + lo, thetas + hi])))
        kept = (d[:n] < eps) & ((d[n:] >= eps) | (hi == math.pi))
        lo, hi = np.where(kept, lo, 0.0), np.where(kept, hi, math.pi)
    phi = _bisect(lambda f: space.norm_cols(X - space.sphere_grid(thetas + f)), lo, hi, eps, np.zeros(n, bool))
    antipodal = math.pi - phi <= ANTIPODAL_GAP
    Y = np.where(antipodal, -X, space.sphere_grid(thetas + phi))
    return np.where(antipodal, 1.0, 1.0 - space.norm_cols((X + Y) / 2.0)), X, Y, phi


def _delta_chord(space, epsilons, grid, period):
    """The least chord value of each eps over `grid` angles on [0, period),
    then ten levels of 9 angles around the best, spans shrinking 4x per
    level; every (theta, eps) column of a level in one bisection, bracketed
    (and checked by `_chords`) by linear interpolation of the level before's
    chord angles, widened by their second difference plus 1e-14."""
    m = len(epsilons)
    rows = np.arange(m)
    T = np.tile(np.linspace(0.0, period, grid, endpoint=False), (m, 1))
    best_t, best_g, best_x, best_y = np.zeros(m), np.full(m, np.inf), np.zeros((2, m)), np.zeros((2, m))
    span, lo, hi, w = period / grid, None, None, np.linspace(-1.0, 1.0, 9)
    for _ in range(11):
        g, X, Y, phi = _chords(space, T.ravel(), np.repeat(epsilons, T.shape[1]), lo, hi)
        j, phi = g.reshape(T.shape).argmin(axis=1), phi.reshape(T.shape)  # the first least angle
        k = j + T.shape[1] * rows
        better = g[k] < best_g
        best_t = np.where(better, T.ravel()[k], best_t)
        best_g = np.where(better, g[k], best_g)
        best_x = np.where(better, X[:, k], best_x)
        best_y = np.where(better, Y[:, k], best_y)
        # phi one step before, at and after the new centre (the old one where nothing improved); phi has
        # period `period`, so the first grid wraps round exactly, a later level's wrapped end is a poor guess
        P = np.hstack([phi[:, [-1]], phi, phi[:, [0]]])
        a, c, b = (P[rows, np.where(better, j, T.shape[1] // 2) + i][:, None] for i in range(3))
        guess, r = c + np.abs(w) * (np.where(w < 0.0, a, b) - c), np.abs(a - 2.0 * c + b) + 1e-14
        lo, hi = np.clip(guess - r, 0.0, math.pi).ravel(), np.clip(guess + r, 0.0, math.pi).ravel()
        T = best_t[:, None] + np.linspace(-span, span, 9)
        span /= 4.0
    return np.maximum(best_g, 0.0).tolist(), list(zip(best_x.T, best_y.T))


def _delta_3d(space, epsilons):
    """The least pair value over the product grid of 52 x 26 directions and the six signed axes, rescaled."""
    X = np.hstack([_sphere_grid_3d(space, 26)] + [E / space.norm_cols(E) for E in (np.eye(3), -np.eye(3))])
    iu, ju = np.triu_indices(X.shape[1], k=1)
    # every pair, then (x, -x), the witness of delta 1 where no pair is feasible
    P, Q = np.hstack([X[:, iu], X[:, :1]]), np.hstack([X[:, ju], -X[:, :1]])
    dist = np.append(space.norm_cols(P - Q)[:-1], np.inf)
    val = 1.0 - space.norm_cols((P + Q) / 2.0)
    k = [int(np.argmin(np.where(dist >= eps - 1e-12, val, np.inf))) for eps in epsilons]
    return [max(float(val[i]), 0.0) for i in k], [(P[:, i], Q[:, i]) for i in k]


def delta_closed_form_high_p(eps: float, p: float) -> float:
    """1 - (1 - (eps/2)^p)^(1/p): independent oracle for l_p, p >= 2."""
    if p < 2.0:
        raise ValueError("closed form used as an oracle only for p >= 2")
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def delta_closed_form_hanner(eps: float, p: float) -> float:
    """Hanner's modulus, the root d of (1 - d + eps/2)^p + |1 - d - eps/2|^p
    = 2 (decreasing in d on [0, 1]) by float bisection: oracle for l_p, 1 < p < 2."""
    if not 1.0 < p < 2.0:
        raise ValueError("Hanner's modulus used as an oracle only for 1 < p < 2")
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (1.0 - mid + eps / 2.0) ** p + abs(1.0 - mid - eps / 2.0) ** p > 2.0:
            lo = mid
        else:
            hi = mid
    return lo


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
    _, v = _zoom_max(lambda t, _: np.abs(f @ space.sphere_grid(t)), thetas[k] - h, thetas[k] + h)
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
        t1 = float(_zoom_max(lambda t, _: dets(sphere(t), sphere(t2)), t1 - 0.01, t1 + 0.01)[0][0])
        t2 = float(_zoom_max(lambda t, _: dets(sphere(t1), sphere(t)), t2 - 0.01, t2 + 0.01)[0][0])
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
    Where no uniform convexity is expected (p = 1, inf), the verdict reads only the eps <= 1 (none: False).
    """
    if isinstance(space, Norm2D):
        raise ValueError("functional scan samples functionals on the dual sphere, which a general 2D norm lacks")
    if space.dim not in (2, 3):
        raise ValueError("functional scan supports dimensions 2 and 3")
    epsilons = sorted(float(e) for e in epsilons)
    if not epsilons:  # an empty all() or any() would give a verdict on nothing
        raise ValueError("functional scan needs at least one eps")
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
