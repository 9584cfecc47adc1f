"""Finite-dimensional l_p geometry: exponents, norms, duality and unit spheres.

Exponents are plain floats with ``math.inf`` as the explicit max-norm
endpoint (no large-sentinel approximation).  Norms are computed with
max-factoring so that large exponents do not overflow.  Everything here is
pure and reentrant; values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

TWO_PI = 2.0 * math.pi

# |  ||x||_p - 1 |  allowed for a vector claiming to be on the unit sphere.
UNIT_NORM_TOL = 1e-10


def check_exponent(p) -> float:
    """Validate an l_p exponent: a finite real >= 1 or math.inf."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must be >= 1 or inf; got {p}")
    return p


def dual_exponent(p) -> float:
    """Conjugate exponent: 1/p + 1/p' = 1, with 1 <-> inf at the endpoints."""
    p = check_exponent(p)
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def pnorm(x, p) -> float:
    """(sum |x_i|^p)^(1/p), or max |x_i| for p = inf.

    Computed as m * (sum (|x_i|/m)^p)^(1/p) with m = max|x_i| to avoid
    overflow for large p.  Rejects p < 1 and non-finite entries.
    """
    p = check_exponent(p)
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("pnorm of an empty vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("pnorm requires finite entries")
    a = np.abs(x)
    m = float(a.max())
    if m == 0.0:
        return 0.0
    if p == INF:
        return m
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


def pnorm_cols(X, p, scalar_root: bool = False) -> np.ndarray:
    """Column-wise p-norms of a (dim, n) array, overflow-safe.

    Each column's terms are summed in row order, so a column's norm does not
    depend on the other columns (numpy sums a lone column pairwise); a lone
    row is its absolute value.  With `scalar_root` the root is Python's pow,
    giving up to 7 rows the bits of `pnorm` (numpy's pow rounds some roots
    differently)."""
    p = check_exponent(p)
    A = np.abs(np.asarray(X, dtype=float))
    if p == INF or A.shape[0] == 1:
        return A.max(axis=0)
    m = A.max(axis=0)
    zero = m == 0.0
    m[zero] = 1.0  # the scale of a zero column
    A /= m
    A **= p
    s = A[0] + A[1]
    for row in A[2:]:
        s += row
    s = np.array([v ** (1.0 / p) for v in s.tolist()]) if scalar_root else s ** (1.0 / p)
    s *= m
    s[zero] = 0.0
    return s


@dataclass(frozen=True)
class SequenceSpace:
    """R^dim with the p-norm."""

    dim: int
    p: float

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer; got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "p", check_exponent(self.p))

    def norm(self, x) -> float:
        return pnorm(x, self.p)

    def norm_cols(self, X) -> np.ndarray:
        return pnorm_cols(X, self.p)

    def dual(self) -> "SequenceSpace":
        return SequenceSpace(self.dim, dual_exponent(self.p))

    # 2D only: continuous surjective parametrization of the unit sphere.
    def sphere_grid(self, thetas) -> np.ndarray:
        if self.dim != 2:
            raise ValueError("sphere parametrization by angle requires dim = 2")
        return sphere_grid_2d(thetas, self.p)

    def __repr__(self):
        p = "inf" if self.p == INF else f"{self.p:g}"
        return f"l_{p}^{self.dim}"


@dataclass
class UnitVector:
    """A vector certified to lie on the unit sphere of its space."""

    coords: np.ndarray
    space: object

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float).copy()
        if self.coords.ndim != 1 or self.coords.shape[0] != self.space.dim:
            raise ValueError("coords length must equal space dimension")
        r = self.space.norm(self.coords)
        if abs(r - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not a unit vector: norm residual {abs(r - 1.0):.3e}")

    def __repr__(self):
        body = ", ".join(f"{c:.6g}" for c in self.coords)
        return f"UnitVector([{body}], {self.space})"


def unit(coords, space) -> UnitVector:
    """Normalize coords in the space norm and wrap as a UnitVector."""
    coords = np.asarray(coords, dtype=float)
    r = space.norm(coords)
    if r == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return UnitVector(coords / r, space)


def sphere_grid_2d(thetas, p) -> np.ndarray:
    """Images of angles on the unit sphere of l_p^2, as a (2, n) array.

    Finite p uses (sign(cos)|cos|^(2/p), sign(sin)|sin|^(2/p)), which is unit
    because |cos|^2 + |sin|^2 = 1.  p = inf walks the square boundary by arc
    length, with quarter turns landing on the axes as in the circle case.
    """
    p = check_exponent(p)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if p == INF:
        s = (thetas % TWO_PI) * (8.0 / TWO_PI)
        x = np.empty_like(s)
        y = np.empty_like(s)
        m = s < 1.0
        x[m] = 1.0
        y[m] = s[m]
        m = (s >= 1.0) & (s < 3.0)
        x[m] = 2.0 - s[m]
        y[m] = 1.0
        m = (s >= 3.0) & (s < 5.0)
        x[m] = -1.0
        y[m] = 4.0 - s[m]
        m = (s >= 5.0) & (s < 7.0)
        x[m] = s[m] - 6.0
        y[m] = -1.0
        m = s >= 7.0
        x[m] = 1.0
        y[m] = s[m] - 8.0
        return np.vstack([x, y])
    # in place: a small call costs fewer numpy calls, a large one fewer temporaries
    U = np.empty((2, thetas.size))
    np.cos(thetas, out=U[0])
    np.sin(thetas, out=U[1])
    S = np.sign(U)
    np.abs(U, out=U)
    U **= 2.0 / p
    U *= S
    return U


def sphere_point_2d(theta, p) -> UnitVector:
    """Point of S_{l_p^2} at angle theta; continuous and surjective in theta."""
    space = SequenceSpace(2, p)
    return UnitVector(space.sphere_grid(np.asarray([float(theta)]))[:, 0], space)


def sphere_param_2d(x, p) -> float:
    """Inverse of the sphere parametrization: theta with x(theta) ~ x.

    For finite p the coordinate map is |cos theta|^(2/p), so the parameter is
    atan2 of the (p/2)-power coordinates, not the euclidean angle.
    """
    p = check_exponent(p)
    x1, x2 = float(x[0]), float(x[1])
    if p != INF:
        e = p / 2.0
        return math.atan2(
            math.copysign(abs(x2) ** e, x2), math.copysign(abs(x1) ** e, x1)
        ) % TWO_PI
    ax1, ax2 = abs(x1), abs(x2)
    if ax1 >= ax2:  # right or left edge of the square
        if x1 > 0:
            s = x2 if x2 >= 0.0 else 8.0 + x2
        else:
            s = 4.0 - x2
    else:  # top or bottom edge
        s = 2.0 - x1 if x2 > 0 else 6.0 + x1
    return (s / 8.0) * TWO_PI


def _sphere_grid_3d(space, m: int) -> np.ndarray:
    """Unit vectors of a 3D space on the spherical product grid of 2m azimuths
    and m polar angles, each direction rescaled onto the unit sphere."""
    phi = np.linspace(0.0, TWO_PI, 2 * m, endpoint=False)
    psi = np.linspace(0.0, math.pi, m)
    P, S = np.meshgrid(phi, psi, indexing="ij")
    U = np.vstack([(np.cos(P) * np.sin(S)).ravel(), (np.sin(P) * np.sin(S)).ravel(), np.cos(S).ravel()])
    norms = space.norm_cols(U)
    return U / np.where(norms > 0.0, norms, 1.0)


def uniform_grid_2d(space, n: int, closed: bool = False) -> np.ndarray:
    """`space.sphere_grid` at the angles 2 pi j / n, j < n (and j = n if `closed`: point 0
    again, or the formula at 2 pi), as a (2, n + closed) array.  On a `SequenceSpace` with n % 8 == 0
    only octant 0, j <= n/8, is the formula's, its diagonal made (d, d), d = 2^(-1/p); the
    rest are exact signed permutations of it (x <-> y, the quarter turn (x, y) -> (-y, x),
    negation), +0.0 on the axes, so the grid is closed under all eight bit for bit."""
    thetas = np.linspace(0.0, TWO_PI, n + 1)[:n + closed]
    if not isinstance(space, SequenceSpace) or n % 8:
        return space.sphere_grid(thetas)
    e = n // 8
    X = np.empty((2, n + closed))
    X[:, :e + 1] = space.sphere_grid(thetas[:e + 1])
    X[:, e] = 2.0 ** (-1.0 / space.p)
    X[:, e + 1:2 * e] = X[::-1, e - 1:0:-1]
    X[0, 2 * e:4 * e], X[1, 2 * e:4 * e] = -X[1, :2 * e], X[0, :2 * e]
    np.negative(X[:, :4 * e], out=X[:, 4 * e:n])
    X[0, 2 * e::4 * e] = X[1, ::4 * e] = 0.0  # negation leaves -0.0 on the axes
    X[:, n:] = X[:, :1]
    return X


def sample_sphere_coords(space, count: int, seed: int) -> np.ndarray:
    """(dim, count) array of unit vectors of `space`, deterministic in seed.

    dim = 2 uses the angle grid `uniform_grid_2d`; higher dimensions p-normalize
    draws from a rotation-invariant Gaussian generator (all sign orthants reachable).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if space.dim == 2 and hasattr(space, "sphere_grid"):
        return uniform_grid_2d(space, count)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((space.dim, count))
    norms = space.norm_cols(G)
    while np.any(norms < 1e-12):  # essentially impossible; regenerate degenerates
        bad = norms < 1e-12
        G[:, bad] = rng.standard_normal((space.dim, int(bad.sum())))
        norms = space.norm_cols(G)
    return G / norms


def sphere_sample(space, count: int, seed: int) -> list[UnitVector]:
    """Deterministic list of unit vectors covering the sphere of `space`."""
    X = sample_sphere_coords(space, count, seed)
    return [UnitVector(X[:, j], space) for j in range(X.shape[1])]
