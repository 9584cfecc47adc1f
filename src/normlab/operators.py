"""Matrix operators between l_p spaces, mixed block norms, and the gallery.

An operator is a real matrix together with a domain and a range space.
Spaces are either flat ``SequenceSpace``s, block/mixed spaces (the outer
exponent applied to the vector of inner block norms), or any 2D object
exposing ``dim``/``norm``/``norm_cols`` (see ``convexity.Norm2D``).

Structured constructions (block diagonal, zero-padded) remember how they
were built so the norm computation can certify them exactly from their 2D
constituents.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .spaces import (
    INF,
    SequenceSpace,
    UnitVector,
    check_exponent,
    dual_exponent,
    pnorm,
    pnorm_cols,
)

# each gallery tag with the parameters `from_gallery` and `repro.reproduce` use where none is given
DEFAULT_PARAMS = {
    "DIAG-2-INF": {"beta": 0.5},
    "DIAG-2-2": {"beta": 0.5},
    "DIAG-P-Q": {"beta": 0.5, "p": 1.5, "q": 3.0},
    "ROT-2-1": {"beta": 0.5},
    "ROT-2-Q": {"beta": 1.0, "q": 1.5},
    "COMPOSE-P-Q": {"beta": 0.5, "p": 1.5, "q": 1.0},
    "BIORTH-INF": {"beta": 0.5, "p": 2.0, "dim": 3},
    "AUERBACH-YY": {"beta": 0.5, "p": 2.0},
    "PROJ-N-2": {"beta": 0.5, "dim": 4},
    "BLOCK-N": {"blocks": 5},
    "LPLQ-FAIL-N": {"p": 2.0, "q": 2.0, "blocks": 5},
}
GALLERY_TAGS = tuple(DEFAULT_PARAMS)


class HypothesisError(ValueError):
    """A construction was requested outside its hypothesis range."""


@dataclass(frozen=True)
class BlockSpace:
    """Outer l_p sum of finite-dimensional blocks: ||x|| = || (||x_n||)_n ||_outer."""

    outer_p: float
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "outer_p", check_exponent(self.outer_p))
        if not self.blocks:
            raise ValueError("BlockSpace needs at least one block")

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def _offsets(self):
        off = [0]
        for b in self.blocks:
            off.append(off[-1] + b.dim)
        return off

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=float)
        off = self._offsets()
        inner = [b.norm(x[off[i]:off[i + 1]]) for i, b in enumerate(self.blocks)]
        return pnorm(inner, self.outer_p)

    def norm_cols(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        off = self._offsets()
        inner = np.vstack(
            [b.norm_cols(X[off[i]:off[i + 1], :]) for i, b in enumerate(self.blocks)]
        )
        return pnorm_cols(inner, self.outer_p)

    def dual(self) -> "BlockSpace":
        return BlockSpace(dual_exponent(self.outer_p), tuple(b.dual() for b in self.blocks))

    def __repr__(self):
        p = "inf" if self.outer_p == INF else f"{self.outer_p:g}"
        return f"l_{p}({'+'.join(map(repr, self.blocks))})"


def space_to_json(space) -> dict:
    """{"dim", "p"} of a space: "p" is a float, "inf", or "custom" for a
    general 2D norm; a BlockSpace adds "blocks", with "p" its outer exponent."""
    p = getattr(space, "p", getattr(space, "outer_p", None))
    d = {"dim": space.dim, "p": "custom" if p is None else "inf" if p == INF else p}
    if isinstance(space, BlockSpace):
        d["blocks"] = [space_to_json(b) for b in space.blocks]
    return d


def space_from_json(d: dict):
    """The space whose `space_to_json` form is `d`."""
    if d["p"] == "custom":
        raise ValueError("cannot load a custom 2D norm from JSON: its evaluator is not stored")
    p = INF if d["p"] == "inf" else float(d["p"])
    if "blocks" in d:
        return BlockSpace(p, tuple(space_from_json(b) for b in d["blocks"]))
    return SequenceSpace(int(d["dim"]), p)


def params_to_json(params: dict) -> dict:
    """Gallery parameters as JSON: an infinite one is "inf", as in `space_to_json`."""
    return {k: "inf" if isinstance(v, float) and v == INF else to_json(v) for k, v in params.items()}


def params_from_json(d: dict) -> dict:
    """The parameters whose `params_to_json` form is `d`."""
    return {k: INF if v == "inf" else v for k, v in d.items()}


def to_json(obj):
    """The JSON form of a result: None, a bool, int, float or str as it is; a
    numpy float as a float; a list, tuple or dict item by item; an array or a
    UnitVector as its coordinate list; a space (anything with `norm_cols`) as
    `space_to_json` writes it; a dataclass as the dict of the fields its repr
    shows.  Any other type raises TypeError."""
    if obj is None or type(obj) in (bool, int, float, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, UnitVector):
        return obj.coords.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if hasattr(obj, "norm_cols"):
        return space_to_json(obj)
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj) if f.repr}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


APPLY_CHUNK = 32768  # columns per pass of apply_cols: its temporaries stay in cache


def apply_cols(M, X) -> np.ndarray:
    """M x for each column x of X, with M one (m, n) matrix or an (N, m, n)
    stack of one matrix per column: sum_k M[:, k] x_k in the order of k, so a
    column's result does not depend on the other columns (a BLAS product
    rounds by its width and layout).  Wide X goes in APPLY_CHUNK columns at a time."""
    M = M[None] if M.ndim == 2 else M
    if X.shape[1] > APPLY_CHUNK:
        Y = np.empty((M.shape[1], X.shape[1]))
        for s in range(0, X.shape[1], APPLY_CHUNK):
            c = slice(s, s + APPLY_CHUNK)
            Y[:, c] = apply_cols(M[c] if M.shape[0] > 1 else M, X[:, c])
        return Y
    Y = M[:, :, 0].T * X[0]
    for k in range(1, X.shape[0]):
        Y += M[:, :, k].T * X[k]
    return Y


def _column_map(flat, dual: bool, space, v) -> np.ndarray:
    """The image of each column of v (a vector is one column) under a dual
    map: `flat(p, V, |V| / column max, nonzero columns)` on a flat space,
    where a zero column goes to e_0; on a BlockSpace each block's image,
    scaled by the outer space's image of the block norms (the blocks' dual
    norms if `dual`)."""
    v = np.asarray(v, dtype=float)
    V = v.reshape(v.shape[0], -1)
    if isinstance(space, BlockSpace):
        off = space._offsets()
        parts = [(b, V[off[i]:off[i + 1]]) for i, b in enumerate(space.blocks)]
        norms = np.vstack([(b.dual() if dual else b).norm_cols(P) for b, P in parts])
        w = _column_map(flat, dual, SequenceSpace(len(parts), space.outer_p), norms)
        return np.vstack([w[i] * _column_map(flat, dual, b, P) for i, (b, P) in enumerate(parts)]).reshape(v.shape)
    A = np.abs(V)
    m = A.max(axis=0)
    nonzero = m > 0.0
    U = flat(space.p, V, A / np.where(nonzero, m, 1.0), nonzero)
    if not nonzero.all():
        U[:, ~nonzero] = 0.0
        U[0, ~nonzero] = 1.0
    return U.reshape(v.shape)


def _signed_argmax(V, A) -> np.ndarray:
    """sign(v_k) e_k per column, k the first index of its largest |v_k|."""
    U = np.zeros_like(V)
    k, j = np.argmax(A, axis=0), np.arange(V.shape[1])
    U[k, j] = np.copysign(1.0, V[k, j])
    return U


def _norm_dual_flat(q, Y, A, nonzero):
    if q == INF:
        return _signed_argmax(Y, A)
    if q == 1.0:
        return np.sign(Y)
    U = np.sign(Y) * A ** (q - 1.0)
    return U / np.where(nonzero, pnorm_cols(U, dual_exponent(q)), 1.0)


def _dual_attainer_flat(p, Z, A, nonzero):
    if p == INF:
        return np.where(Z >= 0.0, 1.0, -1.0)
    if p == 1.0:
        return _signed_argmax(Z, A)
    X = np.sign(Z) * A ** (dual_exponent(p) - 1.0)
    return X / np.where(nonzero, pnorm_cols(X, p), 1.0)


def norm_dual_vector(space, y) -> np.ndarray:
    """A norm-one-in-dual vector u with <u, y> = ||y|| (norm subgradient at
    y), for y a vector or for each column of a (dim, k) array."""
    return _column_map(_norm_dual_flat, False, space, y)


def dual_attainer(space, z) -> np.ndarray:
    """Unit vector of `space` maximizing <z, x> (the dual-norm attainer), for
    z a vector or for each column of a (dim, k) array."""
    return _column_map(_dual_attainer_flat, True, space, z)


@dataclass(frozen=True)
class GalleryId:
    """Tag plus parameters identifying one gallery construction."""

    tag: str
    params: tuple  # sorted (name, value) pairs

    def __post_init__(self):
        if self.tag not in GALLERY_TAGS:
            raise ValueError(f"unknown gallery tag {self.tag!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @staticmethod
    def make(tag: str, **params) -> "GalleryId":
        return GalleryId(tag, tuple(params.items()))

    def as_dict(self) -> dict:
        return dict(self.params)


@dataclass
class OperatorPQ:
    """A real matrix acting from `domain` to `range` (rows = range dim)."""

    matrix: np.ndarray
    domain: object
    range: object
    gallery: GalleryId | None = None
    structure: tuple | None = None  # ("blockdiag", ops) | ("pad", R) | None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("operator matrix must be 2-dimensional")
        if self.matrix.shape != (self.range.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"(range.dim, domain.dim) = ({self.range.dim}, {self.domain.dim})"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("operator matrix entries must be finite")

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.domain.dim,):
            raise ValueError(
                f"input length {x.shape} does not match domain dim {self.domain.dim}"
            )
        return self.matrix @ x

    def range_values(self, X) -> np.ndarray:
        """||T x||_range per column x of X; wide X in APPLY_CHUNK-column slices (cache-sized, same bits)."""
        X = np.asarray(X, dtype=float)
        if X.shape[1] <= APPLY_CHUNK:
            return self.range.norm_cols(apply_cols(self.matrix, X))
        return np.concatenate([self.range.norm_cols(apply_cols(self.matrix, X[:, s:s + APPLY_CHUNK]))
                               for s in range(0, X.shape[1], APPLY_CHUNK)])

    def adjoint(self) -> "OperatorPQ":
        structure = None
        if self.structure is not None and self.structure[0] == "blockdiag":
            structure = ("blockdiag", tuple(op.adjoint() for op in self.structure[1]))
        return OperatorPQ(
            self.matrix.T.copy(),
            domain=self.range.dual(),
            range=self.domain.dual(),
            structure=structure,
        )

    def to_json_dict(self) -> dict:
        return {
            "tag": self.gallery.tag if self.gallery else None,
            "params": params_to_json(self.gallery.as_dict()) if self.gallery else {},
            "matrix": self.matrix.tolist(),
            "p": space_to_json(self.domain)["p"],
            "q": space_to_json(self.range)["p"],
        }


def apply(T: OperatorPQ, x) -> np.ndarray:
    """Matrix-vector action of the operator."""
    return T.apply(x)


def adjoint(T: OperatorPQ) -> OperatorPQ:
    """Transpose with dualized exponents: the q' -> p' adjoint."""
    return T.adjoint()


# ---------------------------------------------------------------------------
# gallery constructors
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisError(msg)


def make_diag_beta(beta: float, p, q) -> OperatorPQ:
    """diag(beta, 1): l_p^2 -> l_q^2 with 1 < p <= q < inf or p < q = inf.

    Unit norm, attained only at +-e2; ||T e1||_q = beta and the attainment
    set sits at p-distance 2^(1/p) from e1.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    _require(0.0 < beta < 1.0, f"diag construction requires beta in (0,1); got {beta}")
    _require(p > 1.0 and p != INF, f"diag construction requires 1 < p < inf; got p={p}")
    _require(
        q >= p, f"diag construction requires p <= q (or p < q = inf); got p={p}, q={q}"
    )
    if q == INF:
        tag = "DIAG-2-INF" if p == 2.0 else "DIAG-P-Q"
    elif p == 2.0 and q == 2.0:
        tag = "DIAG-2-2"
    else:
        tag = "DIAG-P-Q"
    return OperatorPQ(
        np.diag([beta, 1.0]),
        SequenceSpace(2, p),
        SequenceSpace(2, q),
        gallery=GalleryId.make(tag, beta=beta, p=p, q=q),
    )


def make_rot_l1(beta: float) -> OperatorPQ:
    """(x, y) -> ((beta x - y)/2, (beta x + y)/2): l_2^2 -> l_1^2."""
    _require(0.0 < beta <= 1.0, f"rotation into l_1 requires beta in (0,1]; got {beta}")
    M = np.array([[beta / 2.0, -0.5], [beta / 2.0, 0.5]])
    return OperatorPQ(
        M,
        SequenceSpace(2, 2.0),
        SequenceSpace(2, 1.0),
        gallery=GalleryId.make("ROT-2-1", beta=beta),
    )


def make_rot_lq(beta: float, q) -> OperatorPQ:
    """(x, y) -> ((beta x - y), (beta x + y)) / 2^(1/q): l_2^2 -> l_q^2, 1 <= q < 2.

    For q >= 2 the construction breaks down: the arc midpoint already reaches
    value >= 1, so the request is refused.
    """
    q = check_exponent(q)
    _require(0.0 < beta <= 1.0, f"rotation into l_q requires beta in (0,1]; got {beta}")
    _require(
        1.0 <= q < 2.0,
        f"rotation into l_q requires 1 <= q < 2 (at q >= 2 the midpoint "
        f"(1/sqrt2, 1/sqrt2) reaches value >= 1); got q={q}",
    )
    r = 2.0 ** (-1.0 / q)
    M = np.array([[beta * r, -r], [beta * r, r]])
    return OperatorPQ(
        M,
        SequenceSpace(2, 2.0),
        SequenceSpace(2, q),
        gallery=GalleryId.make("ROT-2-Q", beta=beta, q=q),
    )


def make_compose(beta: float, p, q) -> OperatorPQ:
    """Rotation into l_q precomposed with the identity l_p^2 -> l_2^2.

    Requires 1 < p <= 2 and 1 <= q < 2; the coordinates match the rotation
    matrix, only the domain exponent changes.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    _require(0.0 < beta < 1.0, f"composition requires beta in (0,1); got {beta}")
    _require(1.0 < p <= 2.0, f"composition requires 1 < p <= 2; got p={p}")
    _require(1.0 <= q < 2.0, f"composition requires 1 <= q < 2; got q={q}")
    base = make_rot_lq(beta, q)
    return OperatorPQ(
        base.matrix.copy(),
        SequenceSpace(2, p),
        SequenceSpace(2, q),
        gallery=GalleryId.make("COMPOSE-P-Q", beta=beta, p=p, q=q),
    )


def make_biorth_inf(space: SequenceSpace, eta: float) -> OperatorPQ:
    """x -> ((1 - eta) x_1, x_2) into l_inf^2, from any l_p^n with n >= 2.

    The first two coordinate functionals form a biorthogonal system of norm
    one for every p, so the construction is valid on all of them.
    """
    _require(space.dim >= 2, f"biorthogonal construction requires dim >= 2; got {space.dim}")
    _require(0.0 < eta < 1.0, f"biorthogonal construction requires eta in (0,1); got {eta}")
    n = space.dim
    M = np.zeros((2, n))
    M[0, 0] = 1.0 - eta
    M[1, 1] = 1.0
    R = OperatorPQ(
        np.diag([1.0 - eta, 1.0]), SequenceSpace(2, space.p), SequenceSpace(2, INF)
    )
    return OperatorPQ(
        M,
        space,
        SequenceSpace(2, INF),
        gallery=GalleryId.make("BIORTH-INF", eta=eta, p=space.p, dim=n),
        structure=("pad", R),
    )


def make_auerbach_yy(basis, beta: float) -> OperatorPQ:
    """beta y1*(y) e1 + y2*(y) e2 on a 2D space, from an Auerbach system.

    `basis` is a convexity.AuerbachSystem; domain = range = its space.  With
    the canonical system on l_p^2 this reduces to diag(beta, 1).
    """
    _require(0.0 < beta < 1.0, f"Auerbach construction requires beta in (0,1); got {beta}")
    _require(
        getattr(basis.space, "dim", None) == 2,
        "Auerbach construction requires a 2-dimensional basis",
    )
    E = np.column_stack(basis.vectors)  # columns e1, e2
    F = np.vstack(basis.functionals)  # rows y1*, y2*
    M = E @ np.diag([beta, 1.0]) @ F
    return OperatorPQ(
        M,
        basis.space,
        basis.space,
        gallery=GalleryId.make(
            "AUERBACH-YY",
            beta=beta,
            p=getattr(basis.space, "p", "custom"),  # a general 2D norm, as `space_to_json` writes it
        ),
    )


def make_proj_then(R: OperatorPQ, n: int) -> OperatorPQ:
    """R composed with the projection onto the first two coordinates: [R | 0].

    Domain is l_p^n with p = R's domain exponent (n >= 2 stands in for the
    infinite-dimensional domain); the norm and attainment set are R's.
    """
    _require(R.domain.dim == 2, "projection construction requires a 2D-domain block")
    _require(n >= 2, f"projection construction requires n >= 2; got {n}")
    M = np.zeros((R.range.dim, n))
    M[:, :2] = R.matrix
    return OperatorPQ(
        M,
        SequenceSpace(n, R.domain.p),
        R.range,
        gallery=GalleryId.make("PROJ-N-2", dim=n),
        structure=("pad", R),
    )


def make_block(ops, p_outer=2.0, q_outer=INF) -> OperatorPQ:
    """Block-diagonal operator between outer l_p / l_q sums of the blocks.

    The domain norm is the p_outer-norm of the vector of block domain norms
    (and analogously for the range); when every inner exponent equals the
    outer one the space collapses to the flat l_p of the total dimension,
    which is the same norm exactly.
    """
    ops = list(ops)
    _require(len(ops) >= 1, "block construction requires at least one block")
    p_outer = check_exponent(p_outer)
    q_outer = check_exponent(q_outer)
    d0, r0 = ops[0].domain.dim, ops[0].range.dim
    for op in ops:
        _require(
            op.domain.dim == d0 and op.range.dim == r0,
            "all blocks must share domain/range dimensions",
        )
    dom_blocks = tuple(op.domain for op in ops)
    rng_blocks = tuple(op.range for op in ops)

    def _assemble(blocks, outer):
        flat = all(
            isinstance(b, SequenceSpace) and b.p == outer for b in blocks
        )
        if flat:
            return SequenceSpace(sum(b.dim for b in blocks), outer)
        return BlockSpace(outer, blocks)

    N = len(ops)
    M = np.zeros((N * r0, N * d0))
    for i, op in enumerate(ops):
        M[i * r0:(i + 1) * r0, i * d0:(i + 1) * d0] = op.matrix
    return OperatorPQ(
        M,
        _assemble(dom_blocks, p_outer),
        _assemble(rng_blocks, q_outer),
        gallery=GalleryId.make("BLOCK-N", n_blocks=N),
        structure=("blockdiag", tuple(ops)),
    )


def make_shrinking_blocks(N: int, p=2.0, q=2.0) -> list[OperatorPQ]:
    """Blocks diag(n/(n+1), 1), n = 1..N, each on l_p^2 -> l_q^2."""
    _require(N >= 1, f"need at least one block; got {N}")
    return [
        OperatorPQ(
            np.diag([n / (n + 1.0), 1.0]), SequenceSpace(2, p), SequenceSpace(2, q)
        )
        for n in range(1, N + 1)
    ]


def make_lplq_fail(p, q, N: int) -> OperatorPQ:
    """Block diagonal of diag(1 - 1/(2n), 1), n = 1..N, as l_p^{2N} -> l_q^{2N}.

    Finite truncation of the sequence-space construction whose modulus
    profile degenerates: the n-th block nearly attains the norm while the
    attainment set keeps every odd coordinate at zero.
    """
    p = check_exponent(p)
    q = check_exponent(q)
    _require(
        1.0 < p <= q < INF,
        f"the failing l_p -> l_q family requires 1 < p <= q < inf; got p={p}, q={q}",
    )
    _require(N >= 1, f"need at least one block; got {N}")
    T = make_block(
        [
            OperatorPQ(np.diag([1.0 - 1.0 / (2.0 * n), 1.0]), SequenceSpace(2, p), SequenceSpace(2, q))
            for n in range(1, N + 1)
        ],
        p,
        q,
    )
    T.gallery = GalleryId.make("LPLQ-FAIL-N", p=p, q=q, n_blocks=N)
    return T


def from_gallery(tag: str, **params) -> OperatorPQ:
    """Build a gallery operator from its tag and canonical parameters, each
    one not given taken from DEFAULT_PARAMS.

    Canonical parameters: beta everywhere a contraction factor appears
    (BIORTH-INF uses eta = 1 - beta), p/q exponents, dim for ambient
    dimension, blocks for the number of diagonal blocks.
    """
    if tag not in DEFAULT_PARAMS:
        raise ValueError(f"unknown gallery tag {tag!r}")
    params = dict(DEFAULT_PARAMS[tag], **params)
    if tag == "DIAG-2-INF":
        return make_diag_beta(params["beta"], 2.0, INF)
    if tag == "DIAG-2-2":
        return make_diag_beta(params["beta"], 2.0, 2.0)
    if tag == "DIAG-P-Q":
        return make_diag_beta(params["beta"], params["p"], params["q"])
    if tag == "ROT-2-1":
        return make_rot_l1(params["beta"])
    if tag == "ROT-2-Q":
        return make_rot_lq(params["beta"], params["q"])
    if tag == "COMPOSE-P-Q":
        return make_compose(params["beta"], params["p"], params["q"])
    if tag == "BIORTH-INF":
        return make_biorth_inf(SequenceSpace(int(params["dim"]), params["p"]), 1.0 - params["beta"])
    if tag == "AUERBACH-YY":
        from .convexity import auerbach_2d

        return make_auerbach_yy(auerbach_2d(SequenceSpace(2, params["p"])), params["beta"])
    if tag == "PROJ-N-2":
        R = OperatorPQ(np.diag([params["beta"], 1.0]), SequenceSpace(2, 2.0), SequenceSpace(2, 2.0))
        return make_proj_then(R, int(params["dim"]))
    if tag == "BLOCK-N":
        return make_block(make_shrinking_blocks(int(params["blocks"])))
    return make_lplq_fail(params["p"], params["q"], int(params["blocks"]))
