"""Named harnesses: build each gallery operator, certify its norm, recover
its attainment set, and check every claimed constant with pinned tolerances.

Tolerances: 1e-6 for norms certified by 2D sweeps, 1e-4 for distance
constants, 1e-3 for block-diagonal cases and oracle cross-checks, 1e-9 for
plain linear-algebra identities.  Failures are recorded in the report, not
thrown; parameter values outside a construction's hypothesis range are
refused with the violated hypothesis named.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .spaces import INF, SequenceSpace, pnorm, sample_sphere_coords, unit
from .operators import (
    DEFAULT_PARAMS,
    GALLERY_TAGS,
    HypothesisError,
    OperatorPQ,
    from_gallery,
    make_rot_lq,
    params_from_json,
    params_to_json,
    to_json,
)
from .normcomp import _sharing, opnorm, opnorm_oracle
from .attainment import AttainmentSet, _profile_parts, dist_to_set, na_set, sbpb_profile

TOL_NORM = 1e-6
TOL_DIST = 1e-4
TOL_BLOCK = 1e-3
TOL_ORACLE = 1e-3
TOL_EXACT = 1e-9
TOL_MIDPOINT = 1e-10

GALLERY_INFO = {
    "DIAG-2-INF": {
        "params": {"beta": "(0, 1)"},
        "claim": "diag(beta,1): l_2^2 -> l_inf^2 has norm 1 attained only at +-e2; "
        "e1 has value beta yet sits at distance sqrt(2) from the attainment set",
    },
    "DIAG-2-2": {
        "params": {"beta": "(0, 1)"},
        "claim": "diag(beta,1): l_2^2 -> l_2^2 has norm 1 attained only at +-e2; "
        "e1 has value beta yet sits at distance sqrt(2) from the attainment set",
    },
    "DIAG-P-Q": {
        "params": {"beta": "(0, 1)", "p": "(1, inf)", "q": "[p, inf]"},
        "claim": "diag(beta,1): l_p^2 -> l_q^2 (1 < p <= q < inf or p < q = inf) has "
        "norm 1 attained only at +-e2, at p-distance 2^(1/p) from e1",
    },
    "ROT-2-1": {
        "params": {"beta": "(0, 1]"},
        "claim": "((beta x - y)/2, (beta x + y)/2): l_2^2 -> l_1^2 has norm 1; for "
        "beta < 1 it attains only at +-e2, at distance sqrt(2) from e1",
    },
    "ROT-2-Q": {
        "params": {"beta": "(0, 1]", "q": "[1, 2)"},
        "claim": "((beta x - y), (beta x + y))/2^(1/q): l_2^2 -> l_q^2 has norm 1; at "
        "beta = 1 it attains exactly at {+-e1, +-e2}; refused for q >= 2 where the "
        "arc midpoint reaches value >= 1",
    },
    "COMPOSE-P-Q": {
        "params": {"beta": "(0, 1)", "p": "(1, 2]", "q": "[1, 2)"},
        "claim": "the l_q rotation precomposed with the identity l_p^2 -> l_2^2 keeps "
        "norm 1, attains only at +-e2, at p-distance 2^(1/p) from e1",
    },
    "BIORTH-INF": {
        "params": {"beta": "(0, 1) (eta = 1 - beta)", "p": "[1, inf]", "dim": ">= 2"},
        "claim": "((1-eta) x_1, x_2) into l_inf^2 from any l_p^n: norm 1, every "
        "attainer has |second coordinate| = 1, hence distance >= 1 from e1",
    },
    "AUERBACH-YY": {
        "params": {"beta": "(0, 1)", "p": "[1, inf]"},
        "claim": "beta y1*(y) e1 + y2*(y) e2 on a 2D space via an Auerbach system: "
        "norm 1, every attainer has |y2*| = 1, hence distance >= 1 from e1",
    },
    "PROJ-N-2": {
        "params": {"beta": "(0, 1)", "dim": ">= 2"},
        "claim": "a 2D block followed by zero columns: the norm equals the block "
        "norm and every attainer has zero tail coordinates",
    },
    "BLOCK-N": {
        "params": {"blocks": ">= 1"},
        "claim": "block diagonal of diag(n/(n+1), 1) into the sup-sum: norm 1 with "
        "per-block near-attainers e_{1,n} at distance >= 1 from the attainment set; "
        "eta(0.9) <= 1/(N+1) + 1e-3",
    },
    "LPLQ-FAIL-N": {
        "params": {"p": "(1, q]", "q": "[p, inf)", "blocks": ">= 1"},
        "claim": "block diagonal of diag(1 - 1/(2n), 1) as l_p^{2N} -> l_q^{2N}: norm "
        "1, attainers have all odd coordinates zero, e_{1,n} sits at distance >= 1; "
        "eta(0.9) <= 1/(2N) + 1e-3",
    },
}


@dataclass
class CheckRecord:
    name: str
    expected: object
    computed: float
    tol: float
    passed: bool
    kind: str = "eq"  # eq | ge | le | diagnostic

    @property
    def residual(self) -> float:
        if self.kind == "eq":
            return abs(self.computed - float(self.expected))
        if self.kind == "ge":
            return max(0.0, float(self.expected) - self.computed)
        if self.kind == "le":
            return max(0.0, self.computed - float(self.expected))
        return 0.0

    to_json_dict = to_json


@dataclass
class ReproReport:
    tag: str
    params: dict
    checks: list
    overall: bool
    runtime_ms: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def worst_residual(self) -> float:
        gating = [c.residual for c in self.checks if c.kind != "diagnostic"]
        return max(gating) if gating else 0.0

    def to_json_dict(self) -> dict:
        return dict(to_json(self), params=params_to_json(self.params))

    @staticmethod
    def from_json_dict(d: dict) -> "ReproReport":
        return ReproReport(**dict(d, params=params_from_json(d["params"]),
                                  checks=[CheckRecord(**c) for c in d["checks"]]))


def _eq(name, expected, computed, tol) -> CheckRecord:
    return CheckRecord(name, float(expected), float(computed), tol,
                       abs(float(computed) - float(expected)) <= tol, "eq")


def _ge(name, floor, computed, tol) -> CheckRecord:
    return CheckRecord(name, float(floor), float(computed), tol,
                       float(computed) >= float(floor) - tol, "ge")


def _le(name, ceil, computed, tol) -> CheckRecord:
    return CheckRecord(name, float(ceil), float(computed), tol,
                       float(computed) <= float(ceil) + tol, "le")


def _axis(dim: int, k: int, sign: float = 1.0) -> np.ndarray:
    v = np.zeros(dim)
    v[k] = sign
    return v


def _na_matches(T, na: AttainmentSet, expected_cols, tol) -> list[CheckRecord]:
    count = len(na.points)
    checks = [_eq("attainment_cluster_count", len(expected_cols), count, 0.0)]
    if count and expected_cols:
        errs = [min(T.domain.norm(p.coords - e) for p in na.points) for e in expected_cols]
        spurious = [min(T.domain.norm(p.coords - e) for e in expected_cols) for p in na.points]
        checks.append(_le("attainment_representative_error", 0.0, max(max(errs), max(spurious)), tol))
    return checks


def _eta_at(T, eps, nr, na) -> float:
    prof = sbpb_profile(T, [eps], norm_result=nr, na=na)
    return prof.eta[0]


def reproduce(tag: str, params: dict | None = None, *, seed: int = 0) -> ReproReport:
    """Run the claim checklist for one construction; see GALLERY_INFO for claims.

    Every construction is built, its norm certified and cross-checked by the
    grid oracle, and its attainment set taken here; its harness adds the
    checks of its own claim.
    """
    if tag not in GALLERY_TAGS:
        raise HypothesisError(f"unknown construction tag {tag!r}")
    params = dict(DEFAULT_PARAMS[tag], **(params or {}))
    t0 = time.perf_counter()
    T = from_gallery(tag, **params)
    nr = opnorm(T, seed=seed)
    norm_tol = TOL_BLOCK if tag in ("BLOCK-N", "LPLQ-FAIL-N") else TOL_NORM
    checks = [
        _eq("operator_norm_is_one", 1.0, nr.value, norm_tol),
        _eq("oracle_cross_check", nr.value, opnorm_oracle(T, grid=100000).value, TOL_ORACLE),
    ]
    na = na_set(T, norm_result=nr, seed=seed)
    own, diagnostics = _HARNESSES[tag](T, nr, na, params, seed)
    return _report(tag, params, checks + own, t0, seed, diagnostics)


def _report(tag, params, checks, t0, seed, diagnostics) -> ReproReport:
    """The report of `checks`, timed from t0: it passes when every check but the diagnostics passes."""
    overall = all(c.passed for c in checks if c.kind != "diagnostic")
    return ReproReport(tag, params, checks, overall, int(1000 * (time.perf_counter() - t0)), seed, diagnostics)


def _harness_diag(T, nr, na, params, seed):
    beta = params["beta"]
    checks = [_eq("value_at_e1", beta, pnorm(T.apply(_axis(2, 0)), T.range.p), TOL_EXACT)]
    checks += _na_matches(T, na, [_axis(2, 1), _axis(2, 1, -1.0)], TOL_DIST)
    d = dist_to_set(unit(_axis(2, 0), T.domain), na)
    checks.append(_eq("dist_e1_to_attainment", 2.0 ** (1.0 / T.domain.p), d, TOL_DIST))
    checks.append(_ge("near_attainer_far_from_attainment", 1.0, d, TOL_DIST))
    checks.append(_le("eta_at_1_bounded_by_gap", 1.0 - beta, _eta_at(T, 1.0, nr, na), TOL_BLOCK))
    return checks, {}


def _harness_rot21(T, nr, na, params, seed):
    beta = params["beta"]
    checks = [
        _eq("value_at_e1", beta, pnorm(T.apply(_axis(2, 0)), 1.0), TOL_EXACT),
        _eq("value_at_e2", 1.0, pnorm(T.apply(_axis(2, 1)), 1.0), TOL_EXACT),
    ]
    if beta < 1.0:
        expected = [_axis(2, 1), _axis(2, 1, -1.0)]
    else:
        expected = [_axis(2, 0), _axis(2, 1), _axis(2, 0, -1.0), _axis(2, 1, -1.0)]
    checks += _na_matches(T, na, expected, TOL_DIST)
    if beta < 1.0:
        d = dist_to_set(unit(_axis(2, 0), T.domain), na)
        checks.append(_eq("dist_e1_to_attainment", math.sqrt(2.0), d, TOL_DIST))
        checks.append(_le("eta_at_1_bounded_by_gap", 1.0 - beta, _eta_at(T, 1.0, nr, na), TOL_BLOCK))
    return checks, {}


def _harness_rotq(T, nr, na, params, seed):
    beta, q = params["beta"], params["q"]
    checks = [_eq("value_at_e2", 1.0, pnorm(T.apply(_axis(2, 1)), q), TOL_EXACT)]
    if beta == 1.0:
        mid = np.array([1.0, 1.0]) / math.sqrt(2.0)
        expected_mid = 2.0 / 2.0 ** (0.5 + 1.0 / q)
        checks.append(
            _eq("arc_midpoint_value", expected_mid, pnorm(T.apply(mid), q), TOL_MIDPOINT)
        )
        expected = [_axis(2, 0), _axis(2, 1), _axis(2, 0, -1.0), _axis(2, 1, -1.0)]
    else:
        expected = [_axis(2, 1), _axis(2, 1, -1.0)]
    checks += _na_matches(T, na, expected, TOL_DIST)
    if beta < 1.0:
        d = dist_to_set(unit(_axis(2, 0), T.domain), na)
        checks.append(_eq("dist_e1_to_attainment", math.sqrt(2.0), d, TOL_DIST))
    return checks, {}


def _harness_compose(T, nr, na, params, seed):
    beta, p, q = params["beta"], params["p"], params["q"]
    checks = [
        _eq("value_at_e1", beta, pnorm(T.apply(_axis(2, 0)), q), TOL_EXACT),
        _eq("value_at_e2", 1.0, pnorm(T.apply(_axis(2, 1)), q), TOL_EXACT),
    ]
    checks += _na_matches(T, na, [_axis(2, 1), _axis(2, 1, -1.0)], TOL_DIST)
    d = dist_to_set(unit(_axis(2, 0), T.domain), na)
    checks.append(_eq("dist_e1_to_attainment", 2.0 ** (1.0 / p), d, TOL_DIST))
    checks.append(_le("eta_at_1_bounded_by_gap", 1.0 - beta, _eta_at(T, 1.0, nr, na), TOL_BLOCK))
    return checks, {}


def _harness_biorth(T, nr, na, params, seed):
    eta0, n = 1.0 - params["beta"], T.domain.dim
    checks = [
        _eq("value_at_e1", 1.0 - eta0, pnorm(T.apply(_axis(n, 0)), INF), TOL_EXACT),
        _eq("value_at_e2", 1.0, pnorm(T.apply(_axis(n, 1)), INF), TOL_EXACT),
    ]
    worst = max(abs(abs(pt.coords[1]) - 1.0) for pt in na.points) if na.points else INF
    checks.append(_le("attainers_have_unit_second_coordinate", 0.0, worst, TOL_DIST))
    d = dist_to_set(unit(_axis(n, 0), T.domain), na)
    checks.append(_ge("near_attainer_far_from_attainment", 1.0, d, TOL_DIST))
    return checks, {}


def _harness_auerbach(T, nr, na, params, seed):
    from .convexity import auerbach_2d

    beta, basis = params["beta"], auerbach_2d(T.domain)
    checks = [_eq("value_at_first_basis_vector", beta, T.range.norm(T.apply(basis.vectors[0])), TOL_EXACT)]
    y2 = basis.functionals[1]
    worst = max(abs(abs(float(y2 @ pt.coords)) - 1.0) for pt in na.points) if na.points else INF
    checks.append(_le("attainers_have_unit_second_functional", 0.0, worst, TOL_DIST))
    d = min(T.domain.norm(basis.vectors[0] - pt.coords) for pt in na.points) if na.points else INF
    checks.append(_ge("near_attainer_far_from_attainment", 1.0, d, TOL_DIST))
    checks.append(_le("eta_at_1_bounded_by_gap", 1.0 - beta, _eta_at(T, 1.0, nr, na), TOL_BLOCK))
    return checks, {}


def _harness_proj(T, nr, na, params, seed):
    n = T.domain.dim
    ab = np.random.default_rng(seed).standard_normal(2)
    x = np.zeros(n)
    x[:2] = ab
    R = T.structure[1]
    checks = [_le("padding_identity", 0.0, float(np.max(np.abs(T.apply(x) - R.apply(ab)))), 1e-12)]
    tail = max(float(np.max(np.abs(pt.coords[2:]))) for pt in na.points) if na.points else INF
    checks.append(_le("attainers_have_zero_tail", 0.0, tail, TOL_DIST))
    d = dist_to_set(unit(_axis(n, 0), T.domain), na)
    checks.append(_eq("dist_e1_to_attainment", math.sqrt(2.0), d, TOL_DIST))
    return checks, {}


def _harness_block(T, nr, na, params, seed):
    N = int(params["blocks"])
    ab = np.random.default_rng(seed).standard_normal(2)
    ab /= pnorm(ab, 2.0)
    xfull = np.zeros(2 * N)
    k = N // 2
    xfull[2 * k:2 * k + 2] = ab
    blocks = T.structure[1]
    checks = [_eq("block_supported_action", blocks[k].range.norm(blocks[k].apply(ab)),
                  T.range.norm(T.apply(xfull)), 1e-12)]
    for n in range(1, N + 1):
        got = T.range.norm(T.apply(_axis(2 * N, 2 * (n - 1))))
        checks.append(_eq(f"value_at_block_{n}_first_axis", n / (n + 1.0), got, TOL_EXACT))
    expected = [_axis(2 * N, 2 * n + 1, s) for n in range(N) for s in (1.0, -1.0)]
    checks += _na_matches(T, na, expected, TOL_BLOCK)
    eN = unit(_axis(2 * N, 2 * (N - 1)), T.domain)
    checks.append(_ge("near_attainer_far_from_attainment", 1.0, dist_to_set(eN, na), TOL_BLOCK))
    eta = _eta_at(T, 0.9, nr, na)
    checks.append(_le("eta_vanishes_with_depth", 1.0 / (N + 1.0), eta, TOL_BLOCK))
    return checks, {}


def _harness_lplq(T, nr, na, params, seed):
    N = int(params["blocks"])
    checks = []
    for n in range(1, N + 1):
        got = T.range.norm(T.apply(_axis(2 * N, 2 * (n - 1))))
        checks.append(_eq(f"value_at_block_{n}_first_axis", 1.0 - 1.0 / (2.0 * n), got, TOL_EXACT))
    checks.append(
        _eq("value_at_last_block_second_axis", 1.0,
            T.range.norm(T.apply(_axis(2 * N, 2 * N - 1))), TOL_EXACT)
    )
    odd = max(float(np.max(np.abs(pt.coords[0::2]))) for pt in na.points) if na.points else INF
    checks.append(_le("attainers_have_zero_odd_coordinates", 0.0, odd, TOL_BLOCK))
    dmin = min(dist_to_set(unit(_axis(2 * N, 2 * n), T.domain), na) for n in range(N))
    checks.append(_ge("near_attainers_far_from_attainment", 1.0, dmin, TOL_BLOCK))
    eta = _eta_at(T, 0.9, nr, na)
    checks.append(_le("eta_vanishes_with_depth", 1.0 / (2.0 * N), eta, TOL_BLOCK))
    # strictness off the attainment set: any unit vector carrying odd-coordinate
    # mass at least 0.1 stays measurably below the norm
    X = sample_sphere_coords(T.domain, 2048, seed + 3)
    mask = np.max(np.abs(X[0::2, :]), axis=0) >= 0.1
    vals = T.range_values(X[:, mask])
    margin = 1.0 - float(np.max(vals)) if vals.size else INF
    checks.append(_ge("odd_mass_strictly_contracts", 1e-5, margin, 0.0))
    return checks, {"strict_contraction_margin": margin}


_HARNESSES = {
    "DIAG-2-INF": _harness_diag,
    "DIAG-2-2": _harness_diag,
    "DIAG-P-Q": _harness_diag,
    "ROT-2-1": _harness_rot21,
    "ROT-2-Q": _harness_rotq,
    "COMPOSE-P-Q": _harness_compose,
    "BIORTH-INF": _harness_biorth,
    "AUERBACH-YY": _harness_auerbach,
    "PROJ-N-2": _harness_proj,
    "BLOCK-N": _harness_block,
    "LPLQ-FAIL-N": _harness_lplq,
}


def monotonicity_certificate(q, grid: int = 10000) -> ReproReport:
    """Certify that the rotation objective is increasing across the arc.

    F(x) = ((x - s)^q + (x + s)^q)/2 with s = sqrt(1 - x^2) on (1/sqrt2, 1):
    asserts F' > 0 on the grid, closed-form/finite-difference agreement to
    1e-5 relative (1e-4 margin off the endpoint singularity), the endpoint
    limit F -> 1, and the arc-midpoint value 2/2^(1/2+1/q) against a direct
    operator evaluation.  The pointwise comparison of F' with
    q*(x-s)^(q-1) is recorded as a diagnostic: that expression is a valid
    lower bound only at q = 1.
    """
    q = float(q)
    if not (1.0 <= q < 2.0):
        raise HypothesisError(f"monotonicity certificate requires 1 <= q < 2; got q={q}")
    if grid < 1000:
        raise ValueError("grid must be >= 1000")
    t0 = time.perf_counter()
    margin = 1e-4
    xs = np.linspace(1.0 / math.sqrt(2.0) + margin, 1.0 - margin, grid)
    s = np.sqrt(1.0 - xs * xs)

    def F(x):
        sx = np.sqrt(1.0 - x * x)
        return 0.5 * ((x - sx) ** q + (x + sx) ** q)

    A = (xs - s) ** (q - 1.0)
    B = (xs + s) ** (q - 1.0)
    Fp = 0.5 * q * (A * (1.0 + xs / s) + B * (1.0 - xs / s))
    h = 1e-6
    fd = (F(xs + h) - F(xs - h)) / (2.0 * h)
    rel = np.max(np.abs(Fp - fd) / np.maximum(np.abs(fd), 1e-12))

    checks = [
        _ge("derivative_positive_on_arc", 0.0, float(np.min(Fp)), 0.0),
        _le("closed_form_matches_finite_difference", 0.0, float(rel), 1e-5),
        _eq("endpoint_value", 1.0, float(F(np.asarray([1.0 - 1e-9]))[0]), 1e-6),
    ]
    T = make_rot_lq(1.0, q)
    mid = np.array([1.0, 1.0]) / math.sqrt(2.0)
    direct = pnorm(T.apply(mid), q)
    closed = 2.0 / 2.0 ** (0.5 + 1.0 / q)
    checks.append(_eq("arc_midpoint_value", closed, direct, TOL_MIDPOINT))

    kink_margin = float(np.min(Fp - q * A))
    checks.append(CheckRecord("pointwise_kink_bound_margin", "nonnegative only at q = 1", kink_margin,
                              0.0, True, "diagnostic"))
    return _report("F-CERT", {"q": q, "grid": grid}, checks, t0, 0, {"pointwise_kink_bound_margin": kink_margin})


def positive_side_batch(
    count: int = 50, eps: float = 0.25, p: float = 3.0, q: float = 2.0, *, seed: int = 0
) -> ReproReport:
    """Random unit-norm 2x2 operators with q < p: eta(eps) must be strictly positive.

    Operator k is M_k / ||M_k||, M_k drawn from seed + k.  Its eta is read
    from M_k's own profile as eta_k = eta(eps, M_k) / ||M_k||: for c > 0,
    NA(cT) = NA(T) and ||cTx|| = c||Tx||, so ||.|| and rho(eps, .) scale by
    c, and eta(eps, cT) = c eta(eps, T).  One `_profile_parts` call takes
    every M_k's norm, attainment set and profile, in passes of `pass_size`
    operators; each eta_k is the same, bit for bit, as M_k's own opnorm ->
    na_set -> sbpb_profile divided by that opnorm's value.
    """
    if count < 1:
        raise ValueError(f"the batch needs at least one operator; got count={count}")
    t0 = time.perf_counter()
    domain, range_ = SequenceSpace(2, p), SequenceSpace(2, q)
    ops = [OperatorPQ(np.random.default_rng(s).standard_normal((2, 2)), domain, range_)
           for s in range(seed, seed + count)]
    checks = [_ge(f"eta_positive_seed_{s}", 1e-6, part.profile().eta[0] / part.value, 0.0)
              for s, part in zip(range(seed, seed + count), _profile_parts(ops, [eps]))]
    return _report("POSITIVE-BATCH", {"count": count, "eps": eps, "p": p, "q": q}, checks, t0, seed, {})


def gallery_default_cases() -> list[tuple[str, dict]]:
    """The default parameter matrix: beta in {0.5, 0.9}, exponents from
    {1, 1.5, 2, 3, inf} restricted to each construction's hypotheses."""
    betas = (0.5, 0.9)
    finite = (1.5, 2.0, 3.0)
    cases: list[tuple[str, dict]] = []
    for b in betas:
        cases.append(("DIAG-2-INF", {"beta": b}))
        cases.append(("DIAG-2-2", {"beta": b}))
        for p in finite:
            for q in finite:
                if p <= q and not (p == 2.0 and q == 2.0):
                    cases.append(("DIAG-P-Q", {"beta": b, "p": p, "q": q}))
            cases.append(("DIAG-P-Q", {"beta": b, "p": p, "q": INF}))
        cases.append(("ROT-2-1", {"beta": b}))
        for q in (1.0, 1.5):
            cases.append(("ROT-2-Q", {"beta": b, "q": q}))
            for p in (1.5, 2.0):
                cases.append(("COMPOSE-P-Q", {"beta": b, "p": p, "q": q}))
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            cases.append(("BIORTH-INF", {"beta": b, "p": p, "dim": 3}))
            cases.append(("AUERBACH-YY", {"beta": b, "p": p}))
        cases.append(("PROJ-N-2", {"beta": b, "dim": 4}))
    for N in (3, 5):
        cases.append(("BLOCK-N", {"blocks": N}))
        for (p, q) in ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0), (3.0, 3.0)):
            cases.append(("LPLQ-FAIL-N", {"p": p, "q": q, "blocks": N}))
    return cases


def run_all(seed: int = 0, *, out_dir: str | None = None, tags=None) -> list[ReproReport]:
    """Every harness at default parameters, plus the derivative certificates
    and the positive-side batch; failures are recorded, never thrown.  `tags`,
    if given, keeps the listed gallery tags, F-CERT and POSITIVE-BATCH, and
    refuses any other name, or a bare string, before any work.  The 2D
    results of the gallery and F-CERT, not of the batch's random draws, are
    shared by operator content for the call (`normcomp._sharing`)."""
    if isinstance(tags, str):  # would be read one letter at a time
        raise TypeError(f"tags must be a collection of tag names, not a {type(tags).__name__}")
    unknown = [t for t in tags or () if t not in GALLERY_TAGS + ("F-CERT", "POSITIVE-BATCH")]
    if unknown:
        raise HypothesisError(f"unknown construction tag(s) {', '.join(map(repr, unknown))}")
    reports: list[ReproReport] = []
    with _sharing():
        for tag, params in gallery_default_cases():
            if tags is not None and tag not in tags:
                continue
            reports.append(reproduce(tag, params, seed=seed))
        if tags is None or "F-CERT" in tags:
            for q in (1.0, 1.2, 1.5, 1.9):
                reports.append(monotonicity_certificate(q))
    if tags is None or "POSITIVE-BATCH" in tags:
        reports.append(positive_side_batch(seed=seed))
    if out_dir is not None:
        write_reports(reports, out_dir)
    return reports


def write_reports(reports: list[ReproReport], out_dir: str) -> None:
    """reports/<tag>.json per tag plus a summary reports/index.csv."""
    os.makedirs(out_dir, exist_ok=True)
    by_tag: dict[str, list[ReproReport]] = {}
    for r in reports:
        by_tag.setdefault(r.tag, []).append(r)
    for tag, rs in by_tag.items():
        path = os.path.join(out_dir, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump([r.to_json_dict() for r in rs], f, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "index.csv"), "w", encoding="utf-8") as f:
        f.write("tag,params,overall,worst_check_residual,runtime_ms\n")
        for r in reports:
            params = json.dumps(params_to_json(r.params), sort_keys=True).replace('"', "'")
            f.write(f'{r.tag},"{params}",{r.overall},{r.worst_residual!r},{r.runtime_ms}\n')
