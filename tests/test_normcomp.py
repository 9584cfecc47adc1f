import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import normlab as nl
from normlab import INF, OperatorPQ, SequenceSpace
from normlab.normcomp import (
    METHOD_MULTISTART,
    METHOD_ORACLE,
    METHOD_SWEEP2D,
    _bisect,
    _golden_max,
)
from normlab.spaces import pnorm

EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]


def test_opnorm_diag_example():
    T = nl.make_diag_beta(0.5, 2, INF)
    r = nl.opnorm(T)
    assert r.value == pytest.approx(1.0, abs=1e-8)
    assert r.certified and r.method == METHOD_SWEEP2D
    W = sorted(np.sign(w.coords[1]) for w in r.witnesses)
    assert len(r.witnesses) == 2 and W == [-1.0, 1.0]
    for w in r.witnesses:
        assert abs(abs(w.coords[1]) - 1.0) <= 1e-6


def test_opnorm_identity_examples():
    for n in (2, 3, 5):
        I = OperatorPQ(np.eye(n), SequenceSpace(n, 2), SequenceSpace(n, 2))
        assert nl.opnorm(I).value == pytest.approx(1.0, abs=1e-9)
    I2 = OperatorPQ(np.eye(2), SequenceSpace(2, INF), SequenceSpace(2, 1))
    r = nl.opnorm(I2)
    assert r.value == pytest.approx(2.0, abs=1e-9)
    assert any(np.allclose(np.abs(w.coords), [1, 1], atol=1e-9) for w in r.witnesses)


def test_opnorm_bounds_and_witnesses_contract():
    rng = np.random.default_rng(17)
    for _ in range(25):
        M = rng.standard_normal((2, 2))
        p = float(rng.choice(EXPONENTS))
        q = float(rng.choice(EXPONENTS))
        T = OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q))
        r = nl.opnorm(T)
        assert r.lower_bound <= r.value <= r.upper_bound
        assert r.upper_bound - r.lower_bound <= 2 * r.tol
        for w in r.witnesses:
            assert T.domain.norm(w.coords) == pytest.approx(1.0, abs=1e-10)
            assert T.range.norm(T.apply(w.coords)) >= r.value - r.tol


def _golden_one(f, a, b, iters=48):
    """Reference: golden-section maximization of one bracket, one probe at a time."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-15:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def test_batched_refiners_match_one_bracket_at_a_time():
    """Each bracket of a batched call takes exactly the steps it takes alone."""
    f = lambda t: np.cos(3.0 * t) + 0.3 * np.sin(7.0 * t)  # elementwise: same bits in any batch
    rng = np.random.default_rng(5)
    a = rng.uniform(-3.0, 3.0, 300)
    b = a + rng.uniform(0.0, 0.5, 300)
    b[:30] = a[:30] + 1e-16  # frozen from the start
    t, v = _golden_max(f, a, b)
    for i in range(a.size):
        assert (t[i], v[i]) == _golden_one(lambda x: float(f(np.float64(x))), a[i], b[i])
    level = rng.uniform(-0.5, 0.5, 300)
    lo_in = f(a) >= level
    t = _bisect(f, a, b, level, lo_in)
    for i in range(a.size):
        lo, hi = a[i], b[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (f(mid) >= level[i]) == lo_in[i]:
                lo = mid
            else:
                hi = mid
        assert t[i] == (lo if lo_in[i] else hi)


def _dec_pnorm(xs, r) -> Decimal:
    """l_r norm of floats (converted exactly) in the current decimal context."""
    a = [Decimal(float(v)).copy_abs() for v in xs]
    if r == INF:
        return max(a)
    R = Decimal(r)
    return sum(v ** R for v in a) ** (1 / R)


def _closed_form_norm(M, p, q) -> Decimal:
    """||M||_{p->q} of a 2x2 float matrix: the largest singular value for
    p = q = 2, the largest column q-norm for p = 1, the largest row p'-norm
    for q = inf."""
    if p == 1.0:
        return max(_dec_pnorm(M[:, j], q) for j in range(2))
    if q == INF:
        pd = INF if p == 1.0 else (1.0 if p == INF else p / (p - 1.0))
        return max(_dec_pnorm(M[i], pd) for i in range(2))
    (a, b), (c, d) = [[Decimal(float(v)) for v in row] for row in M]
    S = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return ((S + (S * S - 4 * det * det).sqrt()) / 2).sqrt()


def test_sweep_bracket_contains_closed_form_norms():
    """The certified 2D bracket contains the exact norm of the float matrix."""
    rng = np.random.default_rng(2016)
    with localcontext() as ctx:
        ctx.prec = 60
        for k in range(405):
            M = rng.standard_normal((2, 2))
            r = EXPONENTS[(k // 3) % len(EXPONENTS)]
            p, q = [(2.0, 2.0), (1.0, r), (r, INF)][k % 3]
            ref = _closed_form_norm(M, p, q)
            nr = nl.opnorm(OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q)))
            assert nr.certified and nr.upper_bound - nr.lower_bound <= 2 * nr.tol
            assert Decimal(nr.lower_bound) <= ref <= Decimal(nr.upper_bound), (M.tolist(), p, q)


def test_sweep_bracket_tall_range_and_tol_floor():
    """A 40-dimensional range widens the rounding allowance and the bracket
    still holds; a tol below the rounding floor ends relaxed, not in the budget."""
    rng = np.random.default_rng(40)
    with localcontext() as ctx:
        ctx.prec = 60
        for q in (1.0, 1.5, 2.0):
            M = rng.standard_normal((40, 2))
            nr = nl.opnorm(OperatorPQ(M, SequenceSpace(2, 1.0), SequenceSpace(40, q)))
            assert nr.certified
            assert Decimal(nr.lower_bound) <= _closed_form_norm(M, 1.0, q) <= Decimal(nr.upper_bound)
    T = OperatorPQ(rng.standard_normal((2, 2)), SequenceSpace(2, 1.0), SequenceSpace(2, 3.0))
    nr = nl.opnorm(T, tol=1e-15)
    assert nr.tol > 1e-15 and "rounding floor" in nr.notes
    assert nr.upper_bound - nr.lower_bound <= 2 * nr.tol


def test_opnorm_rejects_bad_tol():
    T = nl.make_diag_beta(0.5, 2, 2)
    with pytest.raises(ValueError):
        nl.opnorm(T, tol=0.0)
    with pytest.raises(ValueError):
        nl.opnorm(T, tol=0.5)


def test_duality_invariant():
    rng = np.random.default_rng(42)
    for n in (2, 3):
        for _ in range(2):
            M = rng.standard_normal((n, n))
            for p, q in itertools.product(EXPONENTS, EXPONENTS):
                T = OperatorPQ(M, SequenceSpace(n, p), SequenceSpace(n, q))
                v1 = nl.opnorm(T, seed=1).value
                v2 = nl.opnorm(nl.adjoint(T), seed=2).value
                assert abs(v1 - v2) <= 1e-6, (n, p, q)


def test_column_bound_invariant():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(4):
            M = rng.standard_normal((n, n))
            for q in EXPONENTS:
                T = OperatorPQ(M, SequenceSpace(n, 1.0), SequenceSpace(n, q))
                v = nl.opnorm(T, seed=3).value
                colmax = max(pnorm(M[:, j], q) for j in range(n))
                assert abs(v - colmax) <= 1e-9


def test_monotone_in_domain_exponent():
    rng = np.random.default_rng(11)
    chain = [1.0, 1.5, 2.0, 3.0]
    for _ in range(6):
        M = rng.standard_normal((2, 2))
        q = float(rng.choice([1.0, 2.0, INF]))
        vals = [
            nl.opnorm(OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q))).value
            for p in chain
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9


def test_sweep_multistart_agreement_2d():
    rng = np.random.default_rng(23)
    for _ in range(8):
        M = rng.standard_normal((2, 2))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        q = float(rng.choice([1.0, 1.5, 2.0, INF]))
        T = OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q))
        v1 = nl.opnorm(T).value
        r2 = nl.opnorm(T, method="MULTISTART", seed=5)
        assert r2.method == METHOD_MULTISTART and not r2.certified
        assert abs(v1 - r2.value) <= 1e-6


def test_oracle_examples():
    T = nl.make_rot_lq(1.0, 1.0)  # the l_1 rotation at beta = 1
    o = nl.opnorm_oracle(T, 100000)
    assert o.method == METHOD_ORACLE
    assert abs(o.value - 1.0) <= 1e-4
    D = nl.make_diag_beta(0.3, 2, 2)
    assert abs(nl.opnorm_oracle(D, 100000).value - 1.0) <= 1e-4
    Z = OperatorPQ(np.zeros((2, 2)), SequenceSpace(2, 2), SequenceSpace(2, 2))
    assert nl.opnorm_oracle(Z, 2000).value == 0.0


def test_oracle_grid_and_dim_limits():
    T = nl.make_diag_beta(0.5, 2, 2)
    with pytest.raises(ValueError):
        nl.opnorm_oracle(T, 500)
    M = np.eye(4)
    T4 = OperatorPQ(M, SequenceSpace(4, 2), SequenceSpace(4, 2))
    with pytest.raises(ValueError):
        nl.opnorm_oracle(T4, 2000)  # unstructured above 3D is rejected


def test_oracle_3d_product_grid():
    M = np.diag([0.5, 0.7, 1.0])
    T = OperatorPQ(M, SequenceSpace(3, 2), SequenceSpace(3, 2))
    o = nl.opnorm_oracle(T, 100000)
    assert abs(o.value - 1.0) <= 1e-3


def test_certification_against_oracle_random():
    rng = np.random.default_rng(2024)
    for i in range(200):
        M = rng.standard_normal((2, 2))
        p = float(rng.choice(EXPONENTS))
        q = float(rng.choice(EXPONENTS))
        T = OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q))
        v = nl.opnorm(T).value
        o = nl.opnorm_oracle(T, 100000).value
        assert abs(v - o) <= 1e-3, (i, p, q)


def test_objective_grad_examples():
    I = OperatorPQ(np.eye(2), SequenceSpace(2, 2), SequenceSpace(2, 2))
    assert np.allclose(nl.objective_grad(I, [1, 0]), [2, 0])
    D = OperatorPQ(np.diag([2.0, 1.0]), SequenceSpace(2, 2), SequenceSpace(2, 2))
    assert np.allclose(nl.objective_grad(D, [1, 1]), [8, 2])


def test_objective_grad_matches_finite_differences():
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 4))
        M = rng.standard_normal((n, n))
        q = float(rng.choice([1.5, 2.0, 3.0]))
        T = OperatorPQ(M, SequenceSpace(n, 2), SequenceSpace(n, q))
        x = rng.standard_normal(n)
        if np.min(np.abs(M @ x)) < 1e-3:  # stay away from kinks of |.|^(q-1)
            continue
        g = nl.objective_grad(T, x)
        fd = np.empty(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd[k] = (
                pnorm(M @ (x + e), q) ** q - pnorm(M @ (x - e), q) ** q
            ) / (2 * h)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-5)


def test_objective_grad_rejects_kinked_exponents():
    T = nl.make_rot_l1(0.5)  # range l_1
    with pytest.raises(ValueError):
        nl.objective_grad(T, [1.0, 0.0])
    Tinf = nl.make_diag_beta(0.5, 2, INF)
    with pytest.raises(ValueError):
        nl.objective_grad(Tinf, [1.0, 0.0])


def test_structured_norms_certified():
    for N in (3, 5):
        T = nl.make_lplq_fail(2, 2, N)
        r = nl.opnorm(T)
        assert r.certified
        assert r.value == pytest.approx(1.0, abs=1e-9)
        B = nl.make_block(nl.make_shrinking_blocks(N))
        rb = nl.opnorm(B)
        assert rb.certified and rb.value == pytest.approx(1.0, abs=1e-9)


def test_norm_result_json_round_trip():
    T = nl.make_diag_beta(0.5, 2, 2)
    r = nl.opnorm(T)
    d = r.to_json_dict()
    back = nl.NormResult.from_json_dict(d, T.domain)
    assert back.value == r.value
    assert back.method == r.method
    assert len(back.witnesses) == len(r.witnesses)
    assert back.certified == r.certified
