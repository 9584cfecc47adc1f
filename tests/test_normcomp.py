import itertools
import json
import math
import threading
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import normlab as nl
from normlab import INF, BlockSpace, OperatorPQ, SequenceSpace
from normlab import normcomp
from normlab.normcomp import (
    METHOD_MULTISTART,
    METHOD_ORACLE,
    METHOD_SWEEP2D,
    DEFAULT_BUDGET,
    DEFAULT_GRID,
    _bisect,
    _sweep2d,
    _zoom_max,
)
from normlab.ascent import _backtrack, _start_coords, ascend
from normlab.operators import apply_cols, dual_attainer, norm_dual_vector
from normlab.spaces import pnorm, pnorm_cols, sample_sphere_coords

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


def _zoom_one(f, a, b):
    """Reference: zoom maximization of one bracket, one probe at a time."""
    P = normcomp.ZOOM_PROBES
    stop = (b - a) * ((math.sqrt(5.0) - 1.0) / 2.0) ** 48
    t_best, v_best = None, -math.inf
    while True:
        w = b - a
        ts = [a + w * ((k + 1) / (P + 1)) for k in range(P)]
        vs = [f(t) for t in ts]
        m = max(vs)
        first = vs.index(m)
        end = first
        while end + 1 < P and vs[end + 1] == m:
            end += 1
        k = (first + end) // 2  # the middle of the first run of maximal probes
        if m > v_best:
            t_best, v_best = ts[k], m
        a, b = a + w * (k / (P + 1)), a + w * ((k + 2) / (P + 1))
        if not (b - a > stop and b - a >= 1e-15):
            return t_best, v_best


@pytest.mark.dispatch
def test_batched_refiners_match_one_bracket_at_a_time():
    """Each bracket of a batched call takes exactly the levels it takes alone."""
    P = normcomp.ZOOM_PROBES
    f = lambda t: np.cos(3.0 * t) + 0.3 * np.sin(7.0 * t)  # elementwise: same bits in any batch
    rng = np.random.default_rng(5)
    a = rng.uniform(-3.0, 3.0, 300)
    b = a + rng.uniform(0.0, 0.5, 300)
    b[:30] = a[:30] + 1e-16  # frozen from the start: one level
    b[30:60] = a[30:60] + rng.uniform(1e-14, 1e-11, 30)  # frozen after one to four levels
    t, v = _zoom_max(lambda x, _live: f(x), a, b)
    for i in range(a.size):
        assert (t[i], v[i]) == _zoom_one(lambda x: float(f(np.float64(x))), a[i], b[i])
    # one objective per bracket: f is told the bracket of each probe
    phase = rng.uniform(0.0, 2.0 * math.pi, 300)
    probed = []

    def g(x, live):
        probed.append(live)
        return np.cos(3.0 * x + phase[live]) + 0.3 * np.sin(7.0 * x)

    t, v = _zoom_max(g, a, b)
    calls = list(probed)
    for i in range(a.size):
        assert (t[i], v[i]) == _zoom_one(lambda x: float(g(np.float64(x), i)), a[i], b[i])
    assert len(calls) == 9 and np.array_equal(calls[0], np.repeat(np.arange(300), P))
    assert all(np.all(np.diff(live) >= 0) and np.all(np.bincount(live)[live] == P) for live in calls)
    assert calls[1][0] >= 30 and all(live[0] >= 60 for live in calls[4:])
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


@pytest.mark.dispatch
def test_zoom_lands_within_golden_sections_final_width():
    """The zoom's argmax lies within the width golden section reaches after 48
    steps, (b - a) 0.618^48, of the maximizer, and its value is at least the
    objective's at the bracket's midpoint (the first level's middle probe)."""
    rng = np.random.default_rng(11)
    n = 200
    w = rng.uniform(1e-3, 0.5, n)
    t_star = rng.uniform(-3.0, 3.0, n)
    a = t_star - rng.uniform(0.05, 0.95, n) * w
    a[:20] = t_star[:20]  # the maximum at an end of the bracket
    b = a + w
    shrink = ((math.sqrt(5.0) - 1.0) / 2.0) ** 48
    mid = a + 0.5 * (b - a)
    # cos 3(t - t*) as 1 - 2 sin^2(1.5 (t - t*)): the same smooth objective, its top not flat in floats
    for f in (lambda t, i: -np.sin(1.5 * (t - t_star[i])) ** 2, lambda t, i: -np.abs(t - t_star[i])):
        t, v = _zoom_max(f, a, b)
        assert np.all(np.abs(t - t_star) <= w * shrink)
        assert np.all(v >= f(mid, np.arange(n)))
    # l_1 -> l_inf: the norm, the second column's, is attained at the vertex e_2 (theta = pi/2).  The
    # parametrization is quadratic in theta there, so the value is flat in floats within about 1e-8 of
    # pi/2: the distance is measured from the witness to the vertex, in the domain norm.
    T = OperatorPQ(np.array([[1.0, 0.5], [0.3, 2.0]]), SequenceSpace(2, 1.0), SequenceSpace(2, INF))
    a = math.pi / 2 - rng.uniform(0.01, 0.5, 20)
    b = math.pi / 2 + rng.uniform(0.01, 0.5, 20)
    f = lambda t, _idx: T.range_values(T.domain.sphere_grid(t))
    t, v = _zoom_max(f, a, b)
    assert np.all(T.domain.norm_cols(T.domain.sphere_grid(t) - [[0.0], [1.0]]) <= (b - a) * shrink)
    assert np.all(v == 2.0) and np.all(v >= f(a + 0.5 * (b - a), None))


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.dispatch
def test_oracle_evaluates_half_of_an_antipodal_grid(p):
    """On l_p^2 with grid % 8 == 0 the oracle evaluates columns 0 to grid/2
    only, and its result (value, witness bits, bounds) is the full grid's
    first argmax; a grid with grid % 8 != 0, and a `Norm2D`, evaluate every
    point."""
    rng = np.random.default_rng(int(p) if p != INF else 9)
    space = SequenceSpace(2, p)
    cases = [(space, grid, grid // 2 + 1) for grid in (1000, 100000)] + [(space, 1004, 1005)]
    if p != INF:
        cases.append((nl.Norm2D(lambda X: pnorm_cols(X, p)), 1000, 1001))
    for dom, grid, evaluated in cases:
        for q in EXPONENTS:
            T = OperatorPQ(rng.standard_normal((2, 2)), dom, SequenceSpace(2, q))
            _, X = normcomp._angle_grid(dom, grid)
            g = T.range_values(X)
            k = int(np.argmax(g))
            slack = float(np.max(np.abs(np.diff(X[0])) + np.abs(np.diff(X[1])))) * normcomp._column_lipschitz(T)
            o = nl.opnorm_oracle(T, grid)
            assert o.n_evals == evaluated
            assert (o.value, o.lower_bound, o.upper_bound, o.tol) == (g[k], g[k], g[k] + slack, max(slack / 2, 1e-15))
            assert np.array_equal(o.witnesses[0].coords, nl.unit(X[:, k], dom).coords)


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


@pytest.mark.parametrize(
    "M, p, q, exact",
    [
        ([[0.5, 0.0], [0.0, 1.0]], INF, INF, Decimal(1)),
        ([[1.0, 1.0], [0.0, 0.0]], 2.0, 1.0, Decimal(2).sqrt()),
    ],
    ids=["diag-inf-inf", "row-2-1"],
)
def test_sweep_budget_exit_keeps_a_sound_bracket(M, p, q, exact):
    """A plateau or kink at tol 1e-12 exhausts the split budget: every unsplit
    cell's bound stays in the bracket and the tolerance is relaxed to match."""
    with localcontext() as ctx:
        ctx.prec = 60
        nr = nl.opnorm(OperatorPQ(np.array(M), SequenceSpace(2, p), SequenceSpace(2, q)), tol=1e-12)
        assert nr.n_evals >= nr.grid_size + 1 + DEFAULT_BUDGET
        assert Decimal(nr.lower_bound) <= exact <= Decimal(nr.upper_bound)
    assert nr.tol > 1e-12 and f"tolerance relaxed to {nr.tol:.2e}" in nr.notes
    assert nr.upper_bound - nr.lower_bound <= 2 * nr.tol


def test_sweep_bracket_on_general_2d_norms():
    """The sweep over a Norm2D domain bounds its cells by the estimated
    parametrization speed; the bracket holds the closed-form norm."""
    A = np.array([[1.0, 0.4], [-0.3, 0.8]])
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    cases = [
        (nl.Norm2D(lambda X: 1.05 * pnorm_cols(X, 2.0), name="1.05 l_2"), np.linalg.norm(A, 2) / 1.05),
        (nl.Norm2D(lambda X: pnorm_cols(R @ X, 2.0), name="rotated l_2"), np.linalg.norm(A @ R.T, 2)),
    ]
    for dom, exact in cases:
        nr = nl.opnorm(OperatorPQ(A, dom, SequenceSpace(2, 2.0)))
        assert nr.method == METHOD_SWEEP2D and "Lipschitz" in nr.notes
        assert nr.lower_bound <= exact <= nr.upper_bound


def test_sweep_counts_every_evaluated_column(monkeypatch):
    """n_evals is the number of columns the sweep evaluates: those it passes
    to range_values (the base grid) and to apply_cols (refinement levels,
    sharpening and witness probes); a batch's results share them out."""
    real, real_apply, seen = OperatorPQ.range_values, normcomp.apply_cols, []

    def counted(self, X):
        seen.append(np.shape(X)[1])
        return real(self, X)

    def counted_apply(M, X):
        seen.append(np.shape(X)[1])
        return real_apply(M, X)

    monkeypatch.setattr(OperatorPQ, "range_values", counted)
    monkeypatch.setattr(normcomp, "apply_cols", counted_apply)
    rng = np.random.default_rng(9)
    for dom in (SequenceSpace(2, 1.5), SequenceSpace(2, INF), nl.Norm2D(lambda X: 1.05 * pnorm_cols(X, 2.0))):
        seen.clear()
        nr = nl.opnorm(OperatorPQ(rng.standard_normal((2, 2)), dom, SequenceSpace(2, 3.0)))
        assert nr.method == METHOD_SWEEP2D and nr.n_evals == sum(seen)
        seen.clear()
        batch = _sweep2d([OperatorPQ(rng.standard_normal((2, 2)), dom, SequenceSpace(2, 3.0)) for _ in range(3)],
                         1e-4, DEFAULT_GRID)
        assert sum(r.n_evals for r in batch) == sum(seen)


def test_opnorm_rejects_bad_tol():
    T = nl.make_diag_beta(0.5, 2, 2)
    with pytest.raises(ValueError):
        nl.opnorm(T, tol=0.0)
    with pytest.raises(ValueError):
        nl.opnorm(T, tol=0.5)


@pytest.mark.parametrize("grid", [0, -8, 2.5])
def test_opnorm_refuses_a_grid_that_is_not_a_positive_integer(grid):
    """A grid below the sweep's floor of 20000 runs at the floor, but one that is not a positive integer is refused,
    by the oracle too."""
    T = nl.make_diag_beta(0.5, 2, 2)
    with pytest.raises(ValueError, match="grid must be a positive integer"):
        nl.opnorm(T, grid=grid)
    with pytest.raises(ValueError, match="grid must be a positive integer"):
        nl.opnorm_oracle(T, grid=100000.5)


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
        r2 = normcomp._opnorm_multistart(T, 1e-4, 5)
        assert r2.method == METHOD_MULTISTART and not r2.certified
        assert abs(v1 - r2.value) <= 1e-6


@pytest.mark.dispatch
def test_ascent_is_column_invariant():
    """Each column of a batched ascent ends with the bits of that start
    climbing alone, over the exponent grid, on block spaces and from the
    sign-vector starts of an l_inf domain."""
    rng = np.random.default_rng(31)
    block = BlockSpace(2.0, (SequenceSpace(2, 3.0), SequenceSpace(2, INF)))
    pairs = [(SequenceSpace(4, p), SequenceSpace(3, q)) for p, q in zip(EXPONENTS, EXPONENTS[2:] + EXPONENTS[:2])]
    pairs += [(block, SequenceSpace(3, 1.5)), (SequenceSpace(3, 1.5), block), (SequenceSpace(3, INF), SequenceSpace(3, 2.0))]
    for dom, rng_space in pairs:
        T = OperatorPQ(rng.standard_normal((rng_space.dim, dom.dim)), dom, rng_space)
        starts = _start_coords(T, seed=3)
        X, f = ascend(T, starts)
        assert X.shape == starts.shape and np.all(f >= T.range_values(starts) - 1e-15)
        for j in range(0, starts.shape[1], 3):
            x_j, f_j = ascend(T, starts[:, j:j + 1])
            assert np.array_equal(x_j[:, 0], X[:, j]) and f_j[0] == f[j]


def _scalar_ascend(T, x, iters=500):
    """One start at a time, in scalar steps: the reference for `ascend`."""
    A, dom, rng = T.matrix, T.domain, T.range
    x = x / dom.norm(x)
    y = A @ x
    f, alpha = rng.norm(y), 0.5
    for _ in range(iters):
        z = A.T @ norm_dual_vector(rng, y)
        cand = dual_attainer(dom, z)
        fc = rng.norm(A @ cand)
        if fc > f + 1e-15:
            x, f, y = cand, fc, A @ cand
            continue
        zn, a = np.linalg.norm(z), alpha
        while zn > 0.0 and a > 1e-12:
            xt = x + a * (z / zn)
            xt = xt / dom.norm(xt)
            yt = A @ xt
            if rng.norm(yt) > f + 1e-15:
                x, f, y, alpha = xt, rng.norm(yt), yt, min(1.0, 2.0 * a)
                break
            a *= 0.5
        else:
            break
    return f


def test_batched_ascent_matches_the_scalar_reference():
    """Every start of a batched ascent ends at the value it reaches climbing
    alone in scalar steps, up to the rounding the two orders of summation
    can carry along one climb."""
    rng = np.random.default_rng(17)
    for p, q in itertools.product(EXPONENTS, repeat=2):
        n = int(rng.integers(3, 6))
        T = OperatorPQ(rng.standard_normal((n, n)), SequenceSpace(n, p), SequenceSpace(n, q))
        starts = _start_coords(T, seed=2)
        _, f = ascend(T, starts)
        for j in range(0, starts.shape[1], 5):
            assert abs(f[j] - _scalar_ascend(T, starts[:, j])) <= 1e-9


def _serial_backtrack(dom, rng, A, X, Y, f, D, cols, steps, cap, floor, gain, admits=None, tries=None):
    """Reference for `_backtrack`: every column halves its step one
    evaluation at a time.  `tries` counts each column's evaluations."""
    accepted = np.zeros(cols.size, dtype=bool)
    idx, step = np.arange(cols.size), steps[cols]
    while idx.size:
        j = cols[idx]
        tries[idx] += 1
        XT = X[:, j] + step * D[:, idx]
        XT /= dom.norm_cols(XT)
        YT = apply_cols(A if A.ndim == 2 else A[j], XT)
        ft = rng.norm_cols(YT)
        ok = (ft > f[j] + gain) & (True if admits is None else admits(XT, j))
        X[:, j[ok]], Y[:, j[ok]], f[j[ok]], steps[j[ok]] = XT[:, ok], YT[:, ok], ft[ok], np.minimum(cap, 2.0 * step[ok])
        accepted[idx[ok]] = True
        halve = ~ok & (0.5 * step > floor)
        idx, step = idx[halve], 0.5 * step[halve]
    return accepted


@pytest.mark.parametrize("floor, cap, gain", [(1e-12, 1.0, 1e-15), (1e-10, 0.5, 1e-16)])
@pytest.mark.parametrize("fenced", [False, True], ids=["free", "admits"])
@pytest.mark.parametrize("stacked", [False, True], ids=["one-matrix", "per-column"])
@pytest.mark.dispatch
def test_backtrack_ladder_matches_serial_halving(floor, cap, gain, fenced, stacked):
    """The step ladder gives X, Y, f, the steps and the accepted flags of
    halving one evaluation at a time, bit for bit: for columns accepted on
    their first step, one to seven halvings down (the rest of the first
    call), more than eight halvings down (the second call), and never (down
    to the floor, some from steps just above it), with and without `admits`,
    and with one matrix or one per column."""
    g = np.random.default_rng(23)
    dom, rng = SequenceSpace(4, 1.5), SequenceSpace(3, 3.0)
    n = 96
    A = g.standard_normal((n, 3, 4)) if stacked else g.standard_normal((3, 4))
    X = g.standard_normal((4, n))
    # every fourth column starts 2^-24 or 2^-10 off a maximizer, so its long steps overshoot, by far or a little
    for j in range(2, n, 4):
        M = A[j] if stacked else A
        x, _ = ascend(OperatorPQ(M, dom, rng), X[:, j])
        X[:, j] = x[:, 0] + np.ldexp(g.standard_normal(4), -24 if j % 8 == 2 else -10)
    X /= dom.norm_cols(X)
    Y = apply_cols(A, X)
    f = rng.norm_cols(Y)
    # ascent directions, and their reverses: those columns only fail, down to the floor
    Z = apply_cols(np.swapaxes(A, -1, -2), norm_dual_vector(rng, Y))
    D = Z / pnorm_cols(Z, 2.0) * np.where(np.arange(n) % 4 == 3, -1.0, 1.0)
    steps = np.ldexp(1.0, -g.integers(1, 12, n)) * g.uniform(1.0, 1.5, n)
    steps[3::8] = floor * np.array([1.5, 2.0, 5.0, 1.01, 4.0, 7.0, 1.2, 8.0, 2.5, 3.3, 1.1, 16.0])  # some rungs land on it
    cols = np.flatnonzero(np.arange(n) % 5 != 1)  # a subset of the columns, as the ascents pass them
    # with `admits`, a column takes points only up to 2^-m from its start, m < 30;
    # every eighth, stepping from floor * 2^k, only as far as a step of exactly
    # `floor` goes: a rung the halving never takes, since it stops above the floor
    reach, X0 = np.ldexp(1.0, -g.integers(0, 30, n)), X.copy()
    steps[::8] = floor * np.ldexp(1.0, g.integers(0, 5, 12))
    edge = X[:, ::8] + floor * D[:, ::8]
    reach[::8] = pnorm_cols(edge / dom.norm_cols(edge) - X0[:, ::8], 2.0)
    admits = (lambda XT, j: pnorm_cols(XT - X0[:, j], 2.0) <= reach[j]) if fenced else None
    tries = np.zeros(cols.size, dtype=int)
    runs = []
    for backtrack, extra in ((_serial_backtrack, {"tries": tries}), (_backtrack, {})):
        state = [a.copy() for a in (X, Y, f, steps)]
        accepted = backtrack(dom, rng, A, *state[:3], D[:, cols], cols, state[3], cap, floor, gain, admits, **extra)
        runs.append(state + [accepted])
    for ref, got in zip(*runs):
        assert ref.dtype == got.dtype and np.array_equal(ref, got)
    acc = runs[0][-1]
    # the cases it claims to cover all occur
    assert (tries[acc] == 1).any() and (tries[acc] > 9).any()  # first rung, and past the eighth halving
    assert ((tries[acc] >= 2) & (tries[acc] <= 8)).any()  # a later rung of the first call
    assert (~acc).sum() >= 10


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


_FIELDS = ("value", "lower_bound", "upper_bound", "tol", "grid_size", "n_evals", "certified", "method")


def _fields(r):
    return tuple(getattr(r, f) for f in _FIELDS)


@pytest.mark.parametrize(
    "T",
    [
        nl.make_proj_then(nl.make_diag_beta(0.5, 2, 2), 4),
        nl.make_biorth_inf(SequenceSpace(3, 1.5), 0.3),
        nl.make_biorth_inf(SequenceSpace(4, INF), 0.5),
    ],
    ids=["proj", "biorth-1.5", "biorth-inf"],
)
def test_padded_operator_is_its_block(T):
    R = T.structure[1]
    r, rr = nl.opnorm(T), nl.opnorm(R)
    assert _fields(r) == _fields(rr)
    pad = (0, T.domain.dim - 2)
    assert [w.coords.tolist() for w in r.witnesses] == [np.pad(w.coords, pad).tolist() for w in rr.witnesses]
    assert _fields(nl.opnorm_oracle(T, 5000)) == _fields(nl.opnorm_oracle(R, 5000))


@pytest.mark.parametrize(
    "T",
    [
        nl.make_block(nl.make_shrinking_blocks(3)),
        nl.make_block(nl.make_shrinking_blocks(2, p=3.0, q=3.0), 2.0, INF),
        nl.make_block(nl.make_shrinking_blocks(3)).adjoint(),
        nl.make_proj_then(nl.make_diag_beta(0.5, 2, 2), 4),
    ],
    ids=["flat", "mixed", "adjoint", "pad"],
)
def test_block_diagonal_is_the_max_of_its_blocks(T):
    """A reduced result, the norm's and the oracle's alike, is the max of its parts' results and keeps them;
    every witness is an attainer of one part, placed on that part's coordinates (a pad's part at offset 0)."""
    kind, payload = T.structure
    blocks = [payload] if kind == "pad" else payload
    starts = np.cumsum([0] + [B.domain.dim for B in blocks])
    for norm in (nl.opnorm, lambda S: nl.opnorm_oracle(S, 5000)):
        r, subs = norm(T), [norm(B) for B in blocks]
        top = subs[int(np.argmax([s.value for s in subs]))]
        assert (r.value, r.method) == (top.value, top.method)
        assert r.lower_bound == max(s.lower_bound for s in subs)
        assert r.upper_bound == max(s.upper_bound for s in subs)
        assert r.tol == max(s.tol for s in subs)
        assert r.grid_size == max(s.grid_size for s in subs)
        assert r.n_evals == sum(s.n_evals for s in subs)
        assert r.certified
        assert [_fields(s) for s in r.parts] == [_fields(s) for s in subs]
        assert r.witnesses
        for w in r.witnesses:
            i = int(np.searchsorted(starts, np.argmax(np.abs(w.coords)), "right")) - 1
            assert not np.any(np.delete(w.coords, np.arange(starts[i], starts[i + 1])))
            assert T.range.norm(T.apply(w.coords)) >= r.value - r.tol


def test_norm_result_json_round_trip():
    """JSON keeps the eleven result fields, the domain among them, and leaves
    out the in-memory grid and part results; a reload needs no space, except
    that a custom 2D norm cannot be reloaded."""
    keys = {"value", "witnesses", "method", "grid_size", "tol", "lower_bound", "upper_bound",
            "certified", "n_evals", "notes", "space"}
    mixed = BlockSpace(2.0, (SequenceSpace(2, 3.0), SequenceSpace(2, 3.0)))
    rank_one = OperatorPQ(np.ones((1, 3)), SequenceSpace(3, 2), SequenceSpace(1, 2))
    into_inf = OperatorPQ(np.array([[1.0, 2.0, 0.5], [-2.0, 1.0, 0.5]]), SequenceSpace(3, 3), SequenceSpace(2, INF))
    multistart = OperatorPQ(np.random.default_rng(4).standard_normal((4, 4)), mixed, SequenceSpace(4, 2.0))
    cases = {
        METHOD_SWEEP2D: [nl.make_diag_beta(0.5, 2, 2), nl.make_lplq_fail(2, 2, 2),
                         nl.make_block(nl.make_shrinking_blocks(2, p=3.0, q=3.0), 2.0, INF)],
        "EXACT": [rank_one, into_inf],
        METHOD_MULTISTART: [multistart],
    }
    for method, ops in cases.items():
        for T in ops:
            r = nl.opnorm(T)
            assert r.method == method and r.space == T.domain
            assert (r.pool is not None, r.parts is not None) == (T.domain.dim == 2, T.structure is not None)
            d = r.to_json_dict()
            assert set(d) == keys and "pool" not in repr(r) and "parts" not in repr(r)
            back = nl.NormResult.from_json_dict(json.loads(json.dumps(d)))
            assert back.to_json_dict() == d and back.pool is None and back.parts is None
            assert back.space == T.domain
            assert [w.space for w in back.witnesses] == [T.domain] * len(r.witnesses)
    assert isinstance(cases[METHOD_SWEEP2D][2].domain, BlockSpace)
    custom = nl.opnorm(OperatorPQ(np.eye(2), nl.Norm2D(lambda X: 1.05 * pnorm_cols(X, 2.0)), SequenceSpace(2, 2.0)))
    assert custom.to_json_dict()["space"] == {"dim": 2, "p": "custom"}
    with pytest.raises(ValueError):
        nl.NormResult.from_json_dict(custom.to_json_dict())


def _sweep_bits(r):
    return (r.to_json_dict(), r.n_evals, [w.coords.tobytes() for w in r.witnesses], r.pool.values.tobytes())


@pytest.mark.dispatch
def test_batched_sweeps_match_each_operator_alone():
    """A batched sweep's result for each operator is its lone sweep's, bit for
    bit: JSON fields, evaluation count, witnesses and base-grid values."""
    l2, l1 = SequenceSpace(2, 2.0), SequenceSpace(2, 1.0)
    draws = [np.random.default_rng(k).standard_normal((2, 2)) for k in range(50)]
    positive = [OperatorPQ(M, SequenceSpace(2, 3.0), SequenceSpace(2, 2.0)) for M in draws]
    parts = [B for N in (3, 5) for T in [nl.make_block(nl.make_shrinking_blocks(N))] +
             [nl.make_lplq_fail(p, q, N) for p, q in ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0), (3.0, 3.0))]
             for B in T.structure[1]]
    # budget exits at other levels, or (the zero operator) no split at all
    budget = [OperatorPQ(np.array([[1.0, 1.0], [0.0, 0.0]]), l2, l1),
              OperatorPQ(draws[0], l2, l1), OperatorPQ(np.zeros((2, 2)), l2, l1), OperatorPQ(draws[1], l2, l1)]
    general = nl.Norm2D(lambda X: 1.05 * pnorm_cols(X, 2.0))
    norm2d = [OperatorPQ(M, general, SequenceSpace(2, 3.0)) for M in draws[:4]]
    for ops, tol in ((positive, 1e-4), (parts, 1e-4), (budget, 1e-12), (norm2d, 1e-4)):
        alone = [_sweep_bits(nl.opnorm(T, tol)) for T in ops]
        # each group also in reverse: an operator's result does not depend on its place in the batch
        for order, bits in ((ops, alone), (ops[::-1], alone[::-1])):
            batch = normcomp._by_spaces(order, lambda group: _sweep2d(group, tol, DEFAULT_GRID))
            assert [_sweep_bits(r) for r in batch] == bits
        if ops is budget:
            (first, *_), _, (zero, *_), _ = alone
            assert "tolerance relaxed" in first["notes"] and zero["value"] == 0.0 and not zero["notes"]


# rows on a 1/1024 grid: magnitudes are equal or 1e-3 apart, so the
# value_tol band of na_set holds exact attainers only
_rows = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(-8192, 8192), min_size=n, max_size=n)
).filter(any).map(lambda ks: np.array(ks) / 1024.0)
# 1 to 4 such rows of 3 to 6 entries
_mats = st.tuples(st.integers(1, 4), st.integers(3, 6)).flatmap(
    lambda s: st.lists(st.lists(st.integers(-8192, 8192), min_size=s[1], max_size=s[1]), min_size=s[0],
                       max_size=s[0])
).map(lambda ks: np.array(ks) / 1024.0)


@settings(max_examples=60, deadline=None)
@given(_rows, st.sampled_from(EXPONENTS), _mats)
def test_rank_one_norm_is_the_dual_norm(row, p, mat):
    """A functional's norm on l_p^n is the dual norm of its row, and the norm
    of l_p^n -> l_inf^m (n >= 3) the largest dual norm of a row (60-digit
    references, inside the certified bracket).  Every attainer na_set reports
    attains the norm: a functional's exactly, the rows' within value_tol; and
    the rows' profile has eta >= 0."""
    pd = INF if p == 1.0 else (1.0 if p == INF else p / (p - 1.0))
    for M, rng in ((row.reshape(1, -1), SequenceSpace(1, 2.0)), (mat, SequenceSpace(len(mat), INF))):
        T = OperatorPQ(M, SequenceSpace(M.shape[1], p), rng)
        nr = nl.opnorm(T)
        assert nr.method == "EXACT" and nr.certified and nr.n_evals == len(M)
        with localcontext() as ctx:
            ctx.prec = 60
            ref = max(_dec_pnorm(r, pd) for r in M)
            assert abs(Decimal(nr.value) - ref) <= Decimal(1e-14) * ref
            assert Decimal(nr.lower_bound) <= ref <= Decimal(nr.upper_bound)
        na = nl.na_set(T, norm_result=nr)
        assert na.points
        for pt in na.points:
            assert T.range.norm(T.apply(pt.coords)) >= nr.value - na.value_tol
            if M is not mat:
                assert abs(float(row @ pt.coords)) >= nr.value * (1.0 - 1e-12)
    prof = nl.sbpb_profile(T, [0.3, 0.9], norm_result=nr, na=na)
    assert all(h >= 0.0 for h in prof.eta)


@pytest.mark.dispatch
def test_functional_norms_alone_match_their_batch():
    """`opnorm` of each of 33 functionals, the orbit representatives of
    `kim_lee_check`'s 256-functional scan on l_p^2 (and on l_3^3), has the
    value and witness bits of its row of one `_row_norms` call for all 33."""
    for space in [SequenceSpace(2, p) for p in EXPONENTS] + [SequenceSpace(3, 3.0)]:
        F = nl.spaces.sample_sphere_coords(space.dual(), 256, 0)[:, :33]
        ops = [OperatorPQ(f[None], space, SequenceSpace(1, 2.0)) for f in F.T]
        norms, W = normcomp._row_norms(ops)
        for T, v, ws in zip(ops, norms.max(axis=1), W):
            nr = nl.opnorm(T)
            assert float(nr.value).hex() == float(v).hex()
            assert [w.coords.tobytes() for w in nr.witnesses] == [w.tobytes() for w in ws.T]


@pytest.mark.parametrize("rows, distinct", [(np.zeros((5, 3)), [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
                                             ([[1, 2, 3], [1, 2, 3], [-1, -2, -3]], [[1, 2, 3], [-1, -2, -3]])])
def test_parallel_rows_give_each_witness_once(rows, distinct):
    """An attainer of several maximal rows (the zero operator's e1, or x and
    -x of parallel rows) is one witness, in first-seen order."""
    T = OperatorPQ(np.asarray(rows, dtype=float), SequenceSpace(3, 2.0), SequenceSpace(len(rows), INF))
    W = [w.coords for w in nl.opnorm(T).witnesses]
    assert len(W) == 2
    for w, d in zip(W, distinct):
        assert np.allclose(w, np.divide(d, np.linalg.norm(d)), rtol=0.0, atol=1e-15)


@pytest.mark.dispatch
def test_cluster_representatives_order_ties_by_column():
    """Tied values are taken lowest column first, whatever the sort kernel:
    the greedy order is (value descending, column ascending)."""
    space, rng = SequenceSpace(2, 2.0), np.random.default_rng(3)
    X = space.sphere_grid(rng.permutation(np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)))
    values = np.where(rng.random(96) < 0.25, 0.5, 1.0)  # two levels, each of many exact ties
    reps = normcomp.cluster_representatives(X, values, space, 0.5, cluster_tol=0.3)
    alive, expected = np.ones(96, dtype=bool), []
    for j in sorted(range(96), key=lambda j: (-values[j], j)):
        if alive[j]:
            expected.append(j)
            alive &= space.norm_cols(X - X[:, j:j + 1]) >= 0.3
    assert len(reps) == len(expected) > 2
    for (x, v), j in zip(reps, expected):
        assert np.array_equal(x, X[:, j]) and v == values[j]


@pytest.mark.dispatch
def test_cluster_limit_keeps_the_first_representatives():
    """Stopping the greedy rounds at `limit` keeps the first `limit`
    representatives bit for bit: on an l_inf continuum (two faces of the
    square attain), and for each owner of a multi-owner `_greedy` call."""
    space = SequenceSpace(2, INF)
    X = space.sphere_grid(np.linspace(0.0, 2.0 * math.pi, 8193))
    values = np.abs(X[0])  # 1 on the faces x = +-1
    full = normcomp.cluster_representatives(X, values, space, 1.0 - 1e-9, cluster_tol=0.1)
    first = normcomp.cluster_representatives(X, values, space, 1.0 - 1e-9, cluster_tol=0.1, limit=16)
    assert len(full) > 16 and len(first) == 16
    assert all(np.array_equal(x, y) and v == w for (x, v), (y, w) in zip(first, full))
    C = np.hstack([X[:, 7000:], X, X[:, :2000]])
    own = np.repeat([0, 1, 2], [1193, 8193, 2000])
    reps = normcomp._greedy(C, own, space.norm_cols, 0.1)
    assert np.array_equal(normcomp._greedy(C, own, space.norm_cols, 0.1, limit=5),
                          np.concatenate([reps[own[reps] == o][:5] for o in range(3)]))


def _serial_greedy(C, own, norm_cols, cluster_tol, limit=None):
    """Reference for `_greedy`: each column in turn is a representative unless
    within cluster_tol of an earlier one of its owner (an owner keeps its first
    `limit`), measured against them alone in one call."""
    reps = {}
    for j in range(C.shape[1]):
        mine = reps.setdefault(int(own[j]), [])
        if (limit is None or len(mine) < limit) and (norm_cols(C[:, j:j + 1] - C[:, mine]) >= cluster_tol).all():
            mine.append(j)
    return np.array([j for o in sorted(reps) for j in reps[o]], dtype=int)


def _by_value(X, values, floor):
    """The columns of X at or above floor, as `cluster_representatives` orders them."""
    idx = np.flatnonzero(values >= floor)
    return X[:, idx[np.argsort(-values[idx], kind="stable")]]


@pytest.mark.dispatch
def test_windowed_greedy_matches_a_serial_reference(monkeypatch):
    """One-owner `_greedy` calls with a `SequenceSpace` norm measure only each
    representative's box, and keep the representatives of taking the columns
    one at a time, bit for bit: on the l_inf square's faces (with and without
    `limit`), the l_1 diamond's faces, the near-maximal grid points of seeded
    2x2 operators, l_p^3 samples and multi-owner calls, for three cluster_tol.
    On the l_inf faces the boxes measure under a quarter of the columns the
    full scan does.  The margin of the box rests on numpy's ** rounding."""
    from normlab import spaces

    g = np.random.default_rng(29)
    grid = np.linspace(0.0, 2.0 * math.pi, 8193)
    sq, diamond = SequenceSpace(2, INF), SequenceSpace(2, 1.0)
    X, Xd = sq.sphere_grid(grid), diamond.sphere_grid(grid[::2])
    faces = _by_value(X, np.abs(X[0]), 1.0 - 1e-9)  # two faces of the square attain
    cases = [(faces, sq, None), (faces, sq, 16), (_by_value(Xd, np.abs(Xd.sum(axis=0)), 1.0 - 1e-9), diamond, None)]
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        dom = SequenceSpace(2, p)
        T = OperatorPQ(g.standard_normal((2, 2)), dom, SequenceSpace(2, 2.0))
        Xp = dom.sphere_grid(grid[::4])
        v = T.range_values(Xp)
        cases.append((_by_value(Xp, v, 0.95 * v.max()), dom, None))
    for p in (1.5, 3.0, INF):
        dom = SequenceSpace(3, p)
        S = sample_sphere_coords(dom, 500, seed=int(g.integers(100)))
        cases.append((_by_value(S, g.standard_normal(3) @ S, -np.inf), dom, None))
    for tol in (0.05, 0.1, 0.3):
        for C, space, limit in cases:
            own = np.zeros(C.shape[1], dtype=int)
            got = normcomp._greedy(C, own, space.norm_cols, tol, limit)
            assert np.array_equal(got, _serial_greedy(C, own, space.norm_cols, tol, limit))
        for (C, space, _), (D, _, _) in zip(cases[3:], cases[4:]):  # two owners, in runs, on the first's norm
            if C.shape[0] == D.shape[0]:
                CD, own = np.hstack([C, D]), np.repeat([0, 1], [C.shape[1], D.shape[1]])
                assert np.array_equal(normcomp._greedy(CD, own, space.norm_cols, tol),
                                      _serial_greedy(CD, own, space.norm_cols, tol))
    measured, pnorm_cols_of = [], spaces.pnorm_cols
    monkeypatch.setattr(spaces, "pnorm_cols", lambda X, *a: measured.append(X.shape[1]) or pnorm_cols_of(X, *a))
    normcomp._greedy(faces, np.zeros(faces.shape[1], dtype=int), sq.norm_cols, 0.1)
    boxed = sum(measured)
    measured.clear()
    normcomp._greedy(faces, np.zeros(faces.shape[1], dtype=int), lambda Y: sq.norm_cols(Y), 0.1)  # the full scan
    assert 0 < boxed < sum(measured) / 4


def _count_calls(monkeypatch, module, name, counts):
    """Wrap module.name so that counts[name] adds the number of operators it computes."""
    run = getattr(module, name)

    def counted(ops, *args):
        counts[name] += len(ops)
        return run(ops, *args)
    counts[name] = 0
    monkeypatch.setattr(module, name, counted)


def test_shared_results_live_only_inside_run_all(monkeypatch):
    """The store is dropped when run_all returns or raises, and is not seen by another thread."""
    from normlab import repro

    nl.run_all(seed=0, tags=["DIAG-2-2"])
    assert normcomp._SHARED.get() is None
    seen = []

    def fail(q):
        seen.append(len(normcomp._SHARED.get()))
        raise RuntimeError("stop")
    monkeypatch.setattr(repro, "monotonicity_certificate", fail)
    with pytest.raises(RuntimeError, match="stop"):
        nl.run_all(seed=0, tags=["DIAG-2-2", "F-CERT"])
    assert seen[0] > 0 and normcomp._SHARED.get() is None
    in_thread = []
    with normcomp._sharing():  # another thread runs in its own context, with no store
        worker = threading.Thread(target=lambda: in_thread.append(normcomp._SHARED.get()))
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive() and in_thread == [None]


def test_shared_results_keep_every_setting_in_the_key(monkeypatch):
    """A repeated sweep, oracle or attainment set is a hit; another tol, grid,
    value_tol, cluster_tol or norm value is a miss; a Norm2D handle is never stored."""
    from normlab import attainment

    counts = {}
    for module, name in ((normcomp, "_sweep2d"), (normcomp, "_oracle_2d"), (attainment, "_open_pass")):
        _count_calls(monkeypatch, module, name, counts)
    T = nl.make_diag_beta(0.5, 1.5, 3.0)
    with normcomp._sharing():
        for kw in ({}, {}, {"tol": 1e-5}, {"grid": 32768}, {}):
            nr = nl.opnorm(T, **kw)
        for grid in (100000, 100000, 50000):
            nl.opnorm_oracle(T, grid=grid)
        for kw in ({}, {}, {"value_tol": 1e-7}, {"cluster_tol": 0.05}, {"tol": 1e-5}, {"grid": 32768}, {}):
            nl.na_set(T, norm_result=nr, **kw)
        nl.na_set(T, norm_result=replace(nr, value=float(np.nextafter(nr.value, 2.0))))
        stored = len(normcomp._SHARED.get())
        handles = [nl.Norm2D(lambda X: pnorm_cols(X, 1.5)), nl.Norm2D(lambda X: pnorm_cols(X, 1.5))]
        got = [nl.opnorm(OperatorPQ(T.matrix, h, SequenceSpace(2, 3.0))) for h in handles]
        assert len(normcomp._SHARED.get()) == stored
    assert counts == {"_sweep2d": 3 + 2, "_oracle_2d": 2, "_open_pass": 6}
    alone = nl.opnorm(OperatorPQ(T.matrix, handles[0], SequenceSpace(2, 3.0)))
    assert [r.to_json_dict() for r in got] == [alone.to_json_dict()] * 2


def test_shared_hits_are_pool_free_copies_with_the_fresh_bits():
    """A hit has no pool and the JSON of the result computed afresh, as do the
    attainment set and profile built from it; mutating a hit changes no later one."""
    T = nl.make_diag_beta(0.5, 1.5, 3.0)
    fresh = nl.opnorm(T)
    na_fresh = nl.na_set(T, norm_result=fresh)
    prof_fresh = nl.sbpb_profile(T, [0.25, 1.0], norm_result=fresh, na=na_fresh)
    with normcomp._sharing():
        first, hit = nl.opnorm(T), nl.opnorm(T)
        na_first, na_hit = nl.na_set(T, norm_result=hit), nl.na_set(T, norm_result=hit)
        hit.witnesses[0].coords[:] = 0.0  # mutate the hits' arrays and lists in place
        hit.witnesses.clear()
        na_hit.points[0].coords[:] = 0.0
        na_hit.points.clear()
        again, na_again = nl.opnorm(T), nl.na_set(T, norm_result=fresh)
    assert first.pool is not None and again.pool is None
    assert again.to_json_dict() == first.to_json_dict() == fresh.to_json_dict()
    assert na_again.to_json_dict() == na_first.to_json_dict() == na_fresh.to_json_dict()
    na = nl.na_set(T, norm_result=again)
    assert na.to_json_dict() == na_fresh.to_json_dict()
    prof = nl.sbpb_profile(T, [0.25, 1.0], norm_result=again, na=na)
    assert prof.to_json_dict() == prof_fresh.to_json_dict()
