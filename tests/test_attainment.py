import json
import math

import numpy as np
import pytest

import normlab as nl
from normlab import INF, BlockSpace, OperatorPQ, SequenceSpace, UncertifiedNormError
from normlab import attainment, normcomp
from normlab.attainment import default_epsilons
from normlab.spaces import pnorm_cols


def test_na_diag_is_plus_minus_e2():
    T = nl.make_diag_beta(0.5, 2, INF)
    na = nl.na_set(T)
    assert len(na.points) == 2
    assert not na.continuum_flag
    for pt in na.points:
        assert min(np.abs(pt.coords - [0, 1]).max(), np.abs(pt.coords - [0, -1]).max()) <= 1e-6


def test_na_rot_beta1_four_points():
    T = nl.make_rot_lq(1.0, 1.5)
    na = nl.na_set(T)
    assert len(na.points) == 4
    expected = [np.array(v, float) for v in ([1, 0], [0, 1], [-1, 0], [0, -1])]
    for e in expected:
        assert min(T.domain.norm(p.coords - e) for p in na.points) <= 1e-6


def test_na_identity_continuum_flag():
    I = OperatorPQ(np.eye(2), SequenceSpace(2, 2), SequenceSpace(2, 2))
    na = nl.na_set(I)
    assert na.continuum_flag


def test_na_validates_tolerances():
    T = nl.make_diag_beta(0.5, 2, 2)
    with pytest.raises(ValueError):
        nl.na_set(T, value_tol=0.5)
    with pytest.raises(ValueError):
        nl.na_set(T, cluster_tol=0.0)


def test_na_refuses_uncertified_norm():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    T = OperatorPQ(M, SequenceSpace(4, 1.7), SequenceSpace(4, 2.6))
    nr = nl.opnorm(T)  # multistart: heuristic
    assert not nr.certified
    with pytest.raises(UncertifiedNormError):
        nl.na_set(T, norm_result=nr)
    with pytest.raises(ValueError):  # certified in name only: no structure, not a row
        nl.na_set(T, norm_result=nl.NormResult(**{**nr.to_json_dict(), "witnesses": [], "certified": True}))


def test_na_pairwise_separation_and_band():
    T = nl.make_rot_lq(1.0, 1.5)
    na = nl.na_set(T)
    for i, a in enumerate(na.points):
        for b in na.points[i + 1 :]:
            assert T.domain.norm(a.coords - b.coords) >= na.cluster_tol
        assert T.range.norm(T.apply(a.coords)) >= na.norm_value - na.value_tol


def test_dist_examples():
    T = nl.make_diag_beta(0.5, 2, INF)
    na = nl.na_set(T)
    e1 = nl.unit([1, 0], T.domain)
    assert nl.dist_to_set(e1, na) == pytest.approx(math.sqrt(2.0), abs=1e-6)
    member = na.points[0]
    assert nl.dist_to_set(member, na) <= 1e-12

    T15 = nl.make_diag_beta(0.5, 1.5, 3.0)
    na15 = nl.na_set(T15)
    d = nl.dist_to_set(nl.unit([1, 0], T15.domain), na15)
    assert d == pytest.approx(2.0 ** (1 / 1.5), abs=1e-6)


def test_dist_space_mismatch_and_empty():
    T = nl.make_diag_beta(0.5, 2, INF)
    na = nl.na_set(T)
    other = nl.unit([1, 0, 0], SequenceSpace(3, 2))
    with pytest.raises(ValueError):
        nl.dist_to_set(other, na)
    # two different block spaces of equal dimension
    l2 = SequenceSpace(2, 2)
    na_block = nl.AttainmentSet([nl.unit([1, 0, 0, 0], BlockSpace(1, (l2, l2)))], 1e-6, 0.1,
                                False, 1.0)
    with pytest.raises(ValueError):
        nl.dist_to_set(nl.unit([1, 0, 0, 0], BlockSpace(2, (l2, l2))), na_block)
    empty = nl.AttainmentSet([], 1e-6, 0.1, False, 1.0)
    assert nl.dist_to_set(nl.unit([1, 0], T.domain), empty) == INF


def test_profile_diag_eta_bounded_by_gap():
    T = nl.make_diag_beta(0.9, 2, INF)
    prof = nl.sbpb_profile(T, [1.0])
    assert prof.eta[0] <= 0.1 + 1e-9
    assert prof.eta[0] == pytest.approx(0.1, abs=1e-6)  # e1 is the feasible maximizer
    assert prof.rho[0] == pytest.approx(0.9, abs=1e-6)


def test_profile_empty_feasible_convention():
    T = nl.make_diag_beta(0.9, 2, INF)
    prof = nl.sbpb_profile(T, [4.0])
    assert prof.rho[0] == 0.0
    assert prof.eta[0] == pytest.approx(prof.norm_value)


def test_profile_l2_functionals_closed_form():
    """eta(eps, x*) of a unit functional on l_2^2 is eps^2/2 up to sqrt(2), and
    ||x*|| = 1 beyond, where the feasible set is empty."""
    space = SequenceSpace(2, 2)
    rng = np.random.default_rng(11)
    eps = default_epsilons(space)
    for _ in range(6):
        f = rng.standard_normal(2)
        T = OperatorPQ((f / np.linalg.norm(f)).reshape(1, 2), space, SequenceSpace(1, 2))
        prof = nl.sbpb_profile(T, eps)
        assert prof.epsilons == eps
        for e, h in zip(prof.epsilons, prof.eta):
            assert h == pytest.approx(e * e / 2 if e <= math.sqrt(2) else 1.0, abs=1e-9)


def test_profile_validates_epsilons():
    T = nl.make_diag_beta(0.9, 2, INF)
    with pytest.raises(ValueError):
        nl.sbpb_profile(T, [0.0])
    with pytest.raises(ValueError):
        nl.sbpb_profile(T, [5.0])


def test_profile_monotonicity_as_computed():
    T = nl.make_rot_lq(0.8, 1.5)
    eps = list(np.geomspace(1e-3, 2.0, 24))
    prof = nl.sbpb_profile(T, eps)
    rho = np.asarray(prof.rho)
    eta = np.asarray(prof.eta)
    assert np.all(np.diff(rho) <= 0.0)
    assert np.all(np.diff(eta) >= 0.0)
    assert np.all(rho <= prof.norm_value + 1e-9)
    assert np.all(rho >= 0.0)


def test_profile_default_epsilon_grid():
    space = SequenceSpace(2, 1.5)
    eps = default_epsilons(space)
    assert len(eps) == 32
    assert eps[0] == pytest.approx(1e-3)
    assert eps[-1] == pytest.approx(2 ** (1 / 1.5) * 1.05)


def test_lplq_profile_failure_mechanism():
    for N in (3, 5):
        T = nl.make_lplq_fail(2, 2, N)
        prof = nl.sbpb_profile(T, [0.9], seed=0)
        assert prof.eta[0] <= 1.0 / (2 * N) + 1e-3
        assert prof.eta[0] >= 0.0


def test_failure_certificates_parametrized_by_gap():
    # for each construction driven by beta = 1 - eta0/2: e1 nearly attains
    # (value > 1 - eta0) while sitting at distance >= 1 from the attainment set
    for eta0 in (0.5, 0.1, 0.01):
        beta = 1.0 - eta0 / 2.0
        makers = [
            nl.make_diag_beta(beta, 2, INF),
            nl.make_diag_beta(beta, 2, 2),
            nl.make_diag_beta(beta, 1.5, 3.0),
            nl.make_rot_l1(beta),
            nl.make_rot_lq(beta, 1.5),
            nl.make_compose(beta, 1.5, 1.0),
            nl.make_biorth_inf(SequenceSpace(3, 2), eta0),
            nl.make_proj_then(
                OperatorPQ(np.diag([beta, 1.0]), SequenceSpace(2, 2), SequenceSpace(2, 2)), 4
            ),
        ]
        for T in makers:
            na = nl.na_set(T)
            e1 = nl.unit(np.eye(T.domain.dim)[0], T.domain)
            value = T.range.norm(T.apply(e1.coords))
            if T.gallery and T.gallery.tag == "BIORTH-INF":
                assert value == pytest.approx(1.0 - eta0, abs=1e-12)
            else:
                assert value > 1.0 - eta0
            assert nl.dist_to_set(e1, na) >= 1.0 - 1e-6


def test_failure_certificates_block_families():
    for eta0 in (0.5, 0.1, 0.01):
        N = int(math.ceil(1.0 / (2.0 * eta0))) + 1
        T = nl.make_lplq_fail(2, 2, N)
        na = nl.na_set(T)
        x = np.zeros(2 * N)
        x[2 * (N - 1)] = 1.0  # first coordinate of the deepest block
        v = T.range.norm(T.apply(x))
        assert v > 1.0 - eta0
        assert nl.dist_to_set(nl.unit(x, T.domain), na) >= 1.0 - 1e-6


def test_witness_consistency_with_profile():
    T = nl.make_diag_beta(0.9, 2, INF)
    prof = nl.sbpb_profile(T, [1.0])
    eta = prof.eta[0]
    above = nl.sbpb_witness(T, 1.0, eta + 1e-4)
    assert above is not None
    assert T.range.norm(T.apply(above.coords)) > prof.norm_value - (eta + 1e-4)
    below = nl.sbpb_witness(T, 1.0, max(eta - 1e-4, 0.0))
    assert below is None


def test_witness_construction_example():
    # operator built with contraction 1 - eta/2 admits the near-attainer e1
    eta = 0.2
    T = nl.make_diag_beta(1.0 - eta / 2.0, 2, INF)
    w = nl.sbpb_witness(T, 1.0, eta)
    assert w is not None
    assert np.abs(w.coords - [1, 0]).max() <= 1e-6


def test_witness_eta_zero_is_none():
    T = nl.make_diag_beta(0.5, 2, INF)
    assert nl.sbpb_witness(T, 0.5, 0.0) is None


def test_witness_none_in_compact_regime():
    # q < p: small eta finds no far near-attainer
    T = OperatorPQ(np.diag([0.5, 1.0]), SequenceSpace(2, 3.0), SequenceSpace(2, 2.0))
    w = nl.sbpb_witness(T, 0.5, 1e-3)
    assert w is None


def test_profile_json_and_csv():
    T = nl.make_diag_beta(0.9, 2, INF)
    prof = nl.sbpb_profile(T, [0.5, 1.0])
    d = prof.to_json_dict()
    back = nl.SbpbProfile.from_json_dict(d)
    assert back.epsilons == prof.epsilons
    assert back.rho == prof.rho
    csv_text = prof.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "epsilon,rho,eta"
    assert len(lines) == 3


def test_attainment_set_json_round_trip():
    mixed = nl.make_block(nl.make_shrinking_blocks(2, p=3.0, q=3.0), 2.0, INF)
    assert isinstance(mixed.domain, BlockSpace)
    empty = nl.AttainmentSet([], 1e-6, 0.1, False, 1.0)
    for S in (nl.na_set(nl.make_diag_beta(0.5, 2, INF)), nl.na_set(mixed), empty):
        back = nl.AttainmentSet.from_json_dict(json.loads(json.dumps(S.to_json_dict())))
        assert back.to_json_dict() == S.to_json_dict()
        assert [p.space for p in back.points] == [p.space for p in S.points]
        if S.points:
            assert nl.dist_to_set(S.points[-1], back) == 0.0
    assert empty.to_json_dict()["space"] == {"dim": 0, "p": None}


def test_block_attainment_computes_each_block_norm_once(monkeypatch):
    """The block norms come from the norm's result; only a reloaded one, which has none, recomputes them."""
    T = nl.make_lplq_fail(2, 2, 3)
    nr = nl.opnorm(T)
    reloaded = nl.NormResult.from_json_dict(nr.to_json_dict())
    calls = []
    real = attainment.opnorm
    monkeypatch.setattr(attainment, "opnorm", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    na = nl.na_set(T, norm_result=nr)
    assert calls == [] and len(na.points) >= 6
    assert nl.na_set(T, norm_result=reloaded).to_json_dict() == na.to_json_dict()
    assert len(calls) == 3 and [id(R) for R in calls] == [id(R) for R in T.structure[1]]


@pytest.mark.parametrize("tag, params", [
    ("2D", {}),
    ("PROJ-N-2", {"beta": 0.5, "dim": 4}),
    ("BLOCK-N", {"blocks": 3}),
    ("LPLQ-FAIL-N", {"p": 1.5, "q": 2.0, "blocks": 3}),
])
def test_reused_norm_analysis_matches_recomputing_it(tag, params):
    """na_set and sbpb_profile from the norm's own grid and part norms equal a
    rebuild from the same result reloaded from JSON (no pool, no parts)."""
    if tag == "2D":
        T = OperatorPQ(np.array([[0.3, 0.9], [0.7, -0.2]]), SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))
        eps = default_epsilons(T.domain)
    else:
        T = nl.from_gallery(tag, **params)
        eps = [0.5, 0.9]
    nr = nl.opnorm(T)
    reloaded = nl.NormResult.from_json_dict(json.loads(json.dumps(nr.to_json_dict())))
    assert (nr.pool is not None, nr.parts is not None) == ((True, False) if tag == "2D" else (False, True))
    assert reloaded.pool is None and reloaded.parts is None

    def analysis(r):
        na = nl.na_set(T, norm_result=r)
        return na.to_json_dict(), nl.sbpb_profile(T, eps, norm_result=r).to_json_dict()

    rebuilt = analysis(reloaded)  # first, so that the reuse cannot lean on it
    assert analysis(nr) == rebuilt


def test_norm_analysis_chain_evaluates_its_grid_once(monkeypatch):
    """On a 2D operator, opnorm -> na_set -> sbpb_profile evaluates the base grid once."""
    T = OperatorPQ(np.array([[0.3, 0.9], [0.7, -0.2]]), SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))
    widths = []
    real = OperatorPQ.range_values
    monkeypatch.setattr(OperatorPQ, "range_values",
                        lambda self, X: widths.append(np.shape(X)[1]) or real(self, X))
    nr = nl.opnorm(T)
    na = nl.na_set(T, norm_result=nr)
    nl.sbpb_profile(T, norm_result=nr, na=na)
    assert widths.count(nr.grid_size + 1) == 1 and max(widths) == nr.grid_size + 1
    assert not any(a.flags.writeable for a in (nr.pool.coords, nr.pool.values, nr.pool.thetas))
    widths.clear()
    nl.sbpb_profile(T)  # computes its own norm and attainment set on the same grid
    assert widths.count(nr.grid_size + 1) == 1


@pytest.mark.parametrize("eps", [0.0, -1.0, 5.0])
def test_witness_validates_eps(eps):
    """eps <= 0 would make an attainer a counterexample; eps past the diameter is refused,
    as in the profile."""
    with pytest.raises(ValueError):
        nl.sbpb_witness(nl.make_diag_beta(0.5, 2, 2), eps, 0.1)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, INF])
def test_evaluation_is_column_invariant(p):
    """sphere_grid, norm_cols and range_values give a column the same bits
    whichever other columns are evaluated with it."""
    rng = np.random.default_rng(8)
    t = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, 300)
    block = BlockSpace(p, (SequenceSpace(3, 1.5), SequenceSpace(5, p)))
    domains = [SequenceSpace(2, p), nl.Norm2D(lambda X: pnorm_cols(X, p))]
    ranges = [SequenceSpace(m, p) for m in (1, 2, 8, 40)] + [block]
    subsets = [J for w in (1, 2, 3, 17) for J in (rng.choice(t.size, w, replace=False), slice(7, 7 + w))]
    for space in domains:
        X = space.sphere_grid(t)
        for J in subsets:
            assert np.array_equal(space.sphere_grid(t[J]), X[:, J])
    X = domains[0].sphere_grid(t)
    for space in ranges:
        Y = rng.standard_normal((space.dim, t.size)) * 10.0 ** rng.integers(-3, 4, t.size)
        T = OperatorPQ(rng.standard_normal((space.dim, 2)), domains[0], space)
        norms, values = space.norm_cols(Y), T.range_values(X)
        for J in subsets:
            assert np.array_equal(space.norm_cols(Y[:, J]), norms[J])
            assert np.array_equal(T.range_values(X[:, J]), values[J])


def test_batched_witnesses_and_representatives_match_one_bracket_per_call(monkeypatch):
    """The sweep's witnesses and na_set's representatives, each refined in one
    golden-section call, get the bits of one call per bracket."""
    real, widths = normcomp._golden_max, []

    def checked(f, a, b, iters=48):
        t, v = real(f, a, b, iters)
        for i, (a_i, b_i) in enumerate(zip(np.atleast_1d(a), np.atleast_1d(b))):
            t_i, v_i = real(f, a_i, b_i, iters)
            assert (t_i[0], v_i[0]) == (t[i], v[i])
        widths.append(t.size)
        return t, v

    monkeypatch.setattr(normcomp, "_golden_max", checked)
    monkeypatch.setattr(attainment, "_golden_max", checked)
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    T = OperatorPQ(R @ np.diag([1.0, 1.0 - 1e-8]) @ R.T, SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))
    nr = nl.opnorm(T)
    assert widths == [1, 4]  # the sharpen, then the four witnesses
    na = nl.na_set(T, norm_result=nr)
    assert widths[2:] == [2] and len(na.points) == 4  # the two representatives below the norm


def test_axis_attainer_is_unit_on_a_general_2d_norm():
    """On a 2D norm whose axis vectors have norm above 1, an attainer near an
    axis is replaced only by the unit axis vector, and only if that attains:
    every point of the set stays within value_tol of the norm."""
    c, s = math.cos(0.05), math.sin(0.05)
    R = np.array([[c, -s], [s, c]])
    domains = [nl.Norm2D(lambda X: pnorm_cols(R @ X, 1.5)), nl.Norm2D(lambda X: 1.05 * pnorm_cols(X, 2.0))]
    for space, row in zip(domains, ([1.0, 0.0], [1.0, 0.05])):
        assert space.norm(np.array([1.0, 0.0])) > 1.0
        T = OperatorPQ(np.array([row]), space, SequenceSpace(1, 2.0))
        nr = nl.opnorm(T)
        na = nl.na_set(T, norm_result=nr)
        assert na.points
        assert all(T.range.norm(T.apply(x.coords)) >= nr.value - na.value_tol for x in na.points)


def _search_counters(monkeypatch) -> dict:
    """Count the calls of every nD search routine: multistart, its ascent and polish."""
    from normlab import normcomp

    calls = {"ascend": 0, "_multistart": 0, "polish": 0}
    for name in calls:
        real = getattr(normcomp, name)

        def counted(*a, _name=name, _real=real, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(normcomp, name, counted)
        if hasattr(attainment, name):
            monkeypatch.setattr(attainment, name, counted)
    return calls


def test_na_set_runs_no_search_in_higher_dimensions(monkeypatch):
    """Every certified nD gallery set, and a rank-one set on l_3^3, is built
    from the structure or the closed form: no multistart, ascent or polish."""
    from normlab.repro import gallery_default_cases

    ops = [T for T in (nl.from_gallery(tag, **params) for tag, params in gallery_default_cases())
           if T.domain.dim >= 3]
    ops.append(OperatorPQ(np.array([[0.3, -1.2, 0.7]]), SequenceSpace(3, 3.0), SequenceSpace(1, 2.0)))
    assert len(ops) == 23
    results = [nl.opnorm(T) for T in ops]
    assert all(nr.certified for nr in results)
    calls = _search_counters(monkeypatch)
    for T, nr in zip(ops, results):
        na = nl.na_set(T, norm_result=nr)
        assert na.points and all(T.range.norm(T.apply(p.coords)) >= nr.value - na.value_tol for p in na.points)
    assert calls == {"ascend": 0, "_multistart": 0, "polish": 0}


def test_multistart_ascends_once_per_operator(monkeypatch):
    """Multistart climbs all its starts in one batched ascent per operator."""
    rng = np.random.default_rng(12)
    calls = _search_counters(monkeypatch)
    for p, q in ((1.5, 3.0), (INF, 2.0), (2.0, 1.0)):
        nr = nl.opnorm(OperatorPQ(rng.standard_normal((4, 4)), SequenceSpace(4, p), SequenceSpace(4, q)))
        assert nr.method == "MULTISTART"
    assert calls == {"ascend": 3, "_multistart": 3, "polish": 0}


def test_equal_exponent_blocks_attain_on_a_sphere():
    """LPLQ-FAIL-N with p = q: NA is the unit sphere spanned by the blocks'
    attainers +-e_2n, so its odd coordinates are exactly 0 and the first axis
    of any block lies at distance exactly 2^(1/p)."""
    for p in (2.0, 3.0):
        T = nl.make_lplq_fail(p, p, 3)
        na = nl.na_set(T)
        assert na.continuum_flag and na.slices == ((0, 2), (2, 4), (4, 6))
        assert len(na.points) == 6 and all(not pt.coords[0::2].any() for pt in na.points)
        for n in range(3):
            assert nl.dist_to_set(nl.unit(np.eye(6)[2 * n], T.domain), na) == pytest.approx(2 ** (1 / p), abs=1e-12)
        mix = nl.unit([0, 1, 0, -1, 0, 1], T.domain)  # on the sphere, far from every point
        assert nl.dist_to_set(mix, na) <= 1e-15


def _brute_sphere_dist(space, x, P, slices, atts) -> float:
    """min over t >= 0 with ||t||_P = 1 of the distance from x to the t_i a_i,
    by a grid over the simplex w = t^P zoomed in ten times (three slices)."""
    rest = x.copy()
    for a, b in slices:
        rest[a:b] = 0.0
    r = space.norm(rest) ** P

    def total(W):  # W: (3, m) points of the simplex
        T = W ** (1.0 / P)
        s = np.zeros(W.shape[1])
        for (a, b), A, t in zip(slices, atts, T):
            s += np.min([SequenceSpace(b - a, P).norm_cols(x[a:b, None] - np.outer(v, t)) for v in A], axis=0) ** P
        return s

    c, R = np.array([0.5, 0.5]), 0.5
    best = (INF, None)
    for _ in range(10):
        g1, g2 = np.meshgrid(np.linspace(c[0] - R, c[0] + R, 101), np.linspace(c[1] - R, c[1] + R, 101))
        w1, w2 = g1.ravel(), g2.ravel()
        W = np.vstack([w1, w2, 1.0 - w1 - w2])
        W = W[:, np.all(W >= 0.0, axis=0)]
        v = total(W)
        j = int(np.argmin(v))
        if v[j] < best[0]:
            best = (float(v[j]), W[:2, j])
        c, R = best[1], R / 10.0
    return (r + best[0]) ** (1.0 / P)


@pytest.mark.parametrize("P, axis", [(1.5, True), (2.0, True), (3.0, True), (2.0, False)])
def test_sphere_distance_closed_form_and_multiplier_path(P, axis, monkeypatch):
    """The closed-form distance to a spanned sphere equals a brute-force
    minimum over t, and the multiplier path agrees with it on the same input."""
    rng = np.random.default_rng(int(10 * P) + axis)
    space = SequenceSpace(7, P)  # the last coordinate lies off the slices
    slices = ((0, 2), (2, 4), (4, 6))
    if axis:
        dirs = [np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, -1.0])]
    else:
        dirs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 2))]
    atts = [[v, -v] for v in dirs]
    X = rng.standard_normal((7, 5))
    X /= space.norm_cols(X)
    multiplier = attainment._multiplier_dists(space, X, P, slices, atts)
    monkeypatch.setattr(attainment, "_multiplier_dists", None)  # the closed form needs no multiplier
    closed = attainment._sphere_dists(space, X, P, slices, atts)
    for j in range(X.shape[1]):
        assert closed[j] == pytest.approx(_brute_sphere_dist(space, X[:, j], P, slices, atts), abs=1e-9)
    assert np.max(np.abs(multiplier - closed)) <= 1e-9


def test_sphere_attainment_set_json_round_trip():
    T = nl.make_lplq_fail(3, 3, 3)
    na = nl.na_set(T)
    back = nl.AttainmentSet.from_json_dict(json.loads(json.dumps(na.to_json_dict())))
    assert back.slices == na.slices == ((0, 2), (2, 4), (4, 6))
    assert back.to_json_dict() == na.to_json_dict()
    x = nl.unit(np.arange(1.0, 7.0), T.domain)
    assert nl.dist_to_set(x, back) == nl.dist_to_set(x, na) > 0.0


def test_profile_below_the_sweep_floor_evaluates_its_grid_once(monkeypatch):
    """A 2D grid below the sweep's floor of 20,000 serves only the analysis:
    the profile builds that grid once, for its attainment set and itself."""
    T = OperatorPQ(np.array([[0.3, 0.9], [0.7, -0.2]]), SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))
    widths = []
    real = OperatorPQ.range_values
    monkeypatch.setattr(OperatorPQ, "range_values",
                        lambda self, X: widths.append(np.shape(X)[1]) or real(self, X))
    nl.sbpb_profile(T, [0.5], grid=8192)
    assert widths.count(8193) == 1
