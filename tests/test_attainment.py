import json
import math
from dataclasses import replace

import numpy as np
import pytest

import normlab as nl
from normlab import INF, BlockSpace, OperatorPQ, SequenceSpace, UncertifiedNormError
from normlab import attainment, normcomp
from normlab.attainment import default_epsilons
from normlab.operators import apply_cols
from normlab.spaces import pnorm_cols, sample_sphere_coords


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


def test_axis_snap_keeps_attainment_sets_symmetric():
    """A representative snaps to its axis vector when that attains as much up
    to rounding: the rotation into l_1.5 attains at exactly the four axes at
    beta = 1, and at exactly +-e_2 at beta = 0.9, antipodes alike."""
    for beta, axes in ((1.0, [[1, 0], [0, 1], [-1, 0], [0, -1]]), (0.9, [[0, 1], [0, -1]])):
        na = nl.na_set(nl.make_rot_lq(beta, 1.5))
        assert [p.coords.tolist() for p in na.points] == axes


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
    assert nl.sbpb_profile(T, []).eta == []  # no eps, no levels


@pytest.mark.parametrize("T", [nl.make_diag_beta(0.5, 2, 2), nl.make_lplq_fail(2, 2, 2)], ids=["2D", "nD"])
def test_profile_empty_attainment_set_convention(T):
    """An empty NA, which in finite dimension can only be a numerical artifact, gives eta = 0 and rho = ||T||
    at every eps, with a diagnostic note."""
    eps = [0.1, 0.5, 0.9]
    prof = nl.sbpb_profile(T, eps, na=nl.AttainmentSet([], 1e-6, 0.1, False, 1.0))
    value = nl.opnorm(T).value
    assert prof.na_empty and prof.norm_value == value
    assert prof.eta == [0.0] * 3 and prof.rho == [value] * 3
    assert prof.notes == "diagnostic: empty attainment set in finite dimension (numerical artifact); eta forced to 0"


@pytest.mark.parametrize("drop", [0, 1])
def test_profile_absorbs_a_missed_attainment_cluster(drop):
    """A 2D profile given an NA that misses one of +-e2 repairs it from the grid: the eta of the full set, bit
    for bit, and a note that counts the cluster absorbed."""
    T = nl.make_diag_beta(0.5, 2, 2)
    na = nl.na_set(T)
    eps = default_epsilons(T.domain)
    assert len(na.points) == 2
    partial = replace(na, points=[p for i, p in enumerate(na.points) if i != drop])
    full, repaired = nl.sbpb_profile(T, eps, na=na), nl.sbpb_profile(T, eps, na=partial)
    assert repaired.eta == full.eta and full.notes == ""
    assert repaired.notes == "diagnostic: 1 missed attainment cluster(s) absorbed during profiling"


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
    """The block norms come from the norm's result; only a reloaded one, which has none, recomposes them:
    one `opnorm` of T, whose three blocks share their spaces and are swept in one call."""
    T = nl.make_lplq_fail(2, 2, 3)
    nr = nl.opnorm(T)
    reloaded = nl.NormResult.from_json_dict(nr.to_json_dict())
    calls, sweeps = [], []
    real, sweep = attainment.opnorm, normcomp._sweep2d
    monkeypatch.setattr(attainment, "opnorm", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    monkeypatch.setattr(normcomp, "_sweep2d", lambda ops, *a: sweeps.append(len(ops)) or sweep(ops, *a))
    na = nl.na_set(T, norm_result=nr)
    assert calls == sweeps == [] and len(na.points) >= 6
    assert nl.na_set(T, norm_result=reloaded).to_json_dict() == na.to_json_dict()
    assert [id(R) for R in calls] == [id(T)] and sweeps == [3]


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


@pytest.mark.parametrize("tols", [{"value_tol": -1.0}, {"value_tol": 0.5}, {"cluster_tol": 0.0},
                                  {"cluster_tol": 2.0}, {"value_tol": float("nan")}])
def test_profile_and_witness_refuse_the_tolerances_na_set_refuses(tols):
    """value_tol and cluster_tol outside (0, 0.1] are refused on the profile path as by `na_set`, before any
    work, instead of giving eta = 0 through an empty or a too coarse attainment set."""
    T = nl.make_diag_beta(0.5, 2, 2)
    for f in (lambda: nl.na_set(T, **tols), lambda: nl.sbpb_profile(T, [0.5], **tols),
              lambda: nl.sbpb_witness(T, 0.5, 0.1, **tols)):
        with pytest.raises(ValueError, match="must lie in"):
            f()


def test_witness_refuses_a_nan_eta():
    with pytest.raises(ValueError, match="nonnegative"):
        nl.sbpb_witness(nl.make_diag_beta(0.5, 2, 2), 0.5, float("nan"))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, INF])
@pytest.mark.dispatch
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


@pytest.mark.dispatch
def test_batched_witnesses_and_representatives_match_one_bracket_per_call(monkeypatch):
    """The sweep's witnesses and na_set's representatives, each refined in one
    zoom call, get the bits of one call per bracket."""
    real, widths = normcomp._zoom_max, []

    def checked(f, a, b):
        t, v = real(f, a, b)
        for i, (a_i, b_i) in enumerate(zip(np.atleast_1d(a), np.atleast_1d(b))):
            t_i, v_i = real(f, a_i, b_i)
            assert (t_i[0], v_i[0]) == (t[i], v[i])
        widths.append(t.size)
        return t, v

    monkeypatch.setattr(normcomp, "_zoom_max", checked)
    monkeypatch.setattr(attainment, "_zoom_max", checked)
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
    """Every certified nD gallery set, a rank-one set on l_3^3 and a set of
    l_1.5^3 -> l_inf^2 are built from the structure or the row closed form:
    no multistart, ascent or polish."""
    from normlab.repro import gallery_default_cases

    ops = [T for T in (nl.from_gallery(tag, **params) for tag, params in gallery_default_cases())
           if T.domain.dim >= 3]
    ops.append(OperatorPQ(np.array([[0.3, -1.2, 0.7]]), SequenceSpace(3, 3.0), SequenceSpace(1, 2.0)))
    ops.append(OperatorPQ(np.array([[0.3, -1.2, 0.7], [1.1, 0.2, -0.4]]), SequenceSpace(3, 1.5), SequenceSpace(2, INF)))
    assert len(ops) == 24
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


class _CountedIter(list):
    """A list that counts the times it is iterated."""

    iters = 0

    def __iter__(self):
        self.iters += 1
        return super().__iter__()


def test_spanned_set_builds_its_slice_attainers_once():
    """A spanned set takes each slice's attainers from its points on its first
    `dists` call only, and its distances and JSON form stay those of a freshly
    built set, bit for bit: spheres spanned by l_2 and l_1.5 blocks, and a
    hand-made set of l_inf^4 on two slices."""
    sq = SequenceSpace(4, INF)
    box = nl.AttainmentSet([nl.UnitVector(c, sq) for c in ([1, 0.5, 0, 0], [0.25, -1, 0, 0], [0, 0, -1, 1])],
                           1e-6, 0.1, True, 1.0, ((0, 2), (2, 4)))
    for na in (nl.na_set(nl.make_lplq_fail(2.0, 2.0, 3)), nl.na_set(nl.make_lplq_fail(1.5, 1.5, 2)), box):
        space = na.points[0].space
        fresh = nl.AttainmentSet.from_json_dict(na.to_json_dict())
        X = sample_sphere_coords(space, 64, seed=5)
        na.points = _CountedIter(na.points)
        first = na.dists(X)
        assert na.points.iters == len(na.slices)
        for _ in range(3):
            assert np.array_equal(na.dists(X), first)
        assert na.points.iters == len(na.slices)
        assert np.array_equal(first, fresh.dists(X))
        assert na.to_json_dict() == fresh.to_json_dict()


def test_profile_below_the_sweep_floor_evaluates_its_grid_once(monkeypatch):
    """A 2D grid below the sweep's floor of 20,000 serves only the analysis:
    the profile builds that grid once, for its attainment set and itself."""
    T = OperatorPQ(np.array([[0.3, 0.9], [0.7, -0.2]]), SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))
    widths = []
    real, table = OperatorPQ.range_values, attainment._row_values
    monkeypatch.setattr(OperatorPQ, "range_values",
                        lambda self, X: widths.append(np.shape(X)[1]) or real(self, X))
    monkeypatch.setattr(attainment, "_row_values",  # a 2D pass's table of values, one row per operator
                        lambda rng, mats, C: widths.append(C.shape[2]) or table(rng, mats, C))
    nl.sbpb_profile(T, [0.5], grid=8192)
    assert widths.count(8193) == 1


# Reference for the 2D profile passes: one operator at a time, as the profile
# took it before passes (norm, base pool, attainment set, share of the
# profile, then one refinement), with its own clustering, distances and folds.

def _ref_min_dists(space, X, reps):
    if not reps:
        return np.full(X.shape[1], INF)
    D = np.empty((len(reps), X.shape[1]))
    for i, r in enumerate(reps):
        D[i] = space.norm_cols(X - r[:, None])
    return D.min(axis=0)


def _ref_clusters(coords, values, space, value_floor, cluster_tol):
    idx = np.nonzero(values >= value_floor)[0]
    order = idx[np.argsort(-values[idx], kind="stable")]
    C, V = coords[:, order], values[order]
    alive, reps = np.ones(C.shape[1], dtype=bool), []
    while alive.any():
        k = np.nonzero(alive)[0][0]
        reps.append((C[:, k].copy(), float(V[k])))
        live = np.nonzero(alive)[0]
        alive[live] &= space.norm_cols(C[:, live] - C[:, k][:, None]) >= cluster_tol
    return reps


def _ref_best_feasible(coords, values, dists, epsilons):
    best = []
    for eps in epsilons:
        v = np.where(dists >= eps - attainment.FEAS_SLACK, values, -np.inf)
        j = int(np.argmax(v))
        best.append((float(v[j]), coords[:, j].copy()) if v[j] > -np.inf else None)
    return best


def _ref_pool(T, nr, grid):
    """(coords, values, thetas) of T's base grid: the norm's pool when it swept this grid."""
    grid += (-grid) % 8
    if nr.pool is not None and nr.grid_size == grid:
        return nr.pool.coords, nr.pool.values, nr.pool.thetas
    thetas, X = normcomp._angle_grid(T.domain, grid)
    return X, T.range_values(X), thetas


def _ref_na_from_pool(T, pool, nr, value_tol, cluster_tol):
    (coords, values, thetas), G = pool, pool[2].size
    if nr.witnesses:
        E = np.column_stack([w.coords for w in nr.witnesses])
        coords, values = np.hstack([coords, E]), np.concatenate([values, T.range_values(E)])
    continuum = float(np.mean(pool[1] >= nr.value - value_tol)) > attainment.CONTINUUM_FRACTION
    reps = _ref_clusters(coords, values, T.domain, nr.value - value_tol, cluster_tol)
    refined = list(reps)
    todo = [i for i, (_x, v) in enumerate(reps) if v < nr.value - 1e-12]
    if todo:
        t0 = np.array([normcomp._theta_of(T.domain, reps[i][0]) for i in todo])
        h = 2.0 * math.pi / (G - 1)
        t_ref, v_ref = normcomp._zoom_max(lambda ts, _live: T.range_values(T.domain.sphere_grid(ts)),
                                            t0 - 2 * h, t0 + 2 * h)
        for i, x, v in zip(todo, T.domain.sphere_grid(t_ref).T, v_ref.tolist()):
            refined[i] = (x, v)
    final = []
    for x, v in sorted(refined, key=lambda t: -t[1]):
        if v >= nr.value - value_tol and all(T.domain.norm(x - y) >= cluster_tol for y, _ in final):
            final.append((x, v))
    out = {}
    for x, _ in final:
        e = np.where(np.arange(x.size) == np.argmax(np.abs(x)), np.sign(x), 0.0)
        e = e / T.domain.norm(e)
        rnd = normcomp._rounding_allowance(T.range.dim)  # e attains as much as x up to rounding
        snap = T.domain.norm(e - x) < cluster_tol and T.range.norm(T.apply(e)) >= T.range.norm(T.apply(x)) * (1 - rnd)
        out.setdefault(tuple(e if snap else x), e if snap else x)
    points = sorted(out.values(), key=lambda x: normcomp._theta_of(T.domain, x))
    return nl.AttainmentSet([nl.unit(x, T.domain) for x in points], value_tol, cluster_tol, continuum, nr.value)


def _ref_peaks(v, feas, interior=True):
    """The grid indices of the top 10 peaks: feasible points at least as high as
    both neighbours, or with `interior=False` only as high as their feasible ones
    (the wider rule `test_boundary_peaks_never_survive_their_zoom` checks)."""
    w = v if interior else np.where(feas, v, -np.inf)
    local = np.nonzero((w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:]) & feas[1:-1])[0] + 1
    return local[np.argsort(-v[local], kind="stable")][:10].tolist()


def _ref_profile_part(T, na, nr, epsilons, pool):
    if na.na_empty:
        return attainment._ProfilePart(T, nr.value, na, epsilons, [], 0, [])
    (coords, values, thetas), G, slack = pool, pool[2].size, attainment.FEAS_SLACK
    if nr.witnesses:
        E = np.column_stack([w.coords for w in nr.witnesses])
        coords, values = np.hstack([coords, E]), np.concatenate([values, T.range_values(E)])
    reps = [p.coords for p in na.points]
    dists = _ref_min_dists(T.domain, coords, reps)
    for _ in range(3):
        mask = (values > nr.value - na.value_tol) & (dists > na.cluster_tol)
        if not np.any(mask):
            break
        add = [x for x, _ in _ref_clusters(coords[:, mask], values[mask], T.domain, nr.value - na.value_tol,
                                           na.cluster_tol)]
        reps += add
        dists = np.minimum(dists, _ref_min_dists(T.domain, coords, add))
    best = _ref_best_feasible(coords, values, dists, epsilons)
    base_d, base_v, h = dists[:G], values[:G], 2.0 * math.pi / (G - 1)
    cut, cut_lv, peak, peak_lv = [], [], [], []
    for eps in epsilons:
        feas = base_d >= eps - slack
        i = np.nonzero(feas[:-1] != feas[1:])[0].tolist()
        cut, cut_lv = cut + i, cut_lv + [eps - slack] * len(i)
        top = _ref_peaks(base_v, feas)
        peak, peak_lv = peak + top, peak_lv + [eps - slack] * len(top)
    cut, peak = np.array(cut, dtype=int), np.array(peak, dtype=int)
    cut_lv, peak_lv = np.array(cut_lv, dtype=float), np.array(peak_lv, dtype=float)
    return attainment._ProfilePart(T, nr.value, na, epsilons, reps, len(reps) - len(na.points), best,
                                   cuts=(thetas[cut], thetas[cut + 1], cut_lv, base_d[cut] >= cut_lv),
                                   peaks=(thetas[peak] - h, thetas[peak] + h, peak_lv))


def _ref_refine_2d(parts):
    parts = [p for p in parts if p.cuts]
    if not parts:
        return
    space, rng = parts[0].T.domain, parts[0].T.range
    count = np.array([len(p.reps) for p in parts])
    R = np.column_stack([r for p in parts for r in p.reps])
    ids = np.arange(len(parts))
    c_own = np.repeat(ids, [p.cuts[0].size for p in parts])
    p_own = np.repeat(ids, [p.peaks[0].size for p in parts])
    lo, hi, c_lv, lo_in = (np.concatenate([p.cuts[k] for p in parts]) for k in range(4))
    c_pairs = attainment._pairing(count, c_own)
    t_cut = normcomp._bisect(lambda t: attainment._paired_dists(space, R, space.sphere_grid(t), c_pairs),
                             lo, hi, c_lv, lo_in)
    mats = np.stack([p.T.matrix for p in parts])
    a, b, p_lv = (np.concatenate([p.peaks[k] for p in parts]) for k in range(3))
    t_peak, _ = normcomp._zoom_max(
        lambda t, idx: rng.norm_cols(apply_cols(mats[p_own[idx]], space.sphere_grid(t))), a, b)
    own = np.concatenate([c_own, p_own])
    X_new = space.sphere_grid(np.concatenate([t_cut, t_peak]))
    d_new = attainment._paired_dists(space, R, X_new, attainment._pairing(count, own))
    keep = np.where(d_new >= np.concatenate([c_lv, p_lv]), own, -1)
    values = rng.norm_cols(apply_cols(mats[own], X_new))
    for j, part in enumerate(parts):
        k = keep == j
        if k.any():
            new = _ref_best_feasible(X_new[:, k], values[k], d_new[k], part.epsilons)
            part.best = [n if n is not None and (o is None or n[0] > o[0]) else o for o, n in zip(part.best, new)]


def _ref_profile_parts(ops, epsilons, norms=None, grid=normcomp.DEFAULT_GRID, refine=True):
    parts = []
    for k, T in enumerate(ops):
        nr = nl.opnorm(T, grid=grid) if norms is None else norms[k]
        pool = _ref_pool(T, nr, grid)
        parts.append(_ref_profile_part(T, _ref_na_from_pool(T, pool, nr, 1e-6, 0.1), nr, sorted(epsilons), pool))
    if refine:
        _ref_refine_2d(parts)
    return parts


def _bits(x):
    """A nested structure of floats, arrays, tuples and lists with every float as its bytes."""
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return None if x is None else (np.asarray(x).dtype.str, np.asarray(x).tobytes())


_REFERENCE_CASES = ["1.0", "1.5", "2.0", "3.0", "inf", "continuum", "positive-batch", "gallery", "handle"]


@pytest.mark.parametrize("case", _REFERENCE_CASES)
@pytest.mark.dispatch
def test_2d_profile_passes_match_per_operator_reference(case):
    """A 2D group profiled in passes gives every operator the representatives,
    continuum flag, best points, refinement brackets and profile of the
    per-operator reference, bit for bit: 37 functionals on l_p^2 (passes of
    15, 15 and 7; among them, for p = 1.5 and 3, attainers whose `unit`
    takes a root numpy's pow rounds differently), the functionals at theta = 0 and pi/4 on l_1^2 and l_inf^2
    (among them an edge of attainers on each), one POSITIVE-BATCH group on
    its sweeps' grids, gallery operators, and a general-norm domain (sweeps
    below its grid's floor)."""
    groups, eps, norms, grid = _reference_groups(case)
    for ops in groups:
        parts = attainment._profile_parts(ops, eps, norms, grid=grid)
        ref = _ref_profile_parts(ops, eps, norms, grid)
        for part, r in zip(parts, ref):
            assert _bits([p.coords for p in part.na.points]) == _bits([p.coords for p in r.na.points])
            assert part.na.continuum_flag == r.na.continuum_flag and part.repaired == r.repaired
            assert _bits(part.reps) == _bits(r.reps)
            assert _bits(part.best) == _bits(r.best)
            assert _bits(part.cuts) == _bits(r.cuts) and _bits(part.peaks) == _bits(r.peaks)
            assert part.profile().to_json_dict() == r.profile().to_json_dict()
        if case == "continuum":
            assert any(r.na.continuum_flag for r in ref)


def _at_distances(ops, grid):
    """Five eps: 1e-3, 2.0, and three whose levels eps - FEAS_SLACK equal, bit for bit, a distance from a grid
    point of ops[0] to its representatives, between the first level and the last (the searched counts)."""
    T, slack = ops[0], attainment.FEAS_SLACK
    nr = nl.opnorm(T, grid=grid)
    pool = _ref_pool(T, nr, grid)
    reps = [p.coords for p in _ref_na_from_pool(T, pool, nr, 1e-6, 0.1).points]
    d = np.unique(_ref_min_dists(T.domain, pool[0], reps))
    d = [x for x in d[(d > 0.05) & (d < 1.5)].tolist() if (x + slack) - slack == x]
    return [1e-3, 2.0] + [d[len(d) * k // 4] + slack for k in (1, 2, 3)]


_MANY_EPS = {"default": None, "edge": [1e-12, 0.5, 0.5, 0.9, 4.1], "300": list(np.geomspace(1e-3, 2.1, 300)),
             "at-distances": _at_distances}


@pytest.mark.parametrize("eps_set", list(_MANY_EPS))
@pytest.mark.dispatch
def test_2d_profile_passes_match_the_per_eps_reference_at_many_eps(eps_set, monkeypatch):
    """A pass takes every eps from one scan of its grid (each column's count of levels, the cells where it
    changes, the local maxima), with the per-eps reference's representatives, best points and brackets bit
    for bit, before refinement: the l_1 and l_inf continuum functionals and the gallery operators at the 32
    default eps; at eps with a duplicate, a level of 0 and one above every distance; at 300 eps (counts past
    255); and at levels equal to grid distances (counted inclusively, as `dist >= eps - FEAS_SLACK`)."""
    monkeypatch.setattr(attainment, "_refine_2d", lambda parts: None)
    for case in ("continuum", "gallery"):
        groups, _, norms, grid = _reference_groups(case)
        for ops in groups:
            eps = _MANY_EPS[eps_set] or default_epsilons(ops[0].domain)
            eps = eps(ops, grid) if callable(eps) else eps
            for part, r in zip(attainment._profile_parts(ops, eps, norms, grid=grid),
                               _ref_profile_parts(ops, eps, norms, grid, refine=False)):
                assert _bits(part.reps) == _bits(r.reps) and _bits(part.best) == _bits(r.best)
                assert _bits(part.cuts) == _bits(r.cuts) and _bits(part.peaks) == _bits(r.peaks)


@pytest.mark.dispatch
def test_2d_profile_best_lies_at_every_kind_of_candidate():
    """A row's first largest feasible value at a level lies at a feasible interior local maximum, an end
    of a cut cell, column 0 or G - 1, or a witness column, so the pass takes it from those columns alone.
    Each kind occurs here, and each time the pass's best is the full scan's bit for bit: the l_1 and l_inf
    continuum functionals at the 32 default eps give local maxima in some rows and cut ends in others;
    diag(1, 2) on l_1^2 gives column 0 (e_1, a vertex below the norm, is the best once eps passes 1.2);
    an l_1.5^2 operator at eps 1e-12, whose level 0 admits its attainers, gives its refined witness."""
    groups, _, _, grid = _reference_groups("continuum")
    cases = [(ops, default_epsilons(ops[0].domain)) for ops in groups]
    cases += [([OperatorPQ(np.diag([1.0, 2.0]), SequenceSpace(2, 1.0), SequenceSpace(2, 2.0))], None),
              ([OperatorPQ(np.array([[0.3, 0.9], [0.7, -0.2]]), SequenceSpace(2, 1.5), SequenceSpace(2, 3.0))],
               [1e-12, 0.5])]
    kinds = set()
    for ops, eps in cases:
        eps = sorted(eps or default_epsilons(ops[0].domain))
        P = attainment._open_pass(ops, None, grid, None, 1e-4)
        G, lv = P.thetas.size, np.array(eps) - attainment.FEAS_SLACK
        for r, part in enumerate(attainment._pass_parts(P, attainment._pass_na(P, 1e-6, 0.1), eps)):
            D = _ref_min_dists(ops[0].domain, P.C[:, r], part.reps)
            assert _bits(part.best) == _bits(_ref_best_feasible(P.C[:, r], P.V[r], D, eps))
            for level, b in zip(lv, part.best):
                feas = D >= level
                j = int(np.argmax(np.where(feas, P.V[r], -np.inf)))
                kinds.add("witness" if j >= G else "end" if j in (0, G - 1) else
                          "local maximum" if feas[j - 1] and feas[j + 1] else "cut end")
    assert kinds == {"local maximum", "cut end", "end", "witness"}


def _ref_fold(parts, before, own, X, values, dists):
    """`_fold` one part at a time: its columns' per-eps bests, each kept unless the new value is higher."""
    for j, (part, old) in enumerate(zip(parts, before)):
        k = own == j
        new = _ref_best_feasible(X[:, k], values[k], dists[k], part.epsilons) if k.any() else [None] * len(old)
        assert _bits(part.best) == _bits([n if n is not None and (o is None or n[0] > o[0]) else o
                                          for o, n in zip(old, new)])


@pytest.mark.dispatch
def test_nd_profile_best_and_starts_match_the_per_eps_reference(monkeypatch):
    """In dimension 3 the pool's best evaluation at each eps, the ascent's starts (each eps's top 8 feasible
    evaluations by value, then index) and the fold of the climbed points match a per-eps reference bit for
    bit: functionals on l_p^3 for p in {1, 1.5, 2, 3}, each pool with the negations of every fifth point
    (values and distances tied exactly with other coordinates), at eps with a duplicate and at 4.1, which no
    evaluation reaches; then folds into all four parts of columns owned by each and by none (-1), with ties
    among them and with the bests held, values of -inf, and distances equal to a level."""
    eps, slack, gen = [1e-3, 0.3, 0.3, 0.8, 1.2, 4.1], attainment.FEAS_SLACK, np.random.default_rng(5)
    fold, folds, parts = attainment._fold, [], []
    monkeypatch.setattr(attainment, "_fold", lambda ps, *a: folds.append(([list(p.best) for p in ps], a))
                        or fold(ps, *a))
    for p in (1.0, 1.5, 2.0, 3.0):
        T = OperatorPQ(gen.standard_normal((1, 3)), SequenceSpace(3, p), SequenceSpace(1, 2.0))
        nr = nl.opnorm(T)
        na, pool = nl.na_set(T, norm_result=nr), normcomp._base_pool(T, 0)
        pool = replace(pool, coords=np.hstack([pool.coords, -pool.coords[:, ::5]]),
                       values=np.concatenate([pool.values, pool.values[::5]]))
        part = attainment._profile_part(T, na, nr, eps, pool)
        E = np.column_stack([w.coords for w in nr.witnesses] + [q.coords for q in na.points])
        coords, values = np.hstack([pool.coords, E]), np.concatenate([pool.values, T.range_values(E)])
        dists = na.dists(coords)
        reps, _ = attainment._repair(T.domain, coords, values, dists, nr.value, na)
        assert _bits(part.reps) == _bits(reps)
        assert _bits(part.best) == _bits(_ref_best_feasible(coords, values, dists, eps)) and part.best[-1] is None
        order = np.argsort(-values, kind="stable")
        top = [order[dists[order] >= e - slack][:8] for e in eps]
        assert _bits(part.starts) == _bits((coords[:, np.concatenate(top)], np.repeat(eps, [t.size for t in top])))
        v = values[np.concatenate(top)]
        assert np.unique(v).size < v.size  # tied values among the starts
        parts.append(part)

    folds.clear()
    attainment._ascend_nd(parts)
    ((before, (own, X, values, dists)),) = folds
    assert np.unique(own).size == len(parts)
    _ref_fold(parts, before, own, X, values, dists)

    # columns of every owner and of none (-1), distances drawn or equal to a level, values tied with each
    # other: first below the bests held, or tied exactly with an owner's best at its first level (at another
    # point), or -inf (as a padded witness) wherever they reach the last level; then up to above the bests
    n = 400
    for vmax in (0.5, 2.5):
        own, X = gen.integers(-1, len(parts), n), sample_sphere_coords(parts[0].T.domain, n, 3)
        d = np.where(gen.random(n) < 0.2, np.array(eps)[gen.integers(0, len(eps), n)] - slack, gen.uniform(0, 2, n))
        values = np.round(gen.uniform(0.0, vmax, n), 1)
        if vmax < 1.0:
            tie = (own >= 0) & (gen.random(n) < 0.2)
            values[tie] = [parts[j].best[0][0] for j in own[tie]]
            values[d >= eps[-1] - slack] = -np.inf
        before = [list(p.best) for p in parts]
        fold(parts, own, X, values, d)
        _ref_fold(parts, before, own, X, values, d)
        assert vmax > 1.0 or all(p.best[-1] is None for p in parts)


def _reference_groups(case):
    """(groups, eps, norms, grid) of `test_2d_profile_passes_match_per_operator_reference`'s case."""
    scalar, eps, norms, grid = SequenceSpace(1, 2.0), [0.3, 0.5, 0.9], None, 8192
    if case == "continuum":
        groups = []
        for p in (1.0, INF):
            space = SequenceSpace(2, p)
            F = space.dual().sphere_grid(np.array([0.0, math.pi / 4, 3 * math.pi / 4, 0.3]))
            groups.append([OperatorPQ(f[None], space, scalar) for f in F.T])
    elif case == "positive-batch":
        domain, range_ = SequenceSpace(2, 3.0), SequenceSpace(2, 2.0)
        mats = [np.random.default_rng(s).standard_normal((2, 2)) for s in range(5)]
        scale = [nr.value for nr in normcomp._sweep2d([OperatorPQ(M, domain, range_) for M in mats], 1e-4,
                                                      normcomp.DEFAULT_GRID)]
        groups = [[OperatorPQ(M / v, domain, range_) for M, v in zip(mats, scale)]]
        norms, grid, eps = normcomp._sweep2d(groups[0], 1e-4, normcomp.DEFAULT_GRID), normcomp.DEFAULT_GRID, [0.25]
    elif case == "gallery":  # representatives refined below the norm, ties at beta = 1, snaps to an axis
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        groups = [[nl.make_rot_lq(b, 1.5) for b in (0.5, 0.9, 1.0)],
                  [nl.make_diag_beta(b, 3.0, 3.0) for b in (0.5, 0.9)],
                  [OperatorPQ(R @ np.diag([1.0, 1.0 - 1e-8]) @ R.T, SequenceSpace(2, 1.5), SequenceSpace(2, 3.0)),
                   nl.make_diag_beta(0.5, 1.5, 3.0)]]
        grid = normcomp.DEFAULT_GRID
    elif case == "handle":
        space = nl.Norm2D(lambda X: pnorm_cols(X, 1.5))
        groups = [[OperatorPQ(np.array([[0.3, 0.9], [0.7, -0.2]]), space, SequenceSpace(2, 3.0)),
                   OperatorPQ(np.array([[0.3, 0.9], [-0.7, 0.2]]), space, SequenceSpace(2, 3.0))],
                  [OperatorPQ(np.array([[0.6, -0.8]]), space, scalar)]]
    else:
        space = SequenceSpace(2, float(case))
        F = nl.spaces.sample_sphere_coords(space.dual(), 256, 0)[:, 2::7]  # 37 of kim_lee_check's
        groups = [[OperatorPQ(f[None], space, scalar) for f in F.T]]
    return groups, eps, norms, grid


def _seeded_2x2(seed):
    """A Gaussian 2x2 operator for each (p, q) of the 5x5 exponent grid, drawn from `seed`."""
    rng, ps = np.random.default_rng(seed), (1.0, 1.5, 2.0, 3.0, INF)
    return [OperatorPQ(rng.standard_normal((2, 2)), SequenceSpace(2, p), SequenceSpace(2, q)) for p in ps for q in ps]


@pytest.mark.dispatch
def test_boundary_peaks_never_survive_their_zoom():
    """The peaks the former rule listed and the current one drops (feasible
    grid points at least as high as their feasible neighbours only: a higher
    neighbour is infeasible) would give the profile nothing: zoomed as
    `_refine_2d` zooms a peak, with no constraint, each climbs to a point
    nearer the attainment set than its level, which `keep` drops.  On the
    groups of the per-operator reference, and on seeded 2x2 operators over
    the 5x5 exponent grid at the 32 default eps: 8,415 peaks."""
    cases = [_reference_groups(c) for c in _REFERENCE_CASES]
    cases += [([ops], default_epsilons(ops[0].domain), None, normcomp.DEFAULT_GRID)
              for ops in (_seeded_2x2(0), _seeded_2x2(1))]
    dropped = 0
    for groups, eps, norms, grid in cases:
        for ops in groups:
            for k, T in enumerate(ops):
                nr = nl.opnorm(T, grid=grid) if norms is None else norms[k]
                pool = _ref_pool(T, nr, grid)
                part = _ref_profile_part(T, _ref_na_from_pool(T, pool, nr, 1e-6, 0.1), nr, sorted(eps), pool)
                if not part.reps:
                    continue
                thetas, G = pool[2], pool[2].size
                d, v = _ref_min_dists(T.domain, pool[0][:, :G], part.reps), pool[1][:G]
                idx, lv = [], []
                for e in sorted(eps):
                    feas = d >= e - attainment.FEAS_SLACK
                    i = [j for j in _ref_peaks(v, feas, interior=False) if j not in _ref_peaks(v, feas)]
                    idx, lv = idx + i, lv + [e - attainment.FEAS_SLACK] * len(i)
                if not idx:
                    continue
                h = 2.0 * math.pi / (G - 1)
                t, _ = normcomp._zoom_max(
                    lambda t, _idx: T.range.norm_cols(apply_cols(T.matrix, T.domain.sphere_grid(t))),
                    thetas[idx] - h, thetas[idx] + h)
                R = np.column_stack(part.reps)
                pairs = attainment._pairing(np.array([R.shape[1]]), np.zeros(t.size, dtype=int))
                d_new = attainment._paired_dists(T.domain, R, T.domain.sphere_grid(t), pairs)
                assert not np.any(d_new >= np.array(lv))
                dropped += len(idx)
    assert dropped > 1000


def test_profile_zooms_each_interior_peak_once(monkeypatch):
    """The profile's peak refinement zooms each distinct bracket once, and only
    interior peaks: 25 seeded 2x2 operators, one per exponent pair, profiled
    at the 32 default eps take 3,564 probes through `_refine_2d` (1,030,590
    when every peak listed at every eps was zoomed, boundary peaks included),
    under a bound of 1,000 per operator, and no call passes a bracket twice."""
    probes, brackets, refining = [], [], []
    zoom, refine = attainment._zoom_max, attainment._refine_2d

    def counted_zoom(f, a, b):
        if refining:
            brackets.append(np.column_stack([a, b]))
            return zoom(lambda t, idx: probes.append(t.size) or f(t, idx), a, b)
        return zoom(f, a, b)

    def flagged_refine(parts):
        refining.append(True)
        try:
            refine(parts)
        finally:
            refining.clear()

    monkeypatch.setattr(attainment, "_zoom_max", counted_zoom)
    monkeypatch.setattr(attainment, "_refine_2d", flagged_refine)
    ops = _seeded_2x2(0)
    for T in ops:
        nl.sbpb_profile(T, default_epsilons(T.domain))
    assert len(brackets) == len(ops) and sum(probes) <= 1000 * len(ops)
    assert all(np.unique(b, axis=0).shape[0] == b.shape[0] for b in brackets)


@pytest.mark.dispatch
def test_2d_profile_passes_hold_the_pool_budget(monkeypatch):
    """A 2D group goes in passes of as many operators as POOL_BUDGET holds
    grids of values: 37 functionals on an 8,193-point grid make passes of
    15, 15 and 7; `sbpb_profile` and `na_set` make a pass of one."""
    sizes, real = [], attainment._open_pass
    monkeypatch.setattr(attainment, "_open_pass", lambda ops, *a: sizes.append(len(ops)) or real(ops, *a))
    space = SequenceSpace(2, 3.0)
    F = nl.spaces.sample_sphere_coords(space.dual(), 37, 0)
    ops = [OperatorPQ(f[None], space, SequenceSpace(1, 2.0)) for f in F.T]
    attainment._profile_parts(ops, [0.5], grid=8192)
    assert sizes == [15, 15, 7] and attainment.pass_size(8192) == 15
    assert attainment.pass_size(normcomp.DEFAULT_GRID) == 5
    sizes.clear()
    nl.sbpb_profile(ops[0], [0.5])
    nl.na_set(nl.make_diag_beta(0.5, 2, 3.0))
    assert sizes == [1, 1]


@pytest.mark.dispatch
def test_bisect_stops_at_its_fixed_point_with_the_bits_of_60_halvings(monkeypatch):
    """`_bisect` stops once a step moves no end and returns the ends of 60
    halvings (the reference kept here), on the cuts of l_1, l_1.5 and l_inf
    profiles, whose distances are measured for the whole batch every step."""
    calls = []

    def checked(f, lo, hi, level, lo_in):
        steps = []
        t = normcomp._bisect(lambda mid: steps.append(0) or f(mid), lo, hi, level, lo_in)
        a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
        for _ in range(60):
            mid = 0.5 * (a + b)
            to_lo = (f(mid) >= level) == lo_in
            a, b = np.where(to_lo, mid, a), np.where(to_lo, b, mid)
        assert np.array_equal(t, np.where(lo_in, a, b))
        calls.append((len(steps), float(np.min(lo))))
        return t

    monkeypatch.setattr(attainment, "_bisect", checked)
    for p in (1.0, 1.5, INF):
        space = SequenceSpace(2, p)
        nl.kim_lee_check(space, [0.5, 0.9], functional_samples=64)
        # an eps between the distances of the first two grid points to the
        # attainment set puts a cut in the cell next to theta = 0, where an ulp is tiny
        T = OperatorPQ(nl.spaces.sample_sphere_coords(space.dual(), 64, 0)[:, 3][None], space, SequenceSpace(1, 2.0))
        P = np.array([x.coords for x in nl.na_set(T).points]).T
        X = space.sphere_grid(np.array([0.0, 2.0 * math.pi / 8192]))
        d = [np.min(space.norm_cols(X[:, i:i + 1] - P)) for i in range(2)]
        nl.sbpb_profile(T, [0.5 * (d[0] + d[1])], grid=8192)
        assert calls[-1][1] == 0.0
    assert len(calls) == 6 and all(steps < 60 for steps, _ in calls)


def test_row_attainment_set_builds_no_row_attainers(monkeypatch):
    """`na_set` by rows takes only the row norms, so a dim-3 scan of 16
    functionals makes one `dual_attainer` call per functional for its norm
    and one for its attainment set (48 when the set also built the norm's)."""
    calls = []
    real = normcomp.dual_attainer
    monkeypatch.setattr(normcomp, "dual_attainer", lambda *a: calls.append(1) or real(*a))
    nl.kim_lee_check(SequenceSpace(3, 3.0), [0.5, 0.9], 16)
    assert len(calls) == 32
