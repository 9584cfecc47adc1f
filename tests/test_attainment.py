import math

import numpy as np
import pytest

import normlab as nl
from normlab import INF, BlockSpace, OperatorPQ, SequenceSpace, UncertifiedNormError
from normlab.attainment import default_epsilons


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
    T = nl.make_diag_beta(0.5, 2, INF)
    na = nl.na_set(T)
    back = nl.AttainmentSet.from_json_dict(na.to_json_dict())
    assert len(back.points) == len(na.points)
    assert back.norm_value == na.norm_value
