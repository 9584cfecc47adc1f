import json
import math

import numpy as np
import pytest

import normlab as nl
from normlab import INF, OperatorPQ, SequenceSpace
from normlab import attainment
from normlab.attainment import _profile_parts
from normlab.convexity import ETA_NEAR_ZERO_CEIL, ETA_POSITIVE_FLOOR, _pair_tables_2d, lp_handle
from normlab.spaces import TWO_PI, pnorm_cols, sample_sphere_coords, sphere_param_2d

EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]


def test_delta_circle_values():
    mod = nl.delta_numeric(SequenceSpace(2, 2), [1.0, 2.0])
    assert mod.delta[0] == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=2e-3)
    assert mod.delta[1] == pytest.approx(1.0, abs=1e-9)  # antipodal pair forced


def test_delta_l1_flat():
    mod = nl.delta_numeric(SequenceSpace(2, 1), [0.5, 1.0, 2.0])
    assert all(d <= 1e-6 for d in mod.delta)
    wx, wy = mod.witness_pairs[-1]
    assert np.abs(wx - [1, 0]).max() <= 1e-6
    assert np.abs(wy - [0, 1]).max() <= 1e-6


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_delta_closed_form_oracle_high_p(p):
    eps = [0.25, 0.5, 1.0, 1.5]
    mod = nl.delta_numeric(SequenceSpace(2, p), eps)
    for e, d in zip(eps, mod.delta):
        assert d == pytest.approx(nl.delta_closed_form_high_p(e, p), abs=2e-3)


def test_delta_monotone_and_bounded():
    eps = [0.25, 0.5, 0.75, 1.0, 1.5, 1.9]
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        mod = nl.delta_numeric(SequenceSpace(2, p), eps)
        d = np.asarray(mod.delta)
        assert np.all(np.diff(d) >= -1e-12)
        assert np.all((0.0 <= d) & (d <= 1.0))


def test_delta_witnesses_on_the_square_are_pinned():
    """On l_inf^2 every pair at distance >= eps has delta 0, so the witness
    pair depends only on which chains are refined: the six smallest pairs by
    (value, index), whatever order a sort kernel leaves ties in."""
    mod = nl.delta_numeric(SequenceSpace(2, INF), [1.3731377833825171, 1.8998257078325158])
    assert mod.delta == [0.0, 0.0]
    pairs = [(x.tolist(), y.tolist()) for x, y in mod.witness_pairs]
    assert pairs == [([1.0, 0.3734375], [1.0, -1.0]), ([1.0, 0.899853515625], [1.0, -1.0])]


def test_delta_dim3_and_rejection():
    mod = nl.delta_numeric(SequenceSpace(3, 2), [1.0])
    assert 0.05 <= mod.delta[0] <= 0.2  # coarse grid around 1 - sqrt(3)/2
    with pytest.raises(ValueError):
        nl.delta_numeric(SequenceSpace(4, 2), [1.0])


def test_delta_csv():
    mod = nl.delta_numeric(SequenceSpace(2, 2), [0.5, 1.0])
    lines = mod.to_csv_text().strip().split("\n")
    assert lines[0] == "epsilon,delta"
    assert len(lines) == 3


def test_auerbach_canonical_lp():
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        system = nl.auerbach_2d(SequenceSpace(2, p))
        assert np.allclose(system.vectors[0], [1, 0])
        assert np.allclose(system.vectors[1], [0, 1])
        assert system.biorthogonality_residual() <= 1e-8
        assert system.norm_residual() <= 1e-8


def test_auerbach_rotated_euclidean():
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    R = np.array([[c, -s], [s, c]])
    handle = nl.Norm2D(lambda X: pnorm_cols(R @ X, 2.0), name="rotated")
    system = nl.auerbach_2d(handle)
    assert system.biorthogonality_residual() <= 1e-8
    assert system.norm_residual() <= 1e-8


def test_auerbach_sheared_norm():
    handle = nl.Norm2D(
        lambda X: pnorm_cols(np.vstack([X[0] + X[1] / 2.0, X[1]]), 2.0), name="sheared"
    )
    system = nl.auerbach_2d(handle)
    assert system.biorthogonality_residual() <= 1e-8
    assert system.norm_residual() <= 1e-8


def test_norm2d_rejects_degenerate():
    with pytest.raises(ValueError):
        nl.Norm2D(lambda X: np.abs(X[0]), name="seminorm")  # vanishes on a ray


def test_kim_lee_uniformly_convex_side():
    for p in (1.5, 2.0, 3.0):
        rep = nl.kim_lee_check(SequenceSpace(2, p), [0.5], functional_samples=64, seed=0)
        assert rep.uniformly_convex_expected
        assert rep.min_eta[0] > 1e-6
        assert rep.consistent


def test_kim_lee_flat_side_witnesses():
    for p in (1.0, INF):
        rep = nl.kim_lee_check(SequenceSpace(2, p), [0.5], functional_samples=256, seed=0)
        assert not rep.uniformly_convex_expected
        assert rep.min_eta[0] < 0.02
        assert rep.consistent
        w = np.asarray(rep.witness_functionals[0])
        assert w.shape == (2,)


def test_kim_lee_coherence_with_delta():
    # eta(eps) stays positive across sampled functionals whenever delta(eps/2) > 0
    eps = 0.5
    for p in (1.5, 2.0, 3.0):
        space = SequenceSpace(2, p)
        d = nl.delta_numeric(space, [eps / 2.0]).delta[0]
        rep = nl.kim_lee_check(space, [eps], functional_samples=48, seed=1)
        if d > 1e-6:
            assert rep.min_eta[0] > 1e-6


@pytest.mark.parametrize("dim, p, count", [(2, p, 64) for p in EXPONENTS] + [(3, 1.5, 16), (3, 3.0, 16), (3, 3.0, 64)],
                         ids=[str(p) for p in EXPONENTS] + ["dim3-1.5", "dim3-3.0", "dim3-3.0-64"])
def test_kim_lee_batch_matches_one_profile_per_functional(dim, p, count):
    """Reference: the scan as one sbpb_profile per rank-one functional, first
    minimum kept over the functionals the scan profiles (j <= n/8 in 2D, all
    of them in dimension 3); in dimension 3 the batch shares one base sample."""
    space, eps = SequenceSpace(dim, p), [0.5, 0.9]
    F = sample_sphere_coords(space.dual(), count, 0)
    ops = [OperatorPQ(F[:, j].reshape(1, dim), space, SequenceSpace(1, 2.0)) for j in range(count)]
    profiles = [nl.sbpb_profile(T, eps, seed=0, grid=8192) for T in ops]
    min_eta, witnesses = [INF] * len(eps), [F[:, 0]] * len(eps)
    for j, prof in enumerate(profiles[:count // 8 + 1 if dim == 2 else count]):
        for i, h in enumerate(prof.eta):
            if h < min_eta[i]:
                min_eta[i], witnesses[i] = h, F[:, j]
    rep = nl.kim_lee_check(space, eps, functional_samples=count, seed=0)
    assert rep.min_eta == min_eta
    assert all(np.array_equal(w, r) for w, r in zip(rep.witness_functionals, witnesses))
    batch = [part.profile() for part in _profile_parts(ops, eps, seed=0, grid=8192)]
    assert [b.to_json_dict() for b in batch] == [r.to_json_dict() for r in profiles]


def _signed_permutations(n):
    """The eight signed permutations of the plane as (matrix, index map of the
    n-point angle grid): a quarter turn is j -> j + n/4, the reflection y -> -y
    is j -> -j."""
    turn, flip = np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    return [(np.linalg.matrix_power(turn, k) @ np.linalg.matrix_power(flip, e),
             lambda j, k=k, e=e: (k * n // 4 + (-1) ** e * j) % n) for k in range(4) for e in range(2)]


@pytest.mark.parametrize("p", EXPONENTS)
def test_kim_lee_scan_profiles_one_functional_per_orbit(p):
    """On l_p^2 the sampled functionals are closed under the signed permutations,
    which keep eta, so the scan profiles j <= n/8 only; against a full
    per-functional eta table, its min eta is within the largest orbit spread."""
    space, eps = SequenceSpace(2, p), [0.5, 0.9]
    dual = space.dual()
    theta = lambda X: np.array([sphere_param_2d(x, dual.p) for x in X.T])
    for n in (8, 64, 256):
        F, j = sample_sphere_coords(dual, n, 0), np.arange(n)
        for M, act in _signed_permutations(n):
            # closed up to rounding: sigma(F_j) sits at the sphere parameter of F_sigma(j)
            gap = (theta(M @ F) - theta(F[:, act(j)]) + math.pi) % TWO_PI - math.pi
            assert np.all(np.abs(gap) <= 4 * np.spacing(TWO_PI))
    for n in (64, 256):
        F = sample_sphere_coords(dual, n, 0)
        ops = [OperatorPQ(F[:, j].reshape(1, 2), space, SequenceSpace(1, 2.0)) for j in range(n)]
        table = np.array([part.profile().eta for part in _profile_parts(ops, eps, seed=0, grid=8192)])
        orbit = np.array([[act(j) for _, act in _signed_permutations(n)] for j in range(n)])
        spread = np.max(np.ptp(table[orbit], axis=1))
        assert spread <= 1e-10
        rep = nl.kim_lee_check(space, eps, functional_samples=n, seed=0)
        assert rep.n_samples == n and rep.n_profiled == n // 8 + 1
        full_min = table.min(axis=0)
        assert np.all(np.abs(np.array(rep.min_eta) - full_min) <= spread)
        assert all(any(np.array_equal(w, F[:, j]) for j in range(n // 8 + 1)) for w in rep.witness_functionals)
        if rep.uniformly_convex_expected:
            assert rep.consistent == bool(np.all(full_min > ETA_POSITIVE_FLOOR))
        else:
            assert rep.consistent == bool(np.any(full_min < ETA_NEAR_ZERO_CEIL))
    assert nl.kim_lee_check(space, eps, functional_samples=12).n_profiled == 12


def test_dim3_batch_climbs_in_one_constrained_ascent(monkeypatch):
    """Every (functional, eps, start) column of a dim-3 batch climbs in one
    `_constrained_ascend` call; a batch of one takes the same path."""
    space = SequenceSpace(3, 3.0)
    F = sample_sphere_coords(space.dual(), 16, 0)
    ops = [OperatorPQ(F[:, j].reshape(1, 3), space, SequenceSpace(1, 2.0)) for j in range(16)]
    owners = []
    climb = attainment._constrained_ascend

    def counted(dom, rng, mats, own, *args, **kwargs):
        owners.append((len(mats), np.unique(own).size))
        return climb(dom, rng, mats, own, *args, **kwargs)

    monkeypatch.setattr(attainment, "_constrained_ascend", counted)
    _profile_parts(ops, [0.5, 0.9], seed=0, grid=8192)
    assert owners == [(16, 16)]
    _profile_parts(ops[:1], [0.5, 0.9], seed=0, grid=8192)
    assert owners[1:] == [(1, 1)]


def _delta_2d_sequential(space, epsilons, grid=640):
    """Reference: the 2D modulus sweep refining one (eps, pair) chain and one row at a time."""
    thetas, X, iu, ju, dist, val = _pair_tables_2d(space, grid)
    ti, tj = thetas[iu], thetas[ju]
    pool = [(ti, tj, dist, val),
            (thetas, (thetas + math.pi) % TWO_PI, 2.0 * space.norm_cols(X), 1.0 - np.zeros(X.shape[1]))]
    for eps in epsilons:
        feas = dist >= eps - 1e-12
        if not np.any(feas):
            continue
        key = np.where(feas, val, np.inf)
        for k in np.lexsort((np.arange(key.size), key))[:6]:  # the six smallest by (value, index)
            if not feas[k]:
                continue
            span, best = TWO_PI / grid, (val[k], float(ti[k]), float(tj[k]))
            for _ in range(7):
                g1 = np.linspace(best[1] - span, best[1] + span, 9)
                g2 = np.linspace(best[2] - span, best[2] + span, 9)
                for a in g1:
                    P = space.sphere_grid(np.concatenate([[a], g2]))
                    dloc = space.norm_cols(P[:, 1:] - P[:, :1])
                    vloc = 1.0 - space.norm_cols((P[:, 1:] + P[:, :1]) / 2.0)
                    ok = dloc >= eps - 1e-12
                    if np.any(ok):
                        m = int(np.argmin(np.where(ok, vloc, np.inf)))
                        pool.append(([a], [g2[m]], [dloc[m]], [vloc[m]]))
                        if vloc[m] < best[0]:
                            best = (float(vloc[m]), float(a), float(g2[m]))
                span /= 2.0
    T1, T2, D, V = (np.concatenate([np.asarray(c[i]) for c in pool]) for i in range(4))
    deltas, witnesses = [], []
    for eps in epsilons:
        feas = D >= eps - 1e-12
        vmin = float(np.min(V[feas]))
        cand = np.nonzero(feas & (V <= vmin + 1e-9))[0]
        order = np.lexsort((np.round(T2[cand] % TWO_PI, 12), np.round(T1[cand] % TWO_PI, 12)))
        k = cand[order][0]
        P = space.sphere_grid(np.asarray([T1[k], T2[k]]))
        deltas.append(max(vmin, 0.0))
        witnesses.append((P[:, 0], P[:, 1]))
    return deltas, witnesses


@pytest.mark.parametrize("p", EXPONENTS)
def test_delta_batch_matches_sequential_refinement(p):
    space, eps = SequenceSpace(2, p), [0.3, 0.6, 1.0, 1.4, 1.8]
    mod = nl.delta_numeric(space, eps)
    deltas, witnesses = _delta_2d_sequential(space, eps)
    assert mod.delta == deltas
    for (x, y), (rx, ry) in zip(mod.witness_pairs, witnesses):
        assert np.array_equal(x, rx) and np.array_equal(y, ry)


def test_kim_lee_rejects_bad_inputs():
    space = SequenceSpace(2, 3.0)
    for eps in (0.0, -1.0, 5.0):
        with pytest.raises(ValueError):
            nl.kim_lee_check(space, [0.5, eps], functional_samples=8)
    with pytest.raises(ValueError):
        nl.kim_lee_check(space, [0.5], functional_samples=0)
    for p, consistent in ((3.0, True), (1.0, False)):
        rep = nl.kim_lee_check(SequenceSpace(2, p), [], functional_samples=8)
        assert rep.min_eta == [] and rep.consistent is consistent


def test_kim_lee_dim3_functionals():
    """The 3D scan profiles each functional by ascent; on l_2^3 min eta is eps^2/2."""
    rep = nl.kim_lee_check(SequenceSpace(3, 2.0), [0.5], functional_samples=8)
    assert rep.min_eta[0] == pytest.approx(0.125, abs=1e-9)
    assert rep.n_profiled == rep.n_samples == 8  # no orbit reduction in dimension 3


def test_kim_lee_rejects_high_dim():
    with pytest.raises(ValueError):
        nl.kim_lee_check(SequenceSpace(4, 2), [0.5])


def test_convexity_modulus_round_trip():
    mod = nl.delta_numeric(SequenceSpace(2, 2), [0.5, 1.0])
    back = nl.ConvexityModulus.from_json_dict(mod.to_json_dict())
    assert back.epsilons == mod.epsilons
    assert back.delta == pytest.approx(mod.delta)
    assert len(back.witness_pairs) == 2


def test_auerbach_system_round_trip():
    system = nl.auerbach_2d(SequenceSpace(2, 3.0))
    back = nl.AuerbachSystem.from_json_dict(system.to_json_dict())
    assert np.allclose(np.column_stack(back.vectors), np.column_stack(system.vectors))
    assert back.biorthogonality_residual() <= 1e-8


def test_custom_norm_results_refuse_to_load():
    handle = lp_handle(3.0)
    for result, load in (
        (nl.auerbach_2d(handle), nl.AuerbachSystem.from_json_dict),
        (nl.delta_numeric(handle, [0.5], refine=False), nl.ConvexityModulus.from_json_dict),
    ):
        d = result.to_json_dict()
        assert d["space"] == {"dim": 2, "p": "custom"}
        with pytest.raises(ValueError, match="custom 2D norm"):
            load(d)


@pytest.mark.parametrize("dim", [2, 3])
def test_kim_lee_report_round_trip(dim):
    rep = nl.kim_lee_check(SequenceSpace(dim, 1.5), [0.25, 0.5], functional_samples=8)
    back = nl.KimLeeReport.from_json_dict(json.loads(json.dumps(rep.to_json_dict())))
    assert back.space == rep.space and back.to_json_dict() == rep.to_json_dict()
