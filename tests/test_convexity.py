import json
import math

import numpy as np
import pytest

import normlab as nl
from normlab import INF, BlockSpace, OperatorPQ, SequenceSpace
from normlab import attainment, convexity
from normlab.attainment import _profile_parts
from normlab.convexity import ANTIPODAL_GAP, ETA_NEAR_ZERO_CEIL, ETA_POSITIVE_FLOOR, _delta_chord, lp_handle
from normlab.normcomp import _bisect
from normlab.spaces import TWO_PI, pnorm_cols, sample_sphere_coords

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


@pytest.mark.dispatch
def test_delta_witnesses_on_the_square_are_pinned():
    """On l_inf^2 delta is 0 on a whole arc of angles, so the witness pair is
    the tie rule's: the first least angle of the coarse grid, x = (1, 1),
    which no refinement level improves on strictly."""
    mod = nl.delta_numeric(SequenceSpace(2, INF), [1.3731377833825171, 1.8998257078325158])
    assert mod.delta == [0.0, 0.0]
    pairs = [(x.tolist(), y.tolist()) for x, y in mod.witness_pairs]
    assert pairs == [([1.0, 1.0], [-0.37313778338251735, 1.0]), ([1.0, 1.0], [-0.8998257078325165, 1.0])]


def test_delta_nondecreasing_in_unsorted_eps():
    """Each eps is refined on its own; the running minimum from the largest
    eps down keeps delta nondecreasing exactly, in the input order, also
    across eps a few ulps apart, whose refined values can differ by rounding
    the wrong way (l_1.5^2's at 0.3 + 6e-15 and 0.3 + 7e-15 do, with numpy
    2.4.6 at its AVX-512 dispatch level)."""
    eps = [1.1, 0.3 + 7e-15, 1.97, 0.05, 0.3 + 6e-15, 1.5, 0.31, 2.0, 0.3 + 8e-15, 0.9, 0.5, 1.7]
    for p in EXPONENTS:
        mod = nl.delta_numeric(SequenceSpace(2, p), eps)
        assert mod.epsilons == eps
        assert np.all(np.diff(np.asarray(mod.delta)[np.argsort(eps)]) >= 0.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0])
def test_delta_matches_the_exact_modulus(p, dim):
    """Hanner's root for p < 2, the closed form for p >= 2; delta(l_p^3) =
    delta(l_p^2), with the l_p^2 witnesses padded by a zero."""
    eps = [0.25, 0.5, 1.0, 1.5, 1.9]
    exact = nl.delta_closed_form_hanner if p < 2.0 else nl.delta_closed_form_high_p
    mod = nl.delta_numeric(SequenceSpace(dim, p), eps)
    for e, d in zip(eps, mod.delta):
        assert abs(d - exact(e, p)) <= 1e-9
    if dim == 3:
        plane = nl.delta_numeric(SequenceSpace(2, p), eps)
        assert mod.delta == plane.delta
        for (x, y), (px, py) in zip(mod.witness_pairs, plane.witness_pairs):
            assert x.tolist() == px.tolist() + [0.0] and y.tolist() == py.tolist() + [0.0]


@pytest.mark.parametrize("p", EXPONENTS)
def test_delta_fundamental_domain_matches_the_full_circle(p):
    """[0, pi/2) on l_p^2 and [0, pi) on a general handle give the full
    circle's delta, at the same angle spacing, within 4 units in the last
    place of 1, the scale at which 1 - ||(x + y)/2|| is rounded."""
    eps = [0.25, 0.5, 1.0, 1.5, 1.9, 2.0]
    spaces = [(SequenceSpace(2, p), math.pi / 2.0)] + ([(lp_handle(p), math.pi)] if p != INF else [])
    for space, period in spaces:
        domain = nl.delta_numeric(space, eps).delta
        full = _delta_chord(space, eps, round(64 * TWO_PI / period), TWO_PI)[0]
        assert np.all(np.abs(np.subtract(domain, full)) <= 4 * np.spacing(1.0))


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
@pytest.mark.dispatch
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


@pytest.mark.parametrize("p", EXPONENTS + [1.2])
@pytest.mark.dispatch
def test_kim_lee_scan_profiles_one_functional_per_orbit(p):
    """On l_p^2 the sampled functionals are closed under the signed permutations
    bit for bit, and eta is invariant under them, so the scan profiles j <= n/8
    only; a full per-functional eta table spreads over an orbit by at most a
    few ulps, and the scan's min eta is within that spread of the table's."""
    space, eps = SequenceSpace(2, p), [0.5, 0.9]
    dual = space.dual()
    for n in (8, 64, 256):
        F, j = sample_sphere_coords(dual, n, 0), np.arange(n)
        for M, act in _signed_permutations(n):
            assert np.array_equal(M @ F, F[:, act(j)])
    for n in (64, 256):
        F = sample_sphere_coords(dual, n, 0)
        ops = [OperatorPQ(F[:, j].reshape(1, 2), space, SequenceSpace(1, 2.0)) for j in range(n)]
        table = np.array([part.profile().eta for part in _profile_parts(ops, eps, seed=0, grid=8192)])
        orbit = np.array([[act(j) for _, act in _signed_permutations(n)] for j in range(n)])
        spread = np.max(np.ptp(table[orbit], axis=1))
        assert spread <= 4 * 2.0 ** -52
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
    `_climb` call, each column by its own functional; a batch of one takes the
    same path with its one matrix."""
    space = SequenceSpace(3, 3.0)
    F = sample_sphere_coords(space.dual(), 16, 0)
    ops = [OperatorPQ(F[:, j].reshape(1, 3), space, SequenceSpace(1, 2.0)) for j in range(16)]
    calls = []
    climb = attainment._climb

    def counted(dom, rng, A, X, *args, **kwargs):
        assert A.ndim == 2 or len(A) == X.shape[1]  # one matrix, or one per column
        calls.append((A.ndim, len({M.tobytes() for M in A.reshape(-1, *A.shape[-2:])})))
        return climb(dom, rng, A, X, *args, **kwargs)

    monkeypatch.setattr(attainment, "_climb", counted)
    _profile_parts(ops, [0.5, 0.9], seed=0, grid=8192)
    assert calls == [(3, 16)]
    _profile_parts(ops[:1], [0.5, 0.9], seed=0, grid=8192)
    assert calls[1:] == [(2, 1)]


def _delta_chord_sequential(space, epsilons, grid=64):
    """Reference: the chord sweep one eps and one refinement level at a time,
    each level's chords bracketed from the level before's and checked at
    their ends, then the running minimum from the largest eps down."""
    period = math.pi / 2.0 if isinstance(space, SequenceSpace) else math.pi

    def chords(thetas, eps, brackets):
        X = space.sphere_grid(thetas)
        n = thetas.size
        lo, hi = np.zeros(n), np.full(n, math.pi)
        for j, (a, b) in enumerate(brackets):
            fa, fb = (space.norm_cols(X[:, j:j + 1] - space.sphere_grid(thetas[j] + e))[0] for e in (a, b))
            if fa < eps and (fb >= eps or b == math.pi):
                lo[j], hi[j] = a, b
        phi = _bisect(lambda f: space.norm_cols(X - space.sphere_grid(thetas + f)),
                      lo, hi, np.full(n, eps), np.zeros(n, bool))
        out = []
        for j in range(n):
            x = X[:, j]
            if math.pi - phi[j] <= ANTIPODAL_GAP:
                out.append((1.0, x, -x))
            else:
                y = space.sphere_grid(thetas[j] + phi[j])[:, 0]
                out.append((1.0 - space.norm_cols(((x + y) / 2.0)[:, None])[0], x, y))
        return out, phi

    def brackets(phi, k):
        """phi interpolated at the next level's 9 angles, which span one step
        on each side of angle k; the first grid's neighbours wrap round."""
        a, c, b = phi[(k - 1) % phi.size], phi[k], phi[(k + 1) % phi.size]
        r = abs(a - 2.0 * c + b) + 1e-14
        out = []
        for w in np.linspace(-1.0, 1.0, 9):
            guess = c + abs(w) * ((a if w < 0.0 else b) - c)
            out.append(tuple(min(max(e, 0.0), math.pi) for e in (guess - r, guess + r)))
        return out

    deltas, witnesses = [], []
    for eps in epsilons:
        thetas = np.linspace(0.0, period, grid, endpoint=False)
        vals, phi = chords(thetas, eps, [])
        k = min(range(grid), key=lambda j: (vals[j][0], j))
        t, (g, x, y), span = thetas[k], vals[k], period / grid
        for _ in range(10):
            level = t + np.linspace(-span, span, 9)
            vals, phi = chords(level, eps, brackets(phi, k))
            i = min(range(9), key=lambda j: (vals[j][0], j))
            k = 4  # the centre, unless a better angle moves it
            if vals[i][0] < g:
                t, (g, x, y), k = level[i], vals[i], i
            span /= 4.0
        deltas.append(max(g, 0.0))
        witnesses.append((x, y))
    # each eps takes the least delta at or above it, on ties the one of the least eps
    n = len(epsilons)
    best = [min((j for j in range(n) if epsilons[j] >= e), key=lambda j: (deltas[j], epsilons[j])) for e in epsilons]
    return [deltas[j] for j in best], [witnesses[j] for j in best]


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.dispatch
def test_delta_batch_matches_sequential_refinement(p):
    """Batched over eps and over every (theta, eps) column of a level, the
    sweep matches one eps at a time bit for bit."""
    eps = [1.8, 0.3, 1.0, 0.6, 1.4, 2.0]
    for space in [SequenceSpace(2, p)] + ([lp_handle(p)] if p != INF else []):
        mod = nl.delta_numeric(space, eps)
        deltas, witnesses = _delta_chord_sequential(space, eps)
        assert mod.delta == deltas
        for (x, y), (rx, ry) in zip(mod.witness_pairs, witnesses):
            assert np.array_equal(x, rx) and np.array_equal(y, ry)


WARM_PS = [1.0, 1.2, 1.5, 2.0, 3.0, 4.0]
WARM_SPACES = [SequenceSpace(2, p) for p in WARM_PS + [INF]] + [lp_handle(p) for p in WARM_PS]


@pytest.mark.dispatch
def test_warm_chords_are_crossings_or_the_cold_answer(monkeypatch):
    """Every (theta, eps) column of every level: the warm chord angle phi is
    a crossing of the distance f, f(phi) >= eps > f(nextafter(phi, 0)), with
    f(pi) >= eps taken as known, as the bisection takes it (at eps = 2 the
    computed f can read 2 - u there), or it is what bisection from [0, pi]
    returns."""
    levels, chords = [], convexity._chords
    monkeypatch.setattr(convexity, "_chords", lambda *a: levels.append(a) or chords(*a))
    for space in WARM_SPACES:
        levels.clear()
        nl.delta_numeric(space, [0.05, 0.5, 1.9, 2.0])
        assert len(levels) == 11
        for _, thetas, eps, *bracket in levels:
            phi = chords(space, thetas, eps, *bracket)[3]
            X = space.sphere_grid(thetas)
            f = [space.norm_cols(X - space.sphere_grid(thetas + e)) for e in (phi, np.nextafter(phi, 0.0))]
            assert np.all((((f[0] >= eps) | (phi == math.pi)) & (f[1] < eps)) | (phi == chords(space, thetas, eps)[3]))


@pytest.mark.dispatch
def test_wrong_chord_brackets_fall_back_to_the_cold_bisection(monkeypatch):
    """Brackets that fail their end check give the cold sweep's delta and
    witnesses bit for bit: [0, 1e-3] lies below every crossing here, and
    [3, 3] fails at one end or the other (f(3) < eps <= f(3) cannot hold)."""
    eps, chords = [0.05, 0.3, 1.0, 1.9, 2.0], convexity._chords

    def sweep(space, wrong):
        monkeypatch.setattr(convexity, "_chords", lambda sp, t, e, lo=None, hi=None: chords(sp, t, e, *(
            (np.resize([0.0, 3.0], t.size), np.resize([1e-3, 3.0], t.size)) if wrong and lo is not None else ())))
        mod = nl.delta_numeric(space, eps)
        return mod.delta, [(x.tobytes(), y.tobytes()) for x, y in mod.witness_pairs]

    for space in WARM_SPACES:
        assert sweep(space, True) == sweep(space, False)


def test_warm_chords_bisect_the_functional_scan_sweeps_in_fewer_steps(monkeypatch):
    """The five seed-0 `functional-scan` sweeps (l_p^2, p in {1, 1.5, 2, 3,
    inf}, at its five eps) take at most 1,900 bisection steps; from [0, pi]
    at every level they took 3,180."""
    steps, bisect = [], convexity._bisect
    monkeypatch.setattr(convexity, "_bisect", lambda f, *a: bisect(lambda x: steps.append(1) or f(x), *a))
    eps = [0.284114316166169, 0.5517833500585927, 1.0022549442737219, 1.380986827490083, 1.8567597178069544]
    for p in EXPONENTS:
        nl.delta_numeric(SequenceSpace(2, p), eps)
    assert len(steps) <= 1900


def test_kim_lee_rejects_bad_inputs():
    space = SequenceSpace(2, 3.0)
    for eps in (0.0, -1.0, 5.0):
        with pytest.raises(ValueError):
            nl.kim_lee_check(space, [0.5, eps], functional_samples=8)
    with pytest.raises(ValueError):
        nl.kim_lee_check(space, [0.5], functional_samples=0)
    for p in (3.0, 1.0, INF):  # no eps, no verdict: an empty all() or any() would decide it
        with pytest.raises(ValueError, match="at least one eps"):
            nl.kim_lee_check(SequenceSpace(2, p), [], functional_samples=8)


def test_kim_lee_non_uniformly_convex_verdict_reads_only_eps_up_to_one():
    """On l_1^2 the verdict is that min eta nearly vanishes at some eps <= 1: at 0.5 it does (7.8e-3);
    at 1.5 alone there is no eps to read, and the verdict is False."""
    assert nl.kim_lee_check(SequenceSpace(2, 1.0), [0.5]).consistent is True
    assert nl.kim_lee_check(SequenceSpace(2, 1.0), [1.5]).consistent is False


def test_kim_lee_dim3_functionals():
    """The 3D scan profiles each functional by ascent; on l_2^3 min eta is eps^2/2."""
    rep = nl.kim_lee_check(SequenceSpace(3, 2.0), [0.5], functional_samples=8)
    assert rep.min_eta[0] == pytest.approx(0.125, abs=1e-9)
    assert rep.n_profiled == rep.n_samples == 8  # no orbit reduction in dimension 3


def test_kim_lee_refuses_a_general_2d_norm():
    """The scan samples functionals on the dual sphere, which a Norm2D does not provide."""
    with pytest.raises(ValueError, match="dual sphere"):
        nl.kim_lee_check(lp_handle(3.0), [0.5], functional_samples=8)


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
        (nl.delta_numeric(handle, [0.5]), nl.ConvexityModulus.from_json_dict),
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


def test_delta_3d_candidates_include_the_signed_axes():
    """BlockSpace(2, (l_1^2, l_3^1)) holds l_1^2 isometrically, so delta is 0 up to
    eps = 2, at the pair (e1, e2) of the first block; the product grid alone gave
    0.001973 at eps = 2."""
    mod = nl.delta_numeric(BlockSpace(2, (SequenceSpace(2, 1.0), SequenceSpace(1, 3.0))), [0.5, 1.0, 1.5, 2.0])
    assert mod.delta == [0.0, 0.0, 0.0, 0.0]
