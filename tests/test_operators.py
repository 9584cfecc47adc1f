import dataclasses
import json
import math

import numpy as np
import pytest

import normlab as nl
from normlab import INF, HypothesisError, OperatorPQ, SequenceSpace
from normlab.convexity import lp_handle
from normlab.operators import (
    APPLY_CHUNK,
    BlockSpace,
    apply_cols,
    dual_attainer,
    norm_dual_vector,
    space_from_json,
    space_to_json,
    to_json,
)
from normlab.repro import CheckRecord
from normlab.spaces import pnorm, sample_sphere_coords


def test_apply_examples():
    I = OperatorPQ(np.eye(2), SequenceSpace(2, 2), SequenceSpace(2, 2))
    assert np.allclose(nl.apply(I, [3, 4]), [3, 4])
    D = nl.make_diag_beta(0.5, 2, 2)
    assert np.allclose(D.apply([1, 0]), [0.5, 0])
    R = nl.make_rot_l1(1.0)
    assert np.allclose(R.apply([1, 0]), [0.5, 0.5])


def test_apply_dimension_mismatch():
    I = OperatorPQ(np.eye(2), SequenceSpace(2, 2), SequenceSpace(2, 2))
    with pytest.raises(ValueError):
        I.apply([1, 2, 3])


def test_matrix_shape_and_finiteness():
    with pytest.raises(ValueError):
        OperatorPQ(np.ones((2, 3)), SequenceSpace(2, 2), SequenceSpace(2, 2))
    with pytest.raises(ValueError):
        OperatorPQ(np.array([[1.0, np.inf], [0, 1]]), SequenceSpace(2, 2), SequenceSpace(2, 2))


def test_adjoint_involution_and_exponents():
    T = nl.make_diag_beta(0.5, 1.5, 3.0)
    A = nl.adjoint(T)
    assert A.domain.p == pytest.approx(1.5)  # dual of q = 3
    assert A.range.p == pytest.approx(3.0)  # dual of p = 1.5
    AA = nl.adjoint(A)
    assert np.array_equal(AA.matrix, T.matrix)
    assert AA.domain.p == pytest.approx(T.domain.p)


def test_adjoint_norm_identity_diag():
    T = nl.make_diag_beta(0.5, 1.5, 3.0)
    v1 = nl.opnorm(T).value
    v2 = nl.opnorm(nl.adjoint(T)).value
    assert abs(v1 - v2) <= 1e-6


def test_diag_constructor_values():
    T = nl.make_diag_beta(0.5, 2, INF)
    assert pnorm(T.apply([1, 0]), INF) == pytest.approx(0.5)
    T22 = nl.make_diag_beta(0.5, 2, 2)
    assert nl.opnorm(T22).value == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(HypothesisError):
        nl.make_diag_beta(1.5, 2, 2)
    with pytest.raises(HypothesisError):
        nl.make_diag_beta(0.5, 3, 2)  # needs p <= q
    with pytest.raises(HypothesisError):
        nl.make_diag_beta(0.5, 1.0, 2)  # needs p > 1


def test_rot_l1_values():
    T = nl.make_rot_l1(0.7)
    assert pnorm(T.apply([1, 0]), 1) == pytest.approx(0.7, abs=1e-12)
    assert pnorm(T.apply([0, 1]), 1) == pytest.approx(1.0, abs=1e-12)
    assert nl.opnorm(T).value == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(HypothesisError):
        nl.make_rot_l1(0.0)


def test_rot_lq_values_and_refusal():
    T = nl.make_rot_lq(1.0, 1.5)
    assert pnorm(T.apply([0, 1]), 1.5) == pytest.approx(1.0, abs=1e-12)
    mid = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert pnorm(T.apply(mid), 1.5) == pytest.approx(2.0 / 2.0 ** (0.5 + 1 / 1.5), abs=1e-12)
    with pytest.raises(HypothesisError):
        nl.make_rot_lq(1.0, 2.0)
    with pytest.raises(HypothesisError):
        nl.make_rot_lq(1.0, 2.5)


def test_compose_values():
    T = nl.make_compose(0.8, 1.5, 1.0)
    assert pnorm(T.apply([0, 1]), 1) == pytest.approx(1.0, abs=1e-12)
    assert pnorm(T.apply([1, 0]), 1) == pytest.approx(0.8, abs=1e-12)
    assert T.domain.p == pytest.approx(1.5)
    with pytest.raises(HypothesisError):
        nl.make_compose(0.8, 2.5, 1.0)


def test_biorth_values():
    T = nl.make_biorth_inf(SequenceSpace(3, 2), 0.3)
    assert pnorm(T.apply([1, 0, 0]), INF) == pytest.approx(0.7)
    assert pnorm(T.apply([0, 1, 0]), INF) == pytest.approx(1.0)
    assert nl.opnorm(T).value == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(HypothesisError):
        nl.make_biorth_inf(SequenceSpace(1, 2), 0.3)


def test_auerbach_operator_reduces_to_diag():
    basis = nl.auerbach_2d(SequenceSpace(2, 2))
    T = nl.make_auerbach_yy(basis, 0.6)
    assert np.allclose(T.matrix, np.diag([0.6, 1.0]), atol=1e-12)
    assert nl.opnorm(T).value == pytest.approx(1.0, abs=1e-8)


def test_proj_padding():
    R = OperatorPQ(np.diag([0.5, 1.0]), SequenceSpace(2, 2), SequenceSpace(2, 2))
    T = nl.make_proj_then(R, 4)
    assert nl.opnorm(T).value == pytest.approx(1.0, abs=1e-8)
    x = np.array([0.3, -0.4, 0.0, 0.0])
    assert np.allclose(T.apply(x), R.apply(x[:2]))
    with pytest.raises(HypothesisError):
        nl.make_proj_then(T, 6)  # block must be 2D in domain


def test_block_mixed_norm_evaluator():
    ops = nl.make_shrinking_blocks(5)
    T = nl.make_block(ops)
    assert isinstance(T.range, BlockSpace)
    assert T.domain.dim == 10 and T.range.dim == 10
    # domain collapses to flat l_2^10: same norm exactly
    assert not isinstance(T.domain, BlockSpace)
    x = np.zeros(10)
    x[2], x[3] = 0.6, 0.8
    assert T.range.norm(T.apply(x)) == pytest.approx(
        ops[1].range.norm(ops[1].apply([0.6, 0.8])), abs=1e-15
    )
    assert nl.opnorm(T).value == pytest.approx(1.0, abs=1e-8)


def test_block_norm_matches_flat_when_uniform():
    space = BlockSpace(2.0, tuple(SequenceSpace(2, 2.0) for _ in range(3)))
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 40))
    assert np.allclose(space.norm_cols(X), SequenceSpace(6, 2.0).norm_cols(X), atol=1e-12)


def test_lplq_values():
    T = nl.make_lplq_fail(2, 2, 3)
    e12 = np.zeros(6)
    e12[2] = 1.0  # first coordinate of block 2
    assert T.range.norm(T.apply(e12)) == pytest.approx(0.75)
    assert nl.opnorm(T).value == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(HypothesisError):
        nl.make_lplq_fail(1.0, 2, 3)
    with pytest.raises(HypothesisError):
        nl.make_lplq_fail(3, 2, 3)


@pytest.mark.parametrize("p, q, N", [(2.0, 2.0, 3), (1.5, 3.0, 2)])
def test_lplq_is_a_block_assembly(p, q, N):
    blocks = [
        OperatorPQ(np.diag([1.0 - 1.0 / (2.0 * n), 1.0]), SequenceSpace(2, p), SequenceSpace(2, q))
        for n in range(1, N + 1)
    ]
    T, B = nl.make_lplq_fail(p, q, N), nl.make_block(blocks, p, q)
    assert np.array_equal(T.matrix, B.matrix)
    assert (T.domain, T.range) == (B.domain, B.range) == (SequenceSpace(2 * N, p), SequenceSpace(2 * N, q))
    assert T.structure[0] == B.structure[0] == "blockdiag"
    assert len(T.structure[1]) == N
    for a, b in zip(T.structure[1], B.structure[1]):
        assert np.array_equal(a.matrix, b.matrix) and (a.domain, a.range) == (b.domain, b.range)
    assert T.gallery == nl.GalleryId.make("LPLQ-FAIL-N", p=p, q=q, n_blocks=N)


def test_lplq_strict_contraction_off_even_coordinates():
    T = nl.make_lplq_fail(2, 2, 3)
    X = sample_sphere_coords(T.domain, 2048, seed=11)
    mask = np.max(np.abs(X[0::2, :]), axis=0) >= 0.1
    vals = T.range_values(X[:, mask])
    assert vals.size > 100
    assert float(vals.max()) <= 1.0 - 1e-5


def test_scaling_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = rng.standard_normal((2, 2))
        c = float(rng.normal())
        if abs(c) < 1e-3:
            c = 0.5
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        q = float(rng.choice([1.0, 2.0, INF]))
        T = OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q))
        Tc = OperatorPQ(c * M, SequenceSpace(2, p), SequenceSpace(2, q))
        v, vc = nl.opnorm(T).value, nl.opnorm(Tc).value
        assert vc == pytest.approx(abs(c) * v, rel=1e-9)


@pytest.mark.dispatch
def test_dual_vector_and_attainer_contracts():
    rng = np.random.default_rng(9)
    spaces = [SequenceSpace(4, p) for p in (1.0, 1.5, 2.0, 3.0, INF)] + [
        BlockSpace(2.0, (SequenceSpace(2, 2.0), SequenceSpace(2, INF))),
        BlockSpace(1.5, (SequenceSpace(1, 3.0), BlockSpace(INF, (SequenceSpace(2, 1.0), SequenceSpace(1, 2.0))))),
    ]
    for space in spaces:
        for _ in range(5):
            y = rng.standard_normal(space.dim)
            u = norm_dual_vector(space, y)
            assert float(u @ y) == pytest.approx(space.norm(y), rel=1e-10)
            z = rng.standard_normal(space.dim)
            x = dual_attainer(space, z)
            assert space.norm(x) == pytest.approx(1.0, abs=1e-10)
            # no unit vector can beat the dual-norm value <z, x>
            probe = sample_sphere_coords(space, 100, seed=1)
            assert float(z @ x) >= float(np.max(z @ probe)) - 1e-9
        # on a (dim, n) array each column gets the bits of the 1-D call on it,
        # also for a zero column, a -0.0 entry and tied maxima (first index wins)
        Y = rng.standard_normal((space.dim, 40)) * 10.0 ** rng.integers(-3, 4, 40)
        Y[:, 0] = 0.0
        Y[:, 1] = -0.0
        Y[1:, 2] = -0.0
        Y[:, 3] = [(-1.0) ** i for i in range(space.dim)]
        Y[:2, 4] = [-2.0, 2.0]
        for f in (norm_dual_vector, dual_attainer):
            U = f(space, Y)
            assert U.shape == Y.shape
            for j in range(Y.shape[1]):
                assert np.array_equal(f(space, Y[:, j]), U[:, j])
        assert np.array_equal(norm_dual_vector(space, Y[:, 0]), np.eye(space.dim)[0])
        if getattr(space, "p", None) in (1.0, INF):  # the first of the tied maxima, +-1 at index 0
            f = dual_attainer if space.p == 1.0 else norm_dual_vector
            assert np.array_equal(f(space, Y)[:, 3], np.eye(space.dim)[0])


def test_apply_cols_chunks_are_bit_identical():
    """A product wider than one chunk equals the in-order sum in one pass."""
    rng = np.random.default_rng(4)
    n = 2 * APPLY_CHUNK + 5
    X = rng.standard_normal((3, n))
    for M in (rng.standard_normal((2, 3)), rng.standard_normal((n, 2, 3))):
        Mt = M.T[:, :, None] if M.ndim == 2 else M.transpose(2, 1, 0)  # Mt[k]: column k of each matrix
        assert np.array_equal(apply_cols(M, X), Mt[0] * X[0] + Mt[1] * X[1] + Mt[2] * X[2])


@pytest.mark.dispatch
def test_range_values_in_slices_match_one_column_at_a_time():
    """range_values takes wide X in APPLY_CHUNK-column slices with the bits of
    one pass and of one column at a time (the columns at every slice border
    and a random sample of the rest)."""
    rng = np.random.default_rng(17)
    for p, q in ((1.5, 3.0), (3.0, INF), (2.0, 1.5)):
        T = OperatorPQ(rng.standard_normal((3, 2)), SequenceSpace(2, p), SequenceSpace(3, q))
        for n in (APPLY_CHUNK - 1, APPLY_CHUNK + 1, 100001):
            X = sample_sphere_coords(T.domain, n, 0)
            values = T.range_values(X)
            assert np.array_equal(values, T.range.norm_cols(apply_cols(T.matrix, X)))
            borders = [c + d for c in range(0, n, APPLY_CHUNK) for d in (-1, 0) if 0 <= c + d < n]
            for j in borders + rng.choice(n, 200, replace=False).tolist() + [n - 1]:
                assert T.range_values(X[:, j:j + 1])[0] == values[j]


def test_gallery_serialization_round_trip():
    T = nl.make_diag_beta(0.5, 2, INF)
    d = T.to_json_dict()
    s = json.dumps(d)
    back = json.loads(s)
    assert back["tag"] == "DIAG-2-INF"
    assert back["q"] == "inf"
    assert np.allclose(np.asarray(back["matrix"]), T.matrix)
    assert back["params"]["beta"] == 0.5


def test_space_json_round_trip():
    nested = BlockSpace(2.0, (SequenceSpace(2, 3.0), BlockSpace(INF, (SequenceSpace(1, 1.0), SequenceSpace(2, 2.0)))))
    for space in (SequenceSpace(3, 1.5), SequenceSpace(2, INF), nested):
        assert space_from_json(json.loads(json.dumps(space_to_json(space)))) == space
    assert space_to_json(SequenceSpace(2, INF)) == {"dim": 2, "p": "inf"}
    assert space_to_json(nested)["p"] == 2.0 and len(space_to_json(nested)["blocks"]) == 2
    with pytest.raises(ValueError, match="custom 2D norm"):
        space_from_json(space_to_json(lp_handle(3.0)))


def test_general_norm_auerbach_operator_writes_strict_json():
    """An AUERBACH-YY operator on a general 2D norm writes its exponent as
    "custom", as its spaces do, not as a bare NaN."""
    from normlab.convexity import auerbach_2d

    d = nl.make_auerbach_yy(auerbach_2d(lp_handle(3.0)), 0.5).to_json_dict()
    json.dumps(d, allow_nan=False)
    assert d["params"]["p"] == "custom" and d["p"] == "custom"


def test_to_json_rules():
    space = SequenceSpace(2, INF)
    encoded = to_json({"a": (np.float64(0.5), np.arange(2.0)), "u": nl.unit([1.0, 0.0], space), "s": space})
    assert encoded == {"a": [0.5, [0.0, 1.0]], "u": [1.0, 0.0], "s": {"dim": 2, "p": "inf"}}
    assert type(encoded["a"][0]) is float
    with pytest.raises(TypeError, match="no JSON form"):
        to_json([object()])


def test_every_result_round_trips_through_json():
    """Every result type, on every kind of space it takes, writes exactly the
    fields its repr shows (an AttainmentSet adds "space"), loads back to the
    same JSON and refuses unknown keys; one on a general 2D norm writes
    "p": "custom" and refuses to load."""
    s2, s3, norm2d = SequenceSpace(2, 1.5), SequenceSpace(3, 3.0), lp_handle(3.0)
    mixed = BlockSpace(2.0, (SequenceSpace(2, 1.0), SequenceSpace(1, 3.0)))
    M2 = np.array([[0.3, 0.9], [0.7, -0.2]])
    block = OperatorPQ(np.diag([0.5, 1.0]), SequenceSpace(2, 3.0), SequenceSpace(2, 3.0))
    ops = [
        OperatorPQ(M2, s2, SequenceSpace(2, 3.0)),
        nl.from_gallery("PROJ-N-2", dim=3),
        nl.make_block([block, block], 2.0, 2.0),  # attains on the sphere spanned by both blocks
        OperatorPQ(M2, norm2d, SequenceSpace(2, 2.0)),
    ]
    results = [nl.AttainmentSet([], 1e-6, 0.1, False, 1.0)]
    for T in ops:
        nr = nl.opnorm(T)
        results += [nr, nl.na_set(T, norm_result=nr), nl.sbpb_profile(T, [0.5], norm_result=nr)]
    results.append(nl.opnorm(OperatorPQ(np.random.default_rng(2).standard_normal((3, 3)), s3, s3)))
    results += [nl.delta_numeric(space, [0.5]) for space in (s2, s3, mixed, norm2d)]
    results += [nl.auerbach_2d(space) for space in (s2, norm2d)]
    results += [nl.kim_lee_check(space, [0.5], functional_samples=8) for space in (s2, s3)]
    report = nl.reproduce("BLOCK-N", {"blocks": 2})
    results += [report, report.checks[0], nl.monotonicity_certificate(1.5, grid=1000)]
    assert any(getattr(r, "slices", None) for r in results)
    assert {type(r).__name__ for r in results} == {
        "NormResult", "AttainmentSet", "SbpbProfile", "ConvexityModulus", "AuerbachSystem",
        "KimLeeReport", "ReproReport", "CheckRecord"}
    for r in results:
        d = r.to_json_dict()
        shown = {f.name for f in dataclasses.fields(r) if f.repr}
        assert set(d) == shown | ({"space"} if isinstance(r, nl.AttainmentSet) else set())
        load = (lambda d: CheckRecord(**d)) if isinstance(r, CheckRecord) else r.from_json_dict
        on_norm2d = norm2d in (getattr(r, "space", None), *(p.space for p in getattr(r, "points", ())))
        if on_norm2d:
            assert d["space"] == {"dim": 2, "p": "custom"}
            with pytest.raises(ValueError, match="custom 2D norm"):
                load(d)
        else:
            assert load(json.loads(json.dumps(d))).to_json_dict() == d
            with pytest.raises(TypeError):
                load(dict(d, unknown=None))


def test_from_gallery_covers_all_tags():
    for tag in nl.GALLERY_TAGS:
        T = nl.from_gallery(tag, **dict(nl.repro.DEFAULT_PARAMS[tag]))
        assert T.gallery is not None and T.gallery.tag == tag


def test_block_without_exact_reduction_is_heuristic():
    # outer domain exponent > outer range exponent: no max-of-blocks identity
    ops = nl.make_shrinking_blocks(3)
    T = nl.make_block(ops, p_outer=INF, q_outer=2.0)
    r = nl.opnorm(T)
    assert not r.certified
    assert r.value >= 1.0 - 1e-9  # block-supported vectors already reach 1
