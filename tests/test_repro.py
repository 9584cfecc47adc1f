import csv
import json

import numpy as np
import pytest

import normlab as nl
from normlab import HypothesisError, OperatorPQ, SequenceSpace, cli
from normlab.repro import DEFAULT_PARAMS, _ge, gallery_default_cases


def _strip_runtime(d):
    if isinstance(d, dict):
        return {k: _strip_runtime(v) for k, v in d.items() if k != "runtime_ms"}
    if isinstance(d, list):
        return [_strip_runtime(v) for v in d]
    return d


def test_reproduce_diag_pq():
    rep = nl.reproduce("DIAG-P-Q", {"beta": 0.5, "p": 1.5, "q": 3.0})
    assert rep.overall
    by_name = {c.name: c for c in rep.checks}
    assert by_name["dist_e1_to_attainment"].computed == pytest.approx(2 ** (1 / 1.5), abs=1e-4)
    assert by_name["operator_norm_is_one"].passed
    assert by_name["attainment_cluster_count"].computed == 2


def test_reproduce_diag_p3_attains_exactly_on_the_axis():
    """On l_3^2 the value falls off only as |x_1|^3 near e2, so the zoom alone
    places the attainer up to about 3e-11 off the axis; the axis vector is kept."""
    rep = nl.reproduce("DIAG-P-Q", {"beta": 0.5, "p": 3.0, "q": 3.0})
    by_name = {c.name: c for c in rep.checks}
    assert by_name["attainment_representative_error"].computed == 0.0
    assert by_name["dist_e1_to_attainment"].computed == 2.0 ** (1.0 / 3.0)


def test_reproduce_rot_refusal_at_q2():
    with pytest.raises(HypothesisError) as err:
        nl.reproduce("ROT-2-Q", {"beta": 1.0, "q": 2.0})
    assert "q" in str(err.value)


def test_reproduce_refusals_outside_hypotheses():
    with pytest.raises(HypothesisError):
        nl.reproduce("DIAG-P-Q", {"beta": 1.5, "p": 1.5, "q": 3.0})
    with pytest.raises(HypothesisError):
        nl.reproduce("COMPOSE-P-Q", {"beta": 0.5, "p": 2.5, "q": 1.0})
    with pytest.raises(HypothesisError):
        nl.reproduce("LPLQ-FAIL-N", {"p": 3.0, "q": 2.0, "blocks": 3})
    with pytest.raises(HypothesisError):
        nl.reproduce("NOT-A-TAG")


def test_reproduce_lplq_per_block_witnesses():
    rep = nl.reproduce("LPLQ-FAIL-N", {"p": 2.0, "q": 2.0, "blocks": 5})
    assert rep.overall
    by_name = {c.name: c for c in rep.checks}
    for n in range(1, 6):
        c = by_name[f"value_at_block_{n}_first_axis"]
        assert c.computed == pytest.approx(1 - 1 / (2 * n), abs=1e-9)
    assert by_name["near_attainers_far_from_attainment"].computed >= 1.0 - 1e-3
    assert by_name["eta_vanishes_with_depth"].computed <= 1 / 10 + 1e-3


def test_reproduce_block_bound():
    rep = nl.reproduce("BLOCK-N", {"blocks": 3})
    assert rep.overall
    by_name = {c.name: c for c in rep.checks}
    assert by_name["eta_vanishes_with_depth"].computed <= 1 / 4 + 1e-3


def test_reproduce_every_tag_default_params():
    for tag in nl.GALLERY_TAGS:
        rep = nl.reproduce(tag, dict(DEFAULT_PARAMS[tag]))
        assert rep.overall, (tag, [c.name for c in rep.checks if not c.passed])


def test_reports_reproducible_across_runs():
    a = nl.reproduce("DIAG-2-2", {"beta": 0.5}, seed=3)
    b = nl.reproduce("DIAG-2-2", {"beta": 0.5}, seed=3)
    da, db = a.to_json_dict(), b.to_json_dict()
    assert _strip_runtime(da) == _strip_runtime(db)


def test_monotonicity_certificate_all_q():
    for q in (1.0, 1.2, 1.5, 1.9):
        rep = nl.monotonicity_certificate(q)
        assert rep.overall
        names = {c.name for c in rep.checks}
        assert "derivative_positive_on_arc" in names
        assert "closed_form_matches_finite_difference" in names
        assert "arc_midpoint_value" in names
        assert "pointwise_kink_bound_margin" in rep.diagnostics
    with pytest.raises(HypothesisError):
        nl.monotonicity_certificate(2.0)
    with pytest.raises(HypothesisError):
        nl.monotonicity_certificate(0.8)


def test_positive_side_batch_names_carry_seeds():
    rep = nl.positive_side_batch(count=5, seed=12)
    assert rep.overall
    assert [c.name for c in rep.checks] == [f"eta_positive_seed_{12 + i}" for i in range(5)]


def test_coverage_every_gallery_tag_in_default_bundle():
    tags = {tag for tag, _ in gallery_default_cases()}
    assert tags == set(nl.GALLERY_TAGS)


def test_run_all_writes_reports(tmp_path):
    reports = nl.run_all(seed=0, tags=["DIAG-2-2", "ROT-2-1"], out_dir=str(tmp_path))
    assert all(r.overall for r in reports)
    assert (tmp_path / "DIAG-2-2.json").exists()
    assert (tmp_path / "ROT-2-1.json").exists()
    with open(tmp_path / "index.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["tag", "params", "overall", "worst_check_residual", "runtime_ms"]
    assert len(rows) == len(reports) + 1
    with open(tmp_path / "DIAG-2-2.json") as f:
        data = json.load(f)
    back = nl.ReproReport.from_json_dict(data[0])
    assert back.tag == "DIAG-2-2"
    assert back.overall


def test_run_all_single_tag_filter():
    reports = nl.run_all(seed=0, tags=["ROT-2-1"])
    assert {r.tag for r in reports} == {"ROT-2-1"}
    assert len(reports) == sum(1 for t, _ in gallery_default_cases() if t == "ROT-2-1")


def test_run_all_tag_filter_keeps_the_certificates_and_the_batch():
    """F-CERT and POSITIVE-BATCH are picked by tag like the gallery tags."""
    reports = nl.run_all(seed=0, tags=["POSITIVE-BATCH", "F-CERT"])
    assert [r.tag for r in reports] == ["F-CERT"] * 4 + ["POSITIVE-BATCH"]
    assert reports[-1].to_json_dict()["checks"] == nl.positive_side_batch(seed=0).to_json_dict()["checks"]


def test_run_all_refuses_unknown_tags_before_any_work(monkeypatch):
    """A tag that names no report is refused, each unknown one named, before any report is made."""
    from normlab import repro

    for name in ("reproduce", "monotonicity_certificate", "positive_side_batch"):
        monkeypatch.setattr(repro, name, lambda *a, **k: pytest.fail("a report was made"))
    with pytest.raises(HypothesisError, match="'DIAG-2-3', 'F-CRET'"):
        nl.run_all(seed=0, tags=["DIAG-2-2", "DIAG-2-3", "F-CRET", "POSITIVE-BATCH"])


def test_run_all_refuses_a_bare_string_of_tags_before_any_work(monkeypatch):
    """A lone tag given as a string is refused by its type, not read letter by letter as unknown tags."""
    from normlab import repro

    for name in ("reproduce", "monotonicity_certificate", "positive_side_batch"):
        monkeypatch.setattr(repro, name, lambda *a, **k: pytest.fail("a report was made"))
    with pytest.raises(TypeError, match="not a str"):
        nl.run_all(seed=0, tags="ROT-2-1")


def test_positive_side_batch_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="count=0"):
        nl.positive_side_batch(count=0)


def test_positive_side_batch_runs_outside_the_shared_store(monkeypatch):
    """run_all shares the 2D results of the gallery and F-CERT, not those of the batch's random draws, which
    no other report meets."""
    from normlab import normcomp, repro

    seen, real = [], repro.positive_side_batch
    monkeypatch.setattr(repro, "positive_side_batch", lambda **kw: seen.append(normcomp._SHARED.get()) or real(**kw))
    reports = nl.run_all(seed=0, tags=["DIAG-2-2", "POSITIVE-BATCH"])
    assert seen == [None] and reports[-1].tag == "POSITIVE-BATCH"


def test_report_json_round_trip():
    rep = nl.reproduce("ROT-2-1", {"beta": 0.5})
    back = nl.ReproReport.from_json_dict(rep.to_json_dict())
    assert back.tag == rep.tag
    assert back.overall == rep.overall
    assert [c.name for c in back.checks] == [c.name for c in rep.checks]
    assert back.worst_residual == pytest.approx(rep.worst_residual)


def test_written_reports_are_strict_json(tmp_path):
    """Every file of a seed-0 `repro --all --write-reports` directory is JSON
    under RFC 8259: no bare Infinity or NaN.  An infinite gallery parameter
    is written "inf", as a space writes its exponent, and loads back as inf."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    assert cli.main(["repro", "--all", "--write-reports", "--report-dir", str(tmp_path),
                        "--output", str(tmp_path / "stdout.txt")]) == 0
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 13 and "Infinity" not in (tmp_path / "index.csv").read_text()
    inf_params = 0
    for path in files + [tmp_path / "stdout.txt"]:
        data = json.loads(path.read_text(), parse_constant=refuse)
        for d in data:
            rep = nl.ReproReport.from_json_dict(d)
            inf_params += sum(v == "inf" for v in d["params"].values())
            assert all(rep.params[k] == float("inf") for k, v in d["params"].items() if v == "inf")
            assert rep.to_json_dict() == d
    assert inf_params == 2 * 10  # DIAG-P-Q 6, BIORTH-INF 2, AUERBACH-YY 2; again in stdout


@pytest.mark.dispatch
def test_positive_side_batch_matches_one_operator_at_a_time():
    """The batched POSITIVE-BATCH report equals, apart from runtime_ms, the
    report of one opnorm -> na_set -> sbpb_profile chain per raw draw M_k,
    its eta divided by that opnorm's value (eta(eps, M/||M||) = eta(eps, M)/||M||)."""
    checks = []
    for k in range(50):
        T = OperatorPQ(np.random.default_rng(k).standard_normal((2, 2)), SequenceSpace(2, 3.0), SequenceSpace(2, 2.0))
        nr = nl.opnorm(T, seed=k)
        na = nl.na_set(T, norm_result=nr, seed=k)
        prof = nl.sbpb_profile(T, [0.25], norm_result=nr, na=na, seed=k)
        checks.append(_ge(f"eta_positive_seed_{k}", 1e-6, prof.eta[0] / nr.value, 0.0))
    loop = nl.ReproReport(tag="POSITIVE-BATCH", params={"count": 50, "eps": 0.25, "p": 3.0, "q": 2.0},
                          checks=checks, overall=all(c.passed for c in checks), runtime_ms=0, seed=0)
    assert _strip_runtime(nl.positive_side_batch().to_json_dict()) == _strip_runtime(loop.to_json_dict())


def test_run_all_shares_2d_results_without_changing_a_report(monkeypatch):
    """Every report of run_all equals, apart from runtime_ms, the same report
    made alone, while the gallery sweeps and oracle-checks each of its 46
    distinct 2D operators once, and POSITIVE-BATCH sweeps each of its 50
    draws once; made alone, the gallery's reports do each 96 times."""
    from normlab import normcomp

    counts = dict.fromkeys(("_sweep2d", "_oracle_2d"), 0)
    for name in counts:
        def counted(ops, *args, _run=getattr(normcomp, name), _name=name):
            counts[_name] += len(ops)
            return _run(ops, *args)
        monkeypatch.setattr(normcomp, name, counted)
    shared = [_strip_runtime(r.to_json_dict()) for r in nl.run_all(seed=0)]
    assert counts == {"_sweep2d": 46 + 50, "_oracle_2d": 46}
    alone = [nl.reproduce(tag, params) for tag, params in gallery_default_cases()]
    assert counts == {"_sweep2d": 46 + 50 + 96, "_oracle_2d": 46 + 96}
    alone += [nl.monotonicity_certificate(q) for q in (1.0, 1.2, 1.5, 1.9)] + [nl.positive_side_batch()]
    assert shared == [_strip_runtime(r.to_json_dict()) for r in alone]


def test_positive_side_batch_sweeps_each_draw_once(monkeypatch):
    """POSITIVE-BATCH is one `_profile_parts` call: 10 passes of 5 operators,
    each swept by one `_sweep2d` call of 5, and one `_refine_2d` for all 50.
    Every module's binding of `_sweep2d` is counted, wherever it is called from."""
    import sys
    from normlab import attainment, normcomp

    sweeps, passes, refines = [], [], []
    real = normcomp._sweep2d
    for mod in [m for name, m in sys.modules.items() if name.startswith("normlab")]:
        if getattr(mod, "_sweep2d", None) is real:
            monkeypatch.setattr(mod, "_sweep2d", lambda ops, *a: sweeps.append(len(ops)) or real(ops, *a))
    open_pass, refine = attainment._open_pass, attainment._refine_2d
    monkeypatch.setattr(attainment, "_open_pass", lambda ops, *a: passes.append(len(ops)) or open_pass(ops, *a))
    monkeypatch.setattr(attainment, "_refine_2d", lambda parts: refines.append(len(parts)) or refine(parts))
    nl.positive_side_batch()
    assert sweeps == [5] * 10 and passes == [5] * 10 and refines == [50]


def _normalized_positive_etas(count, eps, p, q, seed):
    """POSITIVE-BATCH's eta as it was computed before reading it by scale equivariance: each group of 5
    draws swept once to normalize them, the normalized operators swept again and profiled."""
    from normlab import attainment, normcomp

    etas, domain, range_ = [], SequenceSpace(2, p), SequenceSpace(2, q)
    for start in range(seed, seed + count, 5):
        mats = [np.random.default_rng(s).standard_normal((2, 2)) for s in range(start, min(start + 5, seed + count))]
        scale = [nr.value for nr in normcomp._sweep2d([OperatorPQ(M, domain, range_) for M in mats], 1e-4,
                                                      normcomp.DEFAULT_GRID)]
        ops = [OperatorPQ(M / v, domain, range_) for M, v in zip(mats, scale)]
        parts = attainment._profile_parts(ops, [eps], norms=normcomp._sweep2d(ops, 1e-4, normcomp.DEFAULT_GRID))
        etas += [part.profile().eta[0] for part in parts]
    return etas


def test_eta_is_scale_equivariant():
    """eta(eps, cM) = c eta(eps, M) for c > 0 (NA(cM) = NA(M), so rho scales by c), which
    POSITIVE-BATCH relies on to read eta(eps, M/||M||) as eta(eps, M)/||M||.  On 4 seeded 2x2 draws
    at each (p, q) of (3, 2) and (2, 1.5), c in {1/4, 1/2, 2, 3, 10} and eps in {0.25, 0.5}, the
    largest |eta(eps, cM)/c - eta(eps, M)| measured is 1.7e-8; POSITIVE-BATCH's 50 eta lie within
    5.3e-9 (1.3e-7 relative) of the normalized operators' (`_normalized_positive_etas`), and keep
    their 50 flags.  Both are held to value_tol = 1e-6."""
    value_tol, gaps = 1e-6, []
    for p, q in ((3.0, 2.0), (2.0, 1.5)):
        for s in range(4):
            M = np.random.default_rng(s).standard_normal((2, 2))
            base = nl.sbpb_profile(OperatorPQ(M, SequenceSpace(2, p), SequenceSpace(2, q)), [0.25, 0.5]).eta
            for c in (0.25, 0.5, 2.0, 3.0, 10.0):
                eta = nl.sbpb_profile(OperatorPQ(c * M, SequenceSpace(2, p), SequenceSpace(2, q)), [0.25, 0.5]).eta
                gaps += [abs(e / c - b) for e, b in zip(eta, base)]
    batch = [c.computed for c in nl.positive_side_batch().checks]
    reference = _normalized_positive_etas(50, 0.25, 3.0, 2.0, 0)
    assert max(gaps) <= value_tol
    assert all(abs(a - b) <= value_tol and (a >= 1e-6) == (b >= 1e-6) for a, b in zip(batch, reference))


def test_compare_reports_counts_the_numbers_that_differ(tmp_path, capsys):
    """scripts/compare_reports.py exits 0 on two identical report directories, and 1 when one float
    of one file moved, naming that file with one differing number and its relative difference."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    reports = [nl.monotonicity_certificate(q) for q in (1.2, 1.5)]
    a, b = tmp_path / "a", tmp_path / "b"
    nl.repro.write_reports(reports, str(a))
    nl.repro.write_reports(reports, str(b))
    assert compare.main(str(a), str(b)) == 0
    assert capsys.readouterr().out == "2 report files, 0 differ beyond runtime_ms: []\n"
    data = json.loads((b / "F-CERT.json").read_text())
    data[1]["checks"][1]["computed"] *= 1.0 + 1e-3
    (b / "F-CERT.json").write_text(json.dumps(data, indent=2, sort_keys=True))
    assert compare.main(str(a), str(b)) == 1
    head, line = capsys.readouterr().out.splitlines()
    assert head == "2 report files, 1 differ beyond runtime_ms: ['F-CERT.json']"
    count, rel = line.split(": ")[1].split(", largest relative difference ")
    assert count == "1 numbers differ" and float(rel) == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-3)
