"""Workload `gallery`: the reproduction bundle as users run it.

One round is `normlab repro --all --write-reports`, driven in-process through
`cli.main` into a scratch report directory.  One operation is one report.
The bundle is the paper's fixed parameter matrix: the workload seed changes
no input, so every round of every run does the same work.

Checks, made apart from normlab: exit status 0; the benchmark's own copy of
the case list gives the report tags and parameters; every report passes;
every check's `expected` equals the benchmark's own copy of the constant,
its `tol` equals the pinned tolerance, and `computed` lies within that
tolerance of `expected`; the written <tag>.json files parse, and index.csv
has one row per report.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from decimal import Decimal

import refs
from timing import Round

INF = math.inf

TOL_NORM = 1e-6
TOL_DIST = 1e-4
TOL_BLOCK = 1e-3
TOL_ORACLE = 1e-3
TOL_EXACT = 1e-9
TOL_MIDPOINT = 1e-10

# two float roundings of a correctly rounded constant, relative
CONST_REL = 4.5e-16

F_CERT_QS = (1.0, 1.2, 1.5, 1.9)
BATCH_COUNT = 50


def cases() -> list[tuple[str, dict]]:
    """The default bundle: beta in {0.5, 0.9}, exponents from {1, 1.5, 2, 3, inf}."""
    out: list[tuple[str, dict]] = []
    finite = (1.5, 2.0, 3.0)
    for b in (0.5, 0.9):
        out.append(("DIAG-2-INF", {"beta": b}))
        out.append(("DIAG-2-2", {"beta": b}))
        for p in finite:
            for q in finite:
                if p <= q and (p, q) != (2.0, 2.0):
                    out.append(("DIAG-P-Q", {"beta": b, "p": p, "q": q}))
            out.append(("DIAG-P-Q", {"beta": b, "p": p, "q": INF}))
        out.append(("ROT-2-1", {"beta": b}))
        for q in (1.0, 1.5):
            out.append(("ROT-2-Q", {"beta": b, "q": q}))
            for p in (1.5, 2.0):
                out.append(("COMPOSE-P-Q", {"beta": b, "p": p, "q": q}))
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            out.append(("BIORTH-INF", {"beta": b, "p": p, "dim": 3}))
            out.append(("AUERBACH-YY", {"beta": b, "p": p}))
        out.append(("PROJ-N-2", {"beta": b, "dim": 4}))
    for N in (3, 5):
        out.append(("BLOCK-N", {"blocks": N}))
        for p, q in ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0), (3.0, 3.0)):
            out.append(("LPLQ-FAIL-N", {"p": p, "q": q, "blocks": N}))
    for q in F_CERT_QS:
        out.append(("F-CERT", {"q": q, "grid": 10000}))
    out.append(("POSITIVE-BATCH", {"count": BATCH_COUNT, "eps": 0.25, "p": 3.0, "q": 2.0}))
    return out


# A check: (kind, expected, tol).  expected is a Decimal constant, or one of
# the markers below for checks whose expected value is itself computed.
SAME_AS_NORM = "norm value"
COMPUTED = "computed"


def _norm_checks(norm_tol) -> dict:
    return {
        "operator_norm_is_one": ("eq", Decimal(1), norm_tol),
        "oracle_cross_check": ("eq", SAME_AS_NORM, TOL_ORACLE),
    }


def _na_checks(count: int, tol) -> dict:
    return {
        "attainment_cluster_count": ("eq", Decimal(count), 0.0),
        "attainment_representative_error": ("le", Decimal(0), tol),
    }


def expected_checks(tag: str, params: dict) -> dict:
    """The claim checklist of one report: check name -> (kind, expected, tol)."""
    one = Decimal(1)
    if tag in ("DIAG-2-INF", "DIAG-2-2", "DIAG-P-Q"):
        b, p = params["beta"], params.get("p", 2.0)
        return {
            **_norm_checks(TOL_NORM),
            "value_at_e1": ("eq", Decimal(b), TOL_EXACT),
            **_na_checks(2, TOL_DIST),
            "dist_e1_to_attainment": ("eq", refs.two_pow_inv(p), TOL_DIST),
            "near_attainer_far_from_attainment": ("ge", one, TOL_DIST),
            "eta_at_1_bounded_by_gap": ("le", refs.one_minus(b), TOL_BLOCK),
        }
    if tag == "ROT-2-1":
        b = params["beta"]
        out = {
            **_norm_checks(TOL_NORM),
            "value_at_e1": ("eq", Decimal(b), TOL_EXACT),
            "value_at_e2": ("eq", one, TOL_EXACT),
            **_na_checks(2 if b < 1.0 else 4, TOL_DIST),
        }
        if b < 1.0:
            out["dist_e1_to_attainment"] = ("eq", refs.two_pow_inv(2.0), TOL_DIST)
            out["eta_at_1_bounded_by_gap"] = ("le", refs.one_minus(b), TOL_BLOCK)
        return out
    if tag == "ROT-2-Q":
        b, q = params["beta"], params["q"]
        out = {**_norm_checks(TOL_NORM), "value_at_e2": ("eq", one, TOL_EXACT)}
        if b == 1.0:
            out["arc_midpoint_value"] = ("eq", refs.arc_midpoint(q), TOL_MIDPOINT)
        out.update(_na_checks(4 if b == 1.0 else 2, TOL_DIST))
        if b < 1.0:
            out["dist_e1_to_attainment"] = ("eq", refs.two_pow_inv(2.0), TOL_DIST)
        return out
    if tag == "COMPOSE-P-Q":
        b, p = params["beta"], params["p"]
        return {
            **_norm_checks(TOL_NORM),
            "value_at_e1": ("eq", Decimal(b), TOL_EXACT),
            "value_at_e2": ("eq", one, TOL_EXACT),
            **_na_checks(2, TOL_DIST),
            "dist_e1_to_attainment": ("eq", refs.two_pow_inv(p), TOL_DIST),
            "eta_at_1_bounded_by_gap": ("le", refs.one_minus(b), TOL_BLOCK),
        }
    if tag == "BIORTH-INF":
        b = params["beta"]
        return {
            **_norm_checks(TOL_NORM),
            # 1 - eta with eta = 1 - beta
            "value_at_e1": ("eq", Decimal(b), TOL_EXACT),
            "value_at_e2": ("eq", one, TOL_EXACT),
            "attainers_have_unit_second_coordinate": ("le", Decimal(0), TOL_DIST),
            "near_attainer_far_from_attainment": ("ge", one, TOL_DIST),
        }
    if tag == "AUERBACH-YY":
        b = params["beta"]
        return {
            **_norm_checks(TOL_NORM),
            "value_at_first_basis_vector": ("eq", Decimal(b), TOL_EXACT),
            "attainers_have_unit_second_functional": ("le", Decimal(0), TOL_DIST),
            "near_attainer_far_from_attainment": ("ge", one, TOL_DIST),
            "eta_at_1_bounded_by_gap": ("le", refs.one_minus(b), TOL_BLOCK),
        }
    if tag == "PROJ-N-2":
        return {
            **_norm_checks(TOL_NORM),
            "padding_identity": ("le", Decimal(0), 1e-12),
            "attainers_have_zero_tail": ("le", Decimal(0), TOL_DIST),
            "dist_e1_to_attainment": ("eq", refs.two_pow_inv(2.0), TOL_DIST),
        }
    if tag == "BLOCK-N":
        N = params["blocks"]
        out = {
            **_norm_checks(TOL_BLOCK),
            "block_supported_action": ("eq", COMPUTED, 1e-12),
        }
        for n in range(1, N + 1):
            out[f"value_at_block_{n}_first_axis"] = ("eq", refs.ratio(n, n + 1), TOL_EXACT)
        out.update(_na_checks(2 * N, TOL_BLOCK))
        out["near_attainer_far_from_attainment"] = ("ge", one, TOL_BLOCK)
        out["eta_vanishes_with_depth"] = ("le", refs.ratio(1, N + 1), TOL_BLOCK)
        return out
    if tag == "LPLQ-FAIL-N":
        N = params["blocks"]
        out = dict(_norm_checks(TOL_BLOCK))
        for n in range(1, N + 1):
            out[f"value_at_block_{n}_first_axis"] = ("eq", refs.ratio(2 * n - 1, 2 * n), TOL_EXACT)
        out.update({
            "value_at_last_block_second_axis": ("eq", one, TOL_EXACT),
            "attainers_have_zero_odd_coordinates": ("le", Decimal(0), TOL_BLOCK),
            "near_attainers_far_from_attainment": ("ge", one, TOL_BLOCK),
            "eta_vanishes_with_depth": ("le", refs.ratio(1, 2 * N), TOL_BLOCK),
            "odd_mass_strictly_contracts": ("ge", Decimal("1e-5"), 0.0),
        })
        return out
    if tag == "F-CERT":
        return {
            "derivative_positive_on_arc": ("ge", Decimal(0), 0.0),
            "closed_form_matches_finite_difference": ("le", Decimal(0), 1e-5),
            "endpoint_value": ("eq", one, 1e-6),
            "arc_midpoint_value": ("eq", refs.arc_midpoint(params["q"]), TOL_MIDPOINT),
            "pointwise_kink_bound_margin": ("diagnostic", None, 0.0),
        }
    if tag == "POSITIVE-BATCH":
        return {
            f"eta_positive_seed_{k}": ("ge", Decimal("1e-6"), 0.0)
            for k in range(params["count"])
        }
    raise KeyError(tag)


def _params_match(got: dict, want: dict) -> bool:
    return set(got) == set(want) and all(float(got[k]) == float(v) for k, v in want.items())


def check_report(rep: dict, tag: str, params: dict) -> list[str]:
    """Problems with one report, empty when it is correct."""
    errs: list[str] = []
    if rep.get("tag") != tag or not _params_match(rep.get("params", {}), params):
        return [f"report {rep.get('tag')} {rep.get('params')} where {tag} {params} was due"]
    if rep.get("overall") is not True:
        errs.append(f"{tag} {params}: overall is not true")
    want = expected_checks(tag, params)
    got = {c["name"]: c for c in rep.get("checks", [])}
    if set(got) != set(want):
        errs.append(f"{tag} {params}: checks {sorted(set(got) ^ set(want))} missing or unexpected")
        return errs
    norm_value = got.get("operator_norm_is_one", {}).get("computed")
    for name, (kind, expected, tol) in want.items():
        c = got[name]
        if c["kind"] != kind or float(c["tol"]) != tol:
            errs.append(f"{tag} {params} {name}: kind/tol {c['kind']}/{c['tol']}, pinned {kind}/{tol}")
            continue
        if kind == "diagnostic":
            continue
        if expected == SAME_AS_NORM:
            ok_expected = float(c["expected"]) == float(norm_value)
        elif expected == COMPUTED:
            ok_expected = True
        else:
            scale = max(Decimal(1), expected.copy_abs())
            ok_expected = (Decimal(float(c["expected"])) - expected).copy_abs() <= Decimal(CONST_REL) * scale
        if not ok_expected:
            errs.append(f"{tag} {params} {name}: expected {c['expected']!r} differs from the constant")
        e, v = float(c["expected"]), float(c["computed"])
        within = {"eq": abs(v - e) <= tol, "ge": v >= e - tol, "le": v <= e + tol}[kind]
        if not within or c["passed"] is not True:
            errs.append(f"{tag} {params} {name}: computed {v!r} outside {kind} {e!r} +- {tol}")
    return errs


class Workload:
    name = "gallery"

    def __init__(self, seed: int, out_dir: str, normlab):
        self.normlab = normlab
        self.cases = cases()
        self.report_dir = os.path.join(out_dir, f"gallery-reports-{seed}")
        self.output = os.path.join(out_dir, f"gallery-{seed}.json")
        self.argv = ["repro", "--all", "--write-reports", "--report-dir", self.report_dir,
                     "--output", self.output]
        self.clock = None
        self.rnd = None
        self._install_op_timer()

    def _install_op_timer(self):
        """Time each report producer; `run_all` calls them by module global."""
        repro = self.normlab.repro
        for fname in ("reproduce", "monotonicity_certificate", "positive_side_batch"):
            fn = getattr(repro, fname)

            def timed(*a, _fn=fn, **k):
                if self.clock is None:
                    return _fn(*a, **k)
                result, raw, span = self.clock.time(_fn, *a, **k)
                self.rnd.add(raw, span)
                return result

            setattr(repro, fname, timed)

    def run_round(self, clock) -> Round:
        shutil.rmtree(self.report_dir, ignore_errors=True)
        # per-report times only with periodic sampling: a probe between
        # reports would land inside the traced cli.main span
        self.clock, self.rnd = (clock if clock.periodic else None), Round()
        rc, raw, span = clock.time(self.normlab.cli.main, self.argv)
        rnd, self.clock, self.rnd = self.rnd, None, None
        # the bundle outside the reports: argument parsing, writing the reports
        rnd.add(raw - sum(part[0] for part in rnd.parts), span, operation=False)
        self._check(rc, rnd)
        return rnd

    def _check(self, rc, rnd: Round) -> None:
        """Every report is one operation, recorded even when the outputs are unreadable."""
        if rc != 0:
            rnd.problems.append(f"repro --all exited with {rc}")
        try:
            with open(self.output, encoding="utf-8") as f:
                reports = json.load(f)
        except (OSError, ValueError) as exc:
            rnd.problems.append(f"{self.output}: {exc}")
            reports = []
        if len(reports) != len(self.cases):
            rnd.problems.append(f"{len(reports)} reports, {len(self.cases)} due")
        for k, (tag, params) in enumerate(self.cases):
            try:
                errs = check_report(reports[k], tag, params)
            except (IndexError, KeyError, TypeError, AttributeError, ValueError) as exc:
                errs = [f"{tag} {params}: report missing or malformed ({exc!r})"]
            rnd.record(errs)
        try:
            self._check_written()
        except (OSError, ValueError, IndexError, TypeError) as exc:
            rnd.problems.append(f"written reports in {self.report_dir}: {exc!r}")

    def _check_written(self) -> None:
        """The <tag>.json files and index.csv; raises on the first one that is wrong."""
        by_tag: dict[str, int] = {}
        for tag, _ in self.cases:
            by_tag[tag] = by_tag.get(tag, 0) + 1
        for tag, count in by_tag.items():
            with open(os.path.join(self.report_dir, f"{tag}.json"), encoding="utf-8") as f:
                written = json.load(f)
            if len(written) != count:
                raise ValueError(f"{tag}.json holds {len(written)} reports, {count} due")
        with open(os.path.join(self.report_dir, "index.csv"), encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        if rows[0][:3] != ["tag", "params", "overall"] or len(rows) - 1 != len(self.cases):
            raise ValueError(f"index.csv has {len(rows) - 1} rows, {len(self.cases)} due")
