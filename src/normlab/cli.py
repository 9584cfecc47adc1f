"""Command-line surface: opnorm, na, eta, delta, auerbach, repro, gallery.

Exit codes: 0 on success (for `repro`, only if every check passes), 1 on
check failures, 2 on usage errors including parameters outside a
construction's hypothesis range.  Numeric output is full-precision decimal
(shortest round-trip repr).  NORMLAB_REPORT_DIR sets the default report
directory for `repro --write-reports`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .spaces import INF, SequenceSpace
from .operators import GALLERY_TAGS, HypothesisError, OperatorPQ, from_gallery
from .normcomp import DEFAULT_GRID, UncertifiedNormError, opnorm
from .attainment import default_epsilons, na_set, sbpb_profile
from .convexity import auerbach_2d, delta_numeric
from . import repro as repro_mod


def _parse_exponent(s: str) -> float:
    s = s.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return INF
    return float(s)


def _parse_matrix(spec: str | None, path: str | None) -> np.ndarray:
    if (spec is None) == (path is None):
        raise HypothesisError("exactly one of --matrix or --matrix-file is required")
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            return np.asarray(json.load(f), dtype=float)
    rows = [r for r in spec.split(";") if r.strip()]
    return np.asarray([[float(v) for v in r.split(",")] for r in rows], dtype=float)


def _gallery_params(args) -> dict:
    """The gallery parameters given on the command line; the construction's defaults fill the rest."""
    return {k: getattr(args, k) for k in ("beta", "p", "q", "dim", "blocks") if getattr(args, k) is not None}


def _operator_from_args(args) -> OperatorPQ:
    if args.tag:
        if args.matrix is not None or args.matrix_file is not None:
            raise HypothesisError("--tag takes no --matrix or --matrix-file")
        return from_gallery(args.tag, **_gallery_params(args))
    M = _parse_matrix(args.matrix, args.matrix_file)
    p = args.p if args.p is not None else 2.0
    q = args.q if args.q is not None else 2.0
    return OperatorPQ(M, SequenceSpace(M.shape[1], p), SequenceSpace(M.shape[0], q))


def _analysis_kw(args) -> dict:
    return {"tol": args.tol, "seed": args.seed, "grid": args.grid or DEFAULT_GRID}


def _eta(args):
    T = _operator_from_args(args)
    eps = args.eps if args.eps else default_epsilons(T.domain)
    return sbpb_profile(T, eps, **_analysis_kw(args))


def _delta(args):
    space = SequenceSpace(args.dim, args.p)
    eps = args.eps if args.eps else [0.25, 0.5, 1.0, 1.5, 2.0]
    return delta_numeric(space, eps, **({"grid": args.grid} if args.grid else {}))


def _repro(args) -> list:
    """The reports of the chosen mode, written to the report directory if asked, whatever the mode."""
    if args.all:
        if args.tag or _gallery_params(args):
            raise HypothesisError("--all runs the default bundle: it takes no --tag or gallery parameter")
        reports = repro_mod.run_all(seed=args.seed)
    elif args.tag == "F-CERT":
        reports = [repro_mod.monotonicity_certificate(args.q if args.q is not None else 1.5)]
    elif args.tag == "POSITIVE-BATCH":
        reports = [repro_mod.positive_side_batch(seed=args.seed)]
    elif args.tag:
        reports = [repro_mod.reproduce(args.tag, _gallery_params(args), seed=args.seed)]
    else:
        raise HypothesisError("repro requires --tag or --all")
    if args.write_reports:
        repro_mod.write_reports(reports, args.report_dir or os.environ.get("NORMLAB_REPORT_DIR", "reports"))
    return reports


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write(result, args) -> int:
    """Write a command's result to --output in its --format; exit 1 if it lists a failing report."""
    if args.format == "csv":
        text = result.to_csv_text()
    elif isinstance(result, list):
        text = _json_text([r.to_json_dict() for r in result])
    elif isinstance(result, dict):
        text = _json_text(result)
    else:
        text = _json_text(result.to_json_dict())
    _emit(text, args.output)
    return 1 if isinstance(result, list) and not all(r.overall for r in result) else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normlab",
        description="p->q operator norms, attainment sets, modulus profiles, "
        "convexity moduli, and the certified construction gallery.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, run, *, tags=None, analysis=False, formats=("json",), default="json"):
        """The subcommand `name` running `run`: with the gallery options if `tags` (the --tag
        choices) is given, the operator-analysis options if `analysis`, and --format/--output."""
        sp = sub.add_parser(name, help=help)
        if tags is not None:
            sp.add_argument("--p", type=_parse_exponent, default=None, help="domain exponent (accepts 'inf')")
            sp.add_argument("--q", type=_parse_exponent, default=None, help="range exponent (accepts 'inf')")
            sp.add_argument("--tag", choices=tags, default=None, help="gallery construction tag")
            sp.add_argument("--beta", type=float, default=None)
            sp.add_argument("--dim", type=int, default=None)
            sp.add_argument("--blocks", type=int, default=None)
            sp.add_argument("--seed", type=int, default=0)
        if analysis:
            sp.add_argument("--matrix", default=None, help='row-semicolon string, e.g. "0.5,0;0,1"')
            sp.add_argument("--matrix-file", default=None, help="path to a JSON array of rows")
            sp.add_argument("--tol", type=float, default=1e-4)
            sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--format", choices=formats, default=default)
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        sp.set_defaults(run=run)
        return sp

    command("opnorm", "certified operator norm with witnesses",
            lambda args: opnorm(_operator_from_args(args), **_analysis_kw(args)), tags=GALLERY_TAGS, analysis=True)
    command("na", "norm-attaining set representatives",
            lambda args: na_set(_operator_from_args(args), **_analysis_kw(args)), tags=GALLERY_TAGS, analysis=True)

    sp = command("eta", "modulus profile (epsilon, rho, eta)", _eta, tags=GALLERY_TAGS, analysis=True,
                 formats=("json", "csv"))
    sp.add_argument("--eps", type=float, action="append", default=None,
                    help="profile epsilon (repeatable; default: log grid)")

    sp = command("delta", "modulus of uniform convexity", _delta, formats=("json", "csv"), default="csv")
    sp.add_argument("--p", type=_parse_exponent, required=True)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--eps", type=float, action="append", default=None)
    sp.add_argument("--grid", type=int, default=None,
                    help="coarse angle count on the fundamental domain (default: the library's)")

    sp = command("auerbach", "Auerbach system for l_p^2", lambda args: auerbach_2d(SequenceSpace(2, args.p)))
    sp.add_argument("--p", type=_parse_exponent, required=True)

    sp = command("repro", "run a construction's claim checklist", _repro,
                 tags=GALLERY_TAGS + ("F-CERT", "POSITIVE-BATCH"))
    sp.add_argument("--all", action="store_true", help="run the whole default bundle")
    sp.add_argument("--write-reports", action="store_true",
                    help="write reports/<tag>.json and reports/index.csv")
    sp.add_argument("--report-dir", default=None,
                    help="report directory (default: $NORMLAB_REPORT_DIR or ./reports)")

    command("gallery", "list construction tags, parameters, and claims", lambda args: repro_mod.GALLERY_INFO)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _write(args.run(args), args)
    except (HypothesisError, UncertifiedNormError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
