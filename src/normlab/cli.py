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
        return from_gallery(args.tag, **_gallery_params(args))
    M = _parse_matrix(getattr(args, "matrix", None), getattr(args, "matrix_file", None))
    p = args.p if args.p is not None else 2.0
    q = args.q if args.q is not None else 2.0
    return OperatorPQ(M, SequenceSpace(M.shape[1], p), SequenceSpace(M.shape[0], q))


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normlab",
        description="p->q operator norms, attainment sets, modulus profiles, "
        "convexity moduli, and the certified construction gallery.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, formats=("json", "csv")):
        sp.add_argument("--p", type=_parse_exponent, default=None, help="domain exponent (accepts 'inf')")
        sp.add_argument("--q", type=_parse_exponent, default=None, help="range exponent (accepts 'inf')")
        sp.add_argument("--tag", choices=GALLERY_TAGS, default=None, help="gallery construction tag")
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--blocks", type=int, default=None)
        sp.add_argument("--matrix", default=None, help='row-semicolon string, e.g. "0.5,0;0,1"')
        sp.add_argument("--matrix-file", default=None, help="path to a JSON array of rows")
        sp.add_argument("--tol", type=float, default=1e-4)
        sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--output", default=None, help="output path (default: stdout)")

    add_common(sub.add_parser("opnorm", help="certified operator norm with witnesses"), ("json",))
    add_common(sub.add_parser("na", help="norm-attaining set representatives"), ("json",))

    sp = sub.add_parser("eta", help="modulus profile (epsilon, rho, eta)")
    add_common(sp)
    sp.add_argument("--eps", type=float, action="append", default=None,
                    help="profile epsilon (repeatable; default: log grid)")

    sp = sub.add_parser("delta", help="modulus of uniform convexity")
    sp.add_argument("--p", type=_parse_exponent, required=True)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--eps", type=float, action="append", default=None)
    sp.add_argument("--grid", type=int, default=None,
                    help="coarse angle count on the fundamental domain (default: the library's)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("auerbach", help="Auerbach system for l_p^2")
    sp.add_argument("--p", type=_parse_exponent, required=True)
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("repro", help="run a construction's claim checklist")
    sp.add_argument("--tag", choices=GALLERY_TAGS + ("F-CERT", "POSITIVE-BATCH"), default=None)
    sp.add_argument("--all", action="store_true", help="run the whole default bundle")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--p", type=_parse_exponent, default=None)
    sp.add_argument("--q", type=_parse_exponent, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--blocks", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--write-reports", action="store_true",
                    help="write reports/<tag>.json and reports/index.csv")
    sp.add_argument("--report-dir", default=None,
                    help="report directory (default: $NORMLAB_REPORT_DIR or ./reports)")
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("gallery", help="list construction tags, parameters, and claims")
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--output", default=None)
    return ap


def _analysis_kw(args) -> dict:
    return {"tol": args.tol, "seed": args.seed, "grid": args.grid or DEFAULT_GRID}


def _cmd_opnorm(args) -> int:
    T = _operator_from_args(args)
    res = opnorm(T, **_analysis_kw(args))
    _emit(_json_text(res.to_json_dict()), args.output)
    return 0


def _cmd_na(args) -> int:
    T = _operator_from_args(args)
    res = na_set(T, **_analysis_kw(args))
    _emit(_json_text(res.to_json_dict()), args.output)
    return 0


def _cmd_eta(args) -> int:
    T = _operator_from_args(args)
    eps = args.eps if args.eps else default_epsilons(T.domain)
    prof = sbpb_profile(T, eps, **_analysis_kw(args))
    if args.format == "csv":
        _emit(prof.to_csv_text(), args.output)
    else:
        _emit(_json_text(prof.to_json_dict()), args.output)
    return 0


def _cmd_delta(args) -> int:
    space = SequenceSpace(args.dim, args.p)
    eps = args.eps if args.eps else [0.25, 0.5, 1.0, 1.5, 2.0]
    mod = delta_numeric(space, eps, **({"grid": args.grid} if args.grid else {}))
    if args.format == "csv":
        _emit(mod.to_csv_text(), args.output)
    else:
        _emit(_json_text(mod.to_json_dict()), args.output)
    return 0


def _cmd_auerbach(args) -> int:
    system = auerbach_2d(SequenceSpace(2, args.p))
    _emit(_json_text(system.to_json_dict()), args.output)
    return 0


def _cmd_repro(args) -> int:
    if args.all:
        out_dir = None
        if args.write_reports:
            out_dir = args.report_dir or os.environ.get("NORMLAB_REPORT_DIR", "reports")
        reports = repro_mod.run_all(seed=args.seed, out_dir=out_dir)
    elif args.tag == "F-CERT":
        reports = [repro_mod.monotonicity_certificate(args.q if args.q is not None else 1.5)]
    elif args.tag == "POSITIVE-BATCH":
        reports = [repro_mod.positive_side_batch(seed=args.seed)]
    elif args.tag:
        reports = [repro_mod.reproduce(args.tag, _gallery_params(args), seed=args.seed)]
        if args.write_reports:
            out_dir = args.report_dir or os.environ.get("NORMLAB_REPORT_DIR", "reports")
            repro_mod.write_reports(reports, out_dir)
    else:
        raise HypothesisError("repro requires --tag or --all")
    _emit(_json_text([r.to_json_dict() for r in reports]), args.output)
    return 0 if all(r.overall for r in reports) else 1


def _cmd_gallery(args) -> int:
    _emit(_json_text(repro_mod.GALLERY_INFO), args.output)
    return 0


_COMMANDS = {
    "opnorm": _cmd_opnorm,
    "na": _cmd_na,
    "eta": _cmd_eta,
    "delta": _cmd_delta,
    "auerbach": _cmd_auerbach,
    "repro": _cmd_repro,
    "gallery": _cmd_gallery,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (HypothesisError, UncertifiedNormError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
