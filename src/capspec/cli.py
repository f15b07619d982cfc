"""Command-line front end.

Subcommands: solve, bounds, verify, compare, convergence. Exit codes:
0 success, 1 verification/comparison found a violation, 2 usage or
validation errors (including malformed input files), 3 numerical failures.
Human-readable tables go to stdout, diagnostics to stderr, machine formats
to the --out files.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import io as formats
from .bounds import DELTA, SPHERE_CLAMPED, default_families, family
from .errors import NumericalError, ValidationError
from .spectral import Problem, SolverConfig, convergence_study, solve_spectrum
from .verify import MAX_DELTA_GRID, check_spectrum, compare_sharpness

_PI_FORM = re.compile(r"^\s*(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
                      re.IGNORECASE)


def parse_theta0(text: str) -> float:
    """Radians, either a plain float or an exact 'pi' form: pi, pi/2, 2pi/3."""
    match = _PI_FORM.match(text)
    if match:
        value = math.pi
        if match.group(1):
            value *= float(match.group(1))
        if match.group(2):
            denominator = float(match.group(2))
            if denominator == 0.0:
                raise ValidationError(f"cap radius {text!r} divides by zero")
            value /= denominator
        return value
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"cannot parse cap radius {text!r}; use radians or a pi form like pi/2"
        )


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _auto_or_int(text: str):
    if text.lower() == "auto":
        return None
    return _positive_int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The capspec argument parser. parse_args leaves it unchanged, so it
    is built once and every main call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="capspec",
        description="Eigenvalues of clamped and buckling problems on "
                    "spherical caps, and universal bounds on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a cap spectrum")
    _add_problem_args(solve)
    solve.add_argument("--count", type=_positive_int, default=8,
                       help="eigenvalues to report (default 8)")
    solve.add_argument("--basis", type=_positive_int, default=32,
                       help="radial basis size per mode (default 32)")
    solve.add_argument("--modes", type=_auto_or_int, default=None,
                       help="angular mode cap, or 'auto' (default)")
    solve.add_argument("--quad", type=_auto_or_int, default=None,
                       help="quadrature size, or 'auto' (default)")
    solve.add_argument("--out", required=True, help="spectrum JSON path")
    solve.set_defaults(func=_cmd_solve)

    bounds = sub.add_parser("bounds", help="evaluate bound families on a spectrum file")
    bounds.add_argument("--in", dest="infile", required=True)
    bounds.add_argument("--family", required=True,
                        help="comma-separated family names")
    bounds.add_argument("--delta", type=float, default=None,
                        help=f"delta for the {DELTA} family")
    bounds.add_argument("--sphere-clamped-use-lambda-i", action="store_true",
                        help=f"variant of {SPHERE_CLAMPED} with the running "
                             "eigenvalue in the trailing factor")
    bounds.add_argument("--out", required=True, help="report CSV path")
    bounds.set_defaults(func=_cmd_bounds)

    verify = sub.add_parser("verify", help="check bounds against a computed spectrum")
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--families", default=None,
                        help="comma-separated family names (default: the "
                             "sphere families matching the file)")
    verify.add_argument("--delta", type=float, default=None)
    verify.add_argument("--sphere-clamped-use-lambda-i", action="store_true")
    verify.add_argument("--out", required=True, help="report CSV path")
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare", help="sharpness audit of the order-2 "
                                             "sphere buckling families")
    compare.add_argument("--in", dest="infile", required=True)
    compare.add_argument("--delta-grid", default="1e-3:1e3:32",
                         help="LO:HI:COUNT log grid, COUNT at most "
                              f"{MAX_DELTA_GRID} (default 1e-3:1e3:32)")
    compare.add_argument("--out", required=True, help="report CSV path")
    compare.set_defaults(func=_cmd_compare)

    conv = sub.add_parser("convergence", help="eigenvalues over nested basis sizes")
    _add_problem_args(conv)
    conv.add_argument("--basis-list", required=True,
                      help="comma-separated ascending basis sizes")
    conv.add_argument("--count", type=_positive_int, default=8)
    conv.add_argument("--out", required=True, help="study JSON path")
    conv.set_defaults(func=_cmd_convergence)
    return parser


def _add_problem_args(sub):
    sub.add_argument("--n", type=int, required=True, help="sphere dimension")
    sub.add_argument("--p", type=int, required=True, help="operator order")
    sub.add_argument("--theta0", required=True,
                     help="cap radius in radians; pi forms accepted (pi/2)")
    sub.add_argument("--problem", required=True, choices=["clamped", "buckling"])


def _cmd_solve(args) -> int:
    cfg = SolverConfig(n=args.n, p=args.p, theta0=parse_theta0(args.theta0),
                       problem=Problem(args.problem), basis_size=args.basis,
                       mode_cap=args.modes, quad_size=args.quad,
                       requested_count=args.count)
    spectrum = solve_spectrum(cfg)
    formats.write_spectrum(spectrum, args.out)
    print(f"# {cfg.problem.value} n={cfg.n} p={cfg.p} theta0={cfg.theta0:.12g}")
    print("k value l radial_index multiplicity")
    shown = 0
    for entry in spectrum.entries:
        shown += entry.multiplicity
        print(f"{shown} {formats.format_real(entry.value)} {entry.l} "
              f"{entry.radial_index} {entry.multiplicity}")
    print(f"wrote {args.out}")
    return 0


def _families_from_arg(text, delta, use_lambda_i):
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValidationError("no family names given")
    out = []
    for name in names:
        kwargs = {}
        if name == DELTA:
            if delta is None:
                raise ValidationError(
                    f"{DELTA} requires --delta")
            kwargs["delta"] = delta
        if name == SPHERE_CLAMPED and use_lambda_i:
            kwargs["sphere_clamped_use_lambda_i"] = True
        out.append(family(name, **kwargs))
    return out


def _checked_report(args, names):
    """Read the spectrum file, check the families named in names (verify's
    defaults when names is None) and write the report CSV and summary."""
    seq = formats.read_spectrum(args.infile).sequence()
    fams = (default_families(seq) if names is None else
            _families_from_arg(names, args.delta, args.sphere_clamped_use_lambda_i))
    report = check_spectrum(seq, fams)
    formats.write_report_csv(formats.verification_rows(report), args.out)
    formats.write_summary_json(report.summary, formats.summary_path(args.out))
    return report


def _cmd_bounds(args) -> int:
    report = _checked_report(args, args.family)
    print(f"evaluated {report.summary['rows']} bounds on {len(report.sequence)} eigenvalues")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    summary = _checked_report(args, args.families or None).summary
    print(f"{summary['rows']} rows, {summary['violations']} violations, "
          f"min margin {formats.format_real(summary['min_margin'])}")
    print(f"wrote {args.out}")
    return 1 if summary["violations"] else 0


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"delta grid must be LO:HI:COUNT, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"delta grid must be LO:HI:COUNT numbers, got {text!r}")


def _cmd_compare(args) -> int:
    doc = formats.read_spectrum(args.infile)
    report = compare_sharpness(doc.sequence(), delta_grid=_parse_grid(args.delta_grid))
    formats.write_report_csv(formats.verification_rows(report.verification), args.out)
    formats.write_summary_json(report.summary, formats.summary_path(args.out))
    twin = report.summary["twin_violations"]
    dom = report.summary["dominance_violations"]
    print(f"{report.summary['rows']} rows, {twin} twin violations, "
          f"{dom} dominance violations")
    print(f"wrote {args.out}")
    return 1 if (twin or dom) else 0


def _cmd_convergence(args) -> int:
    try:
        sizes = [int(part) for part in args.basis_list.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"bad basis list {args.basis_list!r}")
    cfg = SolverConfig(n=args.n, p=args.p, theta0=parse_theta0(args.theta0),
                       problem=Problem(args.problem),
                       basis_size=max(sizes) if sizes else 8,
                       requested_count=args.count)
    study = convergence_study(cfg, sizes)
    formats.write_convergence(study, cfg, args.out)
    print("basis " + " ".join(str(b) for b in study.basis_sizes))
    for i in range(study.values.shape[1]):
        print(f"value {i + 1}: " + " ".join(
            formats.format_real(v) for v in study.values[:, i]))
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
