"""Command-line front end.

Subcommands: solve, bounds, verify, compare, convergence. Exit codes:
0 success, 1 verification/comparison found a violation, 2 usage or
validation errors (including malformed input files), 3 numerical failures.
Human-readable tables go to stdout, diagnostics to stderr, machine formats
to the --out files.

Each subcommand's options are written once, in the _COMMANDS table. A
canonical argv (exact long flags, each once, each value a separate token
that does not start with '-') is read straight from the table; the argparse
parser built from the same table takes everything else, so help, usage and
error texts and all of argparse's syntax stay as argparse gives them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import re
import sys

from . import io as formats
from .bounds import DELTA, SPHERE_CLAMPED, default_families, family
from .errors import NumericalError, ValidationError
from .spectral import Problem, SolverConfig, convergence_study, solve_spectrum
from .verify import MAX_DELTA_GRID, check_spectrum, compare_sharpness

# collector policy: what the imports built lives as long as the process, so
# it leaves the cyclic collector's generations and no request collects it
gc.freeze()

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


def _families_from_arg(text, delta):
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValidationError("no family names given")
    out = []
    for name in names:
        if name == DELTA and delta is None:
            raise ValidationError(f"{DELTA} requires --delta")
        out.append(family(name, delta if name == DELTA else None))
    return out


def _checked_report(args, names):
    """Read the spectrum file, check the families named in names (verify's
    defaults when names is None) and write the report CSV and summary."""
    seq = formats.read_spectrum(args.infile).sequence()
    fams = (default_families(seq) if names is None else
            _families_from_arg(names, args.delta))
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


_PROBLEM_OPTIONS = (
    ("--n", dict(type=int, required=True, help="sphere dimension")),
    ("--p", dict(type=int, required=True, help="operator order")),
    ("--theta0", dict(required=True,
                      help="cap radius in radians; pi forms accepted (pi/2)")),
    ("--problem", dict(required=True, choices=("clamped", "buckling"))),
)

# Every subcommand's help, handler and options, in help order. An option is
# its flag and the keyword arguments of its add_argument call: build_parser
# passes them to argparse, and _read_canonical reads them itself, so each
# default is spelled out (store_true's too) wherever it is not None.
_COMMANDS = {
    "solve": ("compute a cap spectrum", _cmd_solve, (
        *_PROBLEM_OPTIONS,
        ("--count", dict(type=_positive_int, default=8,
                         help="eigenvalues to report (default 8)")),
        ("--basis", dict(type=_positive_int, default=32,
                         help="radial basis size per mode (default 32)")),
        ("--modes", dict(type=_auto_or_int,
                         help="angular mode cap, or 'auto' (default)")),
        ("--quad", dict(type=_auto_or_int,
                        help="quadrature size, or 'auto' (default)")),
        ("--out", dict(required=True, help="spectrum JSON path")),
    )),
    "bounds": ("evaluate bound families on a spectrum file", _cmd_bounds, (
        ("--in", dict(dest="infile", required=True)),
        ("--family", dict(required=True, help="comma-separated family names")),
        ("--delta", dict(type=float, help=f"delta for the {DELTA} family")),
        # accepted and without effect: sphere-clamped always has the running
        # eigenvalue in its trailing factor
        ("--sphere-clamped-use-lambda-i", dict(
            action="store_true", default=False,
            help=f"variant of {SPHERE_CLAMPED} with the running eigenvalue "
                 "in the trailing factor")),
        ("--out", dict(required=True, help="report CSV path")),
    )),
    "verify": ("check bounds against a computed spectrum", _cmd_verify, (
        ("--in", dict(dest="infile", required=True)),
        ("--families", dict(help="comma-separated family names (default: the "
                                 "sphere families matching the file)")),
        ("--delta", dict(type=float)),
        ("--sphere-clamped-use-lambda-i", dict(action="store_true", default=False)),
        ("--out", dict(required=True, help="report CSV path")),
    )),
    "compare": ("sharpness audit of the order-2 sphere buckling families",
                _cmd_compare, (
        ("--in", dict(dest="infile", required=True)),
        ("--delta-grid", dict(default="1e-3:1e3:32",
                              help="LO:HI:COUNT log grid, COUNT at most "
                                   f"{MAX_DELTA_GRID} (default 1e-3:1e3:32)")),
        ("--out", dict(required=True, help="report CSV path")),
    )),
    "convergence": ("eigenvalues over nested basis sizes", _cmd_convergence, (
        *_PROBLEM_OPTIONS,
        ("--basis-list", dict(required=True,
                              help="comma-separated strictly ascending basis sizes")),
        ("--count", dict(type=_positive_int, default=8)),
        ("--out", dict(required=True, help="study JSON path")),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The capspec argument parser, built from _COMMANDS. main needs it only
    for argv that _read_canonical declines; parse_args leaves it unchanged,
    so it is built once and every main call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="capspec",
        description="Eigenvalues of clamped and buckling problems on "
                    "spherical caps, and universal bounds on them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=func)
    return parser


def _read_canonical(argv):
    """The Namespace build_parser().parse_args(argv) returns, read straight
    from _COMMANDS when argv has the canonical form: a subcommand, then
    exact flags, each at most once, each value the next token and not
    starting with '-', converted and checked as argparse would, and every
    required flag present. Anything else gives None and is left to argparse,
    which writes every help, usage and error text."""
    if not (argv and all(isinstance(token, str) for token in argv)
            and argv[0] in _COMMANDS):
        return None
    _, func, options = _COMMANDS[argv[0]]
    spec = dict(options)
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in spec or flag in values:
            return None
        kwargs = spec[flag]
        if kwargs.get("action") == "store_true":
            values[flag] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[flag] = value
    if any(kwargs.get("required") and flag not in values for flag, kwargs in options):
        return None
    # no string default has a type, so defaults are taken as they stand
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, kwargs in options:
        setattr(args, kwargs.get("dest", flag[2:].replace("-", "_")),
                values.get(flag, kwargs.get("default")))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_canonical(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
