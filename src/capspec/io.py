"""File formats: versioned spectrum JSON, report CSV, and JSON summaries.

Reals are serialized with 17 significant digits (enough to round-trip
64-bit floats exactly); the stdlib json module cannot format floats that
way, so a small emitter below handles writing. Reading uses stdlib json
followed by schema validation with one-line failure reasons.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass

from .bounds import EigenSequence, check_sequence_length
from .errors import SchemaError, ValidationError
from .radial import MAX_DIMENSION, multiplicity, shown
from .spectral import Problem, Spectrum, SpectrumEntry, expanded

SPECTRUM_SCHEMA = "spectrum/1"
CONVERGENCE_SCHEMA = "convergence/1"
REPORT_HEADER = "k,actual,family,bound,margin,holds,aux_S,aux_T,aux_delta"


def format_real(x) -> str:
    """x to 17 digits, which round-trip; nan, inf and -inf where not finite."""
    return f"{float(x):.17g}"


def _emit(obj, out, indent):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise ValidationError(f"JSON keys must be strings, got {key!r}")
            out.append(pad + "  " + json.dumps(key) + ": ")
            _emit(value, out, indent + 2)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _emit(value, out, indent + 2)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int,)):
        out.append(str(obj))
    elif isinstance(obj, float):  # JSON has no nan or inf
        out.append(format_real(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps(obj) -> str:
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def spectrum_to_doc(spectrum: Spectrum) -> dict:
    cfg = spectrum.config
    diag = spectrum.diagnostics
    return {
        "schema": SPECTRUM_SCHEMA,
        "n": cfg.n,
        "p": cfg.p,
        "theta0": cfg.theta0,
        "problem": cfg.problem.value,
        "entries": [
            {"value": e.value, "l": e.l, "radial_index": e.radial_index,
             "multiplicity": e.multiplicity}
            for e in spectrum.entries
        ],
        "meta": {
            "basis_size": cfg.basis_size,
            "l_max": int(diag["l_max"]),
            "quad_size": int(diag["quad_size"]),
            "convergence": [float(c) for c in diag["convergence"]],
            "requested_count": cfg.requested_count,
            "max_form_asymmetry": float(diag["max_form_asymmetry"]),
            "lambda1_guard_ok": bool(diag["lambda1_guard_ok"]),
        },
    }


def write_spectrum(spectrum: Spectrum, path) -> None:
    _write_text(path, json_dumps(spectrum_to_doc(spectrum)))


@dataclass(frozen=True)
class SpectrumDocument:
    """A spectrum read back from its JSON file."""

    n: int
    p: int
    theta0: float
    problem: Problem
    entries: tuple[SpectrumEntry, ...]
    meta: dict

    def sequence(self, count=None) -> EigenSequence:
        if count is None:
            count = self.meta.get("requested_count")
        total = sum(e.multiplicity for e in self.entries)
        check_sequence_length(total if count is None else min(count, total))
        return EigenSequence(n=self.n, p=self.p, problem=self.problem,
                             values=tuple(expanded(self.entries, count)))


def _need(doc, key, kinds, where):
    if key not in doc:
        raise SchemaError(f"{where} is missing key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise SchemaError(f"{where}[{key!r}] must be {names}, got {type(value).__name__}")
    return value


def _need_real(doc, key, where) -> float:
    """_need for a JSON number, as a float; an integer past the float range
    is refused, with its size and not its digits."""
    value = _need(doc, key, (int, float), where)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}[{key!r}] is past the float range: {shown(value)}") from None


def read_spectrum(path) -> SpectrumDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path} is not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path} is not valid JSON: {err}") from err
    except (ValueError, RecursionError) as err:  # an over-long integer, deep nesting
        raise SchemaError(f"{path} cannot be read as JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    schema = _need(doc, "schema", str, "spectrum file")
    if schema != SPECTRUM_SCHEMA:
        raise SchemaError(f"unsupported schema tag {schema!r}, expected {SPECTRUM_SCHEMA!r}")
    n = _need(doc, "n", int, "spectrum file")
    p = _need(doc, "p", int, "spectrum file")
    theta0 = _need_real(doc, "theta0", "spectrum file")
    problem_raw = _need(doc, "problem", str, "spectrum file")
    try:
        problem = Problem(problem_raw)
    except ValueError:
        raise SchemaError(f"problem must be 'clamped' or 'buckling', got {problem_raw!r}")
    if n < 2:
        raise SchemaError(f"n must be >= 2, got {n}")
    if n > MAX_DIMENSION:
        raise SchemaError(f"n must be at most {MAX_DIMENSION}, got {shown(n)}")
    raw_entries = _need(doc, "entries", list, "spectrum file")
    if not raw_entries:
        raise SchemaError("spectrum file has no entries")
    entries = []
    labels = set()
    for i, raw in enumerate(raw_entries):
        where = f"entries[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where} must be an object")
        value = _need_real(raw, "value", where)
        l = _need(raw, "l", int, where)
        radial_index = _need(raw, "radial_index", int, where)
        mult = _need(raw, "multiplicity", int, where)
        if value <= 0 or not math.isfinite(value):
            raise SchemaError(f"{where}: value must be positive finite, got {value!r}")
        if l < 0 or radial_index < 0:
            raise SchemaError(f"{where}: indices must be nonnegative")
        try:
            expected = multiplicity(l, n)
        except ValidationError as err:
            raise SchemaError(f"{where}: {err}") from None
        if mult != expected:
            raise SchemaError(
                f"{where}: multiplicity {shown(mult)} does not match mode l={l} "
                f"in dimension n={n} (expected {shown(expected)})"
            )
        if (l, radial_index) in labels:
            raise SchemaError(f"{where}: duplicate label (l={l}, radial_index={radial_index})")
        labels.add((l, radial_index))
        entries.append(SpectrumEntry(value=value, l=l, radial_index=radial_index,
                                     multiplicity=mult))
    for i in range(len(entries) - 1):
        if entries[i].value > entries[i + 1].value:
            raise SchemaError(f"entries must be ascending by value (violated at {i + 1})")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError("meta must be an object")
    if "requested_count" in meta and _need(meta, "requested_count", int, "meta") < 1:
        raise SchemaError(f"meta['requested_count'] must be >= 1, got {meta['requested_count']}")
    if not (0.0 < theta0 < math.pi):
        raise SchemaError(f"theta0 must lie in (0, pi), got {theta0!r}")
    return SpectrumDocument(n=n, p=p, theta0=theta0, problem=problem,
                            entries=tuple(entries), meta=dict(meta))


def verification_rows(report) -> list[str]:
    """CSV rows (no header) for a VerificationReport: k ascending, families
    in the report's order. The aux cells are the result's "S", "T" and
    "delta_star" or "delta" entries, empty where it has none."""
    lines, key = [], None
    for row in report.rows:
        if (row.k, row.actual) != key:  # the rows of one k share their first cells
            key, head = (row.k, row.actual), f"{row.k},{format_real(row.actual)},"
        result, aux = row.result, row.result.aux
        delta = aux.get("delta_star", aux.get("delta"))
        lines.append(f"{head}{result.family.name},{format_real(result.bound)},"
                     f"{format_real(result.margin)},{'true' if row.holds else 'false'},"
                     f"{format_real(aux['S']) if 'S' in aux else ''},"
                     f"{format_real(aux['T']) if 'T' in aux else ''},"
                     f"{'' if delta is None else format_real(delta)}")
    return lines


def write_report_csv(rows, path) -> None:
    _write_text(path, "\n".join([REPORT_HEADER] + list(rows)) + "\n")


def write_summary_json(summary: dict, path) -> None:
    _write_text(path, json_dumps(summary))


def convergence_to_doc(study, config) -> dict:
    return {
        "schema": CONVERGENCE_SCHEMA,
        "n": config.n,
        "p": config.p,
        "theta0": config.theta0,
        "problem": config.problem.value,
        "requested_count": config.requested_count,
        "basis_sizes": [int(b) for b in study.basis_sizes],
        "values": [[float(v) for v in row] for row in study.values],
        "estimates": [float(e) for e in study.estimates],
    }


def write_convergence(study, config, path) -> None:
    _write_text(path, json_dumps(convergence_to_doc(study, config)))


def summary_path(out_path: str) -> str:
    """The report's path with the file name's extension, if any, replaced
    by .summary.json."""
    return os.path.splitext(str(out_path))[0] + ".summary.json"


def _write_text(path, text: str) -> None:
    # An existing file is written over in place and cut to the new length
    # afterwards: opening with O_TRUNC frees all its blocks first, which on
    # some filesystems costs far more than the write. Only regular files are
    # truncated, so FIFOs and /dev/null still take a write.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()
    except OSError as err:
        raise ValidationError(f"cannot write {path}: {err}") from err
