"""Benchmark inputs, requests and the correctness gate.

Inputs come only from the seed: the caps a request solves, the radii of the
solve grid and the stored spectrum files the bounds audit reads, and the
order of all of them. Items are drawn in passes: each pass is a seed-shuffled
permutation of the whole set, so runs with different seeds do the same mix of
work and differ only in which items fall into a run and in their order.

Reference outputs in data/reference.json were produced by make_reference.py
from the solver at the commit that added the benchmark. A request fails when
it raises, exits nonzero, or misses the reference: an eigenvalue or bound off
by more than 1e-9 relative, or a holds flag or violation count that differs.
"""

from __future__ import annotations

import csv
import json
import os
import random
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
SPECTRA = DATA / "spectra"
REFERENCE = DATA / "reference.json"

# Exact pi fractions in [pi/3, 2pi/3]; finite, so that the reference holds
# the eigenvalues of every cap a seed can draw.
CAPS = ("pi/3", "3pi/8", "2pi/5", "4pi/9", "pi/2", "5pi/9", "3pi/5", "5pi/8",
        "2pi/3")
GRID = tuple((n, p) for n in (2, 3, 4) for p in (2, 3))
GRID_RADII = 3
BASIS = 32
COUNT = 8
REL_TOL = 1e-9
AUDIT_COMMANDS = ("verify", "compare")
AUDIT_COUNTS = {"verify": ("violations",),
                "compare": ("twin_violations", "dominance_violations")}


def solve_key(n: int, p: int, cap: str) -> str:
    return f"n={n} p={p} theta0={cap}"


def solve_argv(cap: str, out) -> list:
    """CLI arguments of one cold-solve request (n=2, p=2, buckling)."""
    return ["solve", "--n", "2", "--p", "2", "--theta0", cap,
            "--problem", "buckling", "--basis", str(BASIS),
            "--count", str(COUNT), "--out", str(out)]


def stored_spectra() -> list:
    """The spectrum/1 files bounds-audit can draw, by name."""
    return sorted(path.name for path in SPECTRA.glob("*.json"))


def passes(items, rng: random.Random):
    """Endless seed-shuffled passes; every pass holds each item once."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def cold_plan(seed: int):
    """Endless caps for cold-solve."""
    return passes(CAPS, random.Random(seed))


def grid_plan(seed: int):
    """(warm-up requests, endless timed requests) for solve-grid.

    The timed grid uses GRID_RADII seed-drawn caps for every (n, p). The
    warm-up solves each (n, p) once at a cap outside that draw: it fills the
    quadrature-rule cache, which depends on the weight exponent and node
    count but not on the cap, and leaves nothing keyed by a timed cap warm.
    """
    rng = random.Random(seed)
    timed = rng.sample(CAPS, GRID_RADII)
    others = [cap for cap in CAPS if cap not in timed]
    warm = [(n, p, rng.choice(others)) for n, p in GRID]
    requests = passes([(n, p, cap) for n, p in GRID for cap in timed], rng)
    return warm, requests


def audit_plan(seed: int):
    """Endless stored spectrum files for bounds-audit."""
    return passes(stored_spectra(), random.Random(seed))


def preview(workload: str, seed: int, count: int) -> dict:
    """The first `count` inputs of a workload, for comparing seeds."""
    if workload == "cold-solve":
        warm, plan = [], cold_plan(seed)
    elif workload == "solve-grid":
        warm, plan = grid_plan(seed)
    else:
        warm, plan = [], audit_plan(seed)
    return {"warm": list(warm), "requests": [next(plan) for _ in range(count)]}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def solve_request(n: int, p: int, cap: str) -> list:
    """One in-process spectrum through spectral.solve_spectrum."""
    from capspec import cli, spectral

    cfg = spectral.SolverConfig(n=n, p=p, theta0=cli.parse_theta0(cap),
                                problem="buckling", basis_size=BASIS,
                                requested_count=COUNT)
    return [float(v) for v in spectral.solve_spectrum(cfg).expanded_values()]


def audit_request(spectrum: Path, workdir: Path) -> dict:
    """`verify` then `compare` on one stored file; exit code per command."""
    from capspec import cli

    exits = {}
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        for command in AUDIT_COMMANDS:
            exits[command] = cli.main([command, "--in", str(spectrum),
                                       "--out", str(workdir / f"{command}.csv")])
    return exits


def expanded_values(spectrum_file: Path) -> list:
    """Multiplicity-expanded eigenvalues of a spectrum/1 file."""
    with open(spectrum_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    values = []
    for entry in doc["entries"]:
        values.extend([float(entry["value"])] * int(entry["multiplicity"]))
    return values[:int(doc["meta"]["requested_count"])]


def read_report(command: str, workdir: Path, exit_code: int) -> dict:
    """Exit code, per-row (k, family, bound, holds) and violation counts."""
    with open(workdir / f"{command}.csv", encoding="utf-8", newline="") as handle:
        rows = [[int(row["k"]), row["family"], float(row["bound"]),
                 row["holds"] == "true"] for row in csv.DictReader(handle)]
    with open(workdir / f"{command}.summary.json", encoding="utf-8") as handle:
        summary = json.load(handle)
    counts = {key: int(summary[key]) for key in AUDIT_COUNTS[command]}
    return {"exit": exit_code, "rows": rows, "counts": counts}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def check_values(reference: dict, key: str, values) -> str | None:
    """None when the eigenvalues match the reference, else the reason."""
    want = reference["solve"][key]
    if len(values) != len(want):
        return f"{key}: {len(values)} eigenvalues, reference has {len(want)}"
    for i, (got, ref) in enumerate(zip(values, want)):
        if not _close(got, ref):
            return f"{key}: eigenvalue {i + 1} is {got!r}, reference {ref!r}"
    return None


def check_audit(reference: dict, name: str, reports: dict) -> str | None:
    """None when both reports match the reference, else the reason."""
    for command in AUDIT_COMMANDS:
        got, want = reports[command], reference["audit"][name][command]
        where = f"{command} {name}"
        if got["exit"] != 0:
            return f"{where}: exit code {got['exit']}"
        if got["counts"] != want["counts"]:
            return f"{where}: counts {got['counts']}, reference {want['counts']}"
        if len(got["rows"]) != len(want["rows"]):
            return f"{where}: {len(got['rows'])} rows, reference {len(want['rows'])}"
        for row, ref in zip(got["rows"], want["rows"]):
            if row[0] != ref[0] or row[1] != ref[1] or row[3] != ref[3]:
                return f"{where}: row {row} differs from reference {ref}"
            if not _close(row[2], ref[2]):
                return f"{where}: bound {row[2]!r}, reference {ref[2]!r} ({row[:2]})"
    return None
