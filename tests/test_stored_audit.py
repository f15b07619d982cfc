"""verify and compare on every stored spectrum against the benchmark's
reference reports (benchmark/data/reference.json, read only), and verify on
the clamped and p = 3 spectra under tests/data/spectra against the reports
stored next to them.

The benchmark refuses a run whose bounds move by more than 1e-9 relative
or whose exit codes, rows, holds flags or violation counts change; this
guard is ten times tighter on the bounds, so such a change fails here
first. The tests/data reports must come back byte for byte.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from capspec.cli import main

DATA = Path(__file__).resolve().parents[1] / "benchmark" / "data"
PINNED = sorted(p for p in (Path(__file__).resolve().parent / "data" / "spectra").glob("*.json")
                if not p.name.endswith(".summary.json"))
REFERENCE = json.loads((DATA / "reference.json").read_text(encoding="utf-8"))["audit"]
COUNTS = {"verify": ("violations",),
          "compare": ("twin_violations", "dominance_violations")}
REL_TOL = 1e-10


def audit(command, spectrum, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--in", str(spectrum), "--out", str(out)])
    with open(out, encoding="utf-8", newline="") as handle:
        rows = [(int(row["k"]), row["family"], float(row["bound"]), row["holds"] == "true")
                for row in csv.DictReader(handle)]
    summary = json.loads(out.with_suffix(".summary.json").read_text(encoding="utf-8"))
    return code, rows, {key: summary[key] for key in COUNTS[command]}


def test_reference_covers_every_stored_spectrum():
    assert sorted(REFERENCE) == sorted(p.name for p in (DATA / "spectra").glob("*.json"))
    assert len(REFERENCE) == 27


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_matches_reference(tmp_path, name):
    for command in ("verify", "compare"):
        want = REFERENCE[name][command]
        code, rows, counts = audit(command, DATA / "spectra" / name,
                                   tmp_path / f"{command}.csv")
        assert code == want["exit"], command
        assert counts == want["counts"], command
        assert [(k, fam, holds) for k, fam, _, holds in rows] == \
            [(k, fam, holds) for k, fam, _, holds in want["rows"]], command
        for (k, fam, bound, _), ref in zip(rows, want["rows"]):
            assert abs(bound - ref[2]) <= REL_TOL * abs(ref[2]), (command, k, fam)


def test_pinned_spectra_cover_clamped_and_p3():
    # n = 2 and 3, clamped p = 1, 2, 3 and buckling p = 3, all at 2 pi / 3
    assert [p.stem for p in PINNED] == [f"n{n}-{kind}-2pi_3" for n in (2, 3) for kind in (
        "buckling-p3", "clamped-p1", "clamped-p2", "clamped-p3")]


@pytest.mark.parametrize("spectrum", PINNED, ids=lambda p: p.stem)
def test_pinned_verify_reports_byte_identical(tmp_path, spectrum):
    out = tmp_path / "verify.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--in", str(spectrum), "--out", str(out)])
    assert code == 0
    stored = spectrum.with_suffix(".verify.csv")
    assert out.read_bytes() == stored.read_bytes()
    assert out.with_suffix(".summary.json").read_bytes() == \
        stored.with_suffix(".summary.json").read_bytes()
