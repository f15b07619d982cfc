"""verify and compare on every stored spectrum against the benchmark's
reference reports (benchmark/data/reference.json, read only).

The benchmark refuses a run whose bounds move by more than 1e-9 relative
or whose exit codes, rows, holds flags or violation counts change; this
guard is ten times tighter on the bounds, so such a change fails here
first.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from capspec.cli import main

DATA = Path(__file__).resolve().parents[1] / "benchmark" / "data"
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
