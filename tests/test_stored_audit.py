"""verify and compare on every stored spectrum against the benchmark's
reference reports (benchmark/data/reference.json, read only), and verify on
the spectra under tests/data/spectra against the reports stored next to
them: clamped p = 1, 2, 3 and buckling p = 3 at n = 2 and 3, and three
p = 2 buckling spectra (copies of benchmark spectra at n = 2, 3 and 4),
whose compare reports are stored too.

The benchmark refuses a run whose bounds move by more than 1e-9 relative
or whose exit codes, rows, holds flags or violation counts change; this
guard is ten times tighter on the bounds, so such a change fails here
first. The tests/data reports must come back byte for byte, and so must
the verify and compare reports of every benchmark spectrum: their digests
are stored in tests/data/audit-digests.json, one sha256 per file and
command over the CSV bytes followed by the summary bytes.
"""

import contextlib
import csv
import hashlib
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
DIGESTS = json.loads((Path(__file__).resolve().parent / "data" / "audit-digests.json")
                     .read_text(encoding="utf-8"))


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


# p = 2 buckling: every default family, the delta-opt rows' aux_delta and
# the sqrt-p2 rows included, and a compare report each
PINNED_P2 = [p for p in PINNED if "-buckling-p2-" in p.name]


def test_pinned_spectra_cover_clamped_and_p3():
    # n = 2 and 3, clamped p = 1, 2, 3 and buckling p = 3, all at 2 pi / 3;
    # buckling p = 2 at n = 2, 3, 4 on the caps pi/2, 2 pi/5 and 5 pi/8
    assert [p.stem for p in PINNED] == sorted(
        [f"n{n}-{kind}-2pi_3" for n in (2, 3) for kind in (
            "buckling-p3", "clamped-p1", "clamped-p2", "clamped-p3")]
        + ["n2-buckling-p2-pi_2", "n3-buckling-p2-2pi_5", "n4-buckling-p2-5pi_8"])
    assert [p.stem for p in PINNED_P2] == [
        "n2-buckling-p2-pi_2", "n3-buckling-p2-2pi_5", "n4-buckling-p2-5pi_8"]


def assert_report_byte_identical(tmp_path, command, spectrum):
    out = tmp_path / f"{command}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--in", str(spectrum), "--out", str(out)])
    assert code == 0
    stored = spectrum.with_suffix(f".{command}.csv")
    assert out.read_bytes() == stored.read_bytes()
    assert out.with_suffix(".summary.json").read_bytes() == \
        stored.with_suffix(".summary.json").read_bytes()


@pytest.mark.parametrize("spectrum", PINNED, ids=lambda p: p.stem)
def test_pinned_verify_reports_byte_identical(tmp_path, spectrum):
    assert_report_byte_identical(tmp_path, "verify", spectrum)


@pytest.mark.parametrize("spectrum", PINNED_P2, ids=lambda p: p.stem)
def test_pinned_compare_reports_byte_identical(tmp_path, spectrum):
    assert_report_byte_identical(tmp_path, "compare", spectrum)


def test_digests_cover_every_benchmark_spectrum():
    assert sorted(DIGESTS) == sorted(REFERENCE)
    assert all(sorted(digests) == ["compare", "verify"] for digests in DIGESTS.values())


@pytest.mark.parametrize("command", ["verify", "compare"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_reports_match_digest(tmp_path, name, command):
    out = tmp_path / f"{command}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--in", str(DATA / "spectra" / name), "--out", str(out)])
    assert code == REFERENCE[name][command]["exit"]
    report = out.read_bytes() + out.with_suffix(".summary.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == DIGESTS[name][command]
