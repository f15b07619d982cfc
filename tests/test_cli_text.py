"""Help, usage and error texts of the command line, against stored snapshots.

Each case runs `capspec.cli.main` in a fresh directory holding `in.json` (a
copy of the stored n = 2 hemisphere buckling spectrum) with COLUMNS=80, and
renders the argv, exit code, stdout and stderr as one text. The snapshots in
tests/data/cli/ were written by this module before the command line read its
canonical argv without argparse, so they pin argparse's texts and exit codes
as they were. Rewrite them with

    PYTHONPATH=src python tests/test_cli_text.py

argparse's wording differs between minor Python versions, so the test runs
only on 3.11. Accepted argv that reach the solver end in a validation error
whose message shows the parsed values, so no snapshot holds a computed
eigenvalue.
"""

import contextlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from capspec.cli import main

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOTS = ROOT / "tests" / "data" / "cli"
STORED_HEMI = ROOT / "benchmark" / "data" / "spectra" / "n2-pi_2.json"

_PROBLEM = ["--n", "2", "--p", "2", "--theta0", "pi/2", "--problem", "buckling"]

CASES = {
    "help": ["-h"],
    "help-solve": ["solve", "-h"],
    "help-bounds": ["bounds", "-h"],
    "help-verify": ["verify", "-h"],
    "help-compare": ["compare", "-h"],
    "help-convergence": ["convergence", "-h"],
    "no-argv": [],
    "unknown-command": ["solv", *_PROBLEM, "--out", "s.json"],
    "missing-p": ["solve", "--n", "2", "--theta0", "pi/2", "--problem", "buckling",
                  "--out", "s.json"],
    "bad-choice": ["solve", "--n", "2", "--p", "2", "--theta0", "pi/2",
                   "--problem", "membrane", "--out", "s.json"],
    "count-zero": ["solve", *_PROBLEM, "--count", "0", "--out", "s.json"],
    "non-integer-n": ["solve", "--n", "2.5", "--p", "2", "--theta0", "pi/2",
                      "--problem", "buckling", "--out", "s.json"],
    # accepted: --bas abbreviates --basis, and the config error shows it
    "abbreviated-flag": ["solve", *_PROBLEM, "--count", "40", "--bas", "32",
                         "--out", "s.json"],
    "equals-form": ["bounds", "--in", "in.json", "--family", "sphere-buckling-sqrt",
                    "--out=b.csv"],
    # accepted: -1 is taken as --delta's value; the family refuses it
    "negative-value": ["bounds", "--in", "in.json", "--family", "sphere-buckling-delta",
                       "--delta", "-1", "--out", "b.csv"],
    "missing-value": ["compare", "--in", "in.json", "--out", "c.csv", "--delta-grid"],
    "stray-token": ["solve", *_PROBLEM, "--out", "s.json", "extra"],
    # accepted: the last --count wins, and the config error shows 9
    "repeated-flag": ["solve", *_PROBLEM, "--count", "8", "--count", "9",
                      "--basis", "8", "--out", "s.json"],
}


def render(argv, workdir: Path) -> str:
    """argv's exit code, stdout and stderr from main, run inside workdir."""
    shutil.copyfile(STORED_HEMI, workdir / "in.json")
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return (f"$ {shlex.join(['capspec', *argv])}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_snapshot(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (SNAPSHOTS / f"{name}.txt").read_text(encoding="utf-8")
    assert render(CASES[name], tmp_path) == expected


def test_every_snapshot_has_a_case():
    assert sorted(p.stem for p in SNAPSHOTS.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    SNAPSHOTS.mkdir(parents=True, exist_ok=True)
    for case, case_argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            text = render(case_argv, Path(tmp))
        (SNAPSHOTS / f"{case}.txt").write_text(text, encoding="utf-8")
