"""The canonical-argv reader against argparse.

`capspec.cli._read_canonical` reads a canonical argv straight from the
option table; `build_parser` builds argparse from the same table. Whenever
the reader returns a Namespace it must be the one argparse returns, and it
must accept every canonical argv. The README's commands must run the same
with argparse unavailable as they do through argparse.
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capspec.cli import _COMMANDS, _read_canonical, build_parser, main

ROOT = Path(__file__).resolve().parents[1]

# values each flag accepts, for the canonical argv
VALID = {
    "--n": ("2", "3"),
    "--p": ("1", "2"),
    "--theta0": ("pi/2", "1.0"),
    "--problem": ("clamped", "buckling"),
    "--count": ("4", "8"),
    "--basis": ("8", "32"),
    "--modes": ("auto", "AUTO", "3"),
    "--quad": ("auto", "16"),
    "--out": ("o.json", "out dir/o.csv"),
    "--in": ("in.json",),
    "--family": ("sphere-buckling-sqrt",),
    "--families": ("sphere-clamped,sphere-buckling-gap",),
    "--delta": ("0.5", "1e-3", "inf"),
    "--sphere-clamped-use-lambda-i": (None,),
    "--delta-grid": ("1e-3:1e3:4",),
    "--basis-list": ("8,16",),
}
# values argparse may take or refuse, depending on the flag
ODD_VALUES = ("0", "-1", "2.5", "auto", "pi/2", "", "x")
NOISE = ("-h", "--help", "--", "extra", "-x", "--bogus")


def _is_flag(kwargs):
    return kwargs.get("action") == "store_true"


@st.composite
def canonical_argv(draw):
    """A subcommand, its required flags and any optional ones, in any order,
    each with a valid value."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[command][2]
    chosen = [opt for opt in options if opt[1].get("required") or draw(st.booleans())]
    argv = [command]
    for flag, kwargs in draw(st.permutations(chosen)):
        argv.append(flag)
        if not _is_flag(kwargs):
            argv.append(draw(st.sampled_from(VALID[flag])))
    return argv


@st.composite
def any_argv(draw):
    """A canonical argv with up to three edits: an odd value in place of a
    valid one, a repeated, abbreviated, '='-joined or value-less flag, a
    stray or help token, a dropped token or another subcommand name."""
    argv = draw(canonical_argv())
    options = _COMMANDS[argv[0]][2]
    for _ in range(draw(st.integers(0, 3))):
        flag, kwargs = draw(st.sampled_from(options))
        value = draw(st.sampled_from([v for v in VALID[flag] if v] + list(ODD_VALUES)))
        edit = draw(st.sampled_from(
            ["swap", "swap", "repeat", "abbreviate", "equals", "bare", "value",
             "noise", "drop", "command"]))
        if edit == "swap":
            if flag in argv[:-1] and not _is_flag(kwargs):
                argv[argv.index(flag) + 1] = draw(st.sampled_from(ODD_VALUES))
            continue
        if edit == "drop":
            if len(argv) > 1:
                del argv[draw(st.integers(1, len(argv) - 1))]
            continue
        if edit == "command":
            argv[0] = draw(st.sampled_from(sorted(_COMMANDS) + ["solv", "-h"]))
            continue
        tokens = {
            "repeat": [flag] if _is_flag(kwargs) else [flag, value],
            "abbreviate": [flag[:draw(st.integers(2, len(flag)))], value],
            "equals": [f"{flag}={value}"],
            "bare": [flag],
            "value": [value],
            "noise": [draw(st.sampled_from(NOISE))],
        }[edit]
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = tokens
    return argv


def argparse_vars(argv):
    return vars(build_parser().parse_args(argv))


class TestReaderMatchesArgparse:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=canonical_argv())
    def test_every_canonical_argv_is_read(self, argv):
        args = _read_canonical(argv)
        assert args is not None
        assert vars(args) == argparse_vars(argv)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(argv=any_argv())
    def test_a_read_argv_is_what_argparse_returns(self, argv):
        args = _read_canonical(argv)
        if args is not None:
            assert vars(args) == argparse_vars(argv)

    @pytest.mark.parametrize("tail", [
        ["--bas", "32"],                      # abbreviation
        ["--basis=32"],                       # '=' form
        ["--count", "8", "--count", "9"],     # repeated flag, last wins
        ["--modes", "-1"],                    # '-'-prefixed value
        ["--count", "0"],                     # conversion error
        ["--count"],                          # missing value
        ["extra"],                            # stray token
        ["-h"],
    ])
    def test_declined_forms(self, tail):
        argv = ["solve", "--n", "2", "--p", "2", "--theta0", "pi/2",
                "--problem", "buckling", "--out", "s.json", *tail]
        assert _read_canonical(argv) is None

    def test_declines_missing_required_and_non_str(self):
        assert _read_canonical(["verify", "--out", "v.csv"]) is None
        assert _read_canonical(["verify", "--in", Path("in.json"), "--out", "v.csv"]) is None
        assert _read_canonical([]) is None

    def test_store_true_and_defaults(self):
        args = _read_canonical(["verify", "--in", "a.json", "--out", "v.csv"])
        assert args.sphere_clamped_use_lambda_i is False
        assert args.families is None and args.delta is None
        args = _read_canonical(["verify", "--sphere-clamped-use-lambda-i",
                                "--in", "a.json", "--out", "v.csv"])
        assert args.sphere_clamped_use_lambda_i is True


def readme_commands():
    """The argv of each command in the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("capspec ")]
    return [shlex.split(line)[1:] for line in lines]


def run_in(workdir, commands):
    """Exit codes and stdout of main on each argv, run in workdir."""
    results = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                results.append((main(argv), out.getvalue()))
    finally:
        os.chdir(here)
    return results


def equals_form(argv):
    """argv with every flag and its value joined as --opt=value."""
    out = [argv[0]]
    for token in argv[1:]:
        if token.startswith("--"):
            out.append(token)
        else:
            out[-1] += "=" + token
    return out


class TestReadmeCommandsWithoutArgparse:
    def test_same_results_as_argparse(self, tmp_path):
        commands = readme_commands()
        assert [argv[0] for argv in commands] == list(_COMMANDS)
        fast, slow = tmp_path / "fast", tmp_path / "slow"
        fast.mkdir()
        slow.mkdir()
        with mock.patch("capspec.cli.build_parser",
                        side_effect=AssertionError("argparse was built")):
            fast_results = run_in(fast, commands)
        slow_commands = [equals_form(argv) for argv in commands]
        assert all(_read_canonical(argv) is None for argv in slow_commands)
        slow_results = run_in(slow, slow_commands)
        assert fast_results == slow_results
        assert [code for code, _ in fast_results] == [0] * 5
        names = sorted(p.name for p in fast.iterdir())
        assert names == sorted(p.name for p in slow.iterdir())
        for name in names:
            assert (fast / name).read_bytes() == (slow / name).read_bytes(), name

    def test_canonical_solve_imports_no_locale(self, tmp_path):
        # argparse's first gettext lookup imports locale; the canonical
        # request neither builds the parser nor reaches gettext
        script = (
            "import sys\n"
            "from capspec.cli import build_parser, main\n"
            "before = 'locale' in sys.modules\n"
            "code = main(['solve', '--n', '2', '--p', '2', '--theta0', 'pi/2',\n"
            "             '--problem', 'buckling', '--count', '2', '--basis', '8',\n"
            "             '--out', 's.json'])\n"
            "print(code, before, 'locale' in sys.modules,\n"
            "      build_parser.cache_info().currsize)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "0 False False 0"
