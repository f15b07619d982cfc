import contextlib
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capspec import io as fmt
from capspec.bounds import EigenSequence, family
from capspec.cli import build_parser, main, parse_theta0
from capspec.errors import ValidationError
from capspec.spectral import Problem, SolverConfig, solve_spectrum
from capspec.verify import MAX_DELTA_GRID, check_spectrum

HEMI = "1.5707963267948966"
STORED = Path(__file__).resolve().parents[1] / "benchmark" / "data" / "spectra"


def run(*argv):
    return main([str(a) for a in argv])


def solve_hemi_buckling(tmp_path, count=6):
    path = tmp_path / "buck.json"
    assert run("solve", "--n", 2, "--p", 2, "--theta0", "pi/2",
               "--problem", "buckling", "--count", count,
               "--basis", 24, "--out", path) == 0
    return path


def write_synthetic(tmp_path, values, n=2, p=2, problem="buckling"):
    path = tmp_path / "synth.json"
    doc = {
        "schema": "spectrum/1", "n": n, "p": p, "theta0": 1.0,
        "problem": problem,
        "entries": [{"value": v, "l": 0, "radial_index": i, "multiplicity": 1}
                    for i, v in enumerate(values)],
        "meta": {},
    }
    path.write_text(json.dumps(doc))
    return path


class TestThetaParsing:
    def test_pi_forms(self):
        assert parse_theta0("pi") == math.pi
        assert parse_theta0("pi/2") == math.pi / 2
        assert parse_theta0("2pi/3") == 2 * math.pi / 3
        assert parse_theta0("0.5pi") == 0.5 * math.pi
        assert parse_theta0(" PI / 4 ") == math.pi / 4

    def test_plain_radians(self):
        assert parse_theta0("1.25") == 1.25
        assert parse_theta0(HEMI) == math.pi / 2

    def test_garbage_rejected(self):
        for bad in ("two", "pi/", "pi*2", ""):
            with pytest.raises(ValidationError):
                parse_theta0(bad)

    @pytest.mark.parametrize("text", ["pi/0", "2pi/0.0"])
    def test_zero_denominator_exits_2(self, tmp_path, capsys, text):
        with pytest.raises(ValidationError):
            parse_theta0(text)
        code = run("solve", "--n", 2, "--p", 2, "--theta0", text,
                   "--problem", "buckling", "--out", tmp_path / "s.json")
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ValidationError"), err


class TestSolveCommand:
    def test_hemisphere_example(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run("solve", "--n", 2, "--p", 1, "--theta0", HEMI,
                   "--problem", "clamped", "--count", 6, "--out", out)
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        per_value = {}
        for e in doc["entries"]:
            key = round(e["value"], 6)
            per_value[key] = per_value.get(key, 0) + e["multiplicity"]
        assert per_value == {2.0: 1, 6.0: 2, 12.0: 3}

    def test_symbolic_theta_matches_literal(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("solve", "--n", 2, "--p", 1, "--theta0", "pi/2",
            "--problem", "clamped", "--count", 4, "--out", a)
        run("solve", "--n", 2, "--p", 1, "--theta0", HEMI,
            "--problem", "clamped", "--count", 4, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_basis_equal_to_count_has_estimates(self, tmp_path):
        # the companion basis is N - 4 = 4 whatever the count, so a basis
        # equal to the count no longer writes estimates of exactly 0
        out = tmp_path / "s.json"
        assert run("solve", "--n", 2, "--p", 2, "--theta0", 2.6,
                   "--problem", "buckling", "--count", 8, "--basis", 8,
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        assert [(e["l"], e["radial_index"]) for e in doc["entries"]] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        assert np.allclose(doc["meta"]["convergence"],
                           [0.014158756439159044, 0.05639975517916305,
                            0.06086270214786857, 0.016382316581473388,
                            0.057518231921334255], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("basis,theta0,reason", [
        (4, "pi/2", "basis size 4 leaves no companion basis for the convergence "
                    "estimates; it must exceed 4"),
        (5, "2.6", "entry (l=0, radial index 1) has no convergence estimate: the "
                   "companion basis 1 (basis - 4) is too small"),
    ])
    def test_basis_without_companion_exits_2(self, tmp_path, capsys, basis, theta0, reason):
        # a basis of 4 has no companion; at basis 5 the companion holds
        # radial index 0 only, and the 4th eigenvalue of the 2.6 cap is
        # (l=0, j=1)
        out = tmp_path / "s.json"
        code = run("solve", "--n", 2, "--p", 1, "--theta0", theta0,
                   "--problem", "clamped", "--count", 4, "--basis", basis,
                   "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: ValidationError: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,message", [
        ("--basis", "basis size must be at most 512, got 100000"),
        ("--p", "order must be at most 64 for a solve, got 100000"),
        ("--quad", "quadrature size must be None or an integer in 2..2048 "
                   "(doubled to at most 4096 nodes), got 100000"),
    ])
    def test_oversized_sizes_refused_before_allocation(self, tmp_path, capsys,
                                                       monkeypatch, flag, message):
        # each size asks for a dense 100000 x 100000 array (74.5 GiB); it is
        # refused with one line before numpy allocates anything
        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        for name in ("eye", "zeros", "empty", "ones"):
            monkeypatch.setattr(np, name, refuse)
        out = tmp_path / "s.json"
        assert run("solve", "--n", 2, "--p", 2, "--theta0", "pi/2",
                   "--problem", "buckling", flag, 100000, "--out", out) == 2
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n,theta0,message", [
        (1000, "0.1", "stiffness form of mode 0 underflows to zero in double precision"),
        (5000, "0.1", "matrix entries must be finite"),
        (2, "1e-200", "cap radius 1e-200 is too small: its cosine rounds to 1"),
    ])
    def test_unrepresentable_cap_exits_2(self, tmp_path, capsys, n, theta0, message):
        # forms past the float range, or a cap with no width, are refused
        # with one line and warn of nothing first
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("solve", "--n", n, "--p", 2, "--theta0", theta0,
                       "--problem", "buckling", "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: ValidationError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_small_cap_solves_silently(self, tmp_path, capsys, p):
        # a cap of radius 1e-7, a half-width of 2.5e-15, keeps its precision:
        # no asymmetry warning and no refusal
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("solve", "--n", 2, "--p", p, "--theta0", "1e-7",
                       "--problem", "clamped", "--out", out)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert fmt.read_spectrum(out).meta["max_form_asymmetry"] <= 1e-8

    def test_invalid_order_exits_2(self, tmp_path, capsys):
        code = run("solve", "--n", 2, "--p", 0, "--theta0", "1.0",
                   "--problem", "clamped", "--out", tmp_path / "x.json")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_argument_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--n", 2, "--theta0", "1.0",
                "--problem", "clamped", "--out", tmp_path / "x.json")
        assert exc.value.code == 2
        capsys.readouterr()


class TestBoundsCommand:
    def test_euclidean_failure_does_not_blame_a_genuine_spectrum(self, tmp_path, capsys):
        # the flat-space membrane inequality fails on this genuine large
        # cap; exit 3 stays, and the text names the family's domain
        spec = tmp_path / "c.json"
        assert run("solve", "--n", 2, "--p", 1, "--theta0", 2.6, "--problem", "clamped",
                   "--count", 10, "--out", spec) == 0
        capsys.readouterr()
        assert run("bounds", "--in", spec, "--family", "euclidean-membrane",
                   "--out", tmp_path / "b.csv") == 3
        assert capsys.readouterr().err == (
            "error: DiscriminantNegative: S^2 - T = -0.673608 < 0 (S = 2.86334, "
            "T = 8.87231); euclidean-membrane is a flat-space inequality and need "
            "not hold on a cap\n")

    def test_round_trip_matches_in_process(self, tmp_path):
        spec_path = solve_hemi_buckling(tmp_path)
        out = tmp_path / "r.csv"
        assert run("bounds", "--in", spec_path, "--family",
                   "sphere-buckling-sqrt,sphere-buckling-gap",
                   "--out", out) == 0

        cfg = SolverConfig(n=2, p=2, theta0=math.pi / 2,
                           problem=Problem.BUCKLING, basis_size=24,
                           requested_count=6)
        seq = EigenSequence.from_spectrum(solve_spectrum(cfg))
        report = check_spectrum(seq, [family("sphere-buckling-sqrt"),
                                      family("sphere-buckling-gap")])
        expected = [fmt.REPORT_HEADER] + fmt.verification_rows(report)
        assert out.read_text().splitlines() == expected

    def test_tied_clamped_spectrum_reads_back(self, tmp_path):
        # the n=2 clamped hemisphere has a level at 12 shared by (l=2, j=0)
        # and (l=0, j=1); whichever of the two comes out high in the last
        # bits, the written entries must ascend so that readers accept them
        path = tmp_path / "tie.json"
        assert run("solve", "--n", 2, "--p", 1, "--theta0", "pi/2",
                   "--problem", "clamped", "--count", 6, "--out", path) == 0
        values = [e["value"] for e in json.loads(path.read_text())["entries"]]
        assert values == sorted(values)
        assert run("bounds", "--in", path, "--family", "euclidean-membrane",
                   "--out", tmp_path / "r.csv") == 0

    def test_family_mismatch_exits_2(self, tmp_path, capsys):
        clamped = tmp_path / "c.json"
        run("solve", "--n", 2, "--p", 1, "--theta0", "pi/2",
            "--problem", "clamped", "--count", 4, "--out", clamped)
        code = run("bounds", "--in", clamped, "--family",
                   "sphere-buckling-sqrt", "--out", tmp_path / "x.csv")
        assert code == 2
        assert "FamilyMismatch" in capsys.readouterr().err

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        spec_path = solve_hemi_buckling(tmp_path)
        code = run("bounds", "--in", spec_path, "--family", "nope",
                   "--out", tmp_path / "x.csv")
        assert code == 2
        capsys.readouterr()

    def test_delta_family_requires_delta(self, tmp_path, capsys):
        spec_path = solve_hemi_buckling(tmp_path)
        code = run("bounds", "--in", spec_path, "--family",
                   "sphere-buckling-delta", "--out", tmp_path / "x.csv")
        assert code == 2
        assert "--delta" in capsys.readouterr().err

    def test_divergent_delta_exits_3(self, tmp_path, capsys):
        spec_path = solve_hemi_buckling(tmp_path)
        code = run("bounds", "--in", spec_path, "--family",
                   "sphere-buckling-delta", "--delta", 0.8,
                   "--out", tmp_path / "x.csv")
        assert code == 3
        assert "BracketFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("bounds", "--family", "sphere-buckling-sqrt"), ("verify",)])
    def test_overflowing_sqrt_coefficients_exit_3(self, tmp_path, capsys, command):
        spec_path = write_synthetic(tmp_path, [1e300, 2e300])
        code = run(*command, "--in", spec_path, "--out", tmp_path / "x.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "BracketFailure" in err, err

    @pytest.mark.parametrize("action", ["always", "error"])
    def test_overflowing_sqrt_probes_exit_3_without_warnings(self, tmp_path, capsys, action):
        # the sqrt quartic of (1e150, 2e150) is finite, but an interval probe
        # near 5e299 overflows when squared; it holds (inf <= inf) and the
        # family has no finite bound below Lambda_k 2^64
        spec_path = write_synthetic(tmp_path, [1e150, 2e150])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            code = run("verify", "--in", spec_path, "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 3 and not caught
        assert err.count("\n") == 1 and "BracketFailure" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("command", [
        ("bounds", "--family", "sphere-buckling-quadratic"),
        ("bounds", "--family", "sphere-buckling-gap"),
        ("bounds", "--family", "euclidean-buckling"),
        ("verify", "--families", "sphere-buckling-quadratic,euclidean-buckling")])
    def test_overflowing_closed_form_sums_exit_3(self, tmp_path, capsys, command):
        # S and T overflow; the closed form would be NaN, which once wrote
        # nan,nan,false and exit 0 (bounds) or two false violations (verify)
        spec_path = write_synthetic(tmp_path, [1e300, 2e300])
        out = tmp_path / "x.csv"
        code = run(*command, "--in", spec_path, "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "BracketFailure" in err and "overflow" in err, err
        assert not out.exists()

    def test_summary_json_written(self, tmp_path):
        spec_path = solve_hemi_buckling(tmp_path)
        out = tmp_path / "r.csv"
        run("bounds", "--in", spec_path, "--family", "sphere-buckling-sqrt",
            "--out", out)
        summary = json.loads((tmp_path / "r.summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["rows"] == 5


class TestVerifyCommand:
    def test_computed_spectrum_passes(self, tmp_path, capsys):
        spec_path = solve_hemi_buckling(tmp_path)
        out = tmp_path / "v.csv"
        assert run("verify", "--in", spec_path, "--out", out) == 0
        assert "0 violations" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        # 5 default families for p = 2 buckling, k = 1..5
        assert len(rows) == 1 + 5 * 5

    def test_first_error_in_row_order_sets_exit_code(self, tmp_path, capsys):
        # the quadratic family's DomainError (exit 2) comes at k = 2, the
        # delta family's BracketFailure (exit 3) at k = 1, which is reported
        path = write_synthetic(tmp_path, (2.001, 21.0, 22.0), n=4)
        code = run("verify", "--in", path, "--families",
                   "sphere-buckling-quadratic,sphere-buckling-delta", "--delta", "1e6",
                   "--out", tmp_path / "v.csv")
        assert code == 3
        assert "BracketFailure" in capsys.readouterr().err

    def test_synthetic_violation_exits_1(self, tmp_path, capsys):
        path = write_synthetic(tmp_path, (1.0, 10.0))
        code = run("verify", "--in", path, "--families",
                   "sphere-buckling-sqrt", "--out", tmp_path / "v.csv")
        assert code == 1
        assert "1 violations" in capsys.readouterr().out
        summary = json.loads((tmp_path / "v.summary.json").read_text())
        assert summary["violations"] == 1
        assert summary["min_margin"] < -7.9

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_one_entry_summary_is_json(self, tmp_path, capsys, command):
        # one value gives no rows, so no margin: the summary writes null,
        # which every JSON reader accepts, where stdout prints nan
        path = write_synthetic(tmp_path, (3.0,))
        extra = ("--family", "sphere-buckling-sqrt") if command == "bounds" else ()
        assert run(command, "--in", path, *extra, "--out", tmp_path / "v.csv") == 0
        summary = json.loads((tmp_path / "v.summary.json").read_text(encoding="utf-8"))
        assert summary["rows"] == 0 and summary["min_margin"] is None
        if command == "verify":
            assert "min margin nan" in capsys.readouterr().out

    def test_clamped_defaults_to_clamped_family(self, tmp_path):
        clamped = tmp_path / "c.json"
        run("solve", "--n", 3, "--p", 2, "--theta0", "pi/2",
            "--problem", "clamped", "--count", 5, "--out", clamped)
        out = tmp_path / "v.csv"
        assert run("verify", "--in", clamped, "--out", out) == 0
        families = {line.split(",")[2] for line in
                    out.read_text().splitlines()[1:]}
        assert families == {"sphere-clamped"}

    def test_guard_violation_exits_2(self, tmp_path, capsys):
        path = write_synthetic(tmp_path, (0.5, 0.9), n=3)
        code = run("verify", "--in", path, "--out", tmp_path / "v.csv")
        assert code == 2
        assert "GuardViolation" in capsys.readouterr().err

    def test_guard_comes_before_every_row(self, tmp_path, capsys):
        # euclidean-buckling overflows at k = 1 (exit 3) on this order, but
        # the sphere guard of the later family is checked before any row
        path = write_synthetic(tmp_path, (0.5, 2.0, 3.0), n=3, p=10**400)
        code = run("verify", "--in", path, "--out", tmp_path / "v.csv",
                   "--families", "euclidean-buckling,sphere-buckling-sqrt")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: GuardViolation: family sphere-buckling-sqrt requires")
        assert err.count("\n") == 1

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{natural language}")
        code = run("verify", "--in", bad, "--out", tmp_path / "v.csv")
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("text,reason", [
        (b"\xff\xfe\x00garbage", "is not UTF-8 text"),
        (b'{"n": ' + b"1" * 5000 + b"}", "cannot be read as JSON"),
        (b"[" * 100000 + b"]" * 100000, "cannot be read as JSON"),
        (json.dumps({"schema": "spectrum/1", "n": 10**200, "p": 2, "theta0": 1.0,
                     "problem": "buckling", "meta": {}, "entries": [
                         {"value": v, "l": 0, "radial_index": i, "multiplicity": 1}
                         for i, v in enumerate((1e300, 2e300))]}).encode(),
         "n must be at most 10000, got an integer of 665 bits"),
        (json.dumps({"schema": "spectrum/1", "n": 10**9, "p": 2, "theta0": 1.0,
                     "problem": "buckling", "meta": {}, "entries": [
                         {"value": 1.0, "l": 10**4, "radial_index": 0,
                          "multiplicity": 3}]}).encode(),
         "n must be at most 10000, got 1000000000"),
    ], ids=["not-utf8", "long-integer", "deep-nesting", "n-1e200", "n-1e9"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("verify", "--in", bad, "--out", tmp_path / "v.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: SchemaError: ") and reason in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run("verify", "--in", tmp_path / "absent.json",
                   "--out", tmp_path / "v.csv")
        assert code == 2
        capsys.readouterr()

    def test_reports_byte_identical(self, tmp_path):
        spec_path = solve_hemi_buckling(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("verify", "--in", spec_path, "--out", a)
        run("verify", "--in", spec_path, "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == \
               (tmp_path / "b.summary.json").read_bytes()

    def test_lambda_i_variant_reaches_default_families(self, tmp_path, capsys):
        # with lambda_1 in the trailing factor sphere-clamped fails on this
        # genuine spectrum (DiscriminantNegative, exit 3); the family always
        # has lambda_i, and the flag is accepted and changes nothing, with or
        # without --families
        clamped = tmp_path / "c.json"
        assert run("solve", "--n", 2, "--p", 1, "--theta0", "pi/2",
                   "--problem", "clamped", "--count", 8, "--out", clamped) == 0
        outs = {name: tmp_path / f"{name}.csv" for name in "abcd"}
        assert run("verify", "--in", clamped, "--sphere-clamped-use-lambda-i",
                   "--out", outs["a"]) == 0
        assert run("verify", "--in", clamped, "--sphere-clamped-use-lambda-i",
                   "--families", "sphere-clamped", "--out", outs["b"]) == 0
        assert run("verify", "--in", clamped, "--out", outs["c"]) == 0
        assert run("verify", "--in", clamped, "--families", "sphere-clamped",
                   "--out", outs["d"]) == 0
        for name in "bcd":
            assert outs[name].read_bytes() == outs["a"].read_bytes()
            assert (tmp_path / f"{name}.summary.json").read_bytes() == \
                   (tmp_path / "a.summary.json").read_bytes()
        assert len(outs["a"].read_text().splitlines()) == 1 + 7
        capsys.readouterr()


class TestRefusedHeaders:
    @pytest.mark.parametrize("p,problem", [
        (600, "buckling"), (10**400, "buckling"), (10**9, "clamped")],
        ids=["p600", "p1e400", "clamped-p1e9"])
    def test_large_order_exits_3_quickly(self, tmp_path, capsys, p, problem):
        # a power of order p past the float range is a BracketFailure line,
        # not an OverflowError traceback or seconds spent on 2^p as an integer
        spec_path = write_synthetic(tmp_path, [5.0, 9.0], n=3, p=p, problem=problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            start = time.perf_counter()
            code = run("verify", "--in", spec_path, "--out", tmp_path / "v.csv")
            elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 3 and elapsed < 1.0, (code, elapsed)
        assert err.count("\n") == 1 and "BracketFailure" in err and "overflow" in err, err

    def test_over_long_sequence_exits_2(self, tmp_path, capsys):
        spec_path = write_synthetic(tmp_path, [3.0 + i for i in range(1100)])
        code = run("verify", "--in", spec_path, "--out", tmp_path / "v.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: ValidationError: eigenvalue sequence has 1100 values; "
                       "the bound layer takes at most 1024\n")


def mutated_copy(tmp_path, mutate, name="n2-pi_2.json"):
    doc = json.loads((STORED / name).read_text())
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return path


class TestMalformedStoredSpectrum:
    @pytest.mark.parametrize("mutate,reason", [
        (lambda d: d["entries"][1].update(multiplicity=7), "multiplicity 7"),
        (lambda d: d["entries"][2].update(l=1), "duplicate label"),
        (lambda d: d["meta"].update(requested_count="x"), "requested_count"),
    ], ids=["multiplicity", "duplicate-label", "requested-count"])
    def test_verify_exits_2(self, tmp_path, capsys, mutate, reason):
        code = run("verify", "--in", mutated_copy(tmp_path, mutate),
                   "--out", tmp_path / "v.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "SchemaError" in err and reason in err

    @pytest.mark.parametrize("command", ["verify", "compare", "bounds"])
    @pytest.mark.parametrize("mutate,where", [
        (lambda d: d.update(theta0=10**400), "spectrum file['theta0']"),
        (lambda d: d["entries"][2].update(value=10**400), "entries[2]['value']"),
    ], ids=["theta0", "value"])
    def test_integer_past_float_range_exits_2(self, tmp_path, capsys, command, mutate, where):
        # 10^400 parses as a JSON integer, but no float holds it
        args = ["--family", "sphere-buckling-sqrt"] if command == "bounds" else []
        code = run(command, "--in", mutated_copy(tmp_path, mutate), *args,
                   "--out", tmp_path / "v.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: SchemaError: {where} is past the float range: an integer of 1329 bits\n")

    def test_order_the_values_cannot_have_exits_3(self, tmp_path, capsys):
        # p = 27 over a p = 2 spectrum is schema-valid, and the reader cannot
        # tell it from a genuine header; the sqrt family then has no finite
        # bound, which is BracketFailure, exit 3, for any input
        stored = (STORED / "n2-pi_2.json").read_bytes()
        code = run("verify", "--in", mutated_copy(tmp_path, lambda d: d.update(p=27)),
                   "--out", tmp_path / "v.csv")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: BracketFailure: predicate of sphere-buckling-sqrt holds at every "
            "candidate up to 1.1068e+20; no finite implied bound\n")
        assert (STORED / "n2-pi_2.json").read_bytes() == stored


FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(-10**20, 10**20),
    st.floats(), st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)


@st.composite
def mutated_buckling_docs(draw):
    """A stored p=2 buckling spectrum with 1-3 fields replaced or deleted,
    at the top level, in meta or in one entry."""
    name = draw(st.sampled_from(["n2-pi_2.json", "n3-2pi_3.json", "n4-pi_3.json"]))
    doc = json.loads((STORED / name).read_text())
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["top", "meta", "entry"]))
        obj = doc
        if where == "meta" and isinstance(doc.get("meta"), dict):
            obj = doc["meta"]
        elif where == "entry" and isinstance(doc.get("entries"), list) and doc["entries"]:
            obj = draw(st.sampled_from(doc["entries"]))
        if not isinstance(obj, dict) or not obj:
            continue
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.integers(0, 4)) == 0:
            del obj[key]
        else:
            obj[key] = draw(FIELD_VALUES)
    return doc


class TestFuzzedSpectrum:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=mutated_buckling_docs())
    def test_verify_exit_code_without_traceback(self, doc):
        # an uncaught exception fails the test; a refusal is one line on
        # stderr. Exit 3 is allowed only as BracketFailure: a header that no
        # longer fits the values (say p = 27 over a p = 2 spectrum) can leave
        # a bound with no finite value, which is exit 3 for any input
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["verify", "--in", str(path), "--out", str(Path(tmp) / "v.csv")])
        err = err.getvalue()
        assert code in (0, 1, 2) or (code == 3 and "BracketFailure" in err), err
        if code >= 2:
            assert err.count("\n") == 1 and err.startswith("error: "), err


class TestCompareCommand:
    def test_hemisphere_comparison(self, tmp_path, capsys):
        spec_path = solve_hemi_buckling(tmp_path)
        out = tmp_path / "cmp.csv"
        assert run("compare", "--in", spec_path, "--out", out) == 0
        assert "0 twin violations" in capsys.readouterr().out
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 * 5
        # per k: declaration order sqrt, delta-opt, sqrt-p2
        names = [r.split(",")[2] for r in rows[:3]]
        assert names == ["sphere-buckling-sqrt", "sphere-buckling-delta-opt",
                         "sphere-buckling-sqrt-p2"]
        twins = [float(r.split(",")[3]) for r in (rows[0], rows[2])]
        assert twins[0] == pytest.approx(twins[1], rel=1e-10)

    def test_requires_second_order_buckling(self, tmp_path, capsys):
        clamped = tmp_path / "c.json"
        run("solve", "--n", 2, "--p", 1, "--theta0", "pi/2",
            "--problem", "clamped", "--count", 4, "--out", clamped)
        assert run("compare", "--in", clamped,
                   "--out", tmp_path / "x.csv") == 2
        capsys.readouterr()

    def test_bad_grid_syntax_exits_2(self, tmp_path, capsys):
        spec_path = solve_hemi_buckling(tmp_path)
        code = run("compare", "--in", spec_path, "--delta-grid", "1:2",
                   "--out", tmp_path / "x.csv")
        assert code == 2
        assert "LO:HI:COUNT" in capsys.readouterr().err

    def test_extreme_delta_grid(self, tmp_path, capsys):
        # at delta = 1e-300 the n = 2 delta weight must not cancel to 0/0,
        # which would warn and report spurious dominance violations
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("compare", "--in", STORED / "n2-pi_2.json",
                       "--delta-grid", "1e-300:1e300:4", "--out", tmp_path / "x.csv")
        assert code == 0
        assert "0 dominance violations" in capsys.readouterr().out

    @pytest.mark.parametrize("grid", ["1:inf:5", "1e-3:1e400:5"])
    def test_non_finite_grid_end_refused_without_warnings(self, tmp_path, capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("compare", "--in", STORED / "n2-pi_2.json", "--delta-grid", grid,
                       "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ValidationError: bad delta grid"), err
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_grid_refused_before_allocating(self, tmp_path, capsys):
        # the COUNT limit is checked before the grid is built
        with mock.patch("numpy.logspace", side_effect=AssertionError("allocated")):
            code = run("compare", "--in", STORED / "n2-pi_2.json", "--delta-grid",
                       f"1e-3:1e3:{10**11}", "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ValidationError"), err
        assert str(MAX_DELTA_GRID) in err
        assert not (tmp_path / "x.csv").exists()

    def test_largest_grid_accepted(self, tmp_path, capsys):
        assert run("compare", "--in", STORED / "n2-pi_2.json", "--delta-grid",
                   f"1e-3:1e3:{MAX_DELTA_GRID}", "--out", tmp_path / "x.csv") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("name", sorted(p.name for p in STORED.glob("*.json")))
    def test_rows_are_verify_rows(self, tmp_path, capsys, name):
        # compare writes verify's rows for the three order-2 families
        compare, verify = tmp_path / "compare.csv", tmp_path / "verify.csv"
        assert run("compare", "--in", STORED / name, "--out", compare) == 0
        assert run("verify", "--in", STORED / name, "--families",
                   "sphere-buckling-sqrt,sphere-buckling-delta-opt,sphere-buckling-sqrt-p2",
                   "--out", verify) == 0
        assert compare.read_bytes() == verify.read_bytes()
        capsys.readouterr()

    def test_guard_violation_exits_2(self, tmp_path, capsys):
        path = write_synthetic(tmp_path, (0.5, 0.9), n=3)
        assert run("compare", "--in", path, "--out", tmp_path / "x.csv") == 2
        assert "GuardViolation" in capsys.readouterr().err

    def test_custom_grid_accepted(self, tmp_path):
        spec_path = solve_hemi_buckling(tmp_path, count=4)
        out = tmp_path / "cmp.csv"
        assert run("compare", "--in", spec_path, "--delta-grid",
                   "1e-2:1e2:16", "--out", out) == 0
        summary = json.loads((tmp_path / "cmp.summary.json").read_text())
        assert summary["dominance_violations"] == 0


class TestParserBuiltOnce:
    def test_repeated_calls_share_one_parser(self, tmp_path, capsys):
        # main builds its argparse parser at most once per process; a call
        # rejected by argparse in between must leave later calls unchanged
        assert build_parser() is build_parser()
        spec_path = STORED / "n3-pi_3.json"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("compare", "--in", spec_path, "--out", a) == 0
        with pytest.raises(SystemExit) as exc:
            run("compare", "--in", spec_path, "--out", tmp_path / "x.csv",
                "--delta-grid")
        assert exc.value.code == 2
        assert run("compare", "--in", spec_path, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == \
               (tmp_path / "b.summary.json").read_bytes()
        capsys.readouterr()


class TestConvergenceCommand:
    def test_study_document(self, tmp_path):
        out = tmp_path / "study.json"
        code = run("convergence", "--n", 2, "--p", 2, "--theta0", "pi/2",
                   "--problem", "buckling", "--basis-list", "8,12,16",
                   "--count", 4, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "convergence/1"
        assert doc["basis_sizes"] == [8, 12, 16]
        values = np.asarray(doc["values"])
        assert values.shape == (3, 4)
        assert values[0, 0] == pytest.approx(6.0, rel=1e-10)
        assert all(e < 1e-10 for e in doc["estimates"])

    def test_descending_sizes_exit_2(self, tmp_path, capsys):
        code = run("convergence", "--n", 2, "--p", 2, "--theta0", "pi/2",
                   "--problem", "buckling", "--basis-list", "16,8",
                   "--out", tmp_path / "x.json")
        assert code == 2
        capsys.readouterr()

    def test_repeated_sizes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run("convergence", "--n", 2, "--p", 2, "--theta0", "pi/2",
                   "--problem", "buckling", "--basis-list", "16,32,32", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "strictly ascending" in err, err
        assert not out.exists()

    def test_unparseable_sizes_exit_2(self, tmp_path, capsys):
        code = run("convergence", "--n", 2, "--p", 2, "--theta0", "pi/2",
                   "--problem", "buckling", "--basis-list", "8,many",
                   "--out", tmp_path / "x.json")
        assert code == 2
        capsys.readouterr()
