import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capspec import io as fmt
from capspec.bounds import EigenSequence, family
from capspec.errors import SchemaError, ValidationError
from capspec.radial import multiplicity
from capspec.spectral import (
    Problem,
    SolverConfig,
    Spectrum,
    SpectrumEntry,
    convergence_study,
    solve_spectrum,
)
from capspec.verify import check_spectrum


def hemi_clamped(tmp_path):
    cfg = SolverConfig(n=2, p=1, theta0=math.pi / 2, problem=Problem.CLAMPED,
                       basis_size=16, requested_count=6)
    spec = solve_spectrum(cfg)
    path = tmp_path / "spec.json"
    fmt.write_spectrum(spec, path)
    return spec, path


def test_solve_write_read_round_trip(tmp_path):
    # every integer of the file is a JSON integer that the reader takes
    # back; a bool in their place is refused before the solve
    cfg = SolverConfig(n=2, p=1, theta0=1.0, problem=Problem.CLAMPED, basis_size=16,
                       requested_count=4, mode_cap=8)
    spec = solve_spectrum(cfg)
    path = tmp_path / "spec.json"
    fmt.write_spectrum(spec, path)
    doc = fmt.read_spectrum(path)
    assert (type(doc.n), type(doc.p), doc.n, doc.p) == (int, int, 2, 1)
    assert doc.entries == spec.entries
    assert doc.sequence().values == tuple(spec.expanded_values())
    assert '"p": 1,' in path.read_text()
    with pytest.raises(ValidationError, match="order must be an integer >= 1 for clamped, "
                                              "got True"):
        SolverConfig(n=2, p=True, theta0=1.0, problem=Problem.CLAMPED)


def test_numpy_integer_config_writes_like_its_int_twin(tmp_path):
    # n, p and the sizes are stored as ints, so a config built from numpy
    # integers solves and writes the bytes of its Python-int twin
    fields = dict(n=2, p=2, basis_size=16, requested_count=4, mode_cap=8, quad_size=40)
    written = []
    for cast in (int, np.int64):
        cfg = SolverConfig(theta0=1.0, problem=Problem.BUCKLING,
                           **{name: cast(value) for name, value in fields.items()})
        assert all(type(getattr(cfg, name)) is int for name in fields)
        path = tmp_path / f"{cast.__name__}.json"
        fmt.write_spectrum(solve_spectrum(cfg), path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


class TestFormatReal:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([
            rng.standard_normal(200),
            10.0 ** rng.uniform(-300, 300, 200),
            [0.0, 1.0, math.pi, 2.0 / 3.0, 5e-324],
        ])
        for x in xs:
            assert float(fmt.format_real(float(x))) == float(x)

    def test_special_values(self):
        assert fmt.format_real(float("inf")) == "inf"
        assert fmt.format_real(float("-inf")) == "-inf"
        assert fmt.format_real(float("nan")) == "nan"

    def test_integral_reals_stay_short(self):
        assert fmt.format_real(2.0) == "2"
        assert fmt.format_real(-6.0) == "-6"

    def test_one_format_matches_the_branched_form(self):
        # the format alone spells NaN (of either sign) and the infinities as
        # the branches it replaced did
        def branched(x):
            x = float(x)
            if math.isnan(x):
                return "nan"
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return f"{x:.17g}"

        rng = np.random.default_rng(11)
        random_bits = rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64)
        xs = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
              1.7976931348623157e308, -1.7976931348623157e308,
              *rng.standard_normal(500), *random_bits, np.float32(0.1), 3]
        assert math.copysign(1.0, -math.nan) == -1.0  # the NaN's sign is set
        for x in xs:
            assert fmt.format_real(x) == branched(x), x


class TestJsonEmitter:
    def test_scalars_and_nesting(self):
        text = fmt.json_dumps({"a": 1, "b": [True, False, "x"], "c": {"d": 0.5}})
        assert json.loads(text) == {"a": 1, "b": [True, False, "x"], "c": {"d": 0.5}}
        assert text.endswith("\n")

    def test_insertion_order_preserved(self):
        text = fmt.json_dumps({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    def test_reals_emitted_at_full_precision(self):
        text = fmt.json_dumps({"x": math.pi})
        assert json.loads(text)["x"] == math.pi


class TestSpectrumRoundTrip:
    def test_values_and_indices_survive(self, tmp_path):
        spec, path = hemi_clamped(tmp_path)
        doc = fmt.read_spectrum(path)
        assert doc.n == 2 and doc.p == 1 and doc.problem is Problem.CLAMPED
        assert doc.theta0 == spec.config.theta0
        got = [(e.value, e.l, e.radial_index, e.multiplicity) for e in doc.entries]
        want = [(e.value, e.l, e.radial_index, e.multiplicity) for e in spec.entries]
        assert got == want

    def test_sequence_matches_expanded_values(self, tmp_path):
        spec, path = hemi_clamped(tmp_path)
        seq = fmt.read_spectrum(path).sequence()
        assert np.array_equal(seq.values, spec.expanded_values())

    def test_sequence_count_override(self, tmp_path):
        _, path = hemi_clamped(tmp_path)
        assert len(fmt.read_spectrum(path).sequence(count=3)) == 3

    def test_meta_carried_through(self, tmp_path):
        spec, path = hemi_clamped(tmp_path)
        meta = fmt.read_spectrum(path).meta
        assert meta["basis_size"] == 16
        assert meta["requested_count"] == 6
        assert len(meta["convergence"]) == len(spec.entries)

    def test_document_is_plain_json(self, tmp_path):
        _, path = hemi_clamped(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "spectrum/1"
        # level 12 is split across two angular modes, so multiplicity is
        # summed per distinct value
        per_value = {}
        for e in doc["entries"]:
            key = round(e["value"], 6)
            per_value[key] = per_value.get(key, 0) + e["multiplicity"]
        assert per_value == {2.0: 1, 6.0: 2, 12.0: 3}


class TestReadSpectrumRejects:
    def write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        return path

    def base(self):
        return {
            "schema": "spectrum/1", "n": 2, "p": 2, "theta0": 1.0,
            "problem": "buckling",
            "entries": [{"value": 3.0, "l": 0, "radial_index": 0,
                         "multiplicity": 1},
                        {"value": 5.0, "l": 1, "radial_index": 0,
                         "multiplicity": 2}],
            "meta": {},
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            fmt.read_spectrum(tmp_path / "absent.json")

    def test_over_long_sequence_refused_before_expansion(self, tmp_path, monkeypatch):
        # one n = 3 entry of mode 10000 stands for 20001 values; without a
        # requested count the sequence would expand them all, so it is
        # refused first, while a count within the limit reads
        doc = self.base()
        doc.update(n=3, entries=[{"value": 3.0, "l": 10000, "radial_index": 0,
                                  "multiplicity": 20001}])
        spec = fmt.read_spectrum(self.write(tmp_path, doc))
        monkeypatch.setattr(fmt, "expanded", None)
        with pytest.raises(ValidationError, match="has 20001 values"):
            spec.sequence()
        monkeypatch.undo()
        assert len(spec.sequence(1024)) == 1024
        with pytest.raises(ValidationError, match="has 1025 values"):
            spec.sequence(1025)

    def test_not_json(self, tmp_path):
        with pytest.raises(SchemaError, match="not valid JSON"):
            fmt.read_spectrum(self.write(tmp_path, "]["))

    def test_top_level_not_object(self, tmp_path):
        with pytest.raises(SchemaError, match="top level"):
            fmt.read_spectrum(self.write(tmp_path, "[1, 2]"))

    def test_wrong_schema_tag(self, tmp_path):
        doc = self.base()
        doc["schema"] = "spectrum/9"
        with pytest.raises(SchemaError, match="unsupported schema"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        doc = self.base()
        del doc["theta0"]
        with pytest.raises(SchemaError, match="theta0"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_bool_is_not_an_int(self, tmp_path):
        doc = self.base()
        doc["n"] = True
        with pytest.raises(SchemaError, match="must be int"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_bad_problem_string(self, tmp_path):
        doc = self.base()
        doc["problem"] = "vibrating"
        with pytest.raises(SchemaError, match="clamped.*buckling"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_entries_must_ascend(self, tmp_path):
        doc = self.base()
        doc["entries"][0]["value"] = 9.0
        with pytest.raises(SchemaError, match="ascending"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_entries_must_be_positive(self, tmp_path):
        doc = self.base()
        doc["entries"][0]["value"] = -1.0
        with pytest.raises(SchemaError, match="positive"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_empty_entries(self, tmp_path):
        doc = self.base()
        doc["entries"] = []
        with pytest.raises(SchemaError, match="no entries"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_theta0_out_of_range(self, tmp_path):
        doc = self.base()
        doc["theta0"] = 4.0
        with pytest.raises(SchemaError, match="theta0"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    @pytest.mark.parametrize("key", ["theta0", "value"])
    def test_integer_past_float_range(self, tmp_path, key):
        # a JSON integer of 310 to 4300 digits parses, but no float holds it
        doc = self.base()
        (doc if key == "theta0" else doc["entries"][1])[key] = 10**400
        where = r"spectrum file\['theta0'\]" if key == "theta0" else r"entries\[1\]\['value'\]"
        with pytest.raises(SchemaError, match=where + " is past the float range: "
                           "an integer of 1329 bits$"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_multiplicity_floor(self, tmp_path):
        doc = self.base()
        doc["entries"][1]["multiplicity"] = 0
        with pytest.raises(SchemaError, match="multiplicity"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_multiplicity_must_match_mode(self, tmp_path):
        doc = self.base()
        doc["entries"][1]["multiplicity"] = 7
        with pytest.raises(SchemaError, match=r"multiplicity 7 .*expected 2"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_dimension_floor(self, tmp_path):
        doc = self.base()
        doc["n"] = 1
        with pytest.raises(SchemaError, match="n must be >= 2"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_huge_dimension_refused_promptly(self, tmp_path):
        # n above the dimension limit is refused before any multiplicity is
        # checked, so no (n - 2)! or C(l + n - 3, l) is evaluated
        doc = self.base()
        doc["n"] = 10**12
        with pytest.raises(SchemaError, match="n must be at most 10000, got 1000000000000"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_mode_limit(self, tmp_path):
        doc = self.base()
        doc["entries"][1]["l"] = 10**4 + 1
        with pytest.raises(SchemaError,
                           match=r"entries\[1\]: mode index must be an integer in 0..10000"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_wide_expected_multiplicity_not_printed(self, tmp_path):
        # the multiplicity of l = 10000 at n = 10000 has 19992 bits, more
        # digits than str() may format; the message gives its bit length
        doc = self.base()
        doc["n"] = 10**4
        doc["entries"][1].update(l=10**4, multiplicity=3)
        with pytest.raises(SchemaError, match=r"multiplicity 3 .*expected an integer of \d+ bits"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    def test_sequence_expands_no_further_than_its_count(self, tmp_path):
        # the l = 3 mode at n = 10000 has ~1.7e11 harmonics; a sequence of
        # the requested count takes only the values it needs
        doc = self.base()
        doc["n"] = 10**4
        doc["entries"][1].update(l=3, multiplicity=multiplicity(3, 10**4))
        doc["meta"]["requested_count"] = 4
        seq = fmt.read_spectrum(self.write(tmp_path, doc)).sequence()
        assert seq.values == (3.0, 5.0, 5.0, 5.0)

    def test_duplicate_label(self, tmp_path):
        doc = self.base()
        doc["entries"][1].update(l=0, multiplicity=1)
        with pytest.raises(SchemaError, match=r"duplicate label \(l=0, radial_index=0\)"):
            fmt.read_spectrum(self.write(tmp_path, doc))

    @pytest.mark.parametrize("count", ["x", 0, -2, 2.5, True, None])
    def test_requested_count_type(self, tmp_path, count):
        doc = self.base()
        doc["meta"]["requested_count"] = count
        with pytest.raises(SchemaError, match="requested_count"):
            fmt.read_spectrum(self.write(tmp_path, doc))


class TestRoundTripExact:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=1, max_size=6),
        # SolverConfig refuses a radius whose cosine rounds to 1 (below about
        # 1.05e-8)
        theta0=st.floats(min_value=2e-8, max_value=math.pi, exclude_max=True),
        convergence=st.floats(min_value=0.0, allow_infinity=False),
    )
    def test_write_then_read(self, values, theta0, convergence):
        values = sorted(values)
        cfg = SolverConfig(n=3, p=2, theta0=theta0, problem=Problem.BUCKLING,
                           basis_size=8, requested_count=len(values))
        entries = tuple(SpectrumEntry(value=v, l=0, radial_index=j, multiplicity=1)
                        for j, v in enumerate(values))
        diagnostics = {"l_max": 0, "quad_size": 34, "max_form_asymmetry": 0.0,
                       "convergence": [convergence] * len(values),
                       "lambda1_guard_ok": True}
        spec = Spectrum(config=cfg, entries=entries, diagnostics=diagnostics)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            fmt.write_spectrum(spec, path)
            text = path.read_text()
            doc = fmt.read_spectrum(path)
        assert (doc.n, doc.p, doc.theta0, doc.problem) == (3, 2, theta0, Problem.BUCKLING)
        assert doc.entries == entries
        assert doc.meta == fmt.spectrum_to_doc(spec)["meta"]
        again = {"schema": fmt.SPECTRUM_SCHEMA, "n": doc.n, "p": doc.p,
                 "theta0": doc.theta0, "problem": doc.problem.value,
                 "entries": [{"value": e.value, "l": e.l, "radial_index": e.radial_index,
                              "multiplicity": e.multiplicity} for e in doc.entries],
                 "meta": doc.meta}
        assert fmt.json_dumps(again) == text


class TestReportCsv:
    def seq(self):
        return EigenSequence(n=2, p=2, problem=Problem.BUCKLING,
                             values=(1.0, 1.5))

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        fmt.write_report_csv([], path)
        assert path.read_text() == fmt.REPORT_HEADER + "\n"

    def test_verification_rows_shape(self):
        report = check_spectrum(self.seq(), [family("sphere-buckling-sqrt"),
                                             family("sphere-buckling-quadratic")])
        rows = fmt.verification_rows(report)
        assert len(rows) == 2
        first = rows[0].split(",")
        assert first[0] == "1"
        assert first[2] == "sphere-buckling-sqrt"
        assert first[5] == "true"
        assert first[6] == first[7] == ""
        second = rows[1].split(",")
        assert second[2] == "sphere-buckling-quadratic"
        assert float(second[6]) == 1.5 and float(second[7]) == 2.0

    def test_delta_families_fill_aux_delta_only(self):
        report = check_spectrum(self.seq(),
                                [family("sphere-buckling-delta", delta=0.8),
                                 family("sphere-buckling-delta-opt")])
        for row in fmt.verification_rows(report):
            cols = row.split(",")
            assert cols[6] == "" and cols[7] == "" and cols[8] != ""
        assert float(fmt.verification_rows(report)[0].split(",")[8]) == 0.8

    def test_writes_lf_line_endings(self, tmp_path):
        report = check_spectrum(self.seq(), [family("sphere-buckling-sqrt")])
        path = tmp_path / "r.csv"
        fmt.write_report_csv(fmt.verification_rows(report), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_summary_path_swaps_extension(self):
        assert fmt.summary_path("out/report.csv") == "out/report.summary.json"
        assert fmt.summary_path("report") == "report.summary.json"
        assert fmt.summary_path("verify.csv") == "verify.summary.json"
        # only the file name loses its extension: a dot in a directory name
        # or in "./" is not one
        assert fmt.summary_path("runs.v2/report") == "runs.v2/report.summary.json"
        assert fmt.summary_path("./verify") == "./verify.summary.json"

    def test_non_finite_floats_written_as_null(self):
        text = fmt.json_dumps({"a": math.nan, "b": [math.inf, -math.inf, 1.5]})
        assert json.loads(text) == {"a": None, "b": [None, None, 1.5]}


class TestConvergenceDoc:
    def test_doc_mirrors_study(self):
        cfg = SolverConfig(n=2, p=1, theta0=math.pi / 2, problem=Problem.CLAMPED,
                           basis_size=12, requested_count=4)
        study = convergence_study(cfg, [8, 12])
        doc = fmt.convergence_to_doc(study, cfg)
        assert doc["schema"] == "convergence/1"
        assert doc["basis_sizes"] == [8, 12]
        assert doc["values"][1] == [float(v) for v in study.values[1]]
        assert doc["estimates"] == [float(e) for e in study.estimates]

    def test_write_convergence_is_valid_json(self, tmp_path):
        cfg = SolverConfig(n=2, p=1, theta0=math.pi / 2, problem=Problem.CLAMPED,
                           basis_size=12, requested_count=4)
        study = convergence_study(cfg, [8, 12])
        path = tmp_path / "study.json"
        fmt.write_convergence(study, cfg, path)
        doc = json.loads(path.read_text())
        assert doc["n"] == 2 and doc["requested_count"] == 4


class TestWriteErrors:
    def test_unwritable_path_reports_context(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(ValidationError, match="cannot write"):
            fmt.write_report_csv([], target)

    def test_directory_target_refused_in_one_line(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot write") as info:
            fmt.write_report_csv([], tmp_path)
        assert "\n" not in str(info.value)


class TestRewrite:
    """An existing file is written over in place: same inode, new bytes only."""

    ROWS = ["1,2.5,f,2,0.5,true,,,", "2,4.5,f,3,1.5,true,,,"]
    TEXT = "\n".join([fmt.REPORT_HEADER] + ROWS) + "\n"

    def test_longer_file_cut_to_new_length(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"x" * 20000)
        inode = path.stat().st_ino
        fmt.write_report_csv(self.ROWS, path)
        assert path.read_bytes() == self.TEXT.encode()
        assert path.stat().st_ino == inode

    def test_shorter_file_grown_to_new_length(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"x" * 5)
        inode = path.stat().st_ino
        fmt.write_report_csv(self.ROWS, path)
        assert path.read_bytes() == self.TEXT.encode()
        assert path.stat().st_ino == inode

    def test_device_target_accepted(self):
        fmt.write_report_csv(self.ROWS, os.devnull)

    def test_new_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "summary.json"
        fmt.write_summary_json({"k": 1}, path)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
