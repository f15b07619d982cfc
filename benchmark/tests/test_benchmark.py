"""Self-tests of the benchmark harness (not part of capspec's own suite).

    python3 -m pytest benchmark/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))

import capspec.cli  # noqa: E402
import capspec.quadrature  # noqa: E402
import capspec.radial  # noqa: E402
import capspec.spectral  # noqa: E402


def _bindings():
    """Every callable bound in a capspec module, by (module, attribute)."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "capspec" or name.startswith("capspec.")
            for attr, value in vars(module).items() if callable(value)}


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        first = wl.preview(workload, 7, 40)
        assert first == wl.preview(workload, 7, 40)
        assert first != wl.preview(workload, 8, 40)


def test_every_drawable_input_has_a_reference():
    reference = wl.load_reference()
    assert set(reference["audit"]) == set(wl.stored_spectra())
    for seed in range(25):
        for cap in wl.preview("cold-solve", seed, 20)["requests"]:
            assert wl.solve_key(2, 2, cap) in reference["solve"]
        grid = wl.preview("solve-grid", seed, 2 * len(wl.GRID) * wl.GRID_RADII)
        timed = {cap for _, _, cap in grid["requests"]}
        assert len(timed) == wl.GRID_RADII
        assert not timed & {cap for _, _, cap in grid["warm"]}
        for n, p, cap in grid["warm"] + grid["requests"]:
            assert wl.solve_key(n, p, cap) in reference["solve"]


def test_wrappers_are_removed_after_a_run():
    before = _bindings()
    original = capspec.quadrature.gauss_jacobi_rule
    recorder = spans.Recorder()
    with recorder.installed():
        wrapped = capspec.spectral.gauss_jacobi_rule
        assert wrapped is not original and wrapped.__wrapped__ is original
        wrapped(1.0, 4)
        capspec.quadrature.gauss_jacobi_rule(1.0, 4)
    assert _bindings() == before
    metrics = recorder.metrics()
    assert metrics["quadrature.gauss_jacobi_rule.calls"] == 2
    assert metrics["quadrature.gauss_jacobi_rule.distinct_keys"] == 1


def test_missing_function_gives_absent_metrics(monkeypatch):
    monkeypatch.delattr(capspec.radial, "operator_coeffs")
    recorder = spans.Recorder(spans.WRAPPED + (("no_such_module", "f"),))
    with recorder.installed():
        capspec.spectral.gauss_jacobi_rule(0.5, 3)
    assert recorder.absent == ["radial.operator_coeffs", "no_such_module.f"]
    result = {"metrics": recorder.metrics(), "tally": run.Tally()}
    result["tally"].add(1.0, 0.01, None, False)
    result["tally"].add(1.1, 0.01, None, True)
    layer = run._per_layer(result)
    assert not any(name.startswith("radial.operator_coeffs") for name in layer)
    assert layer["quadrature.gauss_jacobi_rule.calls"] == 1
    assert layer["trace.overhead_frac"] == pytest.approx(0.1)


def test_request_time_is_divided_by_reference_loop():
    tally = run.Tally()
    for latency, ref_s in ((2.0, 0.010), (3.3, 0.011), (9.0, 0.020)):
        tally.add(latency, ref_s, None, False)
    tally.add(1.0, 0.001, "wrong eigenvalue", False)
    gated, wall = run._end_to_end({"tally": tally, "wall": 15.0, "setup_s": 0.2,
                                   "peak_rss_mb": 30.0})
    assert list(gated) == [name for name, _ in run.END_TO_END]
    assert gated["request_p50_norm"] == pytest.approx(300.0)
    assert wall["request_p50_s"] == 3.3
    assert wall["throughput_rps"] == pytest.approx(3 / 15.0)


def test_traced_and_plain_requests_agree(tmp_path):
    plain_values = wl.solve_request(2, 2, "pi/2")
    name = wl.stored_spectra()[0]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain_exits = wl.audit_request(wl.SPECTRA / name, tmp_path / "plain")
    recorder = spans.Recorder()
    with recorder.installed():
        recorder.request = 3
        traced_values = wl.solve_request(2, 2, "pi/2")
        traced_exits = wl.audit_request(wl.SPECTRA / name, tmp_path / "traced")
    assert traced_values == plain_values
    assert traced_exits == plain_exits == {"verify": 0, "compare": 0}
    for command in wl.AUDIT_COMMANDS:
        for suffix in (".csv", ".summary.json"):
            plain = (tmp_path / "plain" / f"{command}{suffix}").read_bytes()
            traced = (tmp_path / "traced" / f"{command}{suffix}").read_bytes()
            assert plain == traced

    metrics = recorder.metrics()
    assert metrics["spectral.solve_spectrum.calls"] == 1
    assert metrics["cli.main.calls"] == 2
    assert metrics["bounds.evaluate_predicate.calls"] > 0
    columns = recorder.spans()
    assert set(columns["request"]) == {3}
    for row, parent in enumerate(columns["parent"]):
        assert columns["start"][row] <= columns["end"][row]
        if parent >= 0:
            assert parent < row
            assert columns["start"][parent] <= columns["start"][row]
            assert columns["end"][row] <= columns["end"][parent]
    for func in spans.RULE, "bounds.implied_bound":
        assert metrics[f"{func}.self_s"] <= metrics[f"{func}.total_s"]


def test_merged_spans_keep_parents():
    part = {"names": ["a", "b"], "name": [0, 1], "start": [0.0, 0.1],
            "end": [1.0, 0.5], "parent": [-1, 0], "request": [0, 0]}
    total = {}
    spans.merge_spans(total, part)
    spans.merge_spans(total, dict(part, names=["b", "a"]))
    assert total["names"] == ["a", "b"]
    assert total["name"] == [0, 1, 1, 0]
    assert total["parent"] == [-1, 0, -1, 2]


def test_metric_lists_match_benchmark_json():
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
