"""capspec benchmark: three closed-loop workloads with one client each.

    python3 benchmark/run.py --workload cold-solve --seed 1 --seconds 55 --trace 0
    python3 benchmark/run.py --workload all --seed 1      # every workload in turn

Each request starts only after the previous one returns. One process works
at a time, with no threads beyond the ones numpy's BLAS starts. Requests go
through capspec's public entry points only, and every output is checked
against the stored reference (see workloads.py); a request that raises, exits
nonzero or misses the reference counts as failed.

Each request is timed together with a fixed reference loop run just before
and just after it in the same process (reference_loop.py); request_p50_norm
is the median of request time over reference-loop time, which holds steady
while the shared host's speed drifts. The raw wall-clock figures
(request_p50_s, throughput_rps) are printed too, but not gated.

With --trace 0 the run prints the end-to-end metrics. With --trace 1 it runs
every input twice, once plain and once with the span recorder installed,
alternating which goes first. It then prints the per-layer metrics of the
traced requests and trace.overhead_frac (traced time / plain time - 1), and
writes the spans to .bench_out/. Every run prints an environment record. The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import reference_loop
import spans
import workloads as wl

OUT = wl.ROOT / ".bench_out"
WORKLOADS = ("cold-solve", "solve-grid", "bounds-audit")
CHILD_TIMEOUT_S = 120
SHOWN_FAILURES = 5

END_TO_END = (
    ("request_p50_norm", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed by every untraced run, not gated: they follow the host's drift
WALL_CLOCK = (("request_p50_s", "s"), ("throughput_rps", "1/s"),
              ("reference_loop_s", "s"))

_LAYER_STATS = (
    ("quadrature.gauss_jacobi_rule", ("calls", "self_s", "distinct_keys")),
    ("radial.operator_coeffs", ("calls", "self_s")),
    ("spectral.assemble_mode", ("calls", "self_s")),
    ("linalg.generalized_sym_eigen", ("calls", "self_s", "order3_sum")),
    ("spectral.solve_spectrum", ("calls", "total_s", "self_s")),
    ("bounds.evaluate_predicate", ("calls", "self_s")),
    ("bounds.implied_bound", ("calls", "self_s")),
    ("bounds.best_delta_bound", ("calls", "self_s")),
    ("bounds.closed_form_bound", ("calls", "self_s")),
    ("verify.check_spectrum", ("total_s",)),
    ("verify.compare_sharpness", ("total_s",)),
    ("io.read_spectrum", ("calls", "self_s")),
    ("io.write_spectrum", ("calls", "self_s")),
    ("io.write_report_csv", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
          "distinct_keys": "count", "order3_sum": "count"}
PER_LAYER = tuple((f"{func}.{stat}", _UNITS[stat])
                  for func, stats in _LAYER_STATS for stat in stats)
PER_LAYER += (("trace.overhead_frac", "ratio"),)


class Tally:
    """Outcomes of the requests of one run."""

    def __init__(self):
        # (latency, reference-loop s) of plain requests that passed the gate
        self.passed = []
        self.failed_plain = []  # the same for plain requests that did not
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.attempted = 0
        self.failed = 0

    def add(self, latency: float, ref_s: float, reason: str | None, traced: bool):
        self.attempted += 1
        if traced:
            self.traced_s += latency
        else:
            self.plain_s += latency
        if reason is not None:
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"failed request: {reason}", file=sys.stderr)
            if not traced:
                self.failed_plain.append((latency, ref_s))
        elif not traced:
            self.passed.append((latency, ref_s))


def drive(seconds: float, plan, execute, trace: bool) -> tuple[Tally, float]:
    """Closed loop: take the next input and run it until `seconds` have
    passed (at least one input). execute(item, traced, request_id) returns
    (latency_s, reference-loop s around the request, failure reason or None)."""
    tally = Tally()
    start = time.perf_counter()
    rid = 0
    while rid == 0 or time.perf_counter() - start < seconds:
        item = next(plan)
        if not trace:
            modes = (False,)
        else:
            modes = (False, True) if rid % 2 == 0 else (True, False)
        for traced in modes:
            latency, ref_s, reason = execute(item, traced, rid)
            tally.add(latency, ref_s, reason, traced)
        rid += 1
    return tally, time.perf_counter() - start


def timed(call, recorder=None, rid=0):
    """(seconds, reference-loop s, result, error) of one in-process call,
    traced when a recorder is given. The reference loop runs just before and
    just after the call; its mean time is returned."""
    ref_before = reference_loop.loop_s()
    result = error = None
    with recorder.installed() if recorder is not None else nullcontext():
        if recorder is not None:
            recorder.request = rid
        start = time.perf_counter()
        try:
            result = call()
        except Exception as err:  # a failed request; the run goes on
            error = err
        latency = time.perf_counter() - start
    ref_s = (ref_before + reference_loop.loop_s()) / 2
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        error = f"{type(error).__name__}: {error}"
    return latency, ref_s, result, error


def cold_solve(seed: int, seconds: float, trace: bool) -> dict:
    """Each request is a fresh interpreter running `capspec solve`."""
    reference = wl.load_reference()
    plan = wl.cold_plan(seed)
    readies = []
    traced = {"metrics": {}, "spans": {}, "absent": []}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)

        def execute(cap, with_trace, rid):
            out = workdir / "spectrum.json"
            result_path = workdir / "result.json"
            for path in (out, result_path):
                path.unlink(missing_ok=True)
            cmd = [sys.executable, str(wl.HERE / "child.py"), str(result_path),
                   "1" if with_trace else "0", "--", *wl.solve_argv(cap, out)]
            spawn = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=wl.ROOT, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return (time.perf_counter() - spawn, reference_loop.loop_s(),
                        f"{cap}: no exit in {CHILD_TIMEOUT_S} s")
            try:
                with open(result_path, encoding="utf-8") as handle:
                    result = json.load(handle)
            except (OSError, ValueError):
                return (time.perf_counter() - spawn, reference_loop.loop_s(),
                        f"{cap}: exit {proc.returncode}, {proc.stderr.strip()[-400:]}")
            readies.append(result["ready"] - spawn)
            if with_trace:
                spans.merge_metrics(traced["metrics"], result["metrics"])
                part = result["spans"]
                part["request"] = [rid] * len(part["request"])
                spans.merge_spans(traced["spans"], part)
                traced["absent"] = result["absent"]
            latency, ref_s = result["call_s"], result["ref_s"]
            if result["error"] is not None:
                return latency, ref_s, f"{cap}: {result['error']}"
            if proc.returncode != 0:
                return latency, ref_s, f"{cap}: exit code {proc.returncode}"
            try:
                values = wl.expanded_values(out)
            except (OSError, ValueError, KeyError) as err:
                return latency, ref_s, f"{cap}: unreadable spectrum: {err!r}"
            return latency, ref_s, wl.check_values(reference, wl.solve_key(2, 2, cap),
                                                   values)

        tally, wall = drive(seconds, plan, execute, trace)
    return {
        "tally": tally,
        "wall": wall,
        # interpreter start plus `import capspec.cli`, per child
        "setup_s": statistics.median(readies) if readies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        **traced,
    }


def solve_grid(seed: int, seconds: float, trace: bool) -> dict:
    """The criterion-4 grid through spectral.solve_spectrum, rules warm."""
    start = time.perf_counter()
    import capspec.cli  # noqa: F401  (set-up includes the import)
    import capspec.spectral  # noqa: F401

    reference = wl.load_reference()
    warm, plan = wl.grid_plan(seed)
    for n, p, cap in warm:
        wl.solve_request(n, p, cap)
    setup = time.perf_counter() - start
    recorder = spans.Recorder() if trace else None

    def execute(item, with_trace, rid):
        n, p, cap = item
        key = wl.solve_key(n, p, cap)
        latency, ref_s, values, error = timed(lambda: wl.solve_request(n, p, cap),
                                              recorder if with_trace else None, rid)
        if error is not None:
            return latency, ref_s, f"{key}: {error}"
        return latency, ref_s, wl.check_values(reference, key, values)

    tally, wall = drive(seconds, plan, execute, trace)
    return _in_process_result(tally, wall, setup, recorder)


def bounds_audit(seed: int, seconds: float, trace: bool) -> dict:
    """`capspec verify` then `capspec compare` on stored spectrum files.

    Set-up (import and reading every stored file through capspec.io) is
    timed in a fresh process before each plain request, since a second import
    in this one costs nothing. Spread over the run like the children of
    cold-solve, their median does not hang on one moment of the host's
    speed. This process does the same work once, untimed."""
    files = [str(wl.SPECTRA / name) for name in wl.stored_spectra()]
    setups = []
    import capspec.cli  # noqa: F401
    import capspec.io

    reference = wl.load_reference()
    plan = wl.audit_plan(seed)
    for name in files:
        capspec.io.read_spectrum(Path(name))
    recorder = spans.Recorder() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)

        def execute(name, with_trace, rid):
            if not with_trace:
                setups.append(child_setup_s(files, workdir))
            latency, ref_s, exits, error = timed(
                lambda: wl.audit_request(wl.SPECTRA / name, workdir),
                recorder if with_trace else None, rid)
            if error is not None:
                return latency, ref_s, f"{name}: {error}"
            try:
                reports = {command: wl.read_report(command, workdir, exits[command])
                           for command in wl.AUDIT_COMMANDS}
            except (OSError, ValueError, KeyError) as err:
                return latency, ref_s, f"{name}: unreadable report: {err!r}"
            return latency, ref_s, wl.check_audit(reference, name, reports)

        tally, wall = drive(seconds, plan, execute, trace)
    return _in_process_result(tally, wall, statistics.median(setups), recorder)


def child_setup_s(files: list, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    capspec.cli and read `files` through capspec.io."""
    result_path = workdir / "setup.json"
    result_path.unlink(missing_ok=True)
    spawn = time.perf_counter()
    subprocess.run([sys.executable, str(wl.HERE / "child.py"), str(result_path),
                    "setup", "--", *files],
                   cwd=wl.ROOT, stdin=subprocess.DEVNULL, check=True,
                   timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)["done"] - spawn


def _in_process_result(tally, wall, setup, recorder) -> dict:
    out = {
        "tally": tally,
        "wall": wall,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        out.update(metrics=recorder.metrics(), spans=recorder.spans(),
                   absent=recorder.absent)
    return out


RUNNERS = {"cold-solve": cold_solve, "solve-grid": solve_grid,
           "bounds-audit": bounds_audit}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    """Machine and library record; results from different backends or BLAS
    set-ups are not comparable."""
    import numpy

    import capspec

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        # removed in a later change; read with getattr so the record survives
        "capspec_backend": getattr(capspec, "BACKEND", None),
    }


def _end_to_end(result: dict) -> tuple[dict, dict]:
    """(gated metrics, wall-clock figures) of an untraced run."""
    tally = result["tally"]
    # a run where every request failed (correct: false) still reports a number
    samples = tally.passed or tally.failed_plain
    passed = tally.attempted - tally.failed
    gated = {
        "request_p50_norm": statistics.median(lat / ref for lat, ref in samples),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {
        "request_p50_s": statistics.median(lat for lat, _ in samples),
        "throughput_rps": passed / result["wall"],
        "reference_loop_s": statistics.median(ref for _, ref in samples),
    }
    return gated, wall


def _per_layer(result: dict) -> dict:
    measured = result["metrics"]
    tally = result["tally"]
    measured["trace.overhead_frac"] = (
        tally.traced_s / tally.plain_s - 1.0 if tally.plain_s > 0 else float("nan"))
    return {name: measured[name] for name, _ in PER_LAYER if name in measured}


def layer_shares(measured: dict) -> dict:
    """Self time per layer (the module part of each name) and its share."""
    self_s = {}
    for key, value in measured.items():
        if key.endswith(".self_s"):
            layer = key.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + value
    total = sum(self_s.values())
    return {layer: (value, value / total if total else float("nan"))
            for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1])}


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    result = RUNNERS[args.workload](args.seed, args.seconds, args.trace == 1)
    env = environment()
    tally = result["tally"]
    units = dict(PER_LAYER if args.trace else END_TO_END + WALL_CLOCK)
    if args.trace:
        metrics, shown = _per_layer(result), {}
    else:
        metrics, shown = _end_to_end(result)
    for name, value in {**metrics, **shown}.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    frac = tally.failed / tally.attempted
    print(f"{args.workload} failed_frac {frac!r} ratio "
          f"({tally.failed} of {tally.attempted} requests)")
    if args.trace:
        for layer, (value, share) in layer_shares(result["metrics"]).items():
            print(f"{args.workload} layer {layer} self_s {value:.4f} share {share:.3f}")
        for name in result["absent"]:
            print(f"{args.workload} absent {name}")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": env, "absent": result["absent"],
                       "metrics": result["metrics"], "spans": result["spans"]},
                      handle)
        print(f"{args.workload} spans {path.relative_to(wl.ROOT)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other; the last
    line merges their results with metrics named '<workload>.<metric>'."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "capspec" / "__init__.py").is_file():
        print(f"error: no capspec sources under {wl.SRC}", file=sys.stderr)
        return 2
    if not wl.REFERENCE.is_file():
        print(f"error: missing reference outputs {wl.REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
