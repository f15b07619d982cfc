"""One cold-solve request, or one set-up, in a fresh interpreter.

    python3 child.py RESULT_JSON 0|1 -- <capspec CLI arguments>
    python3 child.py RESULT_JSON setup -- <spectrum/1 files>

Imports capspec.cli and notes the moment it is ready. With 0 or 1 it then
times only the `capspec.cli.main` call, with the reference loop
(reference_loop.py) timed just before and just after it; with 1 the span
recorder runs inside this process. With `setup` it reads the given files
through `capspec.io.read_spectrum` and notes when that is done. RESULT_JSON
receives the ready time (and the done time) on a system-wide monotonic clock,
comparable with the parent's, the call time, the reference-loop time, the
exit code, any error, and the trace. The process exits with the CLI's exit
code.
"""

import json
import os
import sys
import time
from contextlib import ExitStack, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import capspec.cli  # noqa: E402

READY = time.perf_counter()


def setup(result_path: str, files: list) -> int:
    import capspec.io

    for name in files:
        capspec.io.read_spectrum(Path(name))
    done = time.perf_counter()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"ready": READY, "done": done}, handle)
    return 0


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    if mode == "setup":
        return setup(result_path, argv)
    import reference_loop

    trace = mode == "1"
    result = {"ready": READY, "exit": None, "error": None}
    recorder = None
    ref_before = reference_loop.loop_s()
    with ExitStack() as stack:
        if trace:
            import spans

            recorder = spans.Recorder()
            stack.enter_context(recorder.installed())
            recorder.request = 0
        sink = stack.enter_context(open(os.devnull, "w", encoding="utf-8"))
        stack.enter_context(redirect_stdout(sink))
        start = time.perf_counter()
        try:
            result["exit"] = capspec.cli.main(argv)
        except Exception as err:  # reported to the parent as a failed request
            result["error"] = f"{type(err).__name__}: {err}"
        result["call_s"] = time.perf_counter() - start
    result["ref_s"] = (ref_before + reference_loop.loop_s()) / 2
    if recorder is not None:
        result["metrics"] = recorder.metrics()
        result["spans"] = recorder.spans()
        result["absent"] = recorder.absent
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if result["error"] is not None:
        return 1
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
