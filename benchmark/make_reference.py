"""Regenerate the benchmark's stored inputs and reference outputs.

    python3 benchmark/make_reference.py

Writes data/spectra/*.json (the spectrum/1 files bounds-audit reads: p = 2
buckling, K = 8, one per dimension and cap) and data/reference.json (the
expanded eigenvalues of every (n, p, cap) the solve workloads can draw, and
the exit code, rows and violation counts of verify and compare on every
stored file). Run it only when the solver's output is meant to change, and
record that change with the commit.
"""

from __future__ import annotations

import json
import sys
import tempfile

import workloads as wl


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    from capspec import cli, io, spectral

    import run

    wl.SPECTRA.mkdir(parents=True, exist_ok=True)
    reference = {"environment": run.environment(), "solve": {}, "audit": {}}
    for n, p in wl.GRID:
        for cap in wl.CAPS:
            cfg = spectral.SolverConfig(n=n, p=p, theta0=cli.parse_theta0(cap),
                                        problem="buckling", basis_size=wl.BASIS,
                                        requested_count=wl.COUNT)
            spectrum = spectral.solve_spectrum(cfg)
            key = wl.solve_key(n, p, cap)
            reference["solve"][key] = [float(v) for v in spectrum.expanded_values()]
            if p == 2:
                io.write_spectrum(spectrum, wl.SPECTRA / f"n{n}-{cap.replace('/', '_')}.json")
            print(key, flush=True)
    run.OUT.mkdir(exist_ok=True)
    for name in wl.stored_spectra():
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            workdir = wl.Path(tmp)
            exits = wl.audit_request(wl.SPECTRA / name, workdir)
            reports = {command: wl.read_report(command, workdir, exits[command])
                       for command in wl.AUDIT_COMMANDS}
        if any(report["exit"] != 0 for report in reports.values()):
            raise SystemExit(f"{name}: audit exits {exits}; not a usable input")
        reference["audit"][name] = reports
        print(name, flush=True)
    with open(wl.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
