"""End-to-end checks: bounds against computed spectra, and sharpness
comparisons between families.

Computed eigenvalues are Rayleigh-Ritz values, hence upper approximations
of the true ones, while every bound family is stated for exact eigenvalues;
validity checks therefore apply a small relative slack (1e-8) and reports
carry the raw margins so callers can apply stricter gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    DELTA_OPT,
    SQRT,
    SQRT_P2,
    BoundFamily,
    BoundResult,
    EigenSequence,
    check_guard,
    delta_bounds,
    evaluate_families,
    family,
)
from .errors import ValidationError, _is_int, _items, _real
from .spectral import Problem, Spectrum

HOLDS_SLACK = 1e-8
TWIN_REL_TOL = 1e-10
DOMINANCE_SLACK = 1e-10
SHARPEST_TIE_REL = 1e-12
# the order-two estimates compare_sharpness reports, in their CSV row order
ORDER_TWO_FAMILIES = (SQRT, DELTA_OPT, SQRT_P2)
MAX_DELTA_GRID = 10_000


def _as_sequence(spec) -> EigenSequence:
    if isinstance(spec, Spectrum):
        return EigenSequence.from_spectrum(spec)
    if isinstance(spec, EigenSequence):
        return spec
    raise ValidationError(
        f"expected a Spectrum or EigenSequence, got {type(spec).__name__}"
    )


@dataclass(frozen=True)
class ReportRow:
    k: int
    actual: float
    result: BoundResult
    holds: bool


@dataclass(frozen=True)
class VerificationReport:
    sequence: EigenSequence
    families: tuple[BoundFamily, ...]
    rows: tuple[ReportRow, ...]
    summary: dict = field(compare=False)


def check_spectrum(spec, families) -> VerificationReport:
    """Evaluate each family's bound on every proper prefix and compare with
    the next computed eigenvalue.

    A row holds when actual <= bound + 1e-8 * actual. Rows are ordered k
    ascending, then families in the given order. The summary counts, per
    family, the k where its bound is least; bounds within 1e-12 relative of
    the least tie, and a tie goes to the earliest family. Sphere buckling
    families refuse sequences failing the ground-value guard
    (GuardViolation).
    """
    seq = _as_sequence(spec)
    families = _items(families, "bound families must be a list of BoundFamily records", BoundFamily)
    if not families:
        raise ValidationError("no bound families given")
    for fam in families:  # the guard comes before any row's error
        check_guard(fam, seq)
    ks = range(1, len(seq))
    # one all-prefix pass for every family; an error surfaces at its
    # (k, family) in row order, as a per-row evaluation would raise it
    per_family = evaluate_families(families, seq, ks, seq.values[1:])
    rows, sharpest = [], {}
    for k, results in zip(ks, zip(*per_family)):
        actual = seq.values[k]
        for result in results:
            if isinstance(result, Exception):
                raise result
            holds = actual <= result.bound + HOLDS_SLACK * actual
            rows.append(ReportRow(k=k, actual=actual, result=result, holds=holds))
        least = min(result.bound for result in results)
        # a bound within SHARPEST_TIE_REL of the least is a tie, which goes to
        # the earliest family, so rounding (the p = 2 sqrt twins) cannot flip it
        name = next(result.family.name for result in results
                    if result.bound <= least + SHARPEST_TIE_REL * abs(least))
        sharpest[name] = sharpest.get(name, 0) + 1
    summary = {
        "rows": len(rows),
        "violations": sum(1 for r in rows if not r.holds),
        "min_margin": min(r.result.margin for r in rows) if rows else float("nan"),
        "families": [str(f) for f in families],
        "sharpest_family_counts": sharpest,
    }
    return VerificationReport(sequence=seq, families=families,
                              rows=tuple(rows), summary=summary)


@dataclass(frozen=True)
class SharpnessRow:
    k: int
    twins_agree: bool
    grid_min_bound: float
    dominated_count: int  # grid points the sqrt family does not beat

    @property
    def dominance_ok(self) -> bool:
        return self.dominated_count == 0


@dataclass(frozen=True)
class SharpnessReport:
    delta_grid: tuple
    verification: VerificationReport  # the ORDER_TWO_FAMILIES check
    rows: tuple[SharpnessRow, ...]
    summary: dict = field(compare=False)


def compare_sharpness(spec, delta_grid=(1e-3, 1e3, 32)) -> SharpnessReport:
    """Order-two sharpness audit: check_spectrum on ORDER_TWO_FAMILIES, and
    on top of it the sqrt family must agree with its p = 2 twin to 1e-10
    relative and must not exceed the delta family at any grid delta (grid
    points with no finite implied bound count as +inf). The grid's ends
    are finite, 0 < LO < HI, and it has at most MAX_DELTA_GRID points.

    Violations are recorded in the summary, not raised; evaluator errors
    (domain guards etc.) propagate.
    """
    seq = _as_sequence(spec)
    if seq.p != 2 or seq.problem is not Problem.BUCKLING:
        raise ValidationError(
            f"sharpness comparison applies to order-2 buckling sequences, "
            f"got p = {seq.p} {seq.problem.value}"
        )
    lo, hi, count = grid = _items(delta_grid, "bad delta grid: need LO, HI, COUNT", count=3)
    message = f"bad delta grid {grid!r}: need finite 0 < LO < HI, COUNT >= 2"
    lo, hi = _real(lo, message), _real(hi, message)
    if not (_is_int(count) and 0.0 < lo < hi < math.inf and count >= 2):
        raise ValidationError(message)
    if count > MAX_DELTA_GRID:
        raise ValidationError(
            f"delta grid COUNT must be at most {MAX_DELTA_GRID}, got {count}")
    deltas = np.logspace(math.log10(lo), math.log10(hi), count)
    verification = check_spectrum(seq, map(family, ORDER_TWO_FAMILIES))
    sqrt_bound, _, p2_bound = np.array([r.result.bound for r in verification.rows]).reshape(-1, 3).T
    grid = delta_bounds(seq, np.arange(1, len(seq)), deltas)  # one row per k
    slack = DOMINANCE_SLACK * np.maximum(1.0, sqrt_bound)  # every bound is finite
    rows = [SharpnessRow(k=k, twins_agree=agree, grid_min_bound=least, dominated_count=count)
            for k, agree, least, count in zip(
                range(1, len(seq)),
                (abs(sqrt_bound - p2_bound) <= TWIN_REL_TOL * sqrt_bound).tolist(),
                grid.min(axis=1).tolist(),
                np.count_nonzero(sqrt_bound[:, None] > grid + slack[:, None], axis=1).tolist())]
    summary = {
        "rows": len(rows),
        "twin_violations": sum(1 for r in rows if not r.twins_agree),
        "dominance_violations": sum(1 for r in rows if not r.dominance_ok),
    }
    return SharpnessReport(delta_grid=(lo, hi, count), verification=verification,
                           rows=tuple(rows), summary=summary)
