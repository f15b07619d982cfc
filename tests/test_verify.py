"""Verification orchestration: bound checks and sharpness audit."""

import math
from pathlib import Path

import pytest

from capspec.bounds import EigenSequence, evaluate_bound, evaluate_families, family
from capspec.errors import BracketFailure, DomainError, GuardViolation, ValidationError
from capspec.io import read_spectrum
from capspec.spectral import Problem, SolverConfig, solve_spectrum
from capspec.verify import (
    SharpnessReport,
    VerificationReport,
    check_spectrum,
    compare_sharpness,
)


STORED = Path(__file__).resolve().parents[1] / "benchmark" / "data" / "spectra"


def buck(values, n=2, p=2):
    return EigenSequence(n=n, p=p, problem=Problem.BUCKLING, values=values)


SQRT_FAM = family("sphere-buckling-sqrt")


class TestCheckSpectrum:
    def test_synthetic_pass(self):
        report = check_spectrum(buck((1.0, 1.5)), [SQRT_FAM])
        assert isinstance(report, VerificationReport)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.k == 1 and row.actual == 1.5
        assert abs(row.result.bound - 2.0) < 1e-10
        assert abs(row.result.margin - 0.5) < 1e-10
        assert row.holds
        assert report.summary["violations"] == 0

    def test_synthetic_violation(self):
        # (1, 10) is not a genuine cap spectrum: the bound 2.0 is exceeded
        report = check_spectrum(buck((1.0, 10.0)), [SQRT_FAM])
        assert not report.rows[0].holds
        assert report.summary["violations"] == 1
        assert report.summary["min_margin"] < -7.9

    def test_computed_hemisphere_all_families(self):
        cfg = SolverConfig(n=2, p=2, theta0=math.pi / 2, problem=Problem.BUCKLING,
                           basis_size=16, requested_count=6)
        spec = solve_spectrum(cfg)
        fams = [family("sphere-buckling-sqrt"),
                family("sphere-buckling-quadratic"),
                family("sphere-buckling-gap"),
                family("sphere-buckling-sqrt-p2"),
                family("sphere-buckling-delta-opt")]
        report = check_spectrum(spec, fams)
        assert report.summary["violations"] == 0
        assert len(report.rows) == 5 * 5
        ks = [r.k for r in report.rows]
        assert ks == sorted(ks)

    def test_guard_violation(self):
        seq = buck((0.5, 0.9), n=3)
        with pytest.raises(GuardViolation):
            check_spectrum(seq, [SQRT_FAM])

    def test_guard_comes_before_every_row(self):
        # the sphere guard is checked for every family before any row: in
        # row order the first error would be euclidean-buckling's overflow
        # at k = 1 (BracketFailure, exit 3), not the guard (exit 2)
        seq = buck((0.5, 2.0, 3.0), n=3, p=10**400)
        fams = [family("euclidean-buckling"), SQRT_FAM]
        first, second = evaluate_families(fams, seq, [1])
        assert type(first[0]) is BracketFailure and type(second[0]) is GuardViolation
        with pytest.raises(GuardViolation, match="sphere-buckling-sqrt requires"):
            check_spectrum(seq, fams)

    def test_no_families_rejected(self):
        with pytest.raises(ValidationError):
            check_spectrum(buck((1.0, 1.5)), [])

    def test_rejects_non_spectrum_input(self):
        with pytest.raises(ValidationError):
            check_spectrum([1.0, 2.0], [SQRT_FAM])

    def test_errors_surface_in_row_order(self):
        # the quadratic family first fails at k = 2 (DomainError, exit 2), the
        # delta family at delta = 1e6 already at k = 1 (BracketFailure, exit
        # 3); rows run k ascending, so k = 1's error wins over family order
        seq = buck((2.001, 21.0, 22.0), n=4)
        quadratic = family("sphere-buckling-quadratic")
        delta = family("sphere-buckling-delta", delta=1e6)
        assert evaluate_bound(quadratic, seq, 1).bound > 2.0
        with pytest.raises(DomainError):
            evaluate_bound(quadratic, seq, 2)
        with pytest.raises(BracketFailure, match=r"delta\(1e\+06\)"):
            check_spectrum(seq, [quadratic, delta])
        with pytest.raises(BracketFailure):
            check_spectrum(seq, [delta, quadratic])
        with pytest.raises(DomainError):
            check_spectrum(buck((2.001, 21.0, 22.0), n=4), [quadratic])

    def test_summary_sharpest_counts(self):
        fams = [family("sphere-buckling-sqrt"),
                family("sphere-buckling-delta-opt")]
        report = check_spectrum(buck((1.0, 1.5)), fams)
        # on this input the sqrt family is strictly sharper (2.0 vs 2.25)
        assert report.summary["sharpest_family_counts"] == {
            "sphere-buckling-sqrt": 1}

    def test_sharpest_ties_go_to_the_earliest_family(self):
        # at p = 2 the sqrt family and its p2 twin are one formula, so their
        # bounds differ by rounding only (within 1e-12 relative; here each
        # twin is the least at 3 of the 6 k where they differ); every k
        # goes to whichever twin is listed first
        seq = read_spectrum(STORED / "n3-4pi_9.json").sequence()
        twins = [family("sphere-buckling-sqrt"), family("sphere-buckling-sqrt-p2")]
        rows = check_spectrum(seq, twins).rows
        pairs = [(a.result.bound, b.result.bound) for a, b in zip(rows[::2], rows[1::2])]
        assert any(a < b for a, b in pairs) and any(b < a for a, b in pairs)
        for order in (twins, twins[::-1]):
            report = check_spectrum(seq, order)
            assert report.summary["sharpest_family_counts"] == {
                order[0].name: len(seq) - 1}
        # a strictly sharper later family still wins
        report = check_spectrum(buck((1.0, 1.5)), [family("sphere-buckling-delta-opt"),
                                                   SQRT_FAM])
        assert report.summary["sharpest_family_counts"] == {"sphere-buckling-sqrt": 1}


class TestCompareSharpness:
    def test_synthetic(self):
        report = compare_sharpness(buck((1.0, 1.5)), delta_grid=(1e-3, 1e3, 16))
        assert isinstance(report, SharpnessReport)
        row = report.rows[0]
        sqrt, opt, p2 = (r.result for r in report.verification.rows)
        assert abs(sqrt.bound - 2.0) < 1e-9
        assert abs(p2.bound - 2.0) < 1e-9
        assert row.twins_agree
        assert abs(opt.bound - 2.25) < 1e-9
        assert abs(opt.aux["delta_star"] - 0.8) < 1e-4
        assert row.dominance_ok
        assert row.grid_min_bound >= opt.bound - 1e-9
        assert report.summary["twin_violations"] == 0
        assert report.summary["dominance_violations"] == 0

    def test_computed_spectrum(self):
        cfg = SolverConfig(n=3, p=2, theta0=math.pi / 2, problem=Problem.BUCKLING,
                           basis_size=16, requested_count=5)
        report = compare_sharpness(solve_spectrum(cfg), delta_grid=(1e-3, 1e3, 8))
        assert report.summary["twin_violations"] == 0
        assert report.summary["dominance_violations"] == 0
        assert len(report.rows) == 4

    def test_requires_order_two_buckling(self):
        with pytest.raises(ValidationError):
            compare_sharpness(buck((1.0, 1.5), p=3))
        with pytest.raises(ValidationError):
            compare_sharpness(
                EigenSequence(n=2, p=2, problem=Problem.CLAMPED, values=(1.0, 1.5)))

    def test_bad_grid(self):
        with pytest.raises(ValidationError):
            compare_sharpness(buck((1.0, 1.5)), delta_grid=(1.0, 0.5, 8))
        with pytest.raises(ValidationError):
            compare_sharpness(buck((1.0, 1.5)), delta_grid=(1e-3, 1e3, 1))

