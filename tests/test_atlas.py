"""Bound families on a fixed atlas of genuine computed spectra.

The atlas is every cap of n = 2..5, clamped p = 1..3 and buckling p = 2..3,
theta0 in {0.6, pi/3, pi/2, 2pi/3, 2.6}, K = 10 at the default basis: 60
clamped and 40 buckling spectra, all of which solve. Every default family
must hold on every cap, and no cap may be refused. With lambda_1^(1/p) in
place of lambda_i^(1/p) in its trailing factor, sphere-clamped would refuse
25 of the 60 clamped caps (every p = 1 cap and every n = 2, p = 2 cap, with
DiscriminantNegative or DomainError).

The euclidean-* families are flat-space estimates and are recorded here,
not asserted. On this atlas euclidean-buckling-p2 (20 caps) and
euclidean-buckling (40 caps) hold everywhere; euclidean-clamped holds on 38
of 60 caps, has violations on 7 and raises DiscriminantNegative on 15;
euclidean-membrane holds on 7 of the 20 p = 1 caps, has violations on 2 and
raises DiscriminantNegative on 11.
"""

import math

import numpy as np
import pytest

from capspec.bounds import EigenSequence, default_families, delta_bounds, evaluate_bounds, family
from capspec.errors import CapspecError
from capspec.spectral import Problem, SolverConfig, solve_spectrum
from capspec.verify import check_spectrum

THETAS = (0.6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 2.6)
ORDERS = ((Problem.CLAMPED, (1, 2, 3)), (Problem.BUCKLING, (2, 3)))
CAPS = [(n, problem, p, theta0) for n in range(2, 6) for problem, ps in ORDERS
        for p in ps for theta0 in THETAS]
COUNT = 10
# every estimate must sit this far below the cap's least relative margin
ESTIMATE_TO_MARGIN = 1e-3
DELTA_GRID = np.logspace(-6, 6, 2401)


@pytest.fixture(scope="module")
def atlas():
    return {cap: solve_spectrum(SolverConfig(n=cap[0], p=cap[2], theta0=cap[3],
                                             problem=cap[1], requested_count=COUNT))
            for cap in CAPS}


@pytest.fixture(scope="module")
def checked_atlas(atlas):
    reports, refused = {}, {}
    for cap, spectrum in atlas.items():
        seq = EigenSequence.from_spectrum(spectrum)
        try:
            reports[cap] = check_spectrum(seq, default_families(seq))
        except CapspecError as exc:
            refused[cap] = type(exc).__name__
    return reports, refused


def test_default_families_hold_on_every_cap(checked_atlas):
    reports, refused = checked_atlas
    assert refused == {}
    assert len(reports) == 100
    assert {cap: r.summary["violations"] for cap, r in reports.items()
            if r.summary["violations"]} == {}


def test_clamped_estimates_are_far_below_the_margins(atlas, checked_atlas):
    reports, _ = checked_atlas
    for cap, spectrum in atlas.items():
        if cap[1] is not Problem.CLAMPED:
            continue
        margin = min((row.result.bound - row.actual) / row.actual
                     for row in reports[cap].rows
                     if row.result.family.name == "sphere-clamped")
        assert max(spectrum.diagnostics["convergence"]) <= ESTIMATE_TO_MARGIN * margin, cap


def test_delta_opt_finds_the_grid_minimum(atlas):
    # a second minimum in delta, away from the search's seed, would put the
    # delta-opt bound above the least bound of a fine grid
    fam = family("sphere-buckling-delta-opt")
    checked = 0
    for cap, spectrum in atlas.items():
        if cap[1] is not Problem.BUCKLING or cap[2] != 2:
            continue
        seq = EigenSequence.from_spectrum(spectrum)
        ks = np.arange(1, len(seq))
        grid_min = delta_bounds(seq, ks, DELTA_GRID).min(axis=1)
        for k, result, least in zip(ks, evaluate_bounds(fam, seq, ks), grid_min):
            assert result.bound <= (1.0 + 1e-12) * least, (cap, k)
            checked += 1
    assert checked == 20 * (COUNT - 1)
