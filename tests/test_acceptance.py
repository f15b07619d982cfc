"""End-to-end acceptance checks.

One test per numbered criterion. Each prints a single pass/fail line
(visible with pytest -s; the -v test status carries the same verdict) and
enforces its runtime budget. The buckling validity matrix is computed once
at module scope; its build time is charged to the criterion that mandates
it. Everything runs on the installed package plus numpy, with independent
oracles computed in the test layer.
"""

import math
import time

import numpy as np
import pytest

from oracles import bessel_first_zero

from capspec.bounds import (
    BracketFailure,
    EigenSequence,
    best_delta_bound,
    closed_form_bound,
    evaluate_predicate,
    family,
    implied_bound,
    quadratic_terms,
    sphere_buckling_factor,
)
from capspec.linalg import generalized_sym_eigen
from capspec.spectral import Problem, SolverConfig, convergence_study, solve_spectrum

THETAS = (math.pi / 3, math.pi / 2, 2 * math.pi / 3)
MATRIX_KEYS = [(n, p, th) for n in (2, 3, 4) for p in (2, 3) for th in THETAS]


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def validity_matrix():
    start = time.perf_counter()
    spectra = {}
    for n, p, th in MATRIX_KEYS:
        cfg = SolverConfig(n=n, p=p, theta0=th, problem=Problem.BUCKLING,
                           basis_size=32, requested_count=8)
        spectra[(n, p, th)] = solve_spectrum(cfg)
    return spectra, time.perf_counter() - start


def test_criterion_1_factor_reduction():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 10.0, 100.0, 1000.0):
        for n in range(2, 11):
            got = sphere_buckling_factor(lam, n, 2)
            worst = max(worst, abs(got - (lam + 1.0)) / (lam + 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hemisphere_closed_forms():
    start = time.perf_counter()
    cfg = SolverConfig(n=2, p=1, theta0=math.pi / 2, problem=Problem.CLAMPED,
                       basis_size=32, requested_count=6)
    got = solve_spectrum(cfg).expanded_values()
    want = np.array([2.0, 6.0, 6.0, 12.0, 12.0, 12.0])
    worst = float(np.max(np.abs(got - want) / want))

    cfg3 = SolverConfig(n=3, p=1, theta0=math.pi / 2, problem=Problem.CLAMPED,
                        basis_size=32, requested_count=1)
    lam1 = solve_spectrum(cfg3).expanded_values()[0]
    worst = max(worst, abs(lam1 - 3.0) / 3.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(2, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_flat_limit():
    start = time.perf_counter()
    theta0 = 0.05
    deviations = []
    for p, problem, nu in ((2, Problem.BUCKLING, 1), (1, Problem.CLAMPED, 0)):
        oracle = bessel_first_zero(nu) ** 2
        cfg = SolverConfig(n=2, p=p, theta0=theta0, problem=problem,
                           basis_size=32, requested_count=1)
        scaled = solve_spectrum(cfg).expanded_values()[0] * theta0**2
        deviations.append(abs(scaled - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = max(deviations) <= 0.01 and elapsed < 10.0
    assert report(3, ok, f"buckling dev {deviations[0]:.2e}, "
                         f"clamped dev {deviations[1]:.2e}, {elapsed:.2f}s")


def test_criterion_4_validity_matrix(validity_matrix):
    spectra, build_time = validity_matrix
    start = time.perf_counter()
    sqrt_fam = family("sphere-buckling-sqrt")
    quad_fam = family("sphere-buckling-quadratic")
    gap_fam = family("sphere-buckling-gap")
    worst_margin = math.inf
    worst_conv = 0.0
    checks = 0
    for key in MATRIX_KEYS:
        spec = spectra[key]
        worst_conv = max(worst_conv, max(spec.diagnostics["convergence"]))
        seq = EigenSequence.from_spectrum(spec)
        for k in range(1, 8):
            actual = seq.values[k]
            slack = 1e-8 * actual
            for fam, evaluate in ((sqrt_fam, implied_bound),
                                  (quad_fam, closed_form_bound),
                                  (gap_fam, closed_form_bound)):
                margin = evaluate(fam, seq, k).bound - actual
                worst_margin = min(worst_margin, margin / actual)
                checks += 1
                assert margin >= -slack, (key, k, fam.name, margin)
            pred = evaluate_predicate(quad_fam, seq, k, actual)
            checks += 1
            assert pred.lhs <= pred.rhs + 1e-8 * (abs(pred.lhs) + abs(pred.rhs)), \
                (key, k, "quadratic predicate")
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst_conv < 1e-7 and elapsed < 120.0
    assert report(4, ok, f"{checks} checks, worst rel margin {worst_margin:.2e}, "
                         f"worst conv {worst_conv:.2e}, {elapsed:.1f}s")


def test_criterion_5_twin_equality_and_dominance(validity_matrix):
    spectra, _ = validity_matrix
    start = time.perf_counter()
    thm = family("sphere-buckling-sqrt")
    p2 = family("sphere-buckling-sqrt-p2")
    grid = np.logspace(-3.0, 3.0, 32)
    worst_twin = 0.0
    worst_excess = -math.inf
    for key in MATRIX_KEYS:
        n, p, th = key
        if p != 2:
            continue
        seq = EigenSequence.from_spectrum(spectra[key])
        for k in range(1, 8):
            b_thm = implied_bound(thm, seq, k).bound
            b_p2 = implied_bound(p2, seq, k).bound
            worst_twin = max(worst_twin, abs(b_thm - b_p2) / b_thm)
            assert worst_twin <= 1e-10, (key, k)
            for delta in grid:
                try:
                    b_wx = implied_bound(family("sphere-buckling-delta",
                                                delta=float(delta)),
                                         seq, k).bound
                except BracketFailure:
                    continue
                excess = b_thm - b_wx - 1e-10 * max(1.0, b_thm)
                worst_excess = max(worst_excess, excess)
                assert excess <= 0.0, (key, k, delta)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    assert report(5, ok, f"worst twin gap {worst_twin:.2e}, "
                         f"worst dominance excess {worst_excess:.2e}, {elapsed:.1f}s")


def test_criterion_6_sphere_clamped_bound():
    start = time.perf_counter()
    fam = family("sphere-clamped")
    worst_margin = math.inf
    for p in (2, 3):
        cfg = SolverConfig(n=3, p=p, theta0=math.pi / 2, problem=Problem.CLAMPED,
                           basis_size=32, requested_count=8)
        seq = EigenSequence.from_spectrum(solve_spectrum(cfg))
        for k in range(1, 8):
            actual = seq.values[k]
            margin = closed_form_bound(fam, seq, k).bound - actual
            worst_margin = min(worst_margin, margin / actual)
            assert margin >= -1e-8 * actual, (p, k)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    assert report(6, ok, f"worst rel margin {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_7_kernel_oracles():
    start = time.perf_counter()
    # det(A - x B) = 0 expanded by hand: 2x^2 - 7x + 5 and
    # (2 - x)(2x^2 - 14x + 23)
    two = generalized_sym_eigen(np.array([[3.0, 1.0], [1.0, 2.0]]),
                                np.diag([2.0, 1.0])).values
    three = generalized_sym_eigen(
        np.array([[2.0, 0.0, 0.0], [0.0, 4.0, 1.0], [0.0, 1.0, 6.0]]),
        np.diag([1.0, 1.0, 2.0])).values
    hand_two = np.array([1.0, 2.5])
    hand_three = np.sort([2.0, (7.0 - math.sqrt(3.0)) / 2.0,
                          (7.0 + math.sqrt(3.0)) / 2.0])
    worst_hand = max(float(np.max(np.abs(two - hand_two) / hand_two)),
                     float(np.max(np.abs(three - hand_three) / hand_three)))

    rng = np.random.RandomState(77)
    g = rng.standard_normal((8, 8))
    a = (g + g.T) / 2.0
    h = rng.standard_normal((8, 8))
    b = h @ h.T + 8.0 * np.eye(8)
    values = generalized_sym_eigen(a, b).values
    trace_ref = float(np.trace(np.linalg.solve(b, a)))
    prod_ref = float(np.linalg.det(a) / np.linalg.det(b))
    trace_err = abs(values.sum() - trace_ref) / abs(trace_ref)
    prod_err = abs(np.prod(values) - prod_ref) / abs(prod_ref)

    elapsed = time.perf_counter() - start
    ok = worst_hand <= 1e-12 and max(trace_err, prod_err) <= 1e-8 and elapsed < 1.0
    assert report(7, ok, f"hand err {worst_hand:.2e}, trace err {trace_err:.2e}, "
                         f"product err {prod_err:.2e}, {elapsed:.2f}s")


def test_criterion_8_rayleigh_ritz_monotone():
    start = time.perf_counter()
    worst_jump = -math.inf
    for n in (2, 3, 4):
        for p in (2, 3):
            cfg = SolverConfig(n=n, p=p, theta0=math.pi / 2,
                               problem=Problem.BUCKLING, basis_size=32,
                               requested_count=8)
            study = convergence_study(cfg, (8, 16, 32))
            jumps = np.diff(study.values, axis=0)
            worst_jump = max(worst_jump, float(jumps.max()))
            assert jumps.max() <= 1e-10, (n, p)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    assert report(8, ok, f"worst jump {worst_jump:.2e}, {elapsed:.1f}s")


def test_criterion_9_hand_value_regression():
    start = time.perf_counter()
    one2 = EigenSequence(n=2, p=2, problem=Problem.BUCKLING, values=(1.0,))
    one2m = EigenSequence(n=2, p=1, problem=Problem.CLAMPED, values=(1.0,))
    one2c = EigenSequence(n=2, p=2, problem=Problem.CLAMPED, values=(1.0,))
    one2c3 = EigenSequence(n=2, p=3, problem=Problem.CLAMPED, values=(1.0,))
    two3 = EigenSequence(n=3, p=2, problem=Problem.BUCKLING, values=(2.0,))

    worst = 0.0

    def check(got, want):
        nonlocal worst
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))

    check(sphere_buckling_factor(5.0, 3, 2), 6.0)
    check(sphere_buckling_factor(1.0, 2, 2), 2.0)
    check(sphere_buckling_factor(4.0, 3, 3), 24.0)
    check(sphere_buckling_factor(27.0, 3, 4), 388.0)

    s, t = quadratic_terms(one2, 1)
    check(s, 1.5)
    check(t, 2.0)
    s, t = quadratic_terms(two3, 1)
    check(s, 3.125)
    check(t, 8.5)

    pred = evaluate_predicate(family("sphere-buckling-sqrt"), one2, 1, 2.0)
    check(pred.lhs, 2.0)
    check(pred.rhs, 2.0)
    assert pred.holds
    pred = evaluate_predicate(family("sphere-buckling-sqrt"), one2, 1, 3.0)
    check(pred.lhs, 8.0)
    check(pred.rhs, 4.0 * math.sqrt(2.0))
    assert not pred.holds

    check(implied_bound(family("sphere-buckling-sqrt"), one2, 1).bound, 2.0)
    check(implied_bound(family("sphere-buckling-sqrt-p2"), one2, 1).bound, 2.0)
    check(implied_bound(family("sphere-buckling-delta", delta=0.8),
                        one2, 1).bound, 2.25)
    check(closed_form_bound(family("sphere-buckling-quadratic"), one2, 1).bound, 2.0)
    check(closed_form_bound(family("sphere-buckling-quadratic"), two3, 1).bound, 4.25)
    check(closed_form_bound(family("sphere-buckling-gap"), one2, 1).bound, 2.0)
    check(closed_form_bound(family("euclidean-membrane"), one2m, 1).bound, 3.0)
    check(closed_form_bound(family("euclidean-clamped"), one2c, 1).bound, 9.0)
    check(closed_form_bound(family("euclidean-buckling-p2"), one2, 1).bound, 5.0)
    check(closed_form_bound(family("euclidean-buckling"), one2, 1).bound, 5.0)
    check(closed_form_bound(family("sphere-clamped"), one2c, 1).bound, 25.0)
    assert closed_form_bound(family("sphere-clamped"), one2c3, 1).bound > 0.0

    opt = best_delta_bound(one2, 1)
    check(opt.bound, 2.25)
    # delta* is the stationarity root of the delta bound's right side; at
    # n = 2 it is sqrt(H/M) at the quartic's root, within ~2e-12 of 0.8
    # here (the 1e-12 inequality slack), far inside this 1e-5 tolerance,
    # while bound values are held to 1e-10
    assert abs(opt.aux["delta_star"] - 0.8) <= 1e-5

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(9, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
