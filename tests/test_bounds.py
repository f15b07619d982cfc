"""Bound-family evaluators against hand-computed values.

Every numeric literal here was derived by hand arithmetic (the k = 1 cases
reduce to one-variable algebra; the factor values follow from direct
integer evaluation of the five terms).
"""

import contextlib
import io
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capspec.bounds import (
    FAMILY_NAMES,
    BoundResult,
    EigenSequence,
    best_delta_bound,
    closed_form_bound,
    default_families,
    delta_bounds,
    evaluate_bound,
    evaluate_families,
    evaluate_predicate,
    family,
    implied_bound,
    quadratic_terms,
    sphere_buckling_factor,
)
from capspec import bounds as bounds_module
from capspec.bounds import (
    _disc_roots,
    _first_positive,
    _positive_real_roots,
    _rowsum,
    _shifted_sum,
)
from capspec.errors import (
    BracketFailure,
    CapspecError,
    DiscriminantNegative,
    DomainError,
    FamilyMismatch,
    GuardViolation,
    ValidationError,
)
from capspec.cli import main as cli_main
from capspec.io import read_spectrum
from capspec.spectral import Problem, SolverConfig, solve_spectrum
from oracles import blocked_delta_closed_form, blocked_first_positive


def buck(values, n=2, p=2):
    return EigenSequence(n=n, p=p, problem=Problem.BUCKLING, values=values)


def clamp(values, n=2, p=2):
    return EigenSequence(n=n, p=p, problem=Problem.CLAMPED, values=values)


ONE = buck((1.0,))


def random_buckling_prefix(rng, n, k, spread=8.0):
    base = n - 2 + 0.3
    vals = base + np.cumsum(rng.uniform(0.2, spread, size=k))
    return buck(tuple(vals), n=n)


class TestFactor:
    def test_hand_values(self):
        assert sphere_buckling_factor(5, 3, 2) == 6.0
        assert sphere_buckling_factor(1, 2, 2) == 2.0
        # p = 3, t = 2: terms 6 + 15 - 1 + 4 + 0
        assert sphere_buckling_factor(4, 3, 3) == 24.0
        # p = 4, t = 3: terms 52 + 162 - 6 + 144 + 36
        assert sphere_buckling_factor(27, 3, 4) == 388.0

    def test_reduces_to_shift_at_order_two(self):
        for lam in (0.5, 1.0, 10.0, 100.0, 1000.0):
            for n in range(2, 11):
                got = sphere_buckling_factor(lam, n, 2)
                assert abs(got - (lam + 1.0)) < 1e-12 * (lam + 1.0)

    def test_float_coefficients_match_exact_integers(self):
        # the float form's bits are those of the exact-integer one it
        # replaced, at every order a solve can have
        def integer_form(lam, n, p):
            t = lam ** (1.0 / (p - 1))
            total = ((t + n) ** (p - 1) - (t - n + 2) ** (p - 1)) / (2 * (n - 1))
            total += n / (n - 1) * t * (t + n) ** (p - 2)
            total -= 1 / (n - 1) * t * (t - n + 2) ** (p - 2)
            c4, c5 = 2 ** (p - 1) - p, 2 ** (p - 2) - (p - 1)
            total += 2 * c4 * t * (t + n) ** (p - 3) if c4 else 0
            total += 4 * c5 * t * t * (t + n) ** (p - 4) if c5 else 0
            return total

        for p in range(2, 65):
            for n in (2, 3, 7):
                for lam in (n - 1.5 if n > 2 else 0.5, 12.25, 3.0e4):
                    assert sphere_buckling_factor(lam, n, p) == integer_form(lam, n, p)

    @pytest.mark.parametrize("p", [600, 1100, 10**9, 10**400])
    def test_overflow_is_bracket_failure(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketFailure, match="overflows the float range"):
                sphere_buckling_factor(5.0, 3, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_buckling_factor(0.0, 2, 2)
        with pytest.raises(DomainError):
            sphere_buckling_factor(-1.0, 3, 3)
        with pytest.raises(ValidationError):
            sphere_buckling_factor(1.0, 1, 2)
        with pytest.raises(ValidationError):
            sphere_buckling_factor(1.0, 2, 1)


class TestQuadraticTerms:
    def test_hand_values(self):
        assert quadratic_terms(ONE, 1) == (1.5, 2.0)
        # identical entries average to the same pair
        assert quadratic_terms(buck((1.0, 1.0)), 2) == (1.5, 2.0)
        # n = 3: g(2) = 3 - 2 = 1, h(2) = 2.25
        assert quadratic_terms(buck((2.0,), n=3), 1) == (3.125, 8.5)

    def test_guard(self):
        with pytest.raises(DomainError):
            quadratic_terms(buck((0.5,), n=3), 1)

    def test_problem_mismatch(self):
        with pytest.raises(FamilyMismatch):
            quadratic_terms(clamp((1.0,)), 1)


class TestPredicates:
    def test_trivial_candidate(self):
        got = evaluate_predicate(family("sphere-buckling-sqrt"), ONE, 1, 1.0)
        assert (got.lhs, got.rhs, got.holds) == (0.0, 0.0, True)

    def test_candidate_at_largest_always_trivial(self):
        # k = 1 with candidate = largest value zeroes both sides in every
        # predicate family
        fams = [family("sphere-buckling-sqrt"),
                family("sphere-buckling-quadratic"),
                family("sphere-buckling-delta", delta=0.7),
                family("sphere-buckling-sqrt-p2")]
        for fam in fams:
            got = evaluate_predicate(fam, buck((3.5,)), 1, 3.5)
            assert (got.lhs, got.rhs, got.holds) == (0.0, 0.0, True)

    def test_sqrt_family_hand_values(self):
        fam = family("sphere-buckling-sqrt")
        eq = evaluate_predicate(fam, ONE, 1, 2.0)
        assert abs(eq.lhs - 2.0) < 1e-12 and abs(eq.rhs - 2.0) < 1e-12
        assert eq.holds
        fail = evaluate_predicate(fam, ONE, 1, 3.0)
        assert abs(fail.lhs - 8.0) < 1e-12
        assert abs(fail.rhs - 4.0 * math.sqrt(2.0)) < 1e-12
        assert not fail.holds

    def test_delta_family_equality_point(self):
        fam = family("sphere-buckling-delta", delta=0.8)
        got = evaluate_predicate(fam, ONE, 1, 2.25)
        assert abs(got.lhs - 3.125) < 1e-12
        assert abs(got.rhs - 3.125) < 1e-11
        assert got.holds

    def test_quadratic_family_equality_point(self):
        got = evaluate_predicate(family("sphere-buckling-quadratic"), ONE, 1, 2.0)
        assert abs(got.lhs - 1.0) < 1e-12 and abs(got.rhs - 1.0) < 1e-12

    def test_candidate_below_largest_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_predicate(family("sphere-buckling-sqrt"), buck((2.0,)), 1, 1.5)

    def test_p2_family_requires_order_two(self):
        with pytest.raises(FamilyMismatch):
            evaluate_predicate(family("sphere-buckling-sqrt-p2"),
                               buck((5.0,), p=3), 1, 5.0)

    def test_no_predicate_for_closed_families(self):
        with pytest.raises(FamilyMismatch):
            evaluate_predicate(family("euclidean-membrane"),
                               clamp((1.0,), p=1), 1, 1.0)


class TestImpliedBounds:
    def test_sqrt_family(self):
        got = implied_bound(family("sphere-buckling-sqrt"), ONE, 1)
        assert abs(got.bound - 2.0) < 1e-10

    def test_p2_twin(self):
        got = implied_bound(family("sphere-buckling-sqrt-p2"), ONE, 1)
        assert abs(got.bound - 2.0) < 1e-10

    def test_twins_agree_on_random_prefixes(self):
        # at p = 2 the two sqrt families are term-by-term identical
        rng = np.random.RandomState(3)
        for _ in range(12):
            n = int(rng.choice([2, 3, 4]))
            k = int(rng.randint(1, 6))
            seq = random_buckling_prefix(rng, n, k)
            a = implied_bound(family("sphere-buckling-sqrt"), seq, k).bound
            b = implied_bound(family("sphere-buckling-sqrt-p2"), seq, k).bound
            assert abs(a - b) < 1e-10 * a

    def test_delta_family(self):
        fam = family("sphere-buckling-delta", delta=0.8)
        got = implied_bound(fam, ONE, 1)
        assert abs(got.bound - 2.25) < 1e-10
        assert got.aux["delta"] == 0.8

    def test_bracket_failure_for_huge_delta(self):
        with pytest.raises(BracketFailure):
            implied_bound(family("sphere-buckling-delta", delta=1e6), ONE, 1)

    def test_failure_at_lambda_k_needs_no_root(self):
        # (1, 1e30) at p = 3 fails the sqrt predicate at Lambda_k itself;
        # its quartic spans 60 decades and loses the small roots, so only
        # the probe at x = 0 sees the failure
        seq = buck((1.0, 1e30), p=3)
        fam = family("sphere-buckling-sqrt")
        assert not evaluate_predicate(fam, seq, 2, 1e30).holds
        assert implied_bound(fam, seq, 2).bound == 1e30

    @pytest.mark.parametrize("name", ["sphere-buckling-sqrt", "sphere-buckling-sqrt-p2"])
    def test_bracket_failure_when_sqrt_coefficients_overflow(self, name):
        # the quartic's coefficients of (1e300,) pass the float range; they
        # are refused before np.roots, which raises LinAlgError on inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BracketFailure, match="overflow"):
                implied_bound(family(name), buck((1e300,)), 1)

    def test_bound_never_below_largest(self):
        rng = np.random.RandomState(5)
        for _ in range(8):
            n = int(rng.choice([2, 3]))
            k = int(rng.randint(1, 5))
            seq = random_buckling_prefix(rng, n, k)
            got = implied_bound(family("sphere-buckling-sqrt"), seq, k)
            assert got.bound >= seq.values[k - 1]

    def test_monotone_in_each_eigenvalue(self):
        rng = np.random.RandomState(9)
        for _ in range(10):
            n = int(rng.choice([2, 3, 4]))
            k = int(rng.randint(1, 6))
            seq = random_buckling_prefix(rng, n, k)
            i = int(rng.randint(0, k))
            pert = list(seq.values)
            room = pert[i + 1] - pert[i] if i + 1 < len(pert) else pert[i]
            pert[i] += min(0.01 * pert[i], 0.49 * room)
            seq2 = buck(tuple(pert), n=n)
            b1 = implied_bound(family("sphere-buckling-sqrt"), seq, k).bound
            b2 = implied_bound(family("sphere-buckling-sqrt"), seq2, k).bound
            assert b2 >= b1 - 1e-11 * b1


def bisected_bound(fam, seq, k, rel=1e-13):
    """Reference implied bound straight from the predicate: the first
    failing candidate on the geometric scan Lambda_k (1 + 2^j),
    j = -40 .. 63, then Lambda_k 2^64, refined by bisection to relative
    width rel; inf when the predicate holds at every scan point."""
    lam_k = seq.values[k - 1]
    scan = [lam_k * (1.0 + 2.0**j) for j in range(-40, 64)] + [lam_k * 2.0**64]

    def holds(c):
        return evaluate_predicate(fam, seq, k, c).holds

    lo = lam_k
    for hi in scan:
        if not holds(hi):
            break
        lo = hi
    else:
        return math.inf
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return hi


def bound_or_inf(fam, seq, k):
    try:
        return evaluate_bound(fam, seq, k).bound
    except BracketFailure:
        return math.inf


def exact_delta_excess(values, n, delta, candidate):
    """(1-eps) lhs - (1+eps) rhs of the delta family's predicate at the
    candidate, eps = INEQ_SLACK, in exact rational arithmetic on the given
    floats; positive exactly where the predicate fails."""
    c, d = Fraction(candidate), Fraction(delta)
    eps = Fraction(bounds_module.INEQ_SLACK)
    lhs = rhs = Fraction(0)
    for lam in map(Fraction, values):
        diff = c - lam
        weight = lam + (lam - (n - 2)) / (4 * (lam + (n - 2) / d))
        lhs += 2 * diff * diff
        rhs += diff * diff * d * weight + diff * (lam + Fraction((n - 2) ** 2, 4)) / d
    return (1 - eps) * lhs - (1 + eps) * rhs


class TestRootsAgainstBisection:
    def test_random_prefixes(self):
        rng = np.random.RandomState(21)
        deltas = np.logspace(-6, 6, 13)
        checked = failures = 0
        for _ in range(24):
            n = int(rng.choice([2, 3, 4]))
            p = int(rng.choice([2, 3]))
            k = int(rng.randint(1, 7))
            base = n - 2 + rng.uniform(0.05, 3.0)
            vals = base + np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 8.0, k - 1))])
            seq = buck(tuple(vals), n=n, p=p)
            fams = [family("sphere-buckling-sqrt")]
            if p == 2:
                fams.append(family("sphere-buckling-sqrt-p2"))
                fams += [family("sphere-buckling-delta", delta=d) for d in deltas]
            for fam in fams:
                want = bisected_bound(fam, seq, k)
                got = bound_or_inf(fam, seq, k)
                checked += 1
                if math.isinf(want):
                    failures += 1
                    assert math.isinf(got), (fam, seq.values)
                else:
                    assert abs(got - want) <= 1e-11 * want, (fam, seq.values)
        assert failures and checked > 150

    def test_delta_array_matches_scalar_bounds(self):
        rng = np.random.RandomState(8)
        deltas = np.logspace(-6, 6, 25)
        for _ in range(6):
            n = int(rng.choice([2, 3, 4]))
            k = int(rng.randint(1, 6))
            seq = random_buckling_prefix(rng, n, k)
            got = delta_bounds(seq, k, deltas)
            want = np.array([bound_or_inf(family("sphere-buckling-delta", delta=d),
                                          seq, k) for d in deltas])
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=0.0)

    def test_extreme_deltas_stay_finite_arithmetic(self):
        # the n = 2 delta weight must not cancel to 0/0 for delta lambda
        # below 1e-16, nor its sums overflow for delta near 1e307 or 1/delta
        # for subnormal delta
        deltas = np.append(np.logspace(-307, 307, 41), [1e-320, 5e-324])
        for n in (2, 3, 4):
            seq = random_buckling_prefix(np.random.RandomState(n), n, 5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = delta_bounds(seq, 5, deltas)
            assert not np.isnan(got).any()
            assert np.all(got >= seq.values[4])

    def test_first_positive_every_case(self):
        # (a, b, c) of a x^2 + b x + c and the first x >= 0 where it is > 0
        cases = [
            ((1.0, 0.0, 2.0), 0.0),     # positive at 0
            ((1.0, 0.0, -1.0), 1.0),    # convex: the upper root
            ((1.0, -1.0, 0.0), 1.0),
            ((1.0, 1.0, 0.0), 0.0),     # convex, rises from a root at 0
            ((-1.0, 3.0, -2.0), 1.0),   # concave, positive on (1, 2)
            ((-1.0, 1.0, 0.0), 0.0),    # concave, positive on (0, 1)
            ((-1.0, -1.0, -1.0), math.inf),
            ((-1.0, 1.0, -1.0), math.inf),  # concave, never reaches 0
            ((-1.0, 2.0, -1.0), math.inf),  # touches 0 at 1 only
            ((0.0, 2.0, -1.0), 0.5),    # linear
            ((0.0, -1.0, -1.0), math.inf),
            ((0.0, 0.0, 0.0), math.inf),
            ((1e300, -1e300, -2e300), 2.0),  # scaled before squaring
        ]
        coeffs = np.array([c for c, _ in cases]).T
        got = _first_positive(*coeffs)
        assert got.tolist() == pytest.approx([want for _, want in cases], rel=1e-15)

    @pytest.mark.parametrize("values,n,delta", [
        ((1e-300,), 2, 4.0),  # its coefficients once underflowed to 1.125e-300
        ((1e-300,), 2, 0.25),
        ((1e-200, 2e-200, 3e-200), 2, 0.25),
        ((1.0,), 2, 0.8),
        ((6.0, 10.7, 10.7), 2, 0.1),
        ((1.5, 2.0, 2.5), 3, 0.5),
        ((2.5, 3.0, 3.2), 4, 0.25),
    ])
    def test_delta_closed_form_against_exact_predicate(self, values, n, delta):
        # the predicate, in exact rational arithmetic, holds just below the
        # closed-form bound and fails just above it
        seq = buck(values, n=n)
        bound = float(delta_bounds(seq, len(values), [delta])[0])
        assert bound > values[-1] * (1.0 + 1e-6)
        assert exact_delta_excess(values, n, delta, bound * (1.0 - 1e-11)) <= 0
        assert exact_delta_excess(values, n, delta, bound * (1.0 + 1e-11)) > 0

    def test_delta_array_validated(self):
        with pytest.raises(ValidationError):
            delta_bounds(ONE, 1, [0.5, 0.0])
        with pytest.raises(ValidationError):
            delta_bounds(ONE, 1, [math.inf])
        with pytest.raises(FamilyMismatch):
            delta_bounds(buck((5.0,), p=3), 1, [0.5])


SQRT_FAMILY = family("sphere-buckling-sqrt")


@st.composite
def any_prefixes(draw):
    """An order-2 buckling prefix that passes the sphere guard."""
    n = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 5))
    vals = [n - 2 + draw(st.floats(0.05, 50.0))]
    for _ in range(k - 1):
        vals.append(vals[-1] + draw(st.floats(0.0, 50.0)))
    return buck(tuple(vals), n=n), k


def sqrt_consistent(seq):
    """Every eigenvalue after the first lies at or below the sqrt family's
    bound from the ones before it, as in any genuine spectrum."""
    return all(seq.values[j] <= bound_or_inf(SQRT_FAMILY, seq, j)
               for j in range(1, len(seq)))


@st.composite
def raised_prefixes(draw):
    """A sqrt-consistent order-2 buckling prefix and a copy with one
    eigenvalue raised, still ascending."""
    n = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 5))
    vals = [n - 2 + draw(st.floats(0.05, 50.0))]
    for j in range(1, k):
        cap = bound_or_inf(SQRT_FAMILY, buck(tuple(vals), n=n), j)
        vals.append(vals[-1] + draw(st.floats(0.0, 1.0)) * (cap - vals[-1]))
    i = draw(st.integers(0, k - 1))
    ceiling = vals[i + 1] if i + 1 < k else 1.5 * vals[i]
    raised = list(vals)
    raised[i] = min(vals[i] + draw(st.floats(0.0, 1.0)) * (ceiling - vals[i]), ceiling)
    return buck(tuple(vals), n=n), buck(tuple(raised), n=n), k


def delta_families():
    return st.floats(-3.0, 3.0).map(
        lambda log_d: family("sphere-buckling-delta", delta=10.0**log_d))


class TestBoundProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=any_prefixes(), fam=st.one_of(
        st.sampled_from(["sphere-buckling-sqrt", "sphere-buckling-sqrt-p2",
                         "sphere-buckling-delta-opt"]).map(family),
        delta_families()))
    def test_never_below_lambda_k(self, case, fam):
        seq, k = case
        assert bound_or_inf(fam, seq, k) >= seq.values[k - 1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=raised_prefixes(), fam=st.one_of(
        st.just(family("sphere-buckling-delta-opt")), delta_families()))
    def test_delta_families_monotone(self, case, fam):
        # on prefixes that are not sqrt-consistent the delta predicate can
        # fail right at Lambda_k, and raising an eigenvalue can then lower
        # the bound: (1, 2) -> (1, 3) at n = 2 takes delta = 1 from 5.16 to 3
        seq, raised, k = case
        assume(sqrt_consistent(raised))
        before = bound_or_inf(fam, seq, k)
        after = bound_or_inf(fam, raised, k)
        if math.isinf(before):
            assert math.isinf(after)
        else:
            assert after >= before - 1e-11 * before

    def test_sqrt_family_not_monotone(self):
        # recorded counterexample, not a code fault: raising the last of
        # four sqrt-consistent eigenvalues lowers the sqrt family's bound,
        # so the property above is not asserted for the sqrt twins
        fam = family("sphere-buckling-sqrt")
        low = buck((0.875, 1.640625, 1.640625, 1.869))
        high = buck((0.875, 1.640625, 1.640625, 2.8))
        assert sqrt_consistent(low) and sqrt_consistent(high)
        assert implied_bound(fam, high, 4).bound < implied_bound(fam, low, 4).bound - 0.1


def lambda_one_tail_bound(values, n=2, p=2):
    """Referee: the sphere-clamped bound at k = len(values) with the first
    eigenvalue's lambda_1^(1/p) + n^2/4 in every trailing factor."""
    k = len(values)
    tail = values[0] ** (1.0 / p) + n * n / 4.0
    coeffs = []
    for lam in values:
        root = lam ** (1.0 / p)
        bracket = (root + n) ** p - lam + 4.0 * (2**p - p - 1) * root * (root + n) ** (p - 2)
        coeffs.append(4.0 / (n * n) * bracket * tail)
    s = sum(values) / k + sum(coeffs) / (2 * k)
    t = sum(v * v for v in values) / k + sum(v * c for v, c in zip(values, coeffs)) / k
    return s + math.sqrt(s * s - t)


class TestClosedForms:
    def test_quadratic_family(self):
        got = closed_form_bound(family("sphere-buckling-quadratic"), ONE, 1)
        assert got.bound == 2.0
        assert got.aux == {"S": 1.5, "T": 2.0}

    def test_gap_family(self):
        got = closed_form_bound(family("sphere-buckling-gap"), ONE, 1)
        assert got.bound == 2.0

    def test_gap_equals_quadratic_at_first_step(self):
        # k = 1: S - Lambda_1 = g h / 2 = sqrt(S^2 - T) exactly
        rng = np.random.RandomState(2)
        for _ in range(8):
            n = int(rng.choice([2, 3, 4]))
            seq = random_buckling_prefix(rng, n, 1)
            a = closed_form_bound(family("sphere-buckling-quadratic"), seq, 1).bound
            b = closed_form_bound(family("sphere-buckling-gap"), seq, 1).bound
            assert abs(a - b) < 1e-10 * a

    def test_n3_hand_value(self):
        got = closed_form_bound(family("sphere-buckling-quadratic"),
                                buck((2.0,), n=3), 1)
        # S = 3.125, disc = 1.265625, root 1.125
        assert abs(got.bound - 4.25) < 1e-12

    def test_membrane_family(self):
        got = closed_form_bound(family("euclidean-membrane"), clamp((1.0,), p=1), 1)
        assert got.bound == 3.0

    def test_euclidean_clamped_family(self):
        got = closed_form_bound(family("euclidean-clamped"), clamp((1.0,)), 1)
        assert got.bound == 9.0

    def test_euclidean_clamped_reduces_to_membrane_at_order_one(self):
        rng = np.random.RandomState(4)
        vals = tuple(np.sort(1.0 + 0.3 * rng.rand(4)))
        a = closed_form_bound(family("euclidean-clamped"), clamp(vals, p=1), 4).bound
        b = closed_form_bound(family("euclidean-membrane"), clamp(vals, p=1), 4).bound
        assert abs(a - b) < 1e-12 * a

    def test_euclidean_buckling_families(self):
        a = closed_form_bound(family("euclidean-buckling-p2"), ONE, 1)
        b = closed_form_bound(family("euclidean-buckling"), ONE, 1)
        assert a.bound == 5.0 and b.bound == 5.0

    def test_euclidean_buckling_reduction_at_order_two(self):
        rng = np.random.RandomState(6)
        vals = tuple(np.sort(2.0 + 0.5 * rng.rand(5)))
        a = closed_form_bound(family("euclidean-buckling-p2"), buck(vals), 5).bound
        b = closed_form_bound(family("euclidean-buckling"), buck(vals), 5).bound
        assert abs(a - b) < 1e-12 * a

    def test_sphere_clamped_family(self):
        got = closed_form_bound(family("sphere-clamped"), clamp((1.0,)), 1)
        # bracket (1+2)^2 - 1 + 4 (2^2 - 3) = 12, tail 1 + 1 = 2, k = 1 root
        assert got.bound == 25.0

    def test_sphere_clamped_variant_switch(self):
        # the family's trailing factor is lambda_i^(1/p) + n^2/4; the
        # lambda_1 form agrees at k = 1 and claims strictly more after it
        fam = family("sphere-clamped")
        assert closed_form_bound(fam, clamp((1.0,)), 1).bound == 25.0
        assert lambda_one_tail_bound((1.0,)) == 25.0
        got = closed_form_bound(fam, clamp((1.0, 2.0)), 2).bound
        assert got == 31.870279446340927
        assert got > lambda_one_tail_bound((1.0, 2.0))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sphere_clamped_coefficient_at_every_scale(self, n, p):
        # referee: the coefficient 4/n^2 ((r + n)^p - lambda
        # + 4 (2^p - p - 1) r (r + n)^(p-2)) (r + n^2/4), r = lambda^(1/p), in
        # 400 digits; the bracket (r + n)^p - lambda, of size ~p n r^(p-1),
        # must not cancel against lambda once r is large (1e-9 allows the
        # 2^20 cancellation where the direct form is still used)
        mpmath = pytest.importorskip("mpmath")
        lams = [10.0**e for e in (0, 5, 12, 22, 30, 45, 47, 100, 200, 300)]
        got = bounds_module._root_coeffs(family("sphere-clamped"), np.array(lams), n, p)
        with mpmath.workdps(400):
            for lam, value in zip(lams, got):
                r = mpmath.mpf(lam) ** (mpmath.mpf(1) / p)
                bracket = (r + n) ** p - lam + 4 * (2**p - p - 1) * r * (r + n) ** (p - 2)
                want = 4 * bracket * (r + mpmath.mpf(n * n) / 4) / (n * n)
                assert abs(value - want) <= 1e-9 * want, lam

    def test_sphere_clamped_margins_keep_their_scale(self):
        # lambda theta0^(2p) tends to a constant as the cap shrinks, so the
        # relative margins of the n = 2, p = 3 clamped spectrum at
        # theta0 = 1e-7 (lambda up to 2.5e47) equal those at 1e-2 to 4 digits
        def margins(theta0):
            spec = solve_spectrum(SolverConfig(n=2, p=3, theta0=theta0,
                                               problem=Problem.CLAMPED, requested_count=8))
            values = spec.expanded_values()
            rows = evaluate_families([family("sphere-clamped")], clamp(tuple(values), p=3),
                                     range(1, 8))[0]
            assert not any(isinstance(row, CapspecError) for row in rows), rows
            return np.array([row.bound for row in rows]) / values[1:] - 1.0

        small, wide = margins(1e-7), margins(1e-2)
        assert np.all(small > 0.0)
        assert np.max(np.abs(small - wide) / wide) <= 1e-4

    def test_monotone_in_each_eigenvalue(self):
        rng = np.random.RandomState(13)
        for fam_name in ("sphere-buckling-quadratic", "sphere-buckling-gap"):
            for _ in range(8):
                n = int(rng.choice([2, 3]))
                k = int(rng.randint(1, 5))
                seq = random_buckling_prefix(rng, n, k)
                pert = list(seq.values)
                pert[-1] *= 1.01
                seq2 = buck(tuple(pert), n=n)
                b1 = closed_form_bound(family(fam_name), seq, k).bound
                b2 = closed_form_bound(family(fam_name), seq2, k).bound
                assert b2 >= b1 - 1e-11 * b1

    def test_discriminant_negative(self):
        with pytest.raises(DiscriminantNegative):
            closed_form_bound(family("sphere-buckling-quadratic"),
                              buck((0.2, 1.0)), 2)

    def test_euclidean_failures_do_not_blame_the_input(self):
        # on the genuine n = 5, p = 1 clamped spectrum of the pi/3 cap the
        # flat-space membrane inequality has no real root at k = 2 and 9 and
        # bounds below Lambda_k at k = 7 and 8; the texts name the family's
        # domain, and a sphere family's keep blaming the input
        cfg = SolverConfig(n=5, p=1, theta0=math.pi / 3, problem=Problem.CLAMPED,
                           requested_count=10)
        seq = EigenSequence.from_spectrum(solve_spectrum(cfg))
        flat = "euclidean-membrane is a flat-space inequality and need not hold on a cap"
        results = evaluate_families([family("euclidean-membrane")], seq, range(1, 11))[0]
        kinds = {type(r) for r in results if isinstance(r, CapspecError)}
        assert kinds == {DiscriminantNegative, DomainError}
        for r in results:
            if isinstance(r, CapspecError):
                assert str(r).endswith(flat) and "genuine" not in str(r)
        assert str(results[6]) == f"bound 44.8347 fell below the k-th eigenvalue 45; {flat}"
        with pytest.raises(DiscriminantNegative, match="cannot be a genuine eigenvalue prefix"):
            closed_form_bound(family("sphere-buckling-quadratic"), buck((0.2, 1.0)), 2)

    @pytest.mark.parametrize("name", ["sphere-buckling-quadratic", "sphere-buckling-gap",
                                      "euclidean-buckling", "euclidean-buckling-p2"])
    def test_overflowing_sums_refused(self, name):
        # S and T of (1e300, 2e300) overflow to inf and S^2 - T to NaN,
        # which neither the discriminant test nor the below-Lambda_k test
        # sees; the non-finite sums are refused, without a warning, at
        # every prefix
        seq = buck((1e300, 2e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BracketFailure, match="overflow"):
                closed_form_bound(family(name), seq, 2)
            results = evaluate_families([family(name)], seq, [1, 2])[0]
        assert all(isinstance(r, BracketFailure) for r in results)

    @pytest.mark.parametrize("name", ["sphere-buckling-quadratic", "sphere-buckling-gap"])
    def test_bound_finite_where_only_s_squared_overflows(self, name):
        # S = 5e199 and T = 1e300 are finite, S^2 is not; the root is taken
        # as |S| sqrt(1 - T/S^2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = closed_form_bound(family(name), buck((1e100, 2e100)), 1)
        assert got.bound == 1e200
        assert got.aux == {"S": 5e199, "T": 1e300}

    def test_discriminant_clamp_window(self):
        _, root, negative = _disc_roots(np.ones(2), np.array([1.0 + 5e-13, 1.0 + 5e-12]))
        assert root[0] == 0.0
        assert negative.tolist() == [False, True]


class TestDeltaOptimizer:
    def test_hand_value(self):
        got = best_delta_bound(ONE, 1)
        assert abs(got.bound - 2.25) < 1e-10
        assert abs(got.aux["delta_star"] - 0.8) < 1e-5

    def test_never_beats_grid_points(self):
        got = best_delta_bound(ONE, 1).bound
        for delta in (0.3, 0.5, 0.8, 1.0, 1.3):
            fixed = implied_bound(family("sphere-buckling-delta", delta=delta),
                                  ONE, 1).bound
            assert got <= fixed + 1e-10

    def test_dominated_by_sqrt_family(self):
        # the delta-free family is sharper on this input: 2.0 <= 2.25
        sqrt_bound = implied_bound(family("sphere-buckling-sqrt"), ONE, 1).bound
        opt = best_delta_bound(ONE, 1).bound
        assert sqrt_bound <= opt + 1e-10


STORED = Path(__file__).resolve().parents[1] / "benchmark" / "data" / "spectra"
MAX_CLOSED_FORMS = 16  # closed-form evaluations one delta-opt bound may make


def stored_prefixes():
    """(file name, sequence, k) for every prefix of every stored spectrum."""
    out = []
    for path in sorted(STORED.glob("*.json")):
        seq = read_spectrum(path).sequence()
        out += [(path.name, seq, k) for k in range(1, len(seq))]
    return out


def golden_section_delta_opt(seq, k):
    """Reference delta-opt bound by search: the closed form on a 64-point
    log10 grid on [1e-6, 1e6] seeds a golden-section search in log10 delta,
    stopped at width 1e-8. Returns (bound, delta_star); BracketFailure when
    every grid point is infinite."""
    grid = np.linspace(-6.0, 6.0, 64)
    values = delta_bounds(seq, k, 10.0**grid)
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise BracketFailure("no finite delta bound on the grid")

    def bound_at(log_delta):
        return float(delta_bounds(seq, k, [10.0**log_delta])[0])

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = bound_at(c), bound_at(d)
    while b - a > 1e-8:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = bound_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = bound_at(d)
    log_star = c if fc <= fd else d
    return bound_at(log_star), 10.0**log_star


@contextlib.contextmanager
def counted_closed_forms():
    """Yields a list that gets one entry per closed-form delta evaluation:
    the prefix lengths that call evaluated, one per row."""
    calls = []
    real = bounds_module._delta_closed_form

    def counting(terms, deltas):
        calls.append(terms.pre.lengths.tolist())
        return real(terms, deltas)

    with mock.patch.object(bounds_module, "_delta_closed_form", counting):
        yield calls


def delta_opt_checked(seq, k):
    """best_delta_bound against the golden-section referee, for any prefix:
    BracketFailure in exactly the referee's cases; otherwise at most
    MAX_CLOSED_FORMS closed-form evaluations, a bound that is the closed
    form at the reported delta_star and never above the referee's. Returns
    (result, referee bound, referee delta_star), or None on BracketFailure."""
    try:
        want, want_star = golden_section_delta_opt(seq, k)
    except BracketFailure:
        with pytest.raises(BracketFailure):
            best_delta_bound(seq, k)
        return None
    with counted_closed_forms() as calls:
        got = best_delta_bound(seq, k)
    assert len(calls) <= MAX_CLOSED_FORMS, seq.values[:k]
    star = got.aux["delta_star"]
    assert 1e-6 <= star <= 1e6
    assert got.bound == float(delta_bounds(seq, k, [star])[0])
    assert got.bound <= want * (1.0 + 1e-12), seq.values[:k]
    return got, want, want_star


def assert_matches_referee(got, want, want_star, lam_k):
    """Two-sided agreement where the referee's minimum is interior and
    unique: the golden section stops 1e-8 short of a range end, and where
    the bound is Lambda_k itself a whole interval of delta attains it."""
    if got.aux["delta_star"] in (1e-6, 1e6) or want <= lam_k * (1.0 + 1e-12):
        return
    assert got.bound >= want * (1.0 - 1e-10)
    assert abs(math.log10(got.aux["delta_star"] / want_star)) <= 1e-6


@st.composite
def scaled_prefixes(draw):
    """An order-2 buckling prefix scaled by up to 10^7.5, far enough for the
    optimal delta to fall below 1e-6 or for no delta to give a bound."""
    seq, k = draw(any_prefixes())
    scale = 10.0 ** draw(st.floats(0.0, 7.5))
    shift = seq.n - 2
    return buck(tuple(shift + scale * (v - shift) for v in seq.values), n=seq.n), k


class TestDeltaOptAgainstGoldenSection:
    def test_stored_spectra(self):
        for name, seq, k in stored_prefixes():
            got, want, want_star = delta_opt_checked(seq, k)
            assert got.bound >= want * (1.0 - 1e-10), (name, k)
            assert abs(math.log10(got.aux["delta_star"] / want_star)) <= 1e-6, (name, k)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=any_prefixes())
    def test_random_prefixes(self, case):
        seq, k = case
        checked = delta_opt_checked(seq, k)
        if checked is not None and sqrt_consistent(seq):
            assert_matches_referee(*checked, seq.values[k - 1])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=scaled_prefixes())
    def test_scaled_prefixes(self, case):
        seq, k = case
        checked = delta_opt_checked(seq, k)
        if checked is not None and sqrt_consistent(seq):
            assert_matches_referee(*checked, seq.values[k - 1])

    def test_search_misses_a_narrow_window(self):
        # recorded case, not sqrt-consistent: the delta bound is 42.5 at
        # delta ~ 0.18 and Lambda_k itself on a window near delta = 1/3
        # between two deltas with no finite bound; the 64-point grid steps
        # over the window, while at n = 2 the quartic finds it
        seq = buck((0.5110755712964452, 3.084522952106665, 3.333644830639533,
                    8.594448125295653, 11.342960900238838, 14.841230966510512))
        want, _ = golden_section_delta_opt(seq, 6)
        got = best_delta_bound(seq, 6)
        assert want > 42.0
        assert got.bound == seq.values[5]
        assert abs(got.aux["delta_star"] - 1.0 / 3.0) < 1e-3


class TestDeltaOptEdges:
    def test_clamped_to_lower_end(self):
        for n in (2, 3, 4):
            seq = buck((1.5e6,), n=n)
            got = best_delta_bound(seq, 1)
            at_end = delta_bounds(seq, 1, [1e-6, 1.01e-6])
            assert got.aux["delta_star"] == 1e-6
            assert got.bound == at_end[0] < at_end[1]

    def test_clamped_to_upper_end(self, monkeypatch):
        # a valid prefix's optimal delta stays below 4 (1 / (lambda + 1/4)
        # at n = 2, k = 1), so the upper end is exercised on a narrowed range
        monkeypatch.setattr(bounds_module, "DELTA_LOG_RANGE", (-6.0, -1.0))
        for n, lam in ((2, 1.0), (3, 2.0), (4, 3.0)):
            seq = buck((lam,), n=n)
            got = best_delta_bound(seq, 1)
            at_end = delta_bounds(seq, 1, [0.099, 0.1])
            assert got.aux["delta_star"] == 0.1
            assert got.bound == at_end[1] < at_end[0]

    def test_bracket_failure_without_any_finite_bound(self):
        deltas = np.logspace(-6.0, 6.0, 241)
        for n in (2, 3, 4):
            for values in ((1e7,), (3e6, 4e6), (1e25,)):
                seq = buck(values, n=n)
                k = len(values)
                assert np.all(np.isinf(delta_bounds(seq, k, deltas)))
                with pytest.raises(BracketFailure):
                    best_delta_bound(seq, k)

    def test_n2_optimum_is_sqrt_h_over_m(self):
        # at n = 2 the weights lambda + 1/4 do not depend on delta: delta* is
        # sqrt(H / M) at the quartic's root, and one closed form suffices
        for name, seq, k in stored_prefixes():
            if seq.n != 2:
                continue
            with counted_closed_forms() as calls:
                got = best_delta_bound(seq, k)
            prefix = np.array(seq.values[:k])
            d = got.bound - prefix
            h_sum = np.dot(prefix, d)
            m_sum = np.dot(prefix + 0.25, d * d)
            assert got.aux["delta_star"] == pytest.approx(math.sqrt(h_sum / m_sum),
                                                          rel=1e-9), (name, k)
            assert len(calls) == 1, (name, k)

    def test_failure_at_lambda_k_needs_no_root(self):
        # (1, 1e30) fails the delta predicate at Lambda_k itself; its seed
        # quartic spans 30 decades, where np.roots misplaces the small roots
        got = best_delta_bound(buck((1.0, 1e30)), 2)
        assert got.bound == 1e30
        assert got.aux["delta_star"] == 1e-6

    def test_extreme_prefixes_stay_finite_arithmetic(self):
        # no RuntimeWarning and no exception from scalar arithmetic: every
        # case ends in a bound >= Lambda_k or in BracketFailure
        cases = [((1e-300,), 2), ((1e-10, 1.0), 2), ((1.0, 1e30), 2),
                 ((1.5, 1e100), 3), ((5.0,) * 7, 4), ((1e150,), 3),
                 ((1e300, 1e300), 2), ((1.000000000000001,), 3),
                 ((2.000000000000001, 2.000000000000001, 5.0), 4),
                 ((2.0, 2.0000000000001), 3), ((1.5, 1e5), 3)]
        outcomes = set()
        for values, n in cases:
            seq = buck(values, n=n)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    got = best_delta_bound(seq, len(values))
                except BracketFailure:
                    outcomes.add("none")
                    continue
            assert math.isfinite(got.bound) and got.bound >= values[-1], values
            outcomes.add("bound")
        assert outcomes == {"bound", "none"}
        # sums past the float range (the closed form itself overflows and
        # warns here) end in BracketFailure, not in np.roots' LinAlgError
        with np.errstate(over="ignore"), pytest.raises(BracketFailure):
            best_delta_bound(buck((1e308, 1.5e308)), 2)


class TestDispatcherAndOrdering:
    def test_dispatcher_matches_direct_calls(self):
        assert evaluate_bound(family("sphere-buckling-sqrt"), ONE, 1).bound == \
            implied_bound(family("sphere-buckling-sqrt"), ONE, 1).bound
        assert evaluate_bound(family("sphere-buckling-quadratic"), ONE, 1).bound == \
            closed_form_bound(family("sphere-buckling-quadratic"), ONE, 1).bound
        assert abs(evaluate_bound(family("sphere-buckling-delta-opt"), ONE, 1).bound
                   - 2.25) < 1e-10

    def test_margin(self):
        got = evaluate_bound(family("sphere-buckling-sqrt"), ONE, 1, actual=1.5)
        assert isinstance(got, BoundResult)
        assert abs(got.margin - 0.5) < 1e-10
        assert evaluate_bound(family("sphere-buckling-sqrt"), ONE, 1).margin is None

    def test_quadratic_dominates_sqrt_on_tested_prefixes(self):
        # observed ordering on genuine-looking inputs; recorded, not a theorem
        rng = np.random.RandomState(17)
        for _ in range(10):
            n = int(rng.choice([2, 3, 4]))
            k = int(rng.randint(1, 6))
            seq = random_buckling_prefix(rng, n, k)
            t = implied_bound(family("sphere-buckling-sqrt"), seq, k).bound
            c = closed_form_bound(family("sphere-buckling-quadratic"), seq, k).bound
            assert c >= t - 1e-9 * t

    def test_family_declaration_order(self):
        assert FAMILY_NAMES == (
            "sphere-buckling-sqrt",
            "sphere-buckling-quadratic",
            "sphere-buckling-gap",
            "sphere-buckling-delta",
            "sphere-buckling-delta-opt",
            "sphere-buckling-sqrt-p2",
            "sphere-clamped",
            "euclidean-membrane",
            "euclidean-clamped",
            "euclidean-buckling-p2",
            "euclidean-buckling",
        )

    @pytest.mark.parametrize("problem,p,names", [
        (Problem.CLAMPED, 1, ["sphere-clamped"]),
        (Problem.CLAMPED, 2, ["sphere-clamped"]),
        (Problem.CLAMPED, 3, ["sphere-clamped"]),
        (Problem.BUCKLING, 2, ["sphere-buckling-sqrt", "sphere-buckling-quadratic",
                               "sphere-buckling-gap", "sphere-buckling-delta-opt",
                               "sphere-buckling-sqrt-p2"]),
        (Problem.BUCKLING, 3, ["sphere-buckling-sqrt", "sphere-buckling-quadratic",
                               "sphere-buckling-gap"]),
        (Problem.BUCKLING, 4, ["sphere-buckling-sqrt", "sphere-buckling-quadratic",
                               "sphere-buckling-gap"]),
    ])
    def test_default_families(self, problem, p, names):
        # the sphere families verify checks when none are named
        seq = EigenSequence(n=3, p=p, problem=problem, values=(2.0, 3.0))
        assert default_families(seq) == [family(name) for name in names]


class TestSequencesAndFamilies:
    def test_sequence_validation(self):
        with pytest.raises(ValidationError):
            EigenSequence(n=2, p=2, problem=Problem.BUCKLING, values=())
        with pytest.raises(ValidationError):
            buck((2.0, 1.0))
        with pytest.raises(ValidationError):
            buck((-1.0, 1.0))
        with pytest.raises(ValidationError):
            buck((1.0,), p=1)
        with pytest.raises(ValidationError):
            buck((1.0,), n=1)

    def test_from_spectrum(self):
        from capspec.spectral import SolverConfig, solve_spectrum
        cfg = SolverConfig(n=2, p=2, theta0=math.pi / 2, problem=Problem.BUCKLING,
                           basis_size=12, requested_count=4)
        spec = solve_spectrum(cfg)
        seq = EigenSequence.from_spectrum(spec)
        assert len(seq) == 4
        assert seq.values == tuple(spec.expanded_values())
        assert EigenSequence.from_spectrum(spec, 2).values == seq.values[:2]

    def test_prefix_bounds_checked(self):
        for k in (2, 0, 1.0, [1], np.array([[1]])):
            for fam in (family("sphere-buckling-sqrt"), family("sphere-buckling-gap"),
                        family("sphere-buckling-delta-opt")):
                with pytest.raises(ValidationError, match="prefix length"):
                    evaluate_bound(fam, ONE, k)

    def test_bool_prefix_lengths_refused(self):
        # numpy reads True as 1, and inside a list [True, 2] as integers
        seq = buck((6.0, 10.5, 17.0, 20.0))
        sqrt = family("sphere-buckling-sqrt")
        message = re.escape("prefix length must be in 1..4")
        for k in (True, False, np.True_, [True], (1, False), np.array([True, True])):
            with pytest.raises(ValidationError, match=message):
                implied_bound(sqrt, seq, k)
            with pytest.raises(ValidationError, match=message):
                best_delta_bound(seq, k)
            with pytest.raises(ValidationError, match=message):
                quadratic_terms(seq, k)
            with pytest.raises(ValidationError, match=message):
                delta_bounds(seq, k, [1.0])
            for fam in (sqrt, family("sphere-buckling-quadratic")):
                with pytest.raises(ValidationError, match=message):
                    evaluate_predicate(fam, seq, k, 21.0)
        for ks in ([True, 2], (2, np.True_), [[True, 2]]):
            rows = evaluate_families([sqrt], seq, ks)[0]
            assert all(isinstance(row, ValidationError) and re.match(message, str(row))
                       for row in rows), ks
            with pytest.raises(ValidationError, match=message):
                evaluate_predicate(sqrt, seq, ks, 21.0)
        assert evaluate_families([sqrt], seq, [1, 2])[0][0].k == 1

    def test_family_construction_errors(self):
        with pytest.raises(ValidationError):
            family("no-such-family")
        with pytest.raises(ValidationError):
            family("sphere-buckling-delta")
        with pytest.raises(ValidationError):
            family("sphere-buckling-delta", delta=-1.0)
        with pytest.raises(ValidationError):
            family("sphere-buckling-sqrt", delta=0.5)

    def test_problem_mismatch_is_typed(self):
        with pytest.raises(FamilyMismatch):
            evaluate_bound(family("sphere-buckling-sqrt"), clamp((1.0,)), 1)
        with pytest.raises(FamilyMismatch):
            evaluate_bound(family("sphere-clamped"), ONE, 1)


def per_k_outcome(fam, seq, k):
    try:
        return evaluate_bound(fam, seq, k)
    except CapspecError as error:
        return error


def buckling_families(delta):
    """Every family that applies to an order-2 buckling sequence."""
    return [family(name, delta=delta if name == "sphere-buckling-delta" else None)
            for name in FAMILY_NAMES if "buckling" in name]


def assert_rows_are_per_k_calls(seq, delta):
    """Every family's all-prefix pass against one call per prefix, bitwise:
    the same bound and aux, or an error of the same class and message."""
    ks = range(1, len(seq) + 1)
    for fam in buckling_families(delta):
        rows = evaluate_families([fam], seq, ks)[0]
        assert len(rows) == len(ks)
        for k, row in zip(ks, rows):
            one = per_k_outcome(fam, seq, k)
            if isinstance(one, CapspecError):
                assert type(row) is type(one) and str(row) == str(one), (fam, k)
            else:
                assert (row.k, row.bound, row.aux) == (k, one.bound, one.aux), (fam, k)
    grid = np.logspace(-3.0, 3.0, 32)
    every_k = delta_bounds(seq, np.arange(1, len(seq) + 1), grid)
    for k in ks:
        assert np.array_equal(every_k[k - 1], delta_bounds(seq, k, grid)), k


class TestAllPrefixPass:
    def test_stored_spectra(self):
        for path in sorted(STORED.glob("*.json")):
            assert_rows_are_per_k_calls(read_spectrum(path).sequence(), 0.01)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=any_prefixes(), delta=st.floats(1e-3, 1e3))
    def test_random_prefixes(self, case, delta):
        assert_rows_are_per_k_calls(case[0], delta)

    def test_positive_roots_strip_zeros_as_np_roots(self):
        # a stack of polynomials with leading and trailing zero coefficients
        # (the k = 1 quartic ends in three) gives each row np.roots' positive
        # real roots, with no spurious breakpoints near 0
        rng = np.random.RandomState(4)
        stack = np.concatenate([
            [[1.0, -3.0, 2.0, 0.0, 0.0], [2.0, -5.0, 0.0, 0.0, 0.0],
             [0.0, 1.0, -6.0, 11.0, -6.0], [0.0, 0.0, 0.0, 1.0, 4.0],
             [0.0, 0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0, 0.0]],
            rng.standard_normal((20, 5))])
        got = bounds_module._positive_real_roots(stack)
        for row, coeffs in zip(got, stack):
            roots = np.roots(coeffs)
            real = roots[np.abs(roots.imag) <= 1e-8 * np.abs(roots)].real
            assert np.array_equal(np.sort(row[~np.isnan(row)]), np.sort(real[real > 0.0]))

    def test_whole_family_errors_fill_every_row(self):
        rows = evaluate_families([family("sphere-clamped")], buck((1.0, 2.0, 3.0)), [1, 2])[0]
        assert len(rows) == 2 and all(isinstance(r, FamilyMismatch) for r in rows)

    def test_delta_opt_budget_holds_per_prefix(self):
        # the lockstep searches evaluate each open prefix once per round, so
        # every prefix still makes at most MAX_CLOSED_FORMS evaluations
        for path in sorted(STORED.glob("*.json")):
            seq = read_spectrum(path).sequence()
            with counted_closed_forms() as calls:
                evaluate_families([family("sphere-buckling-delta-opt")], seq,
                                  range(1, len(seq)))
            for k in range(1, len(seq)):
                assert 1 <= sum(row.count(k) for row in calls) <= MAX_CLOSED_FORMS


def referee_quadratic_terms(seq, pre):
    """The (S, T) sums of the quadratic and gap families as they were formed
    apart from the other closed-form families."""
    vals, k = pre.values, pre.lengths
    gh = seq.coeff_g * bounds_module._coeff_h(vals, seq.n)
    s = _rowsum(pre.masked(vals)) / k + _rowsum(pre.masked(gh)) / (2 * k)
    t = _rowsum(pre.masked(vals**2)) / k + _rowsum(pre.masked(vals * gh)) / k
    return s, t


def referee_sqrt_bounds(fam, seq, pre):
    """The sqrt families' bounds as they were searched: the intervals are
    cut at the positive real roots of the quartic and of G (where the
    max(G, 0) clamp of the predicate's right side sets in), with no probe
    at x = 0 of its own.

    G's roots are not needed. For x >= 0, L and H are non-negative, so
    (1-eps) L <= 2 (1+eps) sqrt(max(G, 0)) sqrt(H) fails exactly where the
    quartic (1-eps)^2 L^2 - 4 (1+eps)^2 G H is positive: where G < 0 the
    quartic is at least (1-eps)^2 L^2. The verdict can change only at a
    root of the quartic, and a root of G never begins a failing interval."""
    e = pre.shifts()
    w, g, h = bounds_module._sqrt_weights(fam, seq, pre.values)
    with np.errstate(over="ignore", invalid="ignore"):
        gsum = _shifted_sum(pre.masked(g), e, 2)
        quartic = bounds_module._slack_quartic(
            _shifted_sum(pre.masked(w), e, 2), gsum, _shifted_sum(pre.masked(h), e, 1))
    finite = np.isfinite(quartic).all(axis=1) & np.isfinite(gsum).all(axis=1)
    edges = np.sort(np.concatenate([_positive_real_roots(quartic[finite]),
                                    _positive_real_roots(gsum[finite])], axis=1), axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.nan
    edges = np.sort(edges, axis=1)
    lefts = np.concatenate([np.zeros((len(edges), 1)), edges], axis=1)
    rights = np.concatenate([edges, np.full((len(edges), 1), np.nan)], axis=1)
    last = pre.last[finite, None]
    probes = np.where(np.isnan(rights), lefts + np.maximum(np.maximum(lefts, last), 1.0),
                      0.5 * (lefts + rights))
    with np.errstate(over="ignore"):
        live = last + lefts <= last * 2.0**bounds_module.LIMIT_LOG2
        rows, cols = np.nonzero(live)
        fails = np.zeros(live.shape, dtype=bool)
        fails[rows, cols] = ~evaluate_predicate(fam, seq, pre.lengths[finite][rows],
                                                (last + probes)[rows, cols]).holds
    first = np.argmax(fails, axis=1)
    bounds = np.full(len(finite), math.nan)
    bounds[finite] = np.where(fails.any(axis=1),
                              last[:, 0] + lefts[np.arange(len(first)), first], math.inf)
    return bounds


def outcome_keys(rows):
    """Every prefix's (k, bound bits, aux bits), or its error's class and
    message."""
    return [(type(row).__name__, str(row)) if isinstance(row, CapspecError)
            else (row.k, row.bound.hex(), {key: v.hex() for key, v in row.aux.items()})
            for row in rows]


def assert_referees_agree(seq):
    """The sqrt, quadratic and gap families, evaluated together, bitwise
    against the same call with the referees building the sqrt families'
    bounds (in place of their rows of the shared search) and the shared
    (S, T). Each referee must have run, and (S, T) once for both closed
    forms; otherwise the call would be compared with itself."""
    names = ["sphere-buckling-sqrt", "sphere-buckling-quadratic", "sphere-buckling-gap"]
    if seq.p == 2:
        names.append("sphere-buckling-sqrt-p2")
    fams, ks, ran = list(map(family, names)), range(1, len(seq) + 1), []

    def sqrt_rows(fam, seq, pre):
        ran.append(fam.name)
        return referee_sqrt_bounds(fam, seq, pre)
        yield  # a row builder that adds no rows to the shared search

    def st_terms(fam, seq, pre):
        ran.append("S, T")
        return referee_quadratic_terms(seq, pre)

    with mock.patch.object(bounds_module, "_sqrt_bounds", sqrt_rows), \
            mock.patch.object(bounds_module, "_st_terms", st_terms):
        want = [outcome_keys(rows) for rows in evaluate_families(fams, seq, ks)]
    assert sorted(ran) == sorted(["S, T"] + [name for name in names if "sqrt" in name])
    assert [outcome_keys(rows) for rows in evaluate_families(fams, seq, ks)] == want, \
        seq.values


@st.composite
def wide_prefixes(draw):
    """A buckling sequence of 2 to 5 values for n = 2..5 and p = 2, 3 that
    passes the sphere guard, its distances above n - 2 scaled by 1e-3..1e8."""
    n = draw(st.integers(2, 5))
    steps = [draw(st.floats(0.05, 3.0))] + draw(st.lists(st.floats(0.0, 8.0),
                                                         min_size=1, max_size=4))
    scale = 10.0 ** draw(st.floats(-3.0, 8.0))
    return buck(tuple(n - 2 + scale * np.cumsum(steps)), n=n, p=draw(st.sampled_from([2, 3])))


class TestRefereesForFoldedPaths:
    def test_stored_spectra(self):
        for path in sorted(STORED.glob("*.json")):
            assert_referees_agree(read_spectrum(path).sequence())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seq=wide_prefixes())
    def test_wide_prefixes(self, seq):
        assert_referees_agree(seq)


PINNED = Path(__file__).resolve().parent / "data" / "spectra"


def every_family():
    """Every registry family in registry order, the delta family at 0.01."""
    return [family(name, delta=0.01 if name == "sphere-buckling-delta" else None)
            for name in FAMILY_NAMES]


def assert_together_equals_alone(seq, fams):
    """Each family's outcomes from one call for all of fams, bitwise equal
    to its outcomes from a call of its own: bound and aux bits, or the
    error's class and message."""
    ks = range(1, len(seq) + 1)
    together = evaluate_families(fams, seq, ks)
    assert len(together) == len(fams)
    for fam, rows in zip(fams, together):
        assert outcome_keys(rows) == outcome_keys(evaluate_families([fam], seq, ks)[0]), fam


def assert_every_order(seq):
    """The registry order (with families that raise for the whole
    sequence), its reverse and the sequence's verify defaults."""
    for fams in every_family(), every_family()[::-1], default_families(seq):
        assert_together_equals_alone(seq, fams)


class TestFamiliesTogether:
    def test_stored_spectra(self):
        paths = sorted(STORED.glob("*.json")) + sorted(
            p for p in PINNED.glob("*.json") if not p.name.endswith(".summary.json"))
        assert len(paths) == 38  # 35 distinct: three p = 2 pins copy benchmark spectra
        for path in paths:
            assert_every_order(read_spectrum(path).sequence())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=any_prefixes())
    def test_any_prefixes(self, case):
        assert_every_order(case[0])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seq=wide_prefixes())
    def test_wide_prefixes(self, seq):
        assert_every_order(seq)

    @pytest.mark.parametrize("seq, error", [
        (buck((0.5, 2.0, 3.0), n=3), GuardViolation),  # fails the sphere guard
        (buck((5.0, 9.0), n=3, p=600), BracketFailure),  # the factor overflows
    ], ids=["guard", "factor-overflow"])
    def test_whole_family_errors_stay_per_family(self, seq, error):
        outcomes = evaluate_families(every_family(), seq, [1, 2])
        for fam, rows in zip(every_family(), outcomes):
            if fam.name in ("sphere-buckling-sqrt", "sphere-buckling-quadratic",
                            "sphere-buckling-gap"):
                assert all(type(row) is error for row in rows), fam
        assert any(isinstance(row, BoundResult) for rows in outcomes for row in rows)
        assert_every_order(seq)


class TestSequenceLength:
    def test_limit_covers_the_solver_counts(self):
        from capspec.spectral import MAX_BASIS_SIZE
        assert bounds_module.MAX_SEQUENCE >= MAX_BASIS_SIZE

    def test_over_long_sequence_refused(self):
        limit = bounds_module.MAX_SEQUENCE
        assert len(buck(tuple(1.0 + np.arange(limit)))) == limit
        with pytest.raises(ValidationError, match=f"has {limit + 1} values.*at most {limit}"):
            buck(tuple(1.0 + np.arange(limit + 1)))


def hex_rows(x):
    return [v.hex() for v in np.asarray(x, dtype=float).ravel().tolist()]


def random_delta_terms(rng, n, size, scale):
    """The delta terms of every prefix of a random buckling sequence of the
    given size whose distances above n - 2 are scaled by scale."""
    seq = buck(tuple(n - 2 + scale * np.cumsum(rng.uniform(0.05, 3.0, size))), n=n)
    pre = bounds_module._prefixes(seq, np.arange(1, size + 1))
    return bounds_module._delta_terms(pre)


class TestLeanClosedForm:
    """The one-pass delta closed form against the blocked form it replaced
    (tests/oracles.py), bit for bit."""

    EDGE_DELTAS = [5e-324, 1e-300, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e300]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8])
    def test_every_delta_shape(self, n, scale):
        rng = np.random.default_rng(int(n * 1000 + math.log10(scale) * 10 + 30))
        terms = random_delta_terms(rng, n, 9, scale)
        rows = len(terms.pre.lengths)
        grid = 10.0 ** rng.uniform(-6.0, 6.0, 32)
        for deltas in (np.array([[0.37]]), grid[None, :1], grid[None, :],
                       np.array([self.EDGE_DELTAS]),
                       10.0 ** rng.uniform(-6.0, 6.0, (rows, 1)),  # a delta per row
                       rng.choice(self.EDGE_DELTAS, (rows, 1))):
            got = bounds_module._delta_closed_form(terms, deltas)
            assert hex_rows(got) == hex_rows(blocked_delta_closed_form(terms, deltas))

    @pytest.mark.parametrize("width", [1, 32])
    @pytest.mark.parametrize("n", [2, 4])
    def test_rows_split_into_blocks(self, n, width):
        rng = np.random.default_rng(n + width)
        terms = random_delta_terms(rng, n, 600, 10.0)
        step = bounds_module._BLOCK // (width * 600)
        assert len(terms.pre.lengths) > 2 * step  # at least three blocks
        for deltas in (10.0 ** rng.uniform(-6.0, 6.0, (1, width)),
                       10.0 ** rng.uniform(-6.0, 6.0, (600, width))):
            got = bounds_module._delta_closed_form(terms, deltas)
            assert hex_rows(got) == hex_rows(blocked_delta_closed_form(terms, deltas))
        one = bounds_module._delta_closed_form(terms.take([150]), deltas[150:151])
        assert hex_rows(one) == hex_rows(got[150])

    def test_first_positive_every_sign_and_scale(self):
        rng = np.random.default_rng(5)
        pick = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, 5e-324, math.inf, -math.inf, math.nan]
        coeffs = np.where(rng.random((3, 4000)) < 0.3, rng.choice(pick, (3, 4000)),
                          rng.standard_normal((3, 4000)) * 10.0 ** rng.uniform(-300, 300, (3, 4000)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _first_positive(*coeffs.copy())
            want = blocked_first_positive(*coeffs.copy())
        assert hex_rows(got) == hex_rows(want)


class TestDeltaTiles:
    """_delta_closed_form fills its output in tiles of rows and deltas, which
    no entry's value depends on, and holds one tile's temporaries at a time."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3, 5]), size=st.integers(1, 40), count=st.integers(1, 50),
           shape=st.sampled_from(["rows", "grid", "one"]), block=st.sampled_from([7, 64]),
           seed=st.integers(0, 2**32 - 1))
    def test_tiles_give_the_one_tile_bits(self, n, size, count, shape, block, seed):
        rng = np.random.default_rng(seed)
        terms = random_delta_terms(rng, n, size, 10.0 ** rng.uniform(-3.0, 8.0))
        deltas = 10.0 ** rng.uniform(-6.0, 6.0, {"rows": (size, 1), "grid": (1, count),
                                                 "one": (1, 1)}[shape])
        with mock.patch.object(bounds_module, "_BLOCK", 1 << 40):
            whole = bounds_module._delta_closed_form(terms, deltas)
        with mock.patch.object(bounds_module, "_BLOCK", block):
            tiled = bounds_module._delta_closed_form(terms, deltas)
        assert tiled.shape == whole.shape
        assert hex_rows(tiled) == hex_rows(whole)

    def test_wide_grid_peak_memory(self):
        # 39 prefixes at 10000 deltas: a 3.1 MB output. With only the rows
        # split, one row's (1, 10000, 3, 40) product alone took 9.6 MB
        seq = buck(tuple(np.arange(3.0, 43.0)))
        deltas = np.logspace(-3.0, 3.0, 10_000)
        tracemalloc.start()
        try:
            out = delta_bounds(seq, np.arange(1, 40), deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (39, 10_000)
        assert peak < out.nbytes + 4 * 2**20, peak


def counted_factor_calls():
    """A patch of the unchecked factor core, which coeff_g calls once per
    value, whose mock counts the calls (call_count) and returns the real
    factor."""
    return mock.patch.object(bounds_module, "_buckling_factor",
                             side_effect=bounds_module._buckling_factor)


PINNED_P2 = Path(__file__).resolve().parent / "data" / "spectra" / "n2-buckling-p2-pi_2.json"


class TestCoefficientTable:
    """g is formed once per EigenSequence object, and no error is kept."""

    @pytest.mark.parametrize("command", ["verify", "compare"])
    def test_one_factor_call_per_value_per_command(self, command, tmp_path):
        # a CLI command reads its file into one sequence, whose sqrt family,
        # (S, T) and probe classifications all read one table of K factors
        assert len(read_spectrum(PINNED_P2).sequence()) == 8
        with counted_factor_calls() as factor, contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--in", str(PINNED_P2), "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert factor.call_count == 8

    def test_each_object_forms_its_own_table(self):
        values = (6.0, 10.5, 17.0, 20.0)
        first, second = buck(values), buck(values)
        assert first == second and first is not second
        with counted_factor_calls() as factor:
            table = first.coeff_g
            assert factor.call_count == 4
            assert first.coeff_g is table
            quadratic_terms(first, 3)
            evaluate_families([family("sphere-buckling-sqrt")], first, [1, 2, 3])
            assert factor.call_count == 4
            assert hex_rows(second.coeff_g) == hex_rows(table)
            assert factor.call_count == 8
        assert not table.flags.writeable

    def test_overflow_raised_on_every_use(self):
        seq = EigenSequence(n=3, p=600, problem=Problem.BUCKLING, values=(5.0, 9.0))
        with pytest.raises(BracketFailure) as first:
            seq.coeff_g
        message = str(first.value)
        assert "order p = 600" in message
        needs_g = [family(name) for name in ("sphere-buckling-sqrt",
                                             "sphere-buckling-quadratic",
                                             "sphere-buckling-gap")]
        with counted_factor_calls() as factor:
            for _ in range(2):
                for outcomes in evaluate_families(needs_g, seq, [1]):
                    assert isinstance(outcomes[0], BracketFailure)
                    assert str(outcomes[0]) == message
                for name in ("sphere-buckling-sqrt", "sphere-buckling-quadratic"):
                    with pytest.raises(BracketFailure, match=re.escape(message)):
                        evaluate_predicate(family(name), seq, 1, 9.0)
                with pytest.raises(BracketFailure, match=re.escape(message)):
                    quadratic_terms(seq, 1)
            assert factor.call_count == 2 * 6  # one failing call per use
        assert "coeff_g" not in vars(seq)


PINNED_P2_SPECTRA = [PINNED_P2.parent / f"{stem}.json" for stem in (
    "n2-buckling-p2-pi_2", "n3-buckling-p2-2pi_5", "n4-buckling-p2-5pi_8")]


def linear_root_bits(c0, c1):
    """float.hex of the root of c0 x + c1 from np.linalg.eigvals of its 1x1
    companion [[-c1/c0]], NaN unless it is real and positive."""
    root = np.linalg.eigvals(np.array([[[-c1 / c0]]]))[0, 0]
    return (root.real if root.real > 0.0 else math.nan).hex()


# coefficients of one sign pattern and magnitude each, so that the root
# -c1/c0 runs from subnormal to near the float range
coefficient = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-300, 300))
subnormal = st.floats(min_value=5e-324, max_value=2.2e-308)


class TestOneEigvalsCall:
    """A linear row's root is -c1/c0, the eigvals root of its 1x1 companion
    bit for bit, so a check's bound pass makes one eigvals call."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(c0=st.one_of(coefficient, subnormal, subnormal.map(lambda x: -x)),
           c1=st.one_of(coefficient, subnormal, subnormal.map(lambda x: -x)))
    @example(c0=1.0, c1=-(2.0**-459))  # the ends of geev's unscaled range
    @example(c0=1.0, c1=-np.nextafter(2.0**-459, 0.0))
    @example(c0=1.0, c1=-(2.0**459))
    @example(c0=1.0, c1=-np.nextafter(2.0**459, math.inf))
    @example(c0=-3.0, c1=7.0)
    def test_linear_root_is_the_companion_eigenvalue(self, c0, c1):
        assume(math.isfinite(c1 / c0))  # eigvals refuses an infinite entry
        # a k = 1 quartic strips to its first two coefficients; leading
        # zeros strip too, and the root comes first in its row
        coeffs = np.array([[c0, c1, 0.0, 0.0, 0.0], [0.0, c0, c1, 0.0, 0.0]])
        got = _positive_real_roots(coeffs)
        assert hex_rows(got[:, 0]) == [linear_root_bits(c0, c1)] * 2
        assert np.isnan(got[:, 1:]).all()

    @pytest.mark.parametrize("command", ["verify", "compare"])
    def test_one_eigvals_call_per_command(self, command, tmp_path):
        # at n = 2, K = 8 the three search blocks (the sqrt families and the
        # delta-opt seeds) hold 21 rows: the 18 quartics share one call, and
        # the three k = 1 rows are linear
        real, shapes = np.linalg.eigvals, []

        def counting(a):
            shapes.append(np.shape(a))
            return real(a)

        with mock.patch.object(np.linalg, "eigvals", counting), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--in", str(PINNED_P2), "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert shapes == [(18, 4, 4)]

    @pytest.mark.parametrize("path,rounds", zip(PINNED_P2_SPECTRA, [1, 4, 4]),
                             ids=lambda x: getattr(x, "stem", x))
    def test_delta_opt_rounds(self, path, rounds):
        # the searches run in lockstep, one closed form per round
        seq = read_spectrum(path).sequence()
        with mock.patch.object(bounds_module, "_delta_points",
                               wraps=bounds_module._delta_points) as points:
            evaluate_families([family("sphere-buckling-delta-opt")], seq, range(1, len(seq)))
        assert points.call_count == rounds
