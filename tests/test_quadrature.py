"""Quadrature: exact-moment oracle, hand values, node/weight contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capspec import quadrature
from capspec.errors import NoConvergence, ValidationError
from capspec.quadrature import gauss_jacobi_pair, gauss_jacobi_rule

from oracles import (
    jacobi_matrix,
    jacobi_moment,
    jacobi_moments,
    jacobi_recurrence_outer,
    one_rule_build,
)

# frozen hand values: integral of (1-s)^gamma over [-1,1] is 2 for gamma in
# {0, 1}; integral of s^2 ds is 2/3


def test_weight_mass_gamma0():
    _, w = gauss_jacobi_rule(0.0, 4)
    assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)


def test_weight_mass_gamma1():
    _, w = gauss_jacobi_rule(1.0, 4)
    assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-14)


def test_legendre_two_point_second_moment():
    x, w = gauss_jacobi_rule(0.0, 2)
    assert float(w @ x**2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # the two-point Legendre rule itself: nodes +-1/sqrt(3), weights 1
    assert np.allclose(x, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], atol=1e-14)


def test_single_node_gamma2():
    # P_1 for (2,0) is (2 + (2+2)x)/2, root -1/2; mass 2^3/((1-1/4)*4) = 8/3
    x, w = gauss_jacobi_rule(2.0, 1)
    assert x[0] == pytest.approx(-0.5, abs=1e-15)
    assert w[0] == pytest.approx(8.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.5, 5.5, 6.0])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 33])
def test_polynomial_exactness(gamma, m):
    """Degree <= 2m-1 moments match the exact rational oracle to 1e-13
    relative to the weight mass."""
    x, w = gauss_jacobi_rule(gamma, m)
    mass = jacobi_moment(gamma, 0)
    degrees = range(2 * m - 1, -1, -1) if m <= 8 else range(2 * m - 1, 2 * m - 17, -1)
    for j in degrees:
        approx = float(w @ x**j)
        exact = jacobi_moment(gamma, j)
        assert abs(approx - exact) <= 1e-13 * max(abs(exact), mass), (gamma, m, j)


@pytest.mark.parametrize("gamma,m", [(0.0, 64), (3.5, 128), (6.0, 96)])
def test_node_weight_contracts(gamma, m):
    x, w = gauss_jacobi_rule(gamma, m)
    assert len(x) == len(w) == m
    assert np.all(x > -1.0) and np.all(x < 1.0)
    assert np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0)
    assert float(np.sum(w)) == pytest.approx(jacobi_moment(gamma, 0), rel=1e-13)


def test_large_rule_smoke():
    # the Gatteschi-Pittaluga start plus Newton polish must hold up to 512 nodes
    x, w = gauss_jacobi_rule(3.5, 512)
    assert len(x) == 512
    assert float(np.sum(w)) == pytest.approx(jacobi_moment(3.5, 0), rel=1e-12)
    # spot-check a high moment
    j = 513
    exact = jacobi_moment(3.5, j)
    assert float(w @ x**j) == pytest.approx(exact, rel=1e-10)


def mpmath_rule(mpmath, gamma, m, starts):
    """Nodes found by mpmath as the roots of its Jacobi polynomial at 50
    digits, by secant steps from each float node and a point 1e-12 below it
    (one wider default step can leave [-1, 1] near the ends at m = 164),
    and weights from the same formula there, with
    P_m' = (m + gamma + 1)/2 * P_{m-1}^(gamma+1, 1)."""
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        roots = [
            mpmath.findroot(
                lambda t: mpmath.jacobi(m, g, 0, t, zeroprec=400),
                (mpmath.mpf(float(xi)), mpmath.mpf(float(xi) - 1e-12)),
            )
            for xi in starts
        ]
        weights = [
            2 ** (g + 1)
            / ((1 - r * r) * ((m + g + 1) / 2 * mpmath.jacobi(m - 1, g + 1, 1, r)) ** 2)
            for r in roots
        ]
        return np.array([float(r) for r in roots]), np.array([float(v) for v in weights])


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 3.0, 6.0])
def test_against_mpmath_rule(gamma):
    mpmath = pytest.importorskip("mpmath")
    # m = 37 is the least accurate Legendre start that takes one Newton
    # pass; its weights need the derivative carried to second order in the
    # step (to first order they miss by 1.9e-13)
    for m in (5, 20, 37, 41):
        x, w = gauss_jacobi_rule(gamma, m)
        exact_x, exact_w = mpmath_rule(mpmath, gamma, m, x)
        # each root found once: the float nodes start Newton in distinct basins
        assert np.all(np.diff(exact_x) > 0.0), (gamma, m)
        assert np.max(np.abs(x - exact_x)) <= 1e-15, (gamma, m)
        assert np.max(np.abs(w - exact_w) / exact_w) <= 1e-13, (gamma, m)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("m", [82, 164])
def test_against_mpmath_rule_at_solver_sizes(gamma, m):
    """The rules an odd-n solve builds at N = 32, p = 2 (82 nodes and the
    doubled 164), on every 8th node and both end nodes."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi_rule(gamma, m)
    spots = np.unique(np.r_[np.arange(0, m, 8), m - 1])
    exact_x, exact_w = mpmath_rule(mpmath, gamma, m, x[spots])
    assert np.all(np.diff(exact_x) > 0.0)
    assert np.max(np.abs(x[spots] - exact_x)) <= 1e-15
    assert np.max(np.abs(w[spots] - exact_w) / exact_w) <= 1e-12


@pytest.mark.parametrize("m", [100, 164, 512])
def test_legendre_end_weight_against_mpmath(m):
    """The end-node weight of the doubled rule of an even-n solve at N = 32,
    p = 2 (100 nodes), and of 164 and 512 nodes, where 1 - x^2 is 5.7e-4,
    2.1e-4 and 2.2e-5. Formed as 1 - x*x it cost eps / (1 - x^2) relative:
    the 164-node end weight missed by 4.0e-13. Formed at the rounded node
    it misses at 512 nodes by 1.0e-12."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi_rule(0.0, m)
    _, exact_w = mpmath_rule(mpmath, 0.0, m, x[-1:])
    assert abs(w[-1] - exact_w[0]) / exact_w[0] <= 1.5e-13
    assert w[0] == w[-1]


@pytest.mark.parametrize("m", [83, 512])
def test_against_mpmath_legendre_rule(m):
    """The Legendre rule at an odd solver-like size and at 512 nodes, on
    every 8th node and both ends.

    A weight's relative sensitivity to its node is 2|x| / (1 - x^2), so
    the last bit of an end node at m = 512 (1.1e-5 from 1) alone moves
    its weight by ~1e-11. The weight tolerance is the larger of 1e-12 and
    two bits' worth of that sensitivity, 4 eps |x| / (1 - x^2). The weights
    are formed at the Newton point before it is rounded, so the Legendre
    rule misses the m = 512 weights by at most 7.1e-14 (2.6e-12 with
    1 - x*x at the rounded node)."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi_rule(0.0, m)
    spots = np.unique(np.r_[np.arange(0, m, 8), m - 1])
    exact_x, exact_w = mpmath_rule(mpmath, 0.0, m, x[spots])
    assert np.all(np.diff(exact_x) > 0.0)
    assert np.max(np.abs(x[spots] - exact_x)) <= 1e-15
    xs = x[spots]
    tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.abs(xs) / (1.0 - xs * xs))
    assert np.all(np.abs(w[spots] - exact_w) / exact_w <= tol)


def mpmath_legendre_rule(mpmath, m, starts):
    """Legendre nodes and weights at 40 digits: two Newton steps on P_m from
    each float node, with P_m and P_{m-1} from the three-term recurrence
    and P_m' = m (P_{m-1} - x P_m) / (1 - x^2). A float node is within a
    few ulps of its root, so two steps pass 40 digits even at m = 2092,
    and this referee runs in a third of mpmath_rule's time there."""
    pairs = mpmath_legendre_pairs(mpmath, m, starts)
    return np.array([float(r) for r, _ in pairs]), np.array([float(v) for _, v in pairs])


def mpmath_legendre_pairs(mpmath, m, starts):
    """The (node, weight) pairs of mpmath_legendre_rule as 40-digit mpf."""
    with mpmath.workdps(40):
        def value_and_slope(r):
            p_prev, p = mpmath.mpf(1), r
            for k in range(2, m + 1):
                p_prev, p = p, ((2 * k - 1) * r * p - (k - 1) * p_prev) / k
            return p, m * (p_prev - r * p) / (1 - r * r)

        pairs = []
        for xi in starts:
            r = mpmath.mpf(float(xi))
            for _ in range(2):
                p, slope = value_and_slope(r)
                r -= p / slope
            _, slope = value_and_slope(r)
            pairs.append((r, 2 / ((1 - r * r) * slope * slope)))
        return pairs


@pytest.mark.parametrize("m", [1024, 2092])
def test_against_mpmath_large_legendre_rule(m):
    """The largest automatic rule (2092 nodes) and one of 1024, on both end
    nodes, the two nodes nearest 0 and every 64th node, with the weight
    tolerance of test_against_mpmath_legendre_rule."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi_rule(0.0, m)
    spots = np.unique(np.r_[np.arange(0, m, 64), m // 2 - 1, m // 2, m - 1])
    exact_x, exact_w = mpmath_legendre_rule(mpmath, m, x[spots])
    assert np.all(np.diff(exact_x) > 0.0)
    assert np.max(np.abs(x[spots] - exact_x)) <= 1e-15
    xs = x[spots]
    tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.abs(xs) / (1.0 - xs * xs))
    assert np.all(np.abs(w[spots] - exact_w) / exact_w <= tol)


def test_bessel_zeros_against_mpmath():
    # the table (k <= 20) and McMahon's expansion past it give j_{0,k} to
    # within an ulp
    mpmath = pytest.importorskip("mpmath")
    exact = np.array([float(mpmath.besseljzero(0, k)) for k in range(1, 61)])
    assert np.max(np.abs(quadrature._j0_zeros(60) - exact) / exact) <= 2.3e-16


def test_legendre_start_nodes_near_dense_eigensolve():
    # gamma = 0 starts from Olver's expansion at the floor(m/2) positive
    # nodes, after the node 0 for odd m; the full Legendre Jacobi matrix is
    # the referee, and the start is within 0.03 rho^-4 of it (rho = m + 1/2;
    # measured 0.0264 rho^-4 at m = 200, 1.9e-4 at m = 2)
    for m in range(1, 201):
        referee = np.linalg.eigvalsh(jacobi_matrix(0.0, m))[m // 2:]
        start = quadrature._start_nodes(0.0, m)
        assert start.shape == (m - m // 2,), m
        assert np.max(np.abs(start - referee)) <= 0.03 * (m + 0.5) ** -4, m
        if m % 2:
            assert start[0] == 0.0


def test_legendre_rule_exactly_symmetric():
    for m in range(1, 601):
        x, w = gauss_jacobi_rule(0.0, m)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), m


def counted_recurrence(monkeypatch):
    passes = []

    def counted(gamma, m, x):  # a single rule's top degree
        passes.append(int(m[0]))
        return recurrence(gamma, m, x)

    recurrence = quadrature._jacobi_recurrence
    monkeypatch.setattr(quadrature, "_jacobi_recurrence", counted)
    return passes


def test_one_newton_pass_from_m_64(monkeypatch):
    passes = counted_recurrence(monkeypatch)
    sizes = range(64, 601)
    for m in sizes:
        gauss_jacobi_rule(0.0, m)
    assert passes == list(sizes)


def test_unconvergeable_start_refused_in_one_line(monkeypatch):
    # Newton from outside [-1, 1] closes in on the largest node by about
    # 1/m per pass, so 41 starts at x = 2 cannot converge at m = 82
    passes = counted_recurrence(monkeypatch)
    monkeypatch.setattr(quadrature, "_start_nodes", lambda gamma, m: np.full(41, 2.0))
    with pytest.raises(NoConvergence, match="82-node") as caught:
        gauss_jacobi_rule(0.0, 82)
    assert "\n" not in str(caught.value)
    assert passes == [82] * quadrature.MAX_PASSES


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 3.0])
def test_blocked_recurrence_equals_outer_product_form(gamma):
    # past m = 256 the rows a_k x + b_k come in blocks; every value must be
    # the one the single outer product gives, bit for bit. A strided subset
    # of the start nodes keeps the oracle's array small at 4096 nodes
    for m in [1, 2, 3, 199, 256, 257, 512, 1046, 2092, 4096]:
        x = quadrature._start_nodes(gamma, m)[::max(1, m // 256)]
        got = quadrature._jacobi_recurrence(gamma, np.full(len(x), float(m)), x)
        want = jacobi_recurrence_outer(gamma, m, x)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), m


def test_large_rule_memory_peak():
    # the recurrence never holds an (m - 1) x m array, 34 MB at 2048 nodes;
    # the pair at base 2048 runs one recurrence over 2048 + 4096 nodes and
    # still forms its rows in blocks (one 4095 x 6144 array is 201 MB; the
    # two rules built apart peaked at 2.0 MB)
    peaks = []
    for build, m in ((gauss_jacobi_rule, 2048), (gauss_jacobi_pair, 2048)):
        tracemalloc.start()
        try:
            build(0.5, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 16e6
    assert peaks[1] < 4e6


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.5])
def test_rule_is_the_one_rule_build(gamma):
    # the one-size case of the shared builder gives every rule the bits of
    # the build that started and polished it alone
    for m in [*range(1, 130), 255, 256, 257, 600]:
        got = gauss_jacobi_rule(gamma, m)
        want = one_rule_build(gamma, m, quadrature._j0_zeros)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), m


@settings(max_examples=60, deadline=None)
@given(gamma=st.sampled_from([0.0, 0.5, 2.5]), m=st.integers(1, 600))
@example(gamma=0.0, m=19)
@example(gamma=0.5, m=12)
@example(gamma=2.5, m=68)
def test_pair_is_both_rules_bit_for_bit(gamma, m):
    # one start computation and shared Newton passes give each rule of the
    # pair the bits it has alone; in the examples the base rule takes one
    # more pass than the doubled one, so the two stop in different passes
    pair = gauss_jacobi_pair(gamma, m)
    for (x, w), size in zip(pair, (m, 2 * m)):
        alone = gauss_jacobi_rule(gamma, size)
        assert np.array_equal(x, alone[0]) and np.array_equal(w, alone[1]), size


@pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0])
def test_shared_recurrence_equals_each_degree_alone(gamma):
    # nodes of a lower degree sit at the tail and leave the recurrence at
    # their degree; a strided subset of the start nodes keeps the oracle small
    for top, low in [(2, 1), (9, 4), (514, 257), (4096, 2048)]:
        parts = [quadrature._start_nodes(gamma, m)[::max(1, m // 128)] for m in (top, low)]
        degrees = np.repeat([float(top), float(low)], [len(part) for part in parts])
        got = quadrature._jacobi_recurrence(gamma, degrees, np.concatenate(parts))
        want = [np.concatenate(values) for values in zip(
            *(jacobi_recurrence_outer(gamma, m, part) for m, part in zip((top, low), parts)))]
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), top


def test_pair_size_refused_past_half_the_limit():
    with pytest.raises(ValidationError, match="node count must be an integer in 1..2048,"):
        gauss_jacobi_pair(0.0, quadrature.MAX_NODES // 2 + 1)
    with pytest.raises(ValidationError, match="weight exponent"):
        gauss_jacobi_pair(7.0, 4)
    base, doubled = gauss_jacobi_pair(0.5, quadrature.MAX_NODES // 2)
    assert (len(base[0]), len(doubled[0])) == (2048, 4096)


def test_determinism():
    x1, w1 = gauss_jacobi_rule(1.5, 40)
    x2, w2 = gauss_jacobi_rule(1.5, 40)
    assert np.array_equal(x1, x2) and np.array_equal(w1, w2)


def test_validation():
    with pytest.raises(ValidationError):
        gauss_jacobi_rule(-0.5, 4)
    with pytest.raises(ValidationError):
        gauss_jacobi_rule(1.0, 0)
    with pytest.raises(ValidationError):
        gauss_jacobi_rule(float("nan"), 4)


def test_oversized_rule_refused_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    for name in ("zeros", "eye", "empty", "ones", "arange"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(ValidationError, match="node count"):
        gauss_jacobi_rule(0.0, quadrature.MAX_NODES + 1)
    with pytest.raises(ValidationError, match="node count"):
        gauss_jacobi_rule(0.5, 100_000)


def test_half_start_one_newton_pass_from_m_24(monkeypatch):
    # the gamma = 1/2 start folds Olver's angles of the (2m + 1)-node
    # Legendre rule: two passes at most below m = 24, one from there on
    # (checked for every m up to 4096 when the start was written)
    passes = counted_recurrence(monkeypatch)
    for m in range(1, 24):
        gauss_jacobi_rule(0.5, m)
        assert len(passes) <= 2, m
        passes.clear()
    sizes = [*range(24, 601), 1046, 2047, 2092, 4096]
    for m in sizes:
        gauss_jacobi_rule(0.5, m)
    assert passes == sizes


@pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
def test_gatteschi_start_leaves_a_spare_pass(monkeypatch, gamma):
    # every other gamma up to MAX_EXPONENT converges with at least one of
    # the MAX_PASSES Newton passes to spare (gamma = 7 needs all of them)
    passes = counted_recurrence(monkeypatch)
    for m in [*range(1, 130), 256, 1024, 4096]:
        gauss_jacobi_rule(gamma, m)
        assert len(passes) <= quadrature.MAX_PASSES - 1, m
        passes.clear()


def test_half_rule_is_folded_legendre_rule():
    """Szego's quadratic transformation P_{2m+1}(u) ~ u P_m^(0,1/2)(2u^2 - 1):
    the m-node gamma = 1/2 rule is the (2m + 1)-node Legendre rule at its m
    negative nodes u, folded by s = 1 - 2u^2 with weights 4 sqrt(2) w_u u^2.
    Measured to 3.3e-16 in the nodes and 1.8e-13 in the weights."""
    for m in range(1, 101):
        s, w = gauss_jacobi_rule(0.5, m)
        u, w_u = gauss_jacobi_rule(0.0, 2 * m + 1)
        u, w_u = u[:m], w_u[:m]
        folded = 4.0 * np.sqrt(2.0) * w_u * u * u
        assert np.max(np.abs(s - (1.0 - 2.0 * u * u))) <= 4e-16, m
        assert np.max(np.abs(w - folded) / folded) <= 2.5e-13, m


@pytest.mark.parametrize("m,step", [(1046, 64), (2092, 256)])
def test_against_mpmath_large_half_rule(m, step):
    """The rules of an n = 3, p = 2, N = 512 solve (1046 nodes and the
    doubled 2092), on every step-th node and the two nodes at each end,
    against the 40-digit Legendre referee at 2m + 1 nodes folded as in
    test_half_rule_is_folded_legendre_rule. The weight tolerance is one
    bit's worth of the weight's sensitivity to its node, eps |s| / (1 - s^2),
    but at least 1e-12: a quarter of test_against_mpmath_legendre_rule's.
    Both the Golub-Welsch start this replaced and this one miss the end
    weights of the 1046-node rule by 4.7e-12 (0.16 and 0.22 of the
    tolerance)."""
    mpmath = pytest.importorskip("mpmath")
    s, w = gauss_jacobi_rule(0.5, m)
    spots = np.unique(np.r_[np.arange(0, m, step), 1, m - 2, m - 1])
    xs = s[spots]
    with mpmath.workdps(40):
        pairs = mpmath_legendre_pairs(mpmath, 2 * m + 1, -np.sqrt(0.5 * (1.0 - xs)))
        exact_s = np.array([float(1 - 2 * u * u) for u, _ in pairs])
        exact_w = np.array([float(4 * mpmath.sqrt(2) * w_u * u * u) for u, w_u in pairs])
    assert np.all(np.diff(exact_s) > 0.0)
    assert np.max(np.abs(xs - exact_s)) <= 1e-15
    tol = np.maximum(1e-12, np.finfo(float).eps * np.abs(xs) / (1.0 - xs * xs))
    assert np.all(np.abs(w[spots] - exact_w) / exact_w <= tol)


def test_moment_recurrence_oracle_equals_binomial_sum():
    for gamma in (0.0, 0.5, 3.0, 5.5, 6.0):
        assert jacobi_moments(gamma, 40) == [jacobi_moment(gamma, j) for j in range(41)]


@settings(max_examples=40, deadline=None)
@given(twice_gamma=st.integers(0, 2 * int(quadrature.MAX_EXPONENT)), m=st.integers(1, 300))
def test_half_integer_exponents_exact_to_degree_2m_minus_1(twice_gamma, m):
    # every moment of degree <= 2m - 1, to 1e-13 relative to the weight
    # mass (measured worst 1.8e-15, over every third m)
    gamma = twice_gamma / 2.0
    x, w = gauss_jacobi_rule(gamma, m)
    exact = np.array(jacobi_moments(gamma, 2 * m - 1))
    powers = x ** np.arange(2 * m)[:, None]
    assert np.all(np.abs(powers @ w - exact) <= 1e-13 * np.maximum(np.abs(exact), exact[0]))


def test_no_rule_reaches_an_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for gamma in (0.0, 0.5, 1.0, 3.0, 6.0):
        for m in (1, 2, 41, 82, 164, 1046):
            gauss_jacobi_rule(gamma, m)


@pytest.mark.parametrize("gamma", [6.5, 7.0, 8.5, 9.0, 12.5, -0.5, float("nan"),
                                   float("inf"), -float("inf")])
def test_exponent_outside_range_refused_in_one_line(gamma):
    with pytest.raises(ValidationError, match=r"weight exponent must be in \[0, 6") as caught:
        gauss_jacobi_rule(gamma, 4)
    assert "\n" not in str(caught.value)
