"""Quadrature: exact-moment oracle, hand values, node/weight contracts."""

import numpy as np
import pytest

from capspec import quadrature
from capspec.errors import NoConvergence, ValidationError
from capspec.quadrature import gauss_jacobi_rule

from oracles import jacobi_moment

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


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.5, 7.0, 12.5])
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


@pytest.mark.parametrize("gamma,m", [(0.0, 64), (3.5, 128), (9.0, 96)])
def test_node_weight_contracts(gamma, m):
    x, w = gauss_jacobi_rule(gamma, m)
    assert len(x) == len(w) == m
    assert np.all(x > -1.0) and np.all(x < 1.0)
    assert np.all(np.diff(x) > 0.0)
    assert np.all(w > 0.0)
    assert float(np.sum(w)) == pytest.approx(jacobi_moment(gamma, 0), rel=1e-13)


def test_large_rule_smoke():
    # the Golub-Welsch eigenvalues plus Newton polish must hold up to 512 nodes
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


@pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0, 8.5])
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
    """The rules a solve builds at N = 32, p = 2 (82 nodes and the doubled
    164), on every 8th node and both end nodes."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi_rule(gamma, m)
    spots = np.unique(np.r_[np.arange(0, m, 8), m - 1])
    exact_x, exact_w = mpmath_rule(mpmath, gamma, m, x[spots])
    assert np.all(np.diff(exact_x) > 0.0)
    assert np.max(np.abs(x[spots] - exact_x)) <= 1e-15
    assert np.max(np.abs(w[spots] - exact_w) / exact_w) <= 1e-12


@pytest.mark.parametrize("m", [83, 512])
def test_against_mpmath_legendre_rule(m):
    """The Legendre rule at an odd solver-like size and at 512 nodes, on
    every 8th node and both ends.

    A weight's relative sensitivity to its node is 2|x| / (1 - x^2), so
    the last bit of an end node at m = 512 (1.1e-5 from 1) alone moves
    its weight by ~1e-11. The weight tolerance is the larger of 1e-12 and
    two bits' worth of that sensitivity, 4 eps |x| / (1 - x^2); one Newton
    pass from the dense full-size eigensolve misses the m = 512 end weights
    by 3.4e-12, the Legendre rule by 2.6e-12."""
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
    with mpmath.workdps(40):
        def value_and_slope(r):
            p_prev, p = mpmath.mpf(1), r
            for k in range(2, m + 1):
                p_prev, p = p, ((2 * k - 1) * r * p - (k - 1) * p_prev) / k
            return p, m * (p_prev - r * p) / (1 - r * r)

        nodes, weights = [], []
        for xi in starts:
            r = mpmath.mpf(float(xi))
            for _ in range(2):
                p, slope = value_and_slope(r)
                r -= p / slope
            _, slope = value_and_slope(r)
            nodes.append(float(r))
            weights.append(float(2 / ((1 - r * r) * slope * slope)))
        return np.array(nodes), np.array(weights)


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
        referee = np.linalg.eigvalsh(quadrature._jacobi_matrix(0.0, m))[m // 2:]
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

    def counted(gamma, m, x):
        passes.append(m)
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


@pytest.mark.parametrize("m", [82, 164])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_jacobi_matrix_bitwise_as_diagonal_sum(gamma, m):
    # the three diagonals filled into one zero matrix give bitwise the sum
    # of three dense np.diag matrices, at the node counts of a default solve
    k = np.arange(m, dtype=float)
    t = 2.0 * k + gamma
    diag = np.zeros(m) if gamma == 0.0 else -gamma * gamma / (t * (t + 2.0))
    off = 2.0 * k[1:] * (k[1:] + gamma) / (t[1:] * np.sqrt(t[1:] * t[1:] - 1.0))
    summed = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert quadrature._jacobi_matrix(gamma, m).tobytes() == summed.tobytes()
