"""Quadrature: exact-moment oracle, hand values, node/weight contracts."""

import numpy as np
import pytest

from capspec import quadrature
from capspec.errors import ValidationError
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
    for m in (5, 20, 41):
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
    """The half-size start nodes at an odd solver-like size and at the
    largest size the module promises, on every 8th node and both ends.

    A weight's relative sensitivity to its node is 2|x| / (1 - x^2), so
    the last bit of an end node at m = 512 (1.1e-5 from 1) alone moves
    its weight by ~1e-11. The weight tolerance is the larger of 1e-12 and
    two bits' worth of that sensitivity, 4 eps |x| / (1 - x^2); the dense
    full-size eigensolve misses the m = 512 end weights by 3.4e-12, the
    half-size one by 2.6e-12."""
    mpmath = pytest.importorskip("mpmath")
    x, w = gauss_jacobi_rule(0.0, m)
    spots = np.unique(np.r_[np.arange(0, m, 8), m - 1])
    exact_x, exact_w = mpmath_rule(mpmath, 0.0, m, x[spots])
    assert np.all(np.diff(exact_x) > 0.0)
    assert np.max(np.abs(x[spots] - exact_x)) <= 1e-15
    xs = x[spots]
    tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.abs(xs) / (1.0 - xs * xs))
    assert np.all(np.abs(w[spots] - exact_w) / exact_w <= tol)


def test_half_size_start_nodes_match_dense_eigensolve():
    # gamma = 0 takes its nodes from the order floor(m/2) eigenproblem of
    # the quadratic transformation; the full Legendre Jacobi matrix is the
    # referee, odd m (with the node 0) included
    for m in range(1, 201):
        referee = np.linalg.eigvalsh(quadrature._jacobi_matrix(0.0, m))
        start = quadrature._start_nodes(0.0, m)
        assert start.shape == (m,)
        assert np.max(np.abs(start - referee)) <= 1e-13, m
        assert np.array_equal(start, -start[::-1]), m


def test_half_size_only_for_legendre(monkeypatch):
    orders = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        orders.append(a.shape[-1])
        return eigvalsh(a)

    monkeypatch.setattr(quadrature.np.linalg, "eigvalsh", recorded)
    quadrature._start_nodes(0.0, 164)
    quadrature._start_nodes(0.0, 83)
    quadrature._start_nodes(0.5, 82)
    quadrature._start_nodes(2.0, 9)
    assert orders == [82, 41, 82, 9]


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
