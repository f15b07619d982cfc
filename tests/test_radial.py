"""Radial operator and harmonic multiplicities."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as poly

from capspec.errors import ValidationError
from capspec.radial import MAX_DIMENSION, MAX_MODE, multiplicity, operator_coeffs

THETAS = [np.pi / 2, 1.0, 2.0 * np.pi / 3.0]
# dyadic nodes: every s and 1 - s is exact
NODES = np.linspace(-1.0, 1.0, 9)


# ------------------------------------------------------------ referee jets
# A polynomial F in x = cos(theta), given by monomial coefficients, on the
# cap of half-width a = (1 - x0)/2: as a function of s, x = 1 - a (1 - s),
# so its k-th s-derivative is a^k F^(k)(x). The referee forms these jets in
# exact rationals (numpy.polynomial on Fraction arrays) and rounds once, and
# takes D_{l,n} F from its closed form on monomials.


def half_width(theta0: float) -> float:
    """(1 - cos(theta0))/2, formed as SolverConfig.half_width forms it."""
    return math.sin(theta0 / 2.0) ** 2


def rational(values) -> np.ndarray:
    return np.array([Fraction(v) for v in np.atleast_1d(values).tolist()], dtype=object)


def derivatives(x_coeffs, count: int) -> list:
    """F, F', ..., F^(count - 1) as exact monomial coefficients."""
    out = [rational(x_coeffs)]
    for _ in range(count - 1):
        out.append(poly.polyder(out[-1]))
    return out


def exact_jet(x_coeffs, a: float, s, orders: int) -> np.ndarray:
    """Rows a^k F^(k)(x) at x = 1 - a (1 - s), k = 0 .. orders - 1, exact:
    the s-derivatives of F composed with x = a s + (1 - a)."""
    a = Fraction(a)
    return s_jet(_compose(rational(x_coeffs), [1 - a, a]), s, orders)


def closed_image(x_coeffs, l: int, n: int) -> np.ndarray:
    """D_{l,n} F = (1 - x^2) F'' - (2l + n) x F' - l (l + n - 1) F, exact."""
    f, f1, f2 = derivatives(x_coeffs, 3)
    out = poly.polysub(poly.polymul([1, 0, -1], f2), poly.polymul([0, 2 * l + n], f1))
    return poly.polysub(out, l * (l + n - 1) * f)


def image_of(x_coeffs, l: int, n: int, a: float, s, orders: int = 3) -> np.ndarray:
    """operator_coeffs on the rounded exact jet of F."""
    jet = exact_jet(x_coeffs, a, s, orders).astype(float)
    return operator_coeffs(jet, l, n, a, np.asarray(s, dtype=float))


# ------------------------------------------------------------- multiplicity


def test_multiplicity_hand_values():
    assert multiplicity(1, 3) == 3
    assert multiplicity(2, 4) == 9
    assert multiplicity(0, 2) == 1
    assert multiplicity(5, 2) == 2
    assert multiplicity(0, 5) == 1


def test_multiplicity_closed_forms():
    # n = 3: 2l + 1; n = 4: (l+1)^2
    for l in range(12):
        assert multiplicity(l, 3) == 2 * l + 1
        assert multiplicity(l, 4) == (l + 1) ** 2


def test_multiplicity_validation():
    with pytest.raises(ValidationError):
        multiplicity(-1, 3)
    with pytest.raises(ValidationError):
        multiplicity(0, 1)
    with pytest.raises(ValidationError):
        multiplicity(1.5, 3)


def test_multiplicity_limits():
    # the largest mode and dimension cost one C(19997, 10000); one more of
    # either is refused before any big-integer work, and a message names a
    # wide integer by its bit length
    corner = multiplicity(MAX_MODE, MAX_DIMENSION)
    assert corner == (2 * MAX_MODE + MAX_DIMENSION - 2) * math.comb(
        MAX_MODE + MAX_DIMENSION - 3, MAX_MODE) // (MAX_DIMENSION - 2)
    with pytest.raises(ValidationError, match=f"mode index must be an integer in 0..{MAX_MODE}"):
        multiplicity(MAX_MODE + 1, 3)
    with pytest.raises(ValidationError, match="got an integer of 665 bits"):
        multiplicity(1, 10**200)


# ------------------------------------------------------- operator, examples
# Eigenfunction identities pin the operator: with u the restriction of a
# degree-d solid harmonic, the sphere Laplacian gives -d(d+n-1) u.


@pytest.mark.parametrize("theta0", THETAS)
def test_linear_q_mode0_n3(theta0):
    # D x = -3x; the operator forms x/a and multiplies back by a, one
    # rounding per factor
    a = half_width(theta0)
    out = image_of([0, 1], 0, 3, a, NODES)
    expected = exact_jet([0, -3], a, NODES, 1).astype(float)
    assert out.shape == (1, len(NODES))
    assert np.allclose(out, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("theta0", THETAS)
def test_linear_q_mode1_n2(theta0):
    a = half_width(theta0)
    out = image_of([0, 1], 1, 2, a, NODES)
    expected = exact_jet([0, -6], a, NODES, 1).astype(float)
    assert np.allclose(out, expected, rtol=0.0, atol=1e-15)


def test_constant_q_mode1_n2():
    out = image_of([1], 1, 2, 0.5, NODES)
    assert np.array_equal(out, np.full((1, len(NODES)), -2.0))


def test_constant_q_harmonic():
    out = image_of([1], 0, 4, 0.35, NODES)
    assert np.array_equal(out, np.zeros((1, len(NODES))))


def test_degree2_hand_value():
    # q = x^2, l = 0, n = 2: (1-x^2)*2 - 2x*2x = 2 - 6x^2
    out = image_of([0, 0, 1], 0, 2, 0.5, NODES)
    expected = exact_jet([2, 0, -6], 0.5, NODES, 1).astype(float)
    assert np.allclose(out, expected, atol=1e-14)


def test_degree_preserved():
    # the jet of a degree-d polynomial vanishes past order d, and so does
    # the jet of its image: D does not raise the degree
    rng = np.random.RandomState(2)
    for deg in (0, 1, 2, 5, 11):
        x_coeffs = rng.randint(-8, 9, size=deg + 1)
        x_coeffs[-1] = 1
        out = image_of(x_coeffs, 2, 3, 0.6, NODES, orders=deg + 5)
        assert out.shape == (deg + 3, len(NODES))
        assert np.array_equal(out[deg + 1:], np.zeros((2, len(NODES))))
        assert np.any(out[deg] != 0.0)


def test_linearity_exact_for_dyadic_inputs():
    # exact as long as nothing rounds: dyadic scalars, small-integer jets,
    # dyadic nodes and half-width
    rng = np.random.RandomState(4)
    a = 0.25
    for alpha in (2.0, 0.5, -4.0):
        j1 = rng.randint(-8, 9, size=(7, len(NODES))).astype(float)
        j2 = rng.randint(-8, 9, size=(7, len(NODES))).astype(float)
        left = operator_coeffs(alpha * j1 + j2, 1, 3, a, NODES)
        right = (alpha * operator_coeffs(j1, 1, 3, a, NODES)
                 + operator_coeffs(j2, 1, 3, a, NODES))
        assert np.array_equal(left, right)


def test_linearity_general_scalars():
    rng = np.random.RandomState(6)
    a = 0.7
    s = np.sort(rng.uniform(-1.0, 1.0, size=11))
    for _ in range(25):
        alpha = float(rng.standard_normal())
        j1 = rng.standard_normal((9, len(s)))
        j2 = rng.standard_normal((9, len(s)))
        left = operator_coeffs(alpha * j1 + j2, 3, 4, a, s)
        right = alpha * operator_coeffs(j1, 3, 4, a, s) + operator_coeffs(j2, 3, 4, a, s)
        scale = float(np.max(np.abs(right))) + 1.0
        assert np.max(np.abs(left - right)) <= 1e-13 * scale


# ------------------------------------------------- operator, matrix columns
# D_{l,n} maps T_j(s) into the span of T_0 .. T_j: on Chebyshev-in-s
# coefficients it is an upper-triangular matrix whose column j is the image
# of T_j, and the size-s matrix is the leading block of every larger one.
# The referee builds the exact columns from the closed form on monomials,
#   D x^k = k(k-1) x^(k-2) - (k(k-1) + (2l+n) k + l(l+n-1)) x^k,
# in exact rationals (the change of basis T_j(s) -> x^k -> T_i(s) is badly
# conditioned for small caps); the pointwise operator on the jet of T_j must
# give that column's values and derivatives at the nodes.

MODES = [(0, 2), (1, 3), (3, 4), (6, 5)]


def _compose(coeffs, inner):
    """Monomial coefficients of sum_k coeffs[k] * inner(t)^k (exact)."""
    out = np.array([Fraction(0)], dtype=object)
    for c in coeffs[::-1]:
        out = poly.polyadd(poly.polymul(out, inner), [c])
    return out


def _monomials_to_chebyshev(coeffs):
    """Chebyshev coefficients of a monomial series, via t T_0 = T_1 and
    t T_k = (T_{k-1} + T_{k+1}) / 2 (exact)."""
    out = [Fraction(0)] * len(coeffs)
    power = [Fraction(1)]  # t^k in the Chebyshev basis
    for c in coeffs:
        for i, v in enumerate(power):
            out[i] += c * v
        nxt = [Fraction(0)] * (len(power) + 1)
        for i, v in enumerate(power):
            if i == 0:
                nxt[1] += v
            else:
                nxt[i - 1] += v / 2
                nxt[i + 1] += v / 2
        power = nxt
    return out


def _monomial_image(x_coeffs, l, n):
    out = [Fraction(0)] * len(x_coeffs)
    for k, c in enumerate(x_coeffs):
        out[k] -= c * (k * (k - 1) + (2 * l + n) * k + l * (l + n - 1))
        if k >= 2:
            out[k - 2] += c * k * (k - 1)
    return out


def chebyshev_monomials(j: int) -> np.ndarray:
    """T_j(s) as exact s-monomial coefficients."""
    return rational(cheb.cheb2poly(np.eye(j + 1)[j]))


def exact_column(j: int, l: int, n: int, a: float) -> list:
    """Column j of the exact Chebyshev-in-s matrix of D_{l,n}."""
    a = Fraction(a)
    b = 1 - a
    x_coeffs = _compose(chebyshev_monomials(j), [-b / a, 1 / a])
    return _monomials_to_chebyshev(_compose(_monomial_image(x_coeffs, l, n), [b, a]))


def s_jet(s_coeffs, s, orders: int) -> np.ndarray:
    """Rows f^(k)(s), k = 0 .. orders - 1, of a polynomial in s, exact."""
    return np.array([[poly.polyval(Fraction(v), d) for v in np.atleast_1d(s).tolist()]
                     for d in derivatives(s_coeffs, orders)], dtype=object)


@functools.lru_cache(maxsize=1)
def _chebyshev_jets() -> np.ndarray:
    jets = np.zeros((40, 40, len(NODES)))
    for j in range(40):
        coeffs = np.eye(40)[j]
        for k in range(j + 1):
            jets[j, k] = cheb.chebval(NODES, coeffs)
            coeffs = cheb.chebder(coeffs)
    jets.flags.writeable = False
    return jets


def chebyshev_jets(count: int, orders: int) -> np.ndarray:
    """Jets of T_0 .. T_{count-1} at the nodes to order orders - 1, from
    numpy's Chebyshev derivative (count, orders <= 40)."""
    return _chebyshev_jets()[:count, :orders]


@pytest.mark.parametrize("theta0", THETAS)
@pytest.mark.parametrize("l,n", MODES)
def test_operator_matrix_columns_are_unit_images(theta0, l, n):
    a = half_width(theta0)
    for j in range(9):
        column = exact_column(j, l, n, a)
        assert all(v == 0 for v in column[j + 1:])
        image = np.array([Fraction(0)], dtype=object)
        for i, c in enumerate(column):
            image = poly.polyadd(image, c * chebyshev_monomials(i))
        expected = s_jet(image, NODES, 3).astype(float)
        got = operator_coeffs(s_jet(chebyshev_monomials(j), NODES, 5).astype(float),
                              l, n, a, NODES)
        for k in range(3):
            scale = float(np.max(np.abs(expected[k]))) + 1.0
            assert np.max(np.abs(got[k] - expected[k])) <= 1e-13 * scale, (j, k)


@pytest.mark.parametrize("theta0", THETAS)
@pytest.mark.parametrize("l,n", MODES)
def test_operator_matrix_upper_triangular(theta0, l, n):
    # the image of T_j has degree j: its jet vanishes past order j, exactly,
    # and its top coefficient is -(j + l)(j + l + n - 1) times T_j's
    size = 12
    jets = chebyshev_jets(size, size + 4)
    images = operator_coeffs(jets, l, n, half_width(theta0), NODES)
    for j in range(size):
        assert np.array_equal(images[j, j + 1:], np.zeros((size + 1 - j, len(NODES)))), j
        assert np.all(images[j, j] != 0.0) or j == l == 0, j


@pytest.mark.parametrize("theta0", THETAS)
@pytest.mark.parametrize("l,n", MODES)
def test_operator_matrix_nests_across_sizes(theta0, l, n):
    # the images of the first `size` jets to a given order are the leading
    # block of the images of more jets to a higher order, bit for bit
    hw = half_width(theta0)
    for size in (1, 2, 5, 16, 33):
        large = operator_coeffs(chebyshev_jets(size + 4, size + 6), l, n, hw, NODES)
        small = operator_coeffs(chebyshev_jets(size, size + 2), l, n, hw, NODES)
        assert np.array_equal(small, large[:size, :size]), size


def test_eval_and_roundtrip():
    # the referee's jet of 1 - 2x + x^2/2 against direct evaluation
    a = half_width(1.0)
    xs = 1.0 - a * (1.0 - NODES)
    jet = exact_jet([1, -2, 0.5], a, NODES, 4).astype(float)
    assert np.allclose(jet[0], 1.0 - 2.0 * xs + 0.5 * xs**2, atol=1e-14)
    assert np.allclose(jet[1], a * (-2.0 + xs), atol=1e-14)
    assert np.allclose(jet[2], np.full(len(NODES), a * a), atol=1e-16)
    assert np.array_equal(jet[3], np.zeros(len(NODES)))


# ------------------------------------------------------ operator, property
# On exact jets of random small polynomials the operator matches the closed
# form's image to 1e-12 of the image's scale (the largest sum of the
# magnitudes of its three terms), row by row: row k is the k-th derivative
# of D_{l,n} F, which the shift identity writes as D_{l+k,n} F^(k).


def term_scale(x_coeffs, l: int, n: int, a: float, s, k: int) -> float:
    """max over s of a^k (|(1 - x^2) F^(k+2)| + (2(l+k) + n) |x F^(k+1)|
    + (l+k)(l+k+n-1) |F^(k)|)."""
    jet = exact_jet(x_coeffs, a, s, k + 3)
    xs = [1 - Fraction(a) * (1 - Fraction(v)) for v in np.atleast_1d(s).tolist()]
    lk = l + k
    terms = [abs((1 - x * x) * f2) / Fraction(a) ** 2 + (2 * lk + n) * abs(x * f1) / Fraction(a)
             + lk * (lk + n - 1) * abs(f0)
             for x, f0, f1, f2 in zip(xs, jet[k], jet[k + 1], jet[k + 2])]
    return float(max(terms))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x_coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
       l=st.integers(0, 50), n=st.integers(2, 12),
       a=st.floats(1e-6, 1.0, exclude_max=True),
       s=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
       orders=st.integers(3, 7))
def test_matches_closed_image_on_exact_jets(x_coeffs, l, n, a, s, orders):
    got = image_of(x_coeffs, l, n, a, s, orders)
    assert got.shape == (orders - 2, len(s))
    image = exact_jet(closed_image(x_coeffs, l, n), a, s, orders - 2)
    for k in range(orders - 2):
        # the shift identity, exactly: a^k (D_{l+k,n} F^(k)) at x
        shifted = exact_jet(closed_image(derivatives(x_coeffs, k + 1)[k], l + k, n),
                            a, s, 1)[0] * Fraction(a) ** k
        assert list(shifted) == list(image[k])
        scale = term_scale(x_coeffs, l, n, a, s, k)
        err = np.max(np.abs(got[k] - image[k].astype(float)))
        assert err <= 1e-12 * scale, (k, err, scale)
