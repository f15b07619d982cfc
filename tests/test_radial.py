"""Radial operator and harmonic multiplicities."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as poly

from capspec.errors import ValidationError
from capspec.radial import (
    MAX_DIMENSION,
    MAX_MODE,
    multiplicity,
    operator_coeffs,
    operator_matrix,
)

THETAS = [np.pi / 2, 1.0, 2.0 * np.pi / 3.0]


# ------------------------------------------------ referee polynomial class
# A polynomial in x = cos(theta) held by its Chebyshev-in-s coefficients and
# the cap's half-width a = (1 - x0)/2, x = 1 - a (1 - s), with the operator
# applied through the coefficient-level D_{l,n}; the examples below pin that
# operator, and the matrix tests check operator_matrix against it column by
# column.


def half_width(theta0: float) -> float:
    """(1 - cos(theta0))/2, formed as SolverConfig.half_width forms it."""
    return math.sin(theta0 / 2.0) ** 2


@dataclass(frozen=True)
class RadialPoly:
    """Chebyshev coefficients in the mapped variable, plus the half-width."""

    coeffs: np.ndarray
    half_width: float

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.coeffs, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("coefficients must be finite")
        if not 0.0 < self.half_width < 1.0:
            raise ValidationError(f"half-width must lie in (0, 1), got {self.half_width}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_x_coeffs(cls, x_coeffs, half_width: float) -> "RadialPoly":
        """Build from monomial coefficients in x (constant first)."""
        a = half_width
        # compose with x = a s + b, b = 1 - a, then convert the s-monomial
        # to Chebyshev
        s_poly = np.polynomial.polynomial.Polynomial([1.0 - a, a])
        composed = np.polynomial.polynomial.Polynomial(np.atleast_1d(x_coeffs))(s_poly)
        return cls(cheb.poly2cheb(composed.coef), half_width)

    def eval_x(self, x):
        """Evaluate at x = cos(theta) points."""
        s = 1.0 - (1.0 - np.asarray(x, dtype=float)) / self.half_width
        return cheb.chebval(s, self.coeffs)


def apply_radial_operator(q: RadialPoly, l: int, n: int) -> RadialPoly:
    """D_{l,n} q, exactly, with the degree preserved."""
    multiplicity(l, n)  # reuses its argument validation
    out = operator_coeffs(q.coeffs, l, n, q.half_width)
    return RadialPoly(out, q.half_width)


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
# Eigenfunction identities pin the operator exactly: with u the restriction
# of a degree-d solid harmonic, the sphere Laplacian gives -d(d+n-1) u.


@pytest.mark.parametrize("theta0", THETAS)
def test_linear_q_mode0_n3(theta0):
    a = half_width(theta0)
    q = RadialPoly.from_x_coeffs([0.0, 1.0], a)
    out = apply_radial_operator(q, 0, 3)
    expected = RadialPoly.from_x_coeffs([0.0, -3.0], a)
    assert np.array_equal(out.coeffs, expected.coeffs)  # exact


@pytest.mark.parametrize("theta0", THETAS)
def test_linear_q_mode1_n2(theta0):
    a = half_width(theta0)
    q = RadialPoly.from_x_coeffs([0.0, 1.0], a)
    out = apply_radial_operator(q, 1, 2)
    expected = RadialPoly.from_x_coeffs([0.0, -6.0], a)
    assert np.allclose(out.coeffs, expected.coeffs, rtol=0.0, atol=1e-15)


def test_constant_q_mode1_n2():
    q = RadialPoly.from_x_coeffs([1.0], 0.5)
    out = apply_radial_operator(q, 1, 2)
    assert np.array_equal(out.coeffs, [-2.0])


def test_constant_q_harmonic():
    q = RadialPoly.from_x_coeffs([1.0], 0.35)
    out = apply_radial_operator(q, 0, 4)
    assert np.array_equal(out.coeffs, [0.0])


def test_degree2_hand_value():
    # q = x^2, l = 0, n = 2: (1-x^2)*2 - 2x*2x = 2 - 6x^2
    q = RadialPoly.from_x_coeffs([0.0, 0.0, 1.0], 0.5)
    out = apply_radial_operator(q, 0, 2)
    expected = RadialPoly.from_x_coeffs([2.0, 0.0, -6.0], 0.5)
    assert np.allclose(out.coeffs, expected.coeffs, atol=1e-14)


def test_degree_preserved():
    rng = np.random.RandomState(2)
    for deg in (0, 1, 2, 5, 11):
        q = RadialPoly(rng.standard_normal(deg + 1), 0.6)
        out = apply_radial_operator(q, 2, 3)
        assert out.degree == deg


def test_linearity_exact_for_dyadic_inputs():
    # exact as long as nothing rounds: dyadic scalars, small-integer
    # coefficients, dyadic half-width
    rng = np.random.RandomState(4)
    a = 0.25
    for alpha in (2.0, 0.5, -4.0):
        c1 = rng.randint(-8, 9, size=7).astype(float)
        c2 = rng.randint(-8, 9, size=7).astype(float)
        q1 = RadialPoly(c1, a)
        q2 = RadialPoly(c2, a)
        combo = RadialPoly(alpha * c1 + c2, a)
        left = apply_radial_operator(combo, 1, 3).coeffs
        right = alpha * apply_radial_operator(q1, 1, 3).coeffs + apply_radial_operator(
            q2, 1, 3
        ).coeffs
        assert np.array_equal(left, right)


def test_linearity_general_scalars():
    rng = np.random.RandomState(6)
    a = 0.7
    for _ in range(25):
        alpha = float(rng.standard_normal())
        c1 = rng.standard_normal(9)
        c2 = rng.standard_normal(9)
        combo = RadialPoly(alpha * c1 + c2, a)
        left = apply_radial_operator(combo, 3, 4).coeffs
        right = alpha * apply_radial_operator(
            RadialPoly(c1, a), 3, 4
        ).coeffs + apply_radial_operator(RadialPoly(c2, a), 3, 4).coeffs
        scale = float(np.max(np.abs(right))) + 1.0
        assert np.max(np.abs(left - right)) <= 1e-13 * scale


# ------------------------------------------------------ operator as a matrix
# On monomials the operator has the closed form
#   D x^k = k(k-1) x^(k-2) - (k(k-1) + (2l+n) k + l(l+n-1)) x^k,
# which cross-checks every column without the Chebyshev recurrences. The
# change of basis T_j(s) -> x^k -> T_i(s) is badly conditioned for small
# caps, so the oracle runs in exact rational arithmetic.

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


@pytest.mark.parametrize("theta0", THETAS)
@pytest.mark.parametrize("l,n", MODES)
def test_operator_matrix_columns_are_unit_images(theta0, l, n):
    hw = half_width(theta0)
    a = Fraction(hw)
    b = 1 - a
    size = 9
    mat = operator_matrix(l, n, hw, size)
    assert mat.shape == (size, size)
    for j in range(size):
        unit = np.zeros(size)
        unit[j] = 1.0
        # T_j(s) in x-monomials, its image by the closed form, back to T_i(s)
        t_j = np.array([Fraction(v) for v in unit[: j + 1]], dtype=object)
        x_coeffs = _compose(cheb.cheb2poly(t_j), [-b / a, 1 / a])
        image = _compose(_monomial_image(x_coeffs, l, n), [b, a])
        expected = np.zeros(size)
        expected[: len(image)] = [float(v) for v in _monomials_to_chebyshev(image)]
        scale = float(np.max(np.abs(expected))) + 1.0
        assert np.max(np.abs(mat[:, j] - expected)) <= 1e-13 * scale, j
        # the coefficient-level operator is this matrix applied to c
        assert np.array_equal(apply_radial_operator(RadialPoly(unit, hw), l, n).coeffs,
                              mat @ unit)


@pytest.mark.parametrize("theta0", THETAS)
@pytest.mark.parametrize("l,n", MODES)
def test_operator_matrix_upper_triangular(theta0, l, n):
    mat = operator_matrix(l, n, half_width(theta0), 12)
    assert np.array_equal(np.tril(mat, -1), np.zeros_like(mat))


@pytest.mark.parametrize("theta0", THETAS)
@pytest.mark.parametrize("l,n", MODES)
def test_operator_matrix_nests_across_sizes(theta0, l, n):
    hw = half_width(theta0)
    for size in (1, 2, 5, 16, 33):
        small = operator_matrix(l, n, hw, size)
        large = operator_matrix(l, n, hw, size + 4)
        assert np.array_equal(small, large[:size, :size]), size


def test_eval_and_roundtrip():
    q = RadialPoly.from_x_coeffs([1.0, -2.0, 0.5], half_width(1.0))
    xs = np.linspace(np.cos(1.0), 1.0, 7)
    direct = 1.0 - 2.0 * xs + 0.5 * xs**2
    assert np.allclose(q.eval_x(xs), direct, atol=1e-14)


def test_radial_poly_validation():
    with pytest.raises(ValidationError):
        RadialPoly(np.array([]), 0.5)
    with pytest.raises(ValidationError):
        RadialPoly([1.0, np.inf], 0.5)
    with pytest.raises(ValidationError):
        RadialPoly([1.0], 1.0)
