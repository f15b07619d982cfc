"""Radial reduction of the sphere Laplacian on a geodesic cap.

A function u = sin(theta)^l * q(cos(theta)) * Y_l, with Y_l a degree-l
harmonic on the equatorial sphere, has

    Laplacian(u) = sin(theta)^l * (D_{l,n} q)(cos(theta)) * Y_l,
    (D_{l,n} q)(x) = (1 - x^2) q'' - (2l + n) x q' - l (l + n - 1) q,

so the cap eigenproblems reduce per mode l to polynomial work in
x = cos(theta) on [cos(theta0), 1]. Polynomials are stored by their
Chebyshev coefficients in the mapped variable s = 1 - (1 - x)/a on [-1, 1];
the cap's half-width a = (1 - cos(theta0))/2 travels with the coefficients.

D_{l,n} acts on coefficients as one upper-triangular matrix,

    D_{l,n} = M2 - (2l + n) M1 - l (l + n - 1) I,

with M2 = (1 - x^2) d^2/dx^2 and M1 = x d/dx written as Chebyshev-in-s
coefficient matrices. It is exact on polynomials and does not raise the
degree: the matrices come from the Chebyshev differentiation and
multiplication-by-s recurrences, never from sampled values. M1 and M2 do not
depend on the mode, so they are built once per (a, size), and the size-s
matrix is exactly the leading s x s block of every larger one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError

# the largest dimension and mode index accepted anywhere: floats formed from
# them are exact, and the largest multiplicity (l = n = 10000, 19992 bits) takes ~16 ms
MAX_DIMENSION = 10_000
MAX_MODE = 10_000


def shown(value) -> str:
    """repr(value), or the bit length of an integer too wide to print."""
    if isinstance(value, (int, np.integer)) and int(value).bit_length() > 64:
        return f"an integer of {int(value).bit_length()} bits"
    return repr(value)


def multiplicity(l: int, n: int) -> int:
    """Dimension of the degree-l harmonics on the equatorial (n-1)-sphere.

    n = 2: 1 for l = 0, else 2. n >= 3: (2l+n-2) (l+n-3)! / (l! (n-2)!),
    evaluated exactly as (2l+n-2) C(l+n-3, l) / (n-2), whose cost grows with
    min(l, n-3) rather than with l + n, and is bounded by the limits above.
    """
    if not (isinstance(l, (int, np.integer)) and 0 <= l <= MAX_MODE):
        raise ValidationError(f"mode index must be an integer in 0..{MAX_MODE}, got {shown(l)}")
    if not (isinstance(n, (int, np.integer)) and 2 <= n <= MAX_DIMENSION):
        raise ValidationError(f"dimension must be an integer in 2..{MAX_DIMENSION}, got {shown(n)}")
    if n == 2:
        return 1 if l == 0 else 2
    return (2 * l + n - 2) * math.comb(l + n - 3, l) // (n - 2)


def operator_coeffs(c: np.ndarray, l: int, n: int, half_width: float) -> np.ndarray:
    """Coefficient-level D_{l,n} on Chebyshev-in-s coefficients of the cap
    of the given half-width; an array of the same length as c.
    """
    c = np.asarray(c, dtype=float)
    return operator_matrix(l, n, half_width, len(c)) @ c


def operator_matrix(l: int, n: int, half_width: float, size: int) -> np.ndarray:
    """D_{l,n} as a (size, size) upper-triangular matrix on Chebyshev-in-s
    coefficients of the cap of the given half-width: column j is the image of T_j(s)."""
    a = float(half_width)
    scaled_m1, scaled_m2 = _derivative_matrices(a, int(size))
    return (scaled_m2 / a - float(2 * l + n) * scaled_m1) / a - float(
        l * (l + n - 1)
    ) * np.eye(size)


@functools.lru_cache(maxsize=32)
def _derivative_matrices(a: float, size: int):
    """a * M1 and a^2 * M2 for the map x = a s + b, b = 1 - a, a the half-width.

    Built from integer and half-integer Chebyshev recurrence matrices whose
    products are exact in floating point, so every entry is independent of
    size and the nesting across sizes holds bit for bit.
    """
    b = 1.0 - a
    j = np.arange(size)
    gap = j[None, :] - j[:, None]
    # d/ds: T_j' = 2j sum over k < j with j - k odd of T_k, the T_0 term halved
    der = np.where((gap > 0) & (gap % 2 == 1), 2.0 * j[None, :], 0.0)
    der[:1] /= 2.0
    mul_s = multiply_by_s_matrix(size)
    der2 = der @ der
    s_der2 = mul_s @ der2
    # x d/dx = (b + a s) d/ds / a; (1 - x^2) = a (2 - a) - 2ab s - a^2 s^2
    scaled_m1 = b * der + a * (mul_s @ der)
    scaled_m2 = a * (2.0 - a) * der2 - 2.0 * a * b * s_der2 - a * a * (mul_s @ s_der2)
    scaled_m1.flags.writeable = False
    scaled_m2.flags.writeable = False
    return scaled_m1, scaled_m2


def multiply_by_s_matrix(size: int) -> np.ndarray:
    """Multiplication by s as a (size, size) matrix on Chebyshev-in-s
    coefficients, from s T_j = (T_{j-1} + T_{j+1}) / 2 and s T_0 = T_1; the
    image of T_{size-1} loses its T_size term."""
    j = np.arange(size)
    mul_s = np.zeros((size, size))
    mul_s[j[1:], j[:-1]] = 0.5
    mul_s[j[:-1], j[1:]] = 0.5
    if size > 1:
        mul_s[1, 0] = 1.0
    return mul_s
