"""Radial reduction of the sphere Laplacian on a geodesic cap.

A function u = sin(theta)^l * q(cos(theta)) * Y_l, with Y_l a degree-l
harmonic on the equatorial sphere, has

    Laplacian(u) = sin(theta)^l * (D_{l,n} q)(cos(theta)) * Y_l,
    (D_{l,n} q)(x) = (1 - x^2) q'' - (2l + n) x q' - l (l + n - 1) q,

so the cap eigenproblems reduce per mode l to work in x = cos(theta) on
[cos(theta0), 1]. The solver samples functions of the mapped variable
s = 1 - (1 - x)/a on [-1, 1], a = (1 - cos(theta0))/2 the cap's half-width,
at quadrature nodes, together with their s-derivatives: the jet of f.
With d/dx = (1/a) d/ds and 1 - x^2 = a (1 - s) (2 - a (1 - s)),

    (D_{l,n} f) = c2 f_ss - (2l + n) (x/a) f_s - l (l + n - 1) f,
    c2 = (1 - s) (2 - a (1 - s)) / a,    x/a = (1 - a (1 - s)) / a,

holds pointwise. Differentiating k times gives the shift identity

    d^k (D_{l,n} f) / ds^k = D_{l+k,n} f^(k),

so the jet of D_{l,n} f to order K - 3 comes from the jet of f to order
K - 1, node by node, with no derivative taken numerically.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ValidationError, _is_int

# the largest dimension and mode index accepted anywhere: floats formed from
# them are exact, and the largest multiplicity (l = n = 10000, 19992 bits) takes ~16 ms
MAX_DIMENSION = 10_000
MAX_MODE = 10_000


def shown(value) -> str:
    """repr(value), or the bit length of a Python int too wide to print."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def multiplicity(l: int, n: int) -> int:
    """Dimension of the degree-l harmonics on the equatorial (n-1)-sphere.

    n = 2: 1 for l = 0, else 2. n >= 3: (2l+n-2) (l+n-3)! / (l! (n-2)!),
    evaluated exactly as (2l+n-2) C(l+n-3, l) / (n-2), whose cost grows with
    min(l, n-3) rather than with l + n, and is bounded by the limits above.
    """
    if not (_is_int(l) and 0 <= l <= MAX_MODE):
        raise ValidationError(f"mode index must be an integer in 0..{MAX_MODE}, got {shown(l)}")
    if not (_is_int(n) and 2 <= n <= MAX_DIMENSION):
        raise ValidationError(f"dimension must be an integer in 2..{MAX_DIMENSION}, got {shown(n)}")
    l, n = operator.index(l), operator.index(n)  # numpy integers overflow below
    if n == 2:
        return 1 if l == 0 else 2
    return (2 * l + n - 2) * math.comb(l + n - 3, l) // (n - 2)


def operator_coeffs(jet: np.ndarray, l, n: int, half_width: float,
                    s: np.ndarray) -> np.ndarray:
    """D_{l,n} applied to a jet at the nodes s, for the cap of the given
    half-width: jet[..., k, :] holds the k-th s-derivative of f at s, and the
    result holds those of D_{l,n} f, two orders fewer.

    Row k of the result is D_{l+k,n} applied to f^(k), by the shift identity
    (see the module docstring); l may be a mode array broadcast against jet[..., 0, 0].
    """
    a = float(half_width)
    one_minus_s = 1.0 - s
    c2 = one_minus_s * (2.0 - a * one_minus_s) / a  # (1 - x^2) / a^2
    c1 = (1.0 - a * one_minus_s) / a  # x / a
    lk = (np.asarray(l, dtype=float)[..., None] + np.arange(jet.shape[-2] - 2))[..., None]
    out = ((2.0 * lk + n) * c1) * jet[..., 1:-1, :]  # first: it has the mode axis too
    np.subtract(c2 * jet[..., 2:, :], out, out=out)
    out -= (lk * (lk + (n - 1))) * jet[..., :-2, :]
    return out
