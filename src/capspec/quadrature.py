"""Gauss-Jacobi quadrature for the weight (1 - s)^gamma on [-1, 1].

Nodes are the roots of the degree-m Jacobi polynomial for parameters
(gamma, 0), computed by the Golub-Welsch method (Golub & Welsch, Math. Comp.
23, 1969): they are the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the three-term recurrence, with diagonal
-gamma^2 / ((2k+gamma)(2k+gamma+2)) (0 when gamma = 0) and off-diagonal
2k(k+gamma) / ((2k+gamma) sqrt((2k+gamma)^2 - 1)). Two Newton steps on the
recurrence-evaluated polynomial then polish each node to full precision.
With the second parameter fixed at 0 the classical weight normalization
collapses to 2^(gamma+1), so no Gamma functions appear:

    w_i = 2^(gamma+1) / ((1 - x_i^2) * P_m'(x_i)^2)

The resulting rule integrates polynomials of degree <= 2m - 1 against the
weight to relative 1e-13 (relative to the weight mass). Any gamma >= 0 is
accepted, but the solver asks only for gamma in {0, 1/2}: the integer part
of its weight exponent is folded into the integrand (see capspec.spectral),
so a solve builds one rule per node count.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NoConvergence, ValidationError

_NEWTON_STEPS = 2


def gauss_jacobi_rule(gamma: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, inside (-1, 1)) and positive weights.

    gamma >= 0 is the weight exponent; m >= 1 the node count. Raises
    NoConvergence only if the eigenvalue nodes after Newton polishing are
    not strictly ascending or a weight is not positive, which signals an
    implementation bug for any m <= 512.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValidationError(f"node count must be a positive integer, got {m!r}")
    gamma = float(gamma)
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise ValidationError(f"weight exponent must be finite and >= 0, got {gamma}")
    nodes, weights = _cached_rule(gamma, int(m))
    return nodes.copy(), weights.copy()


@functools.lru_cache(maxsize=512)
def _cached_rule(gamma: float, m: int):
    x = np.linalg.eigvalsh(_jacobi_matrix(gamma, m))
    for _ in range(_NEWTON_STEPS):
        val, deriv = _jacobi_eval(gamma, m, x)
        x = x - val / deriv
    _, deriv = _jacobi_eval(gamma, m, x)
    weights = 2.0 ** (gamma + 1.0) / ((1.0 - x * x) * deriv * deriv)
    if not (np.all(np.diff(x) > 0.0) and np.all(weights > 0.0)):
        raise NoConvergence("polished nodes not strictly ascending with positive weights")
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def _jacobi_matrix(gamma: float, m: int) -> np.ndarray:
    """Symmetric tridiagonal Jacobi matrix of the orthonormal polynomials
    for the weight (1 - s)^gamma; its eigenvalues are the m nodes."""
    k = np.arange(m, dtype=float)
    t = 2.0 * k + gamma
    diag = np.zeros(m) if gamma == 0.0 else -gamma * gamma / (t * (t + 2.0))
    k = k[1:]
    t = t[1:]
    off = 2.0 * k * (k + gamma) / (t * np.sqrt(t * t - 1.0))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _jacobi_eval(gamma: float, m: int, x: np.ndarray):
    """Value and derivative of the degree-m Jacobi polynomial, parameters
    (gamma, 0), by the three-term recurrence (differentiated termwise)."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    d_prev = np.zeros_like(x)
    if m == 0:
        return p_prev, d_prev
    p = 0.5 * (gamma + 2.0) * x + 0.5 * gamma
    d = np.full_like(x, 0.5 * (gamma + 2.0))
    for k in range(2, m + 1):
        den = 2.0 * k * (k + gamma) * (2.0 * k + gamma - 2.0)
        ak = (2.0 * k + gamma - 1.0) * (2.0 * k + gamma) * (2.0 * k + gamma - 2.0) / den
        bk = (2.0 * k + gamma - 1.0) * gamma * gamma / den
        ck = 2.0 * (k + gamma - 1.0) * (k - 1.0) * (2.0 * k + gamma) / den
        lin = ak * x + bk
        p_next = lin * p - ck * p_prev
        d_next = lin * d + ak * p - ck * d_prev
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d
