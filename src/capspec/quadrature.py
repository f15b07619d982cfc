"""Gauss-Jacobi quadrature for the weight (1 - s)^gamma on [-1, 1].

Nodes are the roots of the degree-m Jacobi polynomial for parameters
(gamma, 0), computed by the Golub-Welsch method (Golub & Welsch, Math. Comp.
23, 1969): they are the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the three-term recurrence, with diagonal
-gamma^2 / ((2k+gamma)(2k+gamma+2)) (0 when gamma = 0) and off-diagonal
2k(k+gamma) / ((2k+gamma) sqrt((2k+gamma)^2 - 1)).

For gamma = 0 (Legendre) the eigenproblem is solved at half size. The
quadratic transformation (Szego, Orthogonal Polynomials, Section 4.1)

    P_2k(x) ~ P_k^(-1/2, 0)(1 - 2x^2),    P_2k+1(x) ~ x P_k^(1/2, 0)(1 - 2x^2)

puts the nodes at x = +-sqrt((1 - v)/2), with v the k nodes for the weight
(1 - v)^(-1/2) (m = 2k) or (1 - v)^(1/2) (m = 2k + 1, plus the node 0).
Both are Jacobi matrices of the same form, of order floor(m/2), and the
start nodes come out exactly symmetric.

One pass of the three-term recurrence at those nodes gives P_m and P_{m-1};
the derivative follows from the Jacobi identity

    (2m+gamma) (1 - x^2) P_m' = m (gamma - (2m+gamma) x) P_m + 2m (m+gamma) P_{m-1},

and one Newton step polishes each node to full precision. The derivative is
carried to the polished node by a first-order step with P_m'', which the
Jacobi differential equation gives from P_m and P_m':

    (1 - x^2) P_m'' = (gamma + (gamma+2) x) P_m' - m (m+gamma+1) P_m.

With the second parameter fixed at 0 the classical weight normalization
collapses to 2^(gamma+1), so no Gamma functions appear:

    w_i = 2^(gamma+1) / ((1 - x_i^2) * P_m'(x_i)^2)

The resulting rule integrates polynomials of degree <= 2m - 1 against the
weight to relative 1e-13 (relative to the weight mass). Any gamma >= 0 and
any m <= MAX_NODES are accepted, but the solver asks only for gamma in
{0, 1/2}: the integer part of its weight exponent is folded into the
integrand (see capspec.spectral), so a solve builds one rule per node count.
Each call builds its rule afresh and returns arrays the caller owns; the
solver caches its two rules, read-only, in capspec.spectral._shared_rule.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, ValidationError

# the largest rule built (--quad 2048, doubled; the largest automatic rule
# has 2092 nodes), and a dense Jacobi matrix at this size is 128 MB
MAX_NODES = 4096


def gauss_jacobi_rule(gamma: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, inside (-1, 1)) and positive weights.

    gamma >= 0 is the weight exponent; 1 <= m <= MAX_NODES the node count.
    Raises NoConvergence only if the eigenvalue nodes after the Newton step
    are not strictly ascending or a weight is not positive, which signals
    an implementation bug for any m <= 512.
    """
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= MAX_NODES):
        raise ValidationError(
            f"node count must be an integer in 1..{MAX_NODES}, got {m!r}")
    gamma = float(gamma)
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise ValidationError(f"weight exponent must be finite and >= 0, got {gamma}")
    m = int(m)
    x = _start_nodes(gamma, m)
    p_m, p_prev = _jacobi_recurrence(gamma, m, x)
    t = 2.0 * m + gamma
    one_minus_x2 = 1.0 - x * x
    deriv = (m * (gamma - t * x) * p_m + 2.0 * m * (m + gamma) * p_prev) / (t * one_minus_x2)
    second = ((gamma + (gamma + 2.0) * x) * deriv - m * (m + gamma + 1.0) * p_m) / one_minus_x2
    step = -p_m / deriv
    x = x + step
    deriv = deriv + second * step
    weights = 2.0 ** (gamma + 1.0) / ((1.0 - x * x) * deriv * deriv)
    if not (np.all(np.diff(x) > 0.0) and np.all(weights > 0.0)):
        raise NoConvergence("polished nodes not strictly ascending with positive weights")
    return x, weights


def _start_nodes(gamma: float, m: int) -> np.ndarray:
    """The m Golub-Welsch nodes, ascending, before the Newton step; for
    gamma = 0 from the half-size eigenproblem of the quadratic
    transformation (see the module docstring)."""
    if gamma != 0.0:
        return np.linalg.eigvalsh(_jacobi_matrix(gamma, m))
    k, odd = divmod(m, 2)
    v = np.linalg.eigvalsh(_jacobi_matrix(0.5 if odd else -0.5, k))
    half = np.sqrt(0.5 * (1.0 - v))  # descending in (0, 1)
    return np.concatenate((-half, np.zeros(odd), half[::-1]))


def _jacobi_matrix(gamma: float, m: int) -> np.ndarray:
    """Symmetric tridiagonal Jacobi matrix of the orthonormal polynomials
    for the weight (1 - s)^gamma; its eigenvalues are the m nodes."""
    k = np.arange(m, dtype=float)
    t = 2.0 * k + gamma
    diag = np.zeros(m) if gamma == 0.0 else -gamma * gamma / (t * (t + 2.0))
    k = k[1:]
    t = t[1:]
    off = 2.0 * k * (k + gamma) / (t * np.sqrt(t * t - 1.0))
    mat = np.zeros((m, m))
    flat = mat.reshape(-1)  # row-major view: a step of m + 1 walks a diagonal
    flat[:: m + 1] = diag
    flat[1 :: m + 1] = off
    flat[m :: m + 1] = off
    return mat


def _jacobi_recurrence(gamma: float, m: int, x: np.ndarray):
    """P_m and P_{m-1} at x, Jacobi parameters (gamma, 0), by the three-term
    recurrence P_k = (a_k x + b_k) P_{k-1} - c_k P_{k-2}."""
    k = np.arange(2.0, m + 1.0)
    t = 2.0 * k + gamma
    den = 2.0 * k * (k + gamma) * (t - 2.0)
    a = (t - 1.0) * t * (t - 2.0) / den
    b = (t - 1.0) * gamma * gamma / den
    c = (2.0 * (k + gamma - 1.0) * (k - 1.0) * t / den).tolist()
    p_prev = np.ones_like(x)
    p = 0.5 * (gamma + 2.0) * x + 0.5 * gamma
    for lin, ck in zip(np.outer(a, x) + b[:, None], c):
        p_prev, p = p, lin * p - ck * p_prev
    return p, p_prev
