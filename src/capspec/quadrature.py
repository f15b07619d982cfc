"""Gauss-Jacobi quadrature for the weight (1 - s)^gamma on [-1, 1].

Nodes are the roots of the degree-m Jacobi polynomial for parameters
(gamma, 0). Newton's method polishes start nodes to full precision; the
start depends on gamma.

For gamma = 0 (Legendre) the start comes from an asymptotic formula and
needs no eigenproblem (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013,
A652). The rule is symmetric, so only its floor(m/2) positive nodes are
found, plus the node 0 for odd m. With x = cos(theta), Olver's expansion
puts the k-th positive node, counted from x = 1, at

    theta_k = psi_k + (psi_k cot psi_k - 1) / (8 psi_k rho^2),
    psi_k = j_{0,k} / rho,    rho = m + 1/2,

where j_{0,k} is the k-th zero of the Bessel function J_0: the first 20
come from a table, the rest from McMahon's expansion (DLMF 10.21.19). These
start nodes lie within 0.03 rho^-4 + 1e-15 of the true ones; the 1e-15
is rounding, which dominates from about m = 2000. The polished half is
mirrored, so nodes and weights are exactly symmetric.

For any other gamma the start is the Golub-Welsch one (Golub & Welsch,
Math. Comp. 23, 1969): the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the three-term recurrence, with diagonal
-gamma^2 / ((2k+gamma)(2k+gamma+2)) and off-diagonal
2k(k+gamma) / ((2k+gamma) sqrt((2k+gamma)^2 - 1)).

Each Newton pass runs the three-term recurrence once at the nodes, which
gives P_m and P_{m-1}. The derivative follows from the Jacobi identity

    (2m+gamma) (1 - x^2) P_m' = m (gamma - (2m+gamma) x) P_m + 2m (m+gamma) P_{m-1},

and the Jacobi differential equation and its derivative give P_m'' and
P_m''':

    (1 - x^2) P_m''  = (gamma + (gamma+2) x) P_m' - m (m+gamma+1) P_m,
    (1 - x^2) P_m''' = (gamma + (gamma+4) x) P_m'' + (gamma + 2 - m (m+gamma+1)) P_m'.

The passes stop once the error Newton predicts for the next pass,
|P_m'' / (2 P_m')| step^2, is below every node's ulp. That takes one pass
from a Golub-Welsch start and from the Legendre start at m >= 37, and at
most three below that. The derivative is carried to the polished node to
second order in the last step. With the second parameter fixed at 0 the
classical weight normalization collapses to 2^(gamma+1), so no Gamma
functions appear:

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
# has 2092 nodes); a Golub-Welsch start (gamma != 0) forms a dense Jacobi
# matrix, 128 MB at this size
MAX_NODES = 4096

# Newton passes before a rule is refused; the Legendre start needs at most 3
MAX_PASSES = 6

# the first 20 zeros of the Bessel function J_0
_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
])


def gauss_jacobi_rule(gamma: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, inside (-1, 1)) and positive weights.

    gamma >= 0 is the weight exponent; 1 <= m <= MAX_NODES the node count.
    Raises NoConvergence if the Newton passes have not converged after
    MAX_PASSES, or if the polished nodes are not strictly ascending or a
    weight is not positive; either signals an implementation bug.
    """
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= MAX_NODES):
        raise ValidationError(
            f"node count must be an integer in 1..{MAX_NODES}, got {m!r}")
    gamma = float(gamma)
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise ValidationError(f"weight exponent must be finite and >= 0, got {gamma}")
    m = int(m)
    x, weights = _newton(gamma, m, _start_nodes(gamma, m))
    if gamma == 0.0:
        half = m // 2
        x = np.concatenate((-x[::-1][:half], x))
        weights = np.concatenate((weights[::-1][:half], weights))
    if not (np.all(np.diff(x) > 0.0) and np.all(weights > 0.0)):
        raise NoConvergence("polished nodes not strictly ascending with positive weights")
    return x, weights


def _start_nodes(gamma: float, m: int) -> np.ndarray:
    """Start nodes, ascending: for gamma = 0 the floor(m/2) positive ones
    from Olver's expansion, after the node 0 for odd m; otherwise all m
    Golub-Welsch nodes (see the module docstring)."""
    if gamma != 0.0:
        return np.linalg.eigvalsh(_jacobi_matrix(gamma, m))
    half, odd = divmod(m, 2)
    rho = m + 0.5
    psi = _j0_zeros(half) / rho
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho * rho)
    return np.concatenate((np.zeros(odd), np.cos(theta[::-1])))


def _j0_zeros(count: int) -> np.ndarray:
    """The first count zeros of J_0: the table, then McMahon's expansion in
    1/beta with beta = (k - 1/4) pi."""
    beta = (np.arange(len(_J0_ZEROS) + 1, count + 1) - 0.25) * np.pi
    r = 1.0 / beta
    r2 = r * r
    tail = beta + r * (0.125 + r2 * (-31.0 / 384.0 + r2 * (
        3779.0 / 15360.0 - r2 * 6277237.0 / 3440640.0)))
    return np.concatenate((_J0_ZEROS[:count], tail))


def _newton(gamma: float, m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton passes from the start nodes x until the predicted next error
    is below every node's ulp; the polished nodes and their weights."""
    t = 2.0 * m + gamma
    for _ in range(MAX_PASSES):
        p_m, p_prev = _jacobi_recurrence(gamma, m, x)
        one_minus_x2 = 1.0 - x * x
        deriv = (m * (gamma - t * x) * p_m + 2.0 * m * (m + gamma) * p_prev) / (t * one_minus_x2)
        second = ((gamma + (gamma + 2.0) * x) * deriv - m * (m + gamma + 1.0) * p_m) / one_minus_x2
        step = -p_m / deriv
        polished = x + step
        if np.all(np.abs(second / (2.0 * deriv)) * step * step < np.spacing(np.abs(polished))):
            third = ((gamma + (gamma + 4.0) * x) * second
                     + (gamma + 2.0 - m * (m + gamma + 1.0)) * deriv) / one_minus_x2
            deriv = deriv + second * step + 0.5 * third * step * step
            return polished, 2.0 ** (gamma + 1.0) / ((1.0 - polished * polished) * deriv * deriv)
        x = polished
    raise NoConvergence(f"{m}-node Gauss-Jacobi rule not converged after {MAX_PASSES} Newton passes")


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
