"""Gauss-Jacobi quadrature for the weight (1 - s)^gamma on [-1, 1].

Nodes are the roots of the degree-m Jacobi polynomial for parameters
(gamma, 0). Newton's method polishes start nodes from an asymptotic
formula, so no eigenproblem is solved (Hale & Townsend, SIAM J. Sci.
Comput. 35, 2013, A652). For gamma = 0 (Legendre) the rule is symmetric, so
only its floor(m/2) positive nodes are found, plus the node 0 for odd m.
With x = cos(theta), Olver's expansion puts the k-th of them, counted from
x = 1, at

    theta_k = psi_k + (psi_k cot psi_k - 1) / (8 psi_k rho^2),
    psi_k = j_{0,k} / rho,    rho = m + 1/2,

where j_{0,k} is the k-th zero of the Bessel function J_0: the first 20
come from a table, the rest from McMahon's expansion (DLMF 10.21.19). These
start nodes lie within 0.03 rho^-4 + 1e-15 of the true ones; the 1e-15
is rounding, which dominates from about m = 2000. The polished half is
mirrored, so nodes and weights are exactly symmetric.

For gamma = 1/2 (odd n) Szego's quadratic transformation (Orthogonal
Polynomials, Theorem 4.1), P_{2m+1}(u) = c u P_m^(0,1/2)(2u^2 - 1), puts
the nodes at 1 - 2u_k^2 for the m positive nodes u_k of the (2m + 1)-node
Legendre rule, so they start at -cos(2 theta_k) with Olver's angles for
2m + 1 nodes. Any other gamma in (0, MAX_EXPONENT] starts from Gatteschi &
Pittaluga's expansion (Teubner-Texte Math. 79, 1985) with the second
parameter 0: x_k = cos(theta_k), k = 1..m counted from x = 1, with

    theta_k = t_k + ((1/4 - gamma^2) cot(t_k/2) - tan(t_k/2) / 4) / (4 rho^2),
    t_k = (k + gamma/2 - 1/4) pi / rho,    rho = m + (gamma + 1)/2.

Each Newton pass runs the three-term recurrence once at the nodes, which
gives P_m and P_{m-1}. The derivative follows from the Jacobi identity

    (2m+gamma) (1 - x^2) P_m' = m (gamma - (2m+gamma) x) P_m + 2m (m+gamma) P_{m-1},

and the Jacobi differential equation and its derivative give P_m'' and
P_m''':

    (1 - x^2) P_m''  = (gamma + (gamma+2) x) P_m' - m (m+gamma+1) P_m,
    (1 - x^2) P_m''' = (gamma + (gamma+4) x) P_m'' + (gamma + 2 - m (m+gamma+1)) P_m'.

The passes stop once the error Newton predicts for the next pass,
|P_m'' / (2 P_m')| step^2, is below every node's ulp. From m = 37 on that
takes one pass from the Legendre start (three at most below), from m = 24
on one from the gamma = 1/2 start (two at most below), and at most five
from the Gatteschi-Pittaluga start (measured up to m = 4096). The
derivative is carried to the polished node to second order in the last
step. With the second parameter fixed at 0 the classical weight
normalization collapses to 2^(gamma+1), so no Gamma functions appear:

    w_i = 2^(gamma+1) / ((1 - x_i^2) * P_m'(x_i)^2)

Both 1 - x^2 are formed without cancelling near the ends: at the start
node as (1 - x)(1 + x), and at the polished node x + step, before it is
rounded to a float, as (1 - x)(1 + x) - step (2x + step), where the
derivative is carried. 1 - x*x would cost up to eps / (1 - x^2) relative
at the end nodes, and so would the rounding of the node.

The resulting rule integrates polynomials of degree <= 2m - 1 against the
weight to relative 1e-13 (relative to the weight mass). The solver asks
only for gamma in {0, 1/2}: the integer part of its weight exponent is
folded into the integrand (see capspec.spectral), so a solve needs one
rule of m nodes and one of 2m for the node-doubling check.
gauss_jacobi_pair builds both at once. The recurrence coefficients a_k,
b_k, c_k do not depend on m, so the degree-m recurrence is the first
m - 1 steps of the degree-2m one: one start computation covers both
rules, and each Newton pass is one recurrence over the union of their
nodes (the 2m-node rule first, the m-node rule at the tail, leaving at
degree m) and one evaluation of the formulas above with m per node. The
stop rule applies per rule (a rule that stops first keeps the nodes and
weights of that pass), as do the mirroring and the checks, so each rule
gets the bits it gets alone. The Newton passes and the recurrence always
take a degree per node, so gauss_jacobi_rule, the one-size case, runs the
pair's code with a single rule.
Each call builds its rules afresh and returns arrays the caller owns; the
solver caches its pair, read-only, in capspec.spectral._shared_rule.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NoConvergence, ValidationError, _is_int, _real

# the largest rule built: --quad 2048, doubled (the largest automatic rule
# has 2092 nodes); the recurrence forms its rows in blocks of about 2^16
# entries, so the pair of 2048 and 4096 nodes peaks near 2 MB
MAX_NODES = 4096

# Newton passes before a rule is refused; every start needs at most five
MAX_PASSES = 6

# the largest weight exponent accepted: past it the Gatteschi-Pittaluga start
# needs all MAX_PASSES (gamma = 7) or runs out of them (8.5, from m = 11)
MAX_EXPONENT = 6

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

    0 <= gamma <= MAX_EXPONENT is the weight exponent, 1 <= m <= MAX_NODES
    the node count. Raises NoConvergence if the Newton passes have not
    converged after MAX_PASSES, or if the polished nodes are not strictly
    ascending or a weight is not positive; either signals an implementation
    bug.
    """
    (rule,) = _rules(gamma, m, (1,))
    return rule


def gauss_jacobi_pair(gamma: float, m: int):
    """The rules of m and 2m nodes, bit for bit gauss_jacobi_rule(gamma, m)
    and gauss_jacobi_rule(gamma, 2m), from shared Newton passes;
    1 <= m <= MAX_NODES // 2."""
    doubled, base = _rules(gamma, m, (2, 1))
    return base, doubled


def _rules(gamma, m, multiples: tuple) -> list:
    """The rules of m times each of the descending multiples nodes, each
    polished, mirrored (gamma = 0) and checked on its own; ValidationError
    unless m is an integer in 1..MAX_NODES // multiples[0] and gamma lies
    in [0, MAX_EXPONENT]."""
    most = MAX_NODES // multiples[0]
    if not (_is_int(m) and 1 <= m <= most):
        raise ValidationError(f"node count must be an integer in 1..{most}, got {m!r}")
    gamma = _real(gamma, f"weight exponent must be a real in [0, {MAX_EXPONENT}]")
    if not 0.0 <= gamma <= MAX_EXPONENT:
        raise ValidationError(f"weight exponent must be in [0, {MAX_EXPONENT}], got {gamma}")
    sizes = [operator.index(m) * k for k in multiples]  # ints: numpy ones can overflow
    rules = []
    for size, (x, weights) in zip(sizes, _newton(gamma, sizes, _start_nodes(gamma, *sizes))):
        if gamma == 0.0:
            half = size // 2
            x = np.concatenate((-x[::-1][:half], x))
            weights = np.concatenate((weights[::-1][:half], weights))
        if not (np.all(np.diff(x) > 0.0) and np.all(weights > 0.0)):
            raise NoConvergence("polished nodes not strictly ascending with positive weights")
        rules.append((x, weights))
    return rules


def _start_nodes(gamma: float, *sizes: int) -> np.ndarray:
    """Start nodes of the rules of the node counts `sizes`, each rule's
    ascending, concatenated in that order (see the module docstring); for
    gamma = 0 only a rule's floor(m/2) positive ones, after the node 0 for
    odd m. The angles of all rules are formed in one pass. Outside
    gamma = 1/2 they are formed in ascending size order and taken to nodes
    through one reversed view, as a single rule's are: numpy's cos and tan
    loops can round a strided array differently from a contiguous one."""
    if gamma == 0.0:
        x = np.cos(_olver_angles(*sizes[::-1])[::-1])
        parts, at = [], 0
        for m in sizes:
            parts += [np.zeros(m % 2), x[at:at + m // 2]]
            at += m // 2
        return np.concatenate(parts)
    if gamma == 0.5:
        return -np.cos(2.0 * _olver_angles(*(2 * m + 1 for m in sizes)))
    ascending = sizes[::-1]
    rho = _per_node([m + 0.5 * (gamma + 1.0) for m in ascending], ascending)
    k = np.concatenate([np.arange(1.0, m + 1.0) for m in ascending])
    t = (k + 0.5 * gamma - 0.25) * np.pi / rho
    tan = np.tan(0.5 * t)
    theta = t + ((0.25 - gamma * gamma) / tan - 0.25 * tan) / (4.0 * rho * rho)
    return np.cos(theta[::-1])


def _olver_angles(*sizes: int) -> np.ndarray:
    """Olver's angles, ascending, of the positive nodes of the Legendre rules
    of the node counts `sizes`, concatenated in that order."""
    counts = [m // 2 for m in sizes]
    zeros = _j0_zeros(max(counts))
    rho = _per_node([m + 0.5 for m in sizes], counts)
    psi = np.concatenate([zeros[:count] for count in counts]) / rho
    return psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho * rho)


def _per_node(values: list, counts: list) -> np.ndarray:
    """Each of the values repeated its count of times, in order, by slice
    assignment: numpy's helpers (repeat, insert, split) each cost tens of
    microseconds on their first call in a process, and each CLI solve runs
    in a fresh one."""
    out = np.empty(sum(counts))
    at = 0
    for value, count in zip(values, counts):
        out[at:at + count] = value
        at += count
    return out


def _j0_zeros(count: int) -> np.ndarray:
    """The first count zeros of J_0: the table, then McMahon's expansion in
    1/beta with beta = (k - 1/4) pi."""
    beta = (np.arange(len(_J0_ZEROS) + 1, count + 1) - 0.25) * np.pi
    r = 1.0 / beta
    r2 = r * r
    tail = beta + r * (0.125 + r2 * (-31.0 / 384.0 + r2 * (
        3779.0 / 15360.0 - r2 * 6277237.0 / 3440640.0)))
    return np.concatenate((_J0_ZEROS[:count], tail))


def _newton(gamma: float, sizes: list, x: np.ndarray) -> list:
    """Newton passes from the start nodes x of the rules of the node counts
    `sizes` (descending; x holds each rule's nodes in turn), one recurrence
    and one evaluation of the formulas, with m per node, per pass; each
    rule's polished nodes and weights are those of the first pass whose
    predicted next error is below every one of its nodes' ulps."""
    counts = [m - m // 2 if gamma == 0.0 else m for m in sizes]
    ends = [sum(counts[:i + 1]) for i in range(len(counts))]
    spans = list(zip([0, *ends[:-1]], ends))
    m = _per_node(sizes, counts)
    t = 2.0 * m + gamma
    c_prev = 2.0 * m * (m + gamma)
    c_m = m * (m + gamma + 1.0)
    rules = [None] * len(sizes)
    for _ in range(MAX_PASSES):
        p_m, p_prev = _jacobi_recurrence(gamma, m, x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        deriv = (m * (gamma - t * x) * p_m + c_prev * p_prev) / (t * one_minus_x2)
        second = ((gamma + (gamma + 2.0) * x) * deriv - c_m * p_m) / one_minus_x2
        step = -p_m / deriv
        polished = x + step
        small = np.abs(second / (2.0 * deriv)) * step * step < np.spacing(np.abs(polished))
        stops = [rule is None and np.all(small[lo:hi]) for rule, (lo, hi) in zip(rules, spans)]
        if any(stops):
            third = ((gamma + (gamma + 4.0) * x) * second
                     + (gamma + 2.0 - c_m) * deriv) / one_minus_x2
            deriv = deriv + second * step + 0.5 * third * step * step
            one_minus_root2 = one_minus_x2 - step * (2.0 * x + step)
            weights = 2.0 ** (gamma + 1.0) / (one_minus_root2 * deriv * deriv)
            rules = [(polished[lo:hi], weights[lo:hi]) if stop else rule
                     for stop, rule, (lo, hi) in zip(stops, rules, spans)]
            if None not in rules:
                return rules
        x = polished
    raise NoConvergence(f"{sizes[rules.index(None)]}-node Gauss-Jacobi rule not converged "
                        f"after {MAX_PASSES} Newton passes")


def _jacobi_recurrence(gamma: float, m: np.ndarray, x: np.ndarray):
    """P_m and P_{m-1} at x, Jacobi parameters (gamma, 0), by the three-term
    recurrence P_k = (a_k x + b_k) P_{k-1} - c_k P_{k-2}. m holds a degree
    per node, non-increasing along x: a rule of a lower degree sits at the
    tail and leaves at its degree, so every rule shares the steps up to it
    (a_k, b_k and c_k do not depend on m)."""
    # the first node of each degree
    firsts = [0, *((m[1:] != m[:-1]).nonzero()[0] + 1).tolist()]
    k = np.arange(2.0, int(m[0]) + 1.0)
    t = 2.0 * k + gamma
    den = 2.0 * k * (k + gamma) * (t - 2.0)
    a = (t - 1.0) * t * (t - 2.0) / den
    b = (t - 1.0) * gamma * gamma / den
    c = (2.0 * (k + gamma - 1.0) * (k - 1.0) * t / den).tolist()
    p_prev = np.ones_like(x)
    p = 0.5 * (gamma + 2.0) * x + 0.5 * gamma
    tails = []
    reached = 1
    for first in firsts[::-1]:
        degree = int(m[first])
        live = x[:len(p)]
        # the rows a_k x + b_k are formed a block at a time, about 2^16
        # entries, so a large rule never holds a (degree - 1) x nodes array
        rows = max(1, 2**16 // len(live))
        for start in range(reached - 1, degree - 1, rows):
            stop = min(start + rows, degree - 1)
            block = np.outer(a[start:stop], live) + b[start:stop, None]
            for lin, ck in zip(block, c[start:stop]):
                p_prev, p = p, lin * p - ck * p_prev
        reached = degree
        tails.append((p[first:], p_prev[first:]))
        p, p_prev = p[:first], p_prev[:first]
    return tuple(np.concatenate(parts[::-1]) for parts in zip(*tails))
