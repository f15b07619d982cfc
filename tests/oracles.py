"""Independent oracles used to freeze expected values in the test suite.

Nothing here imports the package under test: Bessel zeros come from the
ascending series plus bisection, quadrature moments from exact rational
arithmetic, Gauss nodes from the dense Jacobi matrix, tiny eigenproblems
from the quadratic formula, and the n = 2 membrane ground value on a cap
from a Legendre-function zero (mpmath). The delta family's closed form is
kept as it was formed in blocks of three reductions, as a referee for the
bits of the package's one-pass form.
"""

import math
from fractions import Fraction

import numpy as np


def bessel_j(nu, x, terms=80):
    """J_nu(x) for integer nu >= 0 by the ascending series.

    Plenty for x <= 20: the series alternates with factorially shrinking
    terms, so direct summation is accurate near the first zeros.
    """
    half = x / 2.0
    total = 0.0
    term = half**nu / math.factorial(nu)
    for k in range(terms):
        total += term
        term *= -(half * half) / ((k + 1.0) * (k + 1.0 + nu))
    return total


def bessel_first_zero(nu):
    """Smallest positive root of J_nu, located by scan plus bisection."""
    step = 0.25
    x = step
    prev = bessel_j(nu, x)
    while x < 30.0:
        x += step
        cur = bessel_j(nu, x)
        if prev * cur < 0.0:
            lo, hi = x - step, x
            flo = bessel_j(nu, lo)
            for _ in range(200):
                mid = (lo + hi) / 2.0
                fmid = bessel_j(nu, mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            return (lo + hi) / 2.0
        prev = cur
    raise AssertionError(f"no sign change found for J_{nu} below 30")


def legendre_membrane_ground(theta0, dps=40):
    """lambda_1 = nu (nu + 1) of the clamped p = 1 problem (the Dirichlet
    Laplacian) on the cap of radius theta0 in S^2.

    The mode-0 solution regular at the pole is P_nu(cos theta)
    = 2F1(-nu, nu + 1; 1; sin(theta/2)^2), so nu is the least root of
    that at theta0, found at dps digits from the flat-disk start
    j_{0,1}/theta0 - 1/2. Writing the argument as sin^2 keeps small caps
    exact.
    """
    import mpmath

    with mpmath.workdps(dps):
        t = mpmath.mpf(theta0)
        z = mpmath.sin(t / 2) ** 2
        nu = mpmath.findroot(lambda v: mpmath.hyp2f1(-v, v + 1, 1, z),
                             mpmath.besseljzero(0, 1) / t - mpmath.mpf(1) / 2)
        return float(nu * (nu + 1))


def jacobi_moment(gamma, j):
    """Exact integral of s^j * (1 - s)^gamma over [-1, 1].

    Substituting s = 1 - 2u gives 2^(gamma+1) * integral_0^1 u^gamma (1-2u)^j du;
    the u-integral is a finite binomial sum handled exactly with Fractions.
    gamma must be an integer or half-integer (all uses here are l + (n-2)/2).
    """
    g2 = Fraction(gamma).limit_denominator(4)
    assert abs(float(g2) - gamma) < 1e-15, "oracle expects (half-)integer gamma"
    total = Fraction(0)
    for i in range(j + 1):
        total += Fraction(math.comb(j, i)) * Fraction(-2) ** i / (g2 + i + 1)
    return float(total) * 2.0 ** (gamma + 1.0)


def jacobi_moments(gamma, top):
    """[jacobi_moment(gamma, j) for j in 0..top], exactly the same floats,
    from the recurrence (gamma + 1 + j) M_j = (-1)^j 2^(gamma+1) + j M_{j-1}
    (integration by parts) in Fractions: linear in top where the binomial
    sums are quadratic."""
    g2 = Fraction(gamma).limit_denominator(4)
    assert abs(float(g2) - gamma) < 1e-15, "oracle expects (half-)integer gamma"
    scaled = [1 / (g2 + 1)]
    for j in range(1, top + 1):
        scaled.append(((-1) ** j + j * scaled[-1]) / (g2 + 1 + j))
    return [float(v) * 2.0 ** (gamma + 1.0) for v in scaled]


def jacobi_matrix(gamma, m):
    """Symmetric tridiagonal Jacobi matrix of the orthonormal polynomials
    for the weight (1 - s)^gamma on [-1, 1]; its eigenvalues are the m
    Gauss-Jacobi nodes (Golub & Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(m, dtype=float)
    t = 2.0 * k + gamma
    diag = np.zeros(m) if gamma == 0.0 else -gamma * gamma / (t * (t + 2.0))
    k, t = k[1:], t[1:]
    off = 2.0 * k * (k + gamma) / (t * np.sqrt(t * t - 1.0))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def jacobi_recurrence_outer(gamma, m, x):
    """P_m and P_{m-1} at x, Jacobi parameters (gamma, 0), by the three-term
    recurrence with every row a_k x + b_k formed at once as one
    (m - 1) x len(x) outer product."""
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


def one_rule_build(gamma, m, j0_zeros):
    """The m-node Gauss-Jacobi rule for (1 - s)^gamma built on its own, as
    the package built every rule before a solve's two rules shared their
    Newton passes: start nodes from the asymptotic formulas, then Newton
    passes with a scalar m, each running the recurrence as one outer
    product, until the predicted next error is below every node's ulp.
    j0_zeros(count) gives the first count zeros of J_0."""
    def olver(size):
        rho = size + 0.5
        psi = j0_zeros(size // 2) / rho
        return psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho * rho)

    if gamma == 0.0:
        x = np.concatenate((np.zeros(m % 2), np.cos(olver(m)[::-1])))
    elif gamma == 0.5:
        x = -np.cos(2.0 * olver(2 * m + 1))
    else:
        rho = m + 0.5 * (gamma + 1.0)
        t = (np.arange(1.0, m + 1.0) + 0.5 * gamma - 0.25) * np.pi / rho
        tan = np.tan(0.5 * t)
        theta = t + ((0.25 - gamma * gamma) / tan - 0.25 * tan) / (4.0 * rho * rho)
        x = np.cos(theta[::-1])
    t = 2.0 * m + gamma
    for _ in range(6):
        p_m, p_prev = jacobi_recurrence_outer(gamma, m, x)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        deriv = (m * (gamma - t * x) * p_m + 2.0 * m * (m + gamma) * p_prev) / (t * one_minus_x2)
        second = ((gamma + (gamma + 2.0) * x) * deriv - m * (m + gamma + 1.0) * p_m) / one_minus_x2
        step = -p_m / deriv
        polished = x + step
        if np.all(np.abs(second / (2.0 * deriv)) * step * step < np.spacing(np.abs(polished))):
            third = ((gamma + (gamma + 4.0) * x) * second
                     + (gamma + 2.0 - m * (m + gamma + 1.0)) * deriv) / one_minus_x2
            deriv = deriv + second * step + 0.5 * third * step * step
            one_minus_root2 = one_minus_x2 - step * (2.0 * x + step)
            weights = 2.0 ** (gamma + 1.0) / (one_minus_root2 * deriv * deriv)
            break
        x = polished
    else:
        raise AssertionError(f"{m}-node rule not converged")
    if gamma == 0.0:
        half = m // 2
        polished = np.concatenate((-polished[::-1][:half], polished))
        weights = np.concatenate((weights[::-1][:half], weights))
    return polished, weights


def generalized_eigen_2x2(a, b):
    """Both roots of det(A - x B) = 0 for 2x2 symmetric A, B via the quadratic
    formula, ascending."""
    (a11, a12), (_, a22) = a
    (b11, b12), (_, b22) = b
    # det(A - xB) = (a11-x b11)(a22-x b22) - (a12-x b12)^2
    c2 = b11 * b22 - b12 * b12
    c1 = -(a11 * b22 + a22 * b11 - 2.0 * a12 * b12)
    c0 = a11 * a22 - a12 * a12
    disc = math.sqrt(c1 * c1 - 4.0 * c2 * c0)
    r1 = (-c1 - disc) / (2.0 * c2)
    r2 = (-c1 + disc) / (2.0 * c2)
    return (r1, r2) if r1 <= r2 else (r2, r1)


# The delta family's closed form as it was formed before its lean rewrite,
# kept verbatim (with the constants and helpers it reads) so that the
# rewrite can be held to the same bits: three weighted power sums of one
# product and one reduction each, per block of rows.
INEQ_SLACK = 1e-12
LIMIT_LOG2 = 64
_BLOCK = 1 << 16


def _rowsum(x):
    return np.add.reduce(x, axis=-1)


def _delta_weight(values, n, d):
    with np.errstate(over="ignore"):
        return values + (values - (n - 2)) / (4.0 * (values + (n - 2) / d))


def blocked_first_positive(a, b, c):
    """Elementwise smallest x >= 0 at which a x^2 + b x + c > 0 (inf if none)."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    scale[scale == 0.0] = 1.0
    a, b, c = a / scale, b / scale, c / scale
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    # q / a and c / q are the two roots (Press et al.'s stable form); each
    # quotient is kept only where its denominator is non-zero, and one that
    # overflows is a root beyond every finite candidate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.where(a > 0.0, np.where(q == 0.0, 0.0, np.maximum(q / a, c / q)), math.inf)
        x = np.where((a < 0.0) & (disc > 0.0) & (b > 0.0), c / q, x)
        x = np.where((a == 0.0) & (b > 0.0), -c / b, x)
    return np.where(c > 0.0, 0.0, x)


def blocked_delta_closed_form(terms, deltas):
    """The delta family's implied bound for each prefix (row) at each delta
    of its row of deltas, an (R, D) or (1, D) array; inf where the
    predicate holds up to Lambda_k 2^64. terms has the fields of the
    package's _DeltaTerms (pre.n, pre.values, pre.last, powers, lhs,
    h_sums)."""
    n, vals, last = terms.pre.n, terms.pre.values, terms.pre.last[:, None]
    deltas = np.broadcast_to(deltas, (len(last), deltas.shape[1]))
    lo, hi = 1.0 - INEQ_SLACK, 1.0 + INEQ_SLACK
    out = np.empty(deltas.shape)
    step = max(1, _BLOCK // max(1, deltas.shape[1] * len(vals)))
    for rows in (slice(i, i + step) for i in range(0, len(last), step)):
        d = deltas[rows]
        weight = _delta_weight(vals, n, d[:, :, None])  # (r, D, K)
        m_sums = [_rowsum(weight * terms.powers[rows, None, j]) for j in range(3)]
        # the quadratic is divided by max(d, 1/d) so that no coefficient can
        # overflow: with r = min(d, 1/d) the lhs, d-weighted and h / d sums
        # carry the factors r, d r and r / d, each at most 1
        large = d >= 1.0
        r = np.where(large, 1.0 / np.maximum(d, 1.0), d)
        m_scale = np.where(large, 1.0, r * r)
        h_scale = np.where(large, r * r, 1.0)
        l_part, h_part = terms.lhs[rows, None, :], terms.h_sums[rows, None, :]
        a = lo * (r * l_part[..., 0]) - hi * (m_scale * m_sums[0])
        b = (lo * (r * l_part[..., 1])
             - hi * (2.0 * (m_scale * m_sums[1]) + h_scale * h_part[..., 0]))
        c = (lo * (r * l_part[..., 2])
             - hi * (m_scale * m_sums[2] + h_scale * h_part[..., 1]))
        with np.errstate(over="ignore", invalid="ignore"):
            out[rows] = last[rows] + last[rows] * blocked_first_positive(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(out <= last * 2.0**LIMIT_LOG2, out, math.inf)
