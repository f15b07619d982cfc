"""Universal eigenvalue bound families.

Every family bounds the (k+1)-th eigenvalue of a clamped or buckling
problem by the first k eigenvalues. Two mechanisms appear:

* predicate families state an inequality between both sides evaluated at a
  candidate value c >= Lambda_k; the implied bound is the first c at which
  the predicate fails. With x = c - Lambda_k and e_i = Lambda_k - lambda_i,
  every side is a sum  sum_i w_i (x + e_i)^m  with exact coefficients in x,
  so the failure points are polynomial roots: a quadratic for the delta
  family and, after squaring both (non-negative) sides, a quartic for the
  two sqrt families. The delta-opt bound is the delta family's bound at
  the delta where its right side is stationary in delta (an envelope
  condition): at n = 2 the same quartic gives it, and for n >= 3 that
  quartic seeds a one-dimensional root search in log10 delta;
* closed-form families reduce to a quadratic
  k X^2 - X (2 sum v_i + sum c_i) + (sum v_i^2 + sum c_i v_i) <= 0
  whose larger root is the bound, or to the averaged pair (S, T) with
  bound S + sqrt(S^2 - T).

Sphere buckling families share the coefficient functions

    g(L) = factor(L) - L / (L - (n-2)),   h(L) = L + (n-2)^2 / 4,

where factor is sphere_buckling_factor below; they require every
eigenvalue to exceed n - 2 (for n = 2 this is just positivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BracketFailure,
    DiscriminantNegative,
    DomainError,
    FamilyMismatch,
    ValidationError,
)
from .spectral import Problem, Spectrum, _checked_problem

INEQ_SLACK = 1e-12
DISC_SLACK = 1e-12
LIMIT_LOG2 = 64  # an implied bound above Lambda_k 2^64 counts as none
DELTA_LOG_RANGE = (-6.0, 6.0)
DELTA_ROOT_TOL = 1e-9  # in log10 delta, for the delta-opt stationarity root
LN10 = math.log(10.0)

SQRT = "sphere-buckling-sqrt"
QUADRATIC = "sphere-buckling-quadratic"
GAP = "sphere-buckling-gap"
DELTA = "sphere-buckling-delta"
DELTA_OPT = "sphere-buckling-delta-opt"
SQRT_P2 = "sphere-buckling-sqrt-p2"
SPHERE_CLAMPED = "sphere-clamped"
EUCLIDEAN_MEMBRANE = "euclidean-membrane"
EUCLIDEAN_CLAMPED = "euclidean-clamped"
EUCLIDEAN_BUCKLING_P2 = "euclidean-buckling-p2"
EUCLIDEAN_BUCKLING = "euclidean-buckling"

# name -> (problem, exact_p, sphere guard required); EigenSequence already
# demands p >= 2 for buckling and p >= 1 for clamped
_REGISTRY = {
    SQRT: (Problem.BUCKLING, None, True),
    QUADRATIC: (Problem.BUCKLING, None, True),
    GAP: (Problem.BUCKLING, None, True),
    DELTA: (Problem.BUCKLING, 2, True),
    DELTA_OPT: (Problem.BUCKLING, 2, True),
    SQRT_P2: (Problem.BUCKLING, 2, True),
    SPHERE_CLAMPED: (Problem.CLAMPED, None, False),
    EUCLIDEAN_MEMBRANE: (Problem.CLAMPED, 1, False),
    EUCLIDEAN_CLAMPED: (Problem.CLAMPED, None, False),
    EUCLIDEAN_BUCKLING_P2: (Problem.BUCKLING, 2, False),
    EUCLIDEAN_BUCKLING: (Problem.BUCKLING, None, False),
}

FAMILY_NAMES = tuple(_REGISTRY)


@dataclass(frozen=True)
class EigenSequence:
    """Multiplicity-expanded ascending eigenvalues with their problem data."""

    n: int
    p: int
    problem: Problem
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "problem", _checked_problem(self.problem, self.n, self.p))
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValidationError("eigenvalue sequence is empty")
        if vals[0] <= 0.0 or not all(math.isfinite(v) for v in vals):
            raise ValidationError("eigenvalues must be positive finite reals")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValidationError("eigenvalues must be ascending")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_spectrum(cls, spectrum: Spectrum, count: int | None = None):
        cfg = spectrum.config
        return cls(n=cfg.n, p=cfg.p, problem=cfg.problem,
                   values=tuple(spectrum.expanded_values(count)))

    def __len__(self):
        return len(self.values)

    def prefix(self, k: int) -> np.ndarray:
        if not (isinstance(k, (int, np.integer)) and 1 <= k <= len(self.values)):
            raise ValidationError(
                f"prefix length must be in 1..{len(self.values)}, got {k!r}"
            )
        return np.array(self.values[:k])


@dataclass(frozen=True)
class BoundFamily:
    name: str
    problem: Problem
    exact_p: int | None
    needs_guard: bool
    delta: float | None = None
    use_lambda_i: bool = False

    def __str__(self):
        if self.name == DELTA and self.delta is not None:
            return f"{self.name}({self.delta:g})"
        return self.name


def family(name: str, delta: float | None = None,
           sphere_clamped_use_lambda_i: bool = False) -> BoundFamily:
    """Construct a bound family by name, validating its parameters."""
    if name not in _REGISTRY:
        known = ", ".join(FAMILY_NAMES)
        raise ValidationError(f"unknown bound family {name!r}; known: {known}")
    problem, exact_p, needs_guard = _REGISTRY[name]
    if name == DELTA:
        if delta is None:
            raise ValidationError(f"{DELTA} requires a positive delta parameter")
        delta = float(delta)
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValidationError(f"delta must be a positive finite real, got {delta!r}")
    elif delta is not None:
        raise ValidationError(f"delta does not apply to family {name!r}")
    if sphere_clamped_use_lambda_i and name != SPHERE_CLAMPED:
        raise ValidationError(
            f"sphere_clamped_use_lambda_i does not apply to family {name!r}"
        )
    return BoundFamily(name=name, problem=problem, exact_p=exact_p,
                       needs_guard=needs_guard, delta=delta,
                       use_lambda_i=bool(sphere_clamped_use_lambda_i))


def default_families(seq: EigenSequence) -> list[BoundFamily]:
    """Every sphere family that applies to the sequence, in registry order,
    except the delta family, whose free parameter has no default."""
    return [family(name) for name, (problem, exact_p, _) in _REGISTRY.items()
            if name.startswith("sphere-") and name != DELTA
            and problem is seq.problem and exact_p in (None, seq.p)]


@dataclass(frozen=True)
class PredicateResult:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class BoundResult:
    family: BoundFamily
    k: int
    bound: float
    aux: dict = field(default_factory=dict, compare=False)
    actual: float | None = None

    @property
    def margin(self) -> float | None:
        if self.actual is None:
            return None
        return self.bound - self.actual


def sphere_buckling_factor(lam: float, n: int, p: int) -> float:
    """Order-p coefficient entering the sphere buckling families; reduces to
    lam + 1 at p = 2. Terms with a vanishing integer coefficient are exact
    zeros, so p = 2, 3 never meet a negative exponent."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValidationError(f"dimension must be an integer >= 2, got {n!r}")
    if not (isinstance(p, (int, np.integer)) and p >= 2):
        raise ValidationError(f"order must be an integer >= 2, got {p!r}")
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"eigenvalue must be positive, got {lam!r}")
    t = lam ** (1.0 / (p - 1))
    total = ((t + n) ** (p - 1) - (t - n + 2) ** (p - 1)) / (2 * (n - 1))
    total += n / (n - 1) * t * (t + n) ** (p - 2)
    total -= 1 / (n - 1) * t * (t - n + 2) ** (p - 2)
    c4 = 2 ** (p - 1) - p
    if c4:
        total += 2 * c4 * t * (t + n) ** (p - 3)
    c5 = 2 ** (p - 2) - (p - 1)
    if c5:
        total += 4 * c5 * t * t * (t + n) ** (p - 4)
    return total


def _guard_prefix(prefix: np.ndarray, n: int):
    floor = n - 2
    if float(prefix[0]) <= floor:
        raise DomainError(
            f"sphere buckling families require every eigenvalue > n - 2 = {floor}; "
            f"smallest is {prefix[0]:.6g}"
        )


def _coeff_g(prefix: np.ndarray, n: int, p: int) -> np.ndarray:
    factors = np.array([sphere_buckling_factor(v, n, p) for v in prefix])
    return factors - prefix / (prefix - (n - 2))


def _coeff_g_p2(prefix: np.ndarray, n: int) -> np.ndarray:
    return prefix - (n - 2) / (prefix - (n - 2))


def _coeff_h(prefix: np.ndarray, n: int) -> np.ndarray:
    return prefix + (n - 2) ** 2 / 4.0


def _delta_weight(prefix: np.ndarray, n: int, d):
    """The delta family's weight on (c - lambda_i)^2, divided by d:
    lambda + d (lambda - (n-2)) / (4 (d lambda + n - 2)), written so that
    no d^2 is formed and the n = 2 denominator cannot cancel to zero. For
    subnormal d, (n-2)/d overflows to inf, the right limit."""
    with np.errstate(over="ignore"):
        return prefix + (prefix - (n - 2)) / (4.0 * (prefix + (n - 2) / d))


def quadratic_terms(seq: EigenSequence, k: int) -> tuple[float, float]:
    """Averaged pair (S, T) of the closed-form sphere buckling bound."""
    _check_compat(family(QUADRATIC), seq)
    prefix = seq.prefix(k)
    _guard_prefix(prefix, seq.n)
    gh = _coeff_g(prefix, seq.n, seq.p) * _coeff_h(prefix, seq.n)
    s = float(np.mean(prefix) + np.sum(gh) / (2 * k))
    t = float(np.mean(prefix**2) + np.sum(prefix * gh) / k)
    return s, t


def _check_compat(fam: BoundFamily, seq: EigenSequence):
    if fam.problem is not seq.problem:
        raise FamilyMismatch(
            f"family {fam.name} applies to {fam.problem.value} spectra, "
            f"got {seq.problem.value}"
        )
    if fam.exact_p is not None and seq.p != fam.exact_p:
        raise FamilyMismatch(
            f"family {fam.name} requires order p = {fam.exact_p}, got p = {seq.p}"
        )


_PREDICATE_FAMILIES = (SQRT, QUADRATIC, DELTA, SQRT_P2)
_IMPLIED_FAMILIES = (SQRT, DELTA, SQRT_P2)


def evaluate_predicate(fam: BoundFamily, seq: EigenSequence, k: int,
                       candidate: float) -> PredicateResult:
    """Both sides of a predicate family's inequality with the (k+1)-th
    eigenvalue replaced by the candidate; holds is tested with relative
    slack 1e-12."""
    if fam.name not in _PREDICATE_FAMILIES:
        raise FamilyMismatch(f"family {fam.name} has no candidate predicate")
    _check_compat(fam, seq)
    prefix = seq.prefix(k)
    _guard_prefix(prefix, seq.n)
    candidate = float(candidate)
    if not (math.isfinite(candidate) and candidate >= float(prefix[-1])):
        raise ValidationError(
            f"candidate must be >= the k-th eigenvalue {prefix[-1]:.6g}, "
            f"got {candidate!r}"
        )
    n = seq.n
    diffs = candidate - prefix
    h = _coeff_h(prefix, n)
    if fam.name in (SQRT, SQRT_P2):
        if fam.name == SQRT:
            g = _coeff_g(prefix, n, seq.p)
        else:
            g = _coeff_g_p2(prefix, n)
        lhs = float(np.sum(diffs**2 * (2.0 + (n - 2) / (prefix - (n - 2)))))
        rhs = 2.0 * math.sqrt(max(float(np.sum(diffs**2 * g)), 0.0)) * math.sqrt(
            max(float(np.sum(diffs * h)), 0.0)
        )
    elif fam.name == QUADRATIC:
        g = _coeff_g(prefix, n, seq.p)
        lhs = float(np.sum(diffs**2))
        rhs = float(np.sum(diffs * g * h))
    else:  # DELTA
        d = fam.delta
        mult = d * _delta_weight(prefix, n, d)
        lhs = 2.0 * float(np.sum(diffs**2))
        rhs = float(np.sum(diffs**2 * mult)) + float(np.sum(diffs * h)) / d
    holds = lhs <= rhs + INEQ_SLACK * (abs(lhs) + abs(rhs))
    return PredicateResult(lhs=lhs, rhs=rhs, holds=holds)


def implied_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                  actual: float | None = None) -> BoundResult:
    """First candidate at which the predicate fails, from polynomial roots.

    With x = c - Lambda_k the delta family fails where a quadratic is
    positive (closed form, see delta_bounds). For the sqrt families both
    sides are non-negative, so (1-eps) L <= 2 (1+eps) sqrt(G) sqrt(H), with
    eps = INEQ_SLACK, fails exactly where the quartic
    (1-eps)^2 L^2 - 4 (1+eps)^2 G H is positive; its real roots and those
    of G (the max(., 0) clamp) cut [0, inf) into intervals, each is tested
    once at an interior point with evaluate_predicate, and the bound is
    Lambda_k plus the left end of the first failing one. BracketFailure
    when no failure lies at or below Lambda_k 2^64."""
    if fam.name not in _IMPLIED_FAMILIES:
        raise FamilyMismatch(f"family {fam.name} has no implied bound")
    _check_compat(fam, seq)
    prefix = seq.prefix(k)
    _guard_prefix(prefix, seq.n)
    lam_k = float(prefix[-1])
    limit = lam_k * 2.0**LIMIT_LOG2
    if fam.name == DELTA:
        bound = float(_delta_bound_fn(prefix, seq.n)(np.array([fam.delta]))[0])
        aux = {"delta": fam.delta}
    else:
        bound = math.inf
        for left, probe in _intervals(_sqrt_breakpoints(fam, seq, prefix), lam_k):
            if lam_k + left > limit:
                break
            if not evaluate_predicate(fam, seq, k, lam_k + probe).holds:
                bound = lam_k + left
                break
        aux = {}
    if not math.isfinite(bound):
        raise BracketFailure(
            f"predicate of {fam} holds at every candidate up to {limit:.6g}; "
            f"no finite implied bound"
        )
    return BoundResult(family=fam, k=k, bound=bound, aux=aux, actual=actual)


def _shifted_sum(w: np.ndarray, e: np.ndarray, power: int) -> np.ndarray:
    """Coefficients in x, highest power first, of sum_i w_i (x + e_i)^power
    for power 1 or 2."""
    if power == 1:
        return np.array([np.sum(w), np.sum(w * e)])
    return np.array([np.sum(w), 2.0 * np.sum(w * e), np.sum(w * e * e)])


def _sqrt_breakpoints(fam: BoundFamily, seq: EigenSequence,
                      prefix: np.ndarray) -> np.ndarray:
    """Positive real roots, in x = c - Lambda_k, of the squared sqrt-family
    predicate and of the g-sum under its root. BracketFailure when either
    polynomial's coefficients overflow the float range."""
    n = seq.n
    e = prefix[-1] - prefix
    g = _coeff_g(prefix, n, seq.p) if fam.name == SQRT else _coeff_g_p2(prefix, n)
    gsum = _shifted_sum(g, e, 2)
    quartic = _slack_quartic(_shifted_sum(2.0 + (n - 2) / (prefix - (n - 2)), e, 2),
                             gsum, _shifted_sum(_coeff_h(prefix, n), e, 1))
    if not all(map(math.isfinite, quartic.tolist() + gsum.tolist())):
        raise BracketFailure(
            f"the coefficients of the {fam} predicate overflow; no finite implied bound"
        )
    return np.concatenate([_positive_real_roots(quartic), _positive_real_roots(gsum)])


def _slack_quartic(lsum: np.ndarray, gsum: np.ndarray,
                   hsum: np.ndarray) -> np.ndarray:
    """(1-eps)^2 L^2 - 4 (1+eps)^2 G H, eps = INEQ_SLACK, from the
    coefficients of L, G and H in x (highest power first, L and G of degree
    2, H of degree 1). For L >= 0 it is positive exactly where
    (1-eps) L > 2 (1+eps) sqrt(G H)."""
    quartic = (1.0 - INEQ_SLACK) ** 2 * np.convolve(lsum, lsum)
    quartic[1:] -= 4.0 * (1.0 + INEQ_SLACK) ** 2 * np.convolve(gsum, hsum)
    return quartic


def _positive_real_roots(coeffs: np.ndarray) -> np.ndarray:
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) <= 1e-8 * np.abs(roots)].real
    return real[real > 0.0]


def _intervals(breakpoints: np.ndarray, lam_k: float):
    """(left end, interior point) of each interval into which the sorted
    positive breakpoints cut [0, inf)."""
    edges = [0.0] + sorted(set(breakpoints.tolist()))
    for left, right in zip(edges, edges[1:]):
        yield left, 0.5 * (left + right)
    last = edges[-1]
    yield last, last + max(last, lam_k, 1.0)


def _first_positive(a, b, c):
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


def _delta_bound_fn(prefix: np.ndarray, n: int):
    """The delta family's implied bound for this prefix as a function of an
    array of deltas (inf where the predicate holds up to Lambda_k 2^64).
    The predicate fails where (1-eps) lhs - (1+eps) rhs > 0, a quadratic in
    x = c - Lambda_k whose delta-free sums are formed once here."""
    lam_k = float(prefix[-1])
    limit = lam_k * 2.0**LIMIT_LOG2
    e = lam_k - prefix
    powers = np.stack([np.ones_like(e), e, e * e], axis=1)  # rows 1, e_i, e_i^2
    lhs = 2.0 * np.sum(powers, axis=0) * [1.0, 2.0, 1.0]
    h_sums = _coeff_h(prefix, n) @ powers[:, :2]
    lo, hi = 1.0 - INEQ_SLACK, 1.0 + INEQ_SLACK

    def bounds(deltas: np.ndarray) -> np.ndarray:
        d = deltas[:, None]
        # the quadratic is divided by max(d, 1/d) so that no coefficient can
        # overflow: with r = min(d, 1/d) the lhs, d-weighted and h / d sums
        # carry the factors r, d r and r / d, each at most 1
        large = d >= 1.0
        r = np.where(large, 1.0 / np.maximum(d, 1.0), d)
        l_part = r * lhs
        m_part = np.where(large, 1.0, r * r) * (_delta_weight(prefix, n, d) @ powers)
        h_part = np.where(large, r * r, 1.0) * h_sums
        a = lo * l_part[:, 0] - hi * m_part[:, 0]
        b = lo * l_part[:, 1] - hi * (2.0 * m_part[:, 1] + h_part[:, 0])
        c = lo * l_part[:, 2] - hi * (m_part[:, 2] + h_part[:, 1])
        x = lam_k + _first_positive(a, b, c)
        return np.where(x <= limit, x, math.inf)

    return bounds


def delta_bounds(seq: EigenSequence, k: int, deltas) -> np.ndarray:
    """The delta family's implied bound at every delta of an array, in
    closed form; +inf where the predicate has no failure at or below
    Lambda_k 2^64 (where implied_bound raises BracketFailure)."""
    _check_compat(family(DELTA_OPT), seq)
    deltas = np.asarray(deltas, dtype=float).ravel()
    if not np.all(np.isfinite(deltas) & (deltas > 0.0)):
        raise ValidationError("every delta must be a positive finite real")
    prefix = seq.prefix(k)
    _guard_prefix(prefix, seq.n)
    return _delta_bound_fn(prefix, seq.n)(deltas)


def closed_form_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                      actual: float | None = None) -> BoundResult:
    """Closed-form families: the averaged (S, T) bounds and the quadratic
    larger-root families."""
    _check_compat(fam, seq)
    prefix = seq.prefix(k)
    n, p = seq.n, seq.p
    if fam.name in (QUADRATIC, GAP):
        s, t = quadratic_terms(seq, k)
        root = _disc_root(s, t)
        if fam.name == QUADRATIC:
            bound = s + root
        else:
            bound = float(prefix[-1]) + 2.0 * root
        result = BoundResult(family=fam, k=k, bound=bound,
                             aux={"S": s, "T": t}, actual=actual)
    elif fam.name == SPHERE_CLAMPED:
        roots = prefix ** (1.0 / p)
        bracket = (roots + n) ** p - prefix
        c_extra = 2**p - (p + 1)
        if c_extra:
            bracket = bracket + 4.0 * c_extra * roots * (roots + n) ** (p - 2)
        tail = (roots if fam.use_lambda_i else roots[0]) + n * n / 4.0
        coeffs = 4.0 / (n * n) * bracket * tail
        result = _quadratic_root_result(fam, k, prefix, coeffs, actual)
    elif fam.name == EUCLIDEAN_MEMBRANE:
        result = _quadratic_root_result(fam, k, prefix, 4.0 / n * prefix, actual)
    elif fam.name == EUCLIDEAN_CLAMPED:
        coeff = 4.0 * p * (2 * p + n - 2) / (n * n)
        result = _quadratic_root_result(fam, k, prefix, coeff * prefix, actual)
    elif fam.name == EUCLIDEAN_BUCKLING_P2:
        coeff = 4.0 * (n + 2) / (n * n)
        result = _quadratic_root_result(fam, k, prefix, coeff * prefix, actual)
    elif fam.name == EUCLIDEAN_BUCKLING:
        coeff = 4.0 * (p - 1) * (n + 2 * p - 2) / (n * n)
        powers = prefix ** ((2 * p - 3) / (p - 1))
        result = _quadratic_root_result(fam, k, prefix, coeff * powers, actual)
    else:
        raise FamilyMismatch(f"family {fam.name} has no closed-form bound")
    if result.bound < float(prefix[-1]) * (1.0 - 1e-12):
        raise DomainError(
            f"bound {result.bound:.6g} fell below the k-th eigenvalue "
            f"{prefix[-1]:.6g}; the inputs are not a genuine spectrum prefix"
        )
    return result


def _disc_root(s: float, t: float) -> float:
    disc = s * s - t
    if disc < -DISC_SLACK * s * s:
        raise DiscriminantNegative(
            f"S^2 - T = {disc:.6g} < 0 (S = {s:.6g}, T = {t:.6g}); "
            f"the inputs cannot be a genuine eigenvalue prefix"
        )
    return math.sqrt(max(disc, 0.0))


def _quadratic_root_result(fam, k, prefix, coeffs, actual):
    s = float((2.0 * np.sum(prefix) + np.sum(coeffs)) / (2 * k))
    t = float((np.sum(prefix**2) + np.sum(coeffs * prefix)) / k)
    return BoundResult(family=fam, k=k, bound=s + _disc_root(s, t),
                       aux={}, actual=actual)


def _delta_weight_slope(prefix: np.ndarray, n: int, d: float) -> np.ndarray:
    """d/d delta of delta * _delta_weight: with c = n - 2,
    lambda + (1 - c/lambda) (1 - (c / (delta lambda + c))^2) / 4. It rises
    from lambda as delta -> 0 to lambda + (1 - c/lambda) / 4 as delta -> inf,
    and is lambda + 1/4 at every delta when n = 2."""
    c = n - 2
    return prefix + (1.0 - c / prefix) * (1.0 - (c / (d * prefix + c)) ** 2) / 4.0


def _delta_seed(prefix: np.ndarray, n: int) -> float | None:
    """log10 of the best delta with the delta weights frozen at their
    large-delta limit W_i = lambda_i + (1 - (n-2)/lambda_i) / 4, or None if
    that frozen family has no failure at or below Lambda_k 2^64.

    Frozen, the predicate fails where (1-eps) L > (1+eps) (delta M + H/delta)
    with L = 2 sum d_i^2, M = sum W_i d_i^2, H = sum h_i d_i, d_i = x + e_i.
    Its right side is least, 2 (1+eps) sqrt(M H), at delta = sqrt(H/M), so
    the best frozen bound is the first failing point of the quartic the
    sqrt families solve. At n = 2 the weights do not depend on delta and the
    seed is the optimum itself. x, e_i and H are taken in units of Lambda_k
    (H in units of Lambda_k^2), so neither tiny nor huge eigenvalues under-
    or overflow the coefficients."""
    lam_k = float(prefix[-1])
    e = (lam_k - prefix) / lam_k
    rows = np.stack([np.full_like(prefix, 2.0),
                     prefix + (1.0 - (n - 2) / prefix) / 4.0,
                     _coeff_h(prefix, n) / lam_k])  # L, M and H weights
    sums = rows @ np.stack([np.ones_like(e), e, e * e], axis=1)
    lsum, msum = sums[:2] * [1.0, 2.0, 1.0]
    quartic = _slack_quartic(lsum, msum, sums[2, :2])
    if not np.all(np.isfinite(quartic)):
        return None
    # x = 0 is probed on its own: a prefix that fails there needs no root,
    # and np.roots can lose small roots when the coefficients span decades
    lefts, probes = np.array(
        [(0.0, 0.0)] + list(_intervals(_positive_real_roots(quartic), 1.0))).T
    keep = 1.0 + lefts <= 2.0**LIMIT_LOG2
    # rows of d: the kept left ends, then their probes; sums in d-form
    d = np.concatenate([lefts[keep], probes[keep]])[:, None] + e
    with np.errstate(over="ignore", invalid="ignore"):
        lm = (d * d) @ rows[:2].T
        hs = d @ rows[2]
        fails = ((1.0 - INEQ_SLACK) * lm[:, 0]
                 > 2.0 * (1.0 + INEQ_SLACK) * np.sqrt(lm[:, 1] * hs))
    fails = fails[len(d) // 2:]
    if not fails.any():
        return None
    at = np.argmax(fails)
    return 0.5 * math.log10(hs[at] / lm[at, 1])


def best_delta_bound(seq: EigenSequence, k: int,
                     actual: float | None = None) -> BoundResult:
    """Minimize the delta family's implied bound over delta in [1e-6, 1e6].

    The bound Lambda_k + x(delta) is the first failure of
    (1-eps) L(x) > (1+eps) R(x, delta), R = sum_i d_i^2 delta w_i(delta)
    + H(x)/delta (see _delta_bound_fn). By the envelope theorem x(delta)
    moves with the sign of dR/d delta at (x(delta), delta), and each term of
    R is convex in delta, so where x(delta) has one minimum (on every
    stored spectrum) it lies at the root of that derivative. The root is
    found in t = log10 delta on the sign-equivalent residual
    log(delta^2 sum_i d_i^2 w_i'(delta) / H), whose slope is about 2 ln 10:
    a chord step from _delta_seed (already the optimum at n = 2), secant
    steps until the sign changes, then Illinois regula falsi, to
    DELTA_ROOT_TOL. Every point is the closed form at one delta, so the
    bound is the delta family's own bound at delta_star. A root past an end
    of the range is clamped to that end. BracketFailure when the seed's
    frozen-weight family has no finite bound, or the closed form has none
    at the (clamped) seed."""
    _check_compat(family(DELTA_OPT), seq)
    prefix = seq.prefix(k)
    n = seq.n
    _guard_prefix(prefix, n)
    bounds = _delta_bound_fn(prefix, n)
    h = _coeff_h(prefix, n)
    lo_t, hi_t = DELTA_LOG_RANGE

    def point(t):
        """(t, bound, residual), the residual None where there is no bound;
        d_i are taken in units of the bound, so no square under- or
        overflows."""
        delta = 10.0**t
        bound = float(bounds(np.array([delta]))[0])
        if not math.isfinite(bound):
            return t, bound, None
        d = (bound - prefix) / bound
        ratio = np.dot(d * d, _delta_weight_slope(prefix, n, delta)) / np.dot(h, d)
        return t, bound, 2.0 * LN10 * t + math.log(ratio) + math.log(bound)

    def result(best):
        return BoundResult(family=family(DELTA_OPT), k=k, bound=best[1],
                           aux={"delta_star": 10.0**best[0]}, actual=actual)

    seed = _delta_seed(prefix, n)
    if seed is None:
        raise BracketFailure(
            "the delta family has no finite implied bound even with its "
            "weights at their large-delta limit"
        )
    inner = point(min(max(seed, lo_t), hi_t))
    if inner[2] is None:
        raise BracketFailure(
            f"the delta family has no finite implied bound at delta = "
            f"{10.0**inner[0]:.6g}, where its large-delta form is least"
        )
    # step from the seed (a chord step, then secant extrapolation) until the
    # residual changes sign or the bound is lost; a root past an end of the
    # range stays at that end
    step = -inner[2] / (2.0 * LN10)
    while True:
        t = min(max(inner[0] + step, lo_t), hi_t)
        if abs(t - inner[0]) <= DELTA_ROOT_TOL:
            return result(inner)
        outer = point(t)
        if outer[2] is None or (outer[2] > 0.0) != (inner[2] > 0.0):
            break
        rise = inner[2] - outer[2]
        secant = outer[2] * (outer[0] - inner[0]) / rise if rise else 0.0
        step = secant if secant * step > 0.0 else 2.0 * step
        inner = outer
    # Illinois on [inner, outer]: a retained end twice in a row has its
    # residual halved; while outer has no bound, bisect
    last, fa, fb, side = outer, inner[2], outer[2], 0
    while True:
        if fb is None:
            t = 0.5 * (inner[0] + outer[0])
        else:
            t = (inner[0] * fb - outer[0] * fa) / (fb - fa)
        if abs(t - last[0]) <= DELTA_ROOT_TOL:
            return result(last if last[2] is not None else inner)
        last = point(t)
        if last[2] is None:
            outer, fb, side = last, None, 0
        elif last[2] == 0.0:
            return result(last)
        elif (last[2] > 0.0) == (inner[2] > 0.0):
            inner, fa = last, last[2]
            if side == 1 and fb is not None:
                fb *= 0.5
            side = 1
        else:
            outer, fb = last, last[2]
            if side == -1:
                fa *= 0.5
            side = -1


def evaluate_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                   actual: float | None = None) -> BoundResult:
    """Single entry point: dispatches to the implied-bound roots, the
    closed forms, or the delta optimizer according to the family."""
    if fam.name in _IMPLIED_FAMILIES:
        return implied_bound(fam, seq, k, actual=actual)
    if fam.name == DELTA_OPT:
        return best_delta_bound(seq, k, actual=actual)
    return closed_form_bound(fam, seq, k, actual=actual)
