"""Universal eigenvalue bound families.

Every family bounds the (k+1)-th eigenvalue of a clamped or buckling
problem by the first k eigenvalues. Each family has one record, a
BoundFamily row of the registry, and its kind names the one kernel that
evaluates it (_KERNELS):

* implied families state an inequality between both sides evaluated at a
  candidate value c >= Lambda_k; the implied bound is the first c at which
  the predicate fails. With x = c - Lambda_k and e_i = Lambda_k - lambda_i,
  every side is a sum  sum_i w_i (x + e_i)^m  with exact coefficients in x,
  so the failure points are polynomial roots: a quadratic for the delta
  family and, after squaring both (non-negative) sides, a quartic for the
  two sqrt families, whose roots alone cut [0, inf) into the intervals
  that _first_failures probes;
* the delta-opt family is the delta family's bound at the delta where its
  right side is stationary in delta (an envelope condition). With the
  delta weights frozen at their large-delta limit, the same
  _first_failures search gives that delta: exactly at n = 2, and as the
  seed of a one-dimensional root search in log10 delta for n >= 3;
* closed-form families reduce to the averaged pair
  S = sum lambda_i / k + sum c_i / (2k),  T = sum lambda_i^2 / k + sum lambda_i c_i / k
  with per-eigenvalue coefficients c_i (_root_coeffs; c_i = g_i h_i for
  the quadratic and gap families), and the bound S + sqrt(S^2 - T), the
  larger root of k X^2 - X (2 sum lambda_i + sum c_i)
  + (sum lambda_i^2 + sum c_i lambda_i) <= 0; the gap family's bound is
  Lambda_k + 2 sqrt(S^2 - T).

Every evaluator takes all requested prefixes k at once: each prefix is a
row over the whole sequence, zeroed past k, so one array pass (one stacked
eigvals call for the roots of degree 2 and up, -c1/c0 for linear rows, one
probe classification per family for the intervals, one single-product
closed form per delta-opt round) serves them all, and one call serves every
family of a check: the rows of the sqrt families and delta-opt seeds share
one _first_failures pass, the quadratic and gap families one (S, T), and
all one g (EigenSequence.coeff_g). A sqrt family's weights (w, g, h) come
from _sqrt_weights alone, for both its search and evaluate_predicate, which
classifies the search's probes. The per-family and per-k entry points are
the one-family, one-row case; a prefix length is an integer, never a bool.

Sphere buckling families share the coefficient functions

    g(L) = factor(L) - L / (L - (n-2)),   h(L) = L + (n-2)^2 / 4,

where factor is sphere_buckling_factor below; they require every
eigenvalue to exceed n - 2 (for n = 2 this is just positivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, product
from typing import NamedTuple

import numpy as np

from .errors import (
    BracketFailure,
    CapspecError,
    DiscriminantNegative,
    DomainError,
    FamilyMismatch,
    GuardViolation,
    ValidationError,
    _is_int,
    _items,
    _real,
    _reals,
)
from .radial import shown
from .spectral import Problem, Spectrum, _checked_problem

INEQ_SLACK = 1e-12
DISC_SLACK = 1e-12
LIMIT_LOG2 = 64  # an implied bound above Lambda_k 2^64 counts as none
DELTA_LOG_RANGE = (-6.0, 6.0)
DELTA_ROOT_TOL = 1e-9  # in log10 delta, for the delta-opt stationarity root
LN10 = math.log(10.0)
# every all-prefix pass holds (K, K) arrays for a sequence of K values;
# 1024 covers the solver's largest count (512) and keeps verify near 140 MB
MAX_SEQUENCE = 1024

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


@dataclass(frozen=True)
class BoundFamily:
    """One family's record, a row of _REGISTRY: exact_p is the order it
    requires (None for any), kind names its kernel in _KERNELS, and delta is
    the delta family's parameter."""

    name: str
    problem: Problem
    exact_p: int | None
    needs_guard: bool
    kind: str
    delta: float | None = None

    def __str__(self):
        if self.name == DELTA and self.delta is not None:
            return f"{self.name}({self.delta:g})"
        return self.name


_REGISTRY = {row.name: row for row in (
    BoundFamily(SQRT, Problem.BUCKLING, None, True, "implied"),
    BoundFamily(QUADRATIC, Problem.BUCKLING, None, True, "closed-form"),
    BoundFamily(GAP, Problem.BUCKLING, None, True, "closed-form"),
    BoundFamily(DELTA, Problem.BUCKLING, 2, True, "implied"),
    BoundFamily(DELTA_OPT, Problem.BUCKLING, 2, True, "delta-opt"),
    BoundFamily(SQRT_P2, Problem.BUCKLING, 2, True, "implied"),
    BoundFamily(SPHERE_CLAMPED, Problem.CLAMPED, None, False, "closed-form"),
    BoundFamily(EUCLIDEAN_MEMBRANE, Problem.CLAMPED, 1, False, "closed-form"),
    BoundFamily(EUCLIDEAN_CLAMPED, Problem.CLAMPED, None, False, "closed-form"),
    BoundFamily(EUCLIDEAN_BUCKLING_P2, Problem.BUCKLING, 2, False, "closed-form"),
    BoundFamily(EUCLIDEAN_BUCKLING, Problem.BUCKLING, None, False, "closed-form"),
)}

FAMILY_NAMES = tuple(_REGISTRY)


@dataclass(frozen=True)
class EigenSequence:
    """Multiplicity-expanded ascending eigenvalues with their problem data."""

    n: int
    p: int
    problem: Problem
    values: tuple

    def __post_init__(self):
        for name, value in zip(("problem", "n", "p"), _checked_problem(self.problem, self.n, self.p)):
            object.__setattr__(self, name, value)
        message = "eigenvalues must be positive finite reals"
        vals = tuple(_real(v, message) for v in _items(self.values, message))
        check_sequence_length(len(vals))
        if not vals:
            raise ValidationError("eigenvalue sequence is empty")
        if vals[0] <= 0.0 or not all(math.isfinite(v) for v in vals):
            raise ValidationError(message)
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValidationError("eigenvalues must be ascending")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_spectrum(cls, spectrum: Spectrum, count: int | None = None):
        cfg = spectrum.config
        return cls(n=cfg.n, p=cfg.p, problem=cfg.problem, values=spectrum.expanded_values(count))

    def __len__(self):
        return len(self.values)

    @cached_property
    def coeff_g(self) -> np.ndarray:
        """g_i of the sphere buckling families, read-only, from scalar factor
        calls (numpy's array powers differ in rare last bits). Errors are not
        kept: a factor past the float range raises on every read."""
        vals = np.array(self.values)
        g = np.array([_buckling_factor(v, self.n, self.p) for v in self.values])
        g -= vals / (vals - (self.n - 2))
        g.flags.writeable = False
        return g


def check_sequence_length(length: int) -> None:
    """Refuse a sequence of more than MAX_SEQUENCE values with ValidationError;
    spectrum readers call it before they expand the multiplicities."""
    if length > MAX_SEQUENCE:
        raise ValidationError(
            f"eigenvalue sequence has {shown(length)} values; the bound layer takes "
            f"at most {MAX_SEQUENCE}")


def family(name: str, delta: float | None = None) -> BoundFamily:
    """Construct a bound family by name, validating its parameters."""
    if name not in _REGISTRY:
        known = ", ".join(FAMILY_NAMES)
        raise ValidationError(f"unknown bound family {name!r}; known: {known}")
    if name == DELTA:
        if delta is None:
            raise ValidationError(f"{DELTA} requires a positive delta parameter")
        delta = _real(delta, "delta must be a positive finite real")
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValidationError(f"delta must be a positive finite real, got {delta!r}")
    elif delta is not None:
        raise ValidationError(f"delta does not apply to family {name!r}")
    return replace(_REGISTRY[name], delta=delta)


def default_families(seq: EigenSequence) -> list[BoundFamily]:
    """Every sphere family that applies to the sequence, in registry order,
    except the delta family, whose free parameter has no default."""
    return [row for row in _REGISTRY.values()
            if row.name.startswith("sphere-") and row.name != DELTA
            and row.problem is seq.problem and row.exact_p in (None, seq.p)]


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
    zeros, so p = 2, 3 never meet a negative exponent. It is formed in
    floats; a factor past the float range raises BracketFailure."""
    _, n, p = _checked_problem(Problem.BUCKLING, n, p)
    lam = _real(lam, "eigenvalue must be a positive real")
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"eigenvalue must be positive, got {lam!r}")
    return _buckling_factor(lam, n, p)


def _buckling_factor(lam: float, n: int, p: int) -> float:
    """sphere_buckling_factor without its checks, for checked arguments."""
    q = _float_order(p)
    try:
        t = lam ** (1.0 / (q - 1))
        total = ((t + n) ** (q - 1) - (t - n + 2) ** (q - 1)) / (2 * (n - 1))
        total += n / (n - 1) * t * (t + n) ** (q - 2)
        total -= 1 / (n - 1) * t * (t - n + 2) ** (q - 2)
        c4 = _two_power(q - 1) - q
        if c4:
            total += 2 * c4 * t * (t + n) ** (q - 3)
        c5 = _two_power(q - 2) - (q - 1)
        if c5:
            total += 4 * c5 * t * t * (t + n) ** (q - 4)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise BracketFailure(
            f"sphere buckling factor overflows the float range at order p = {shown(p)} "
            f"and eigenvalue {lam:.6g}; no finite bound")
    return total


def _float_order(p) -> float:
    """The order p as a float, inf past the float range. Its powers then
    overflow to inf or NaN, which the bound refuses."""
    try:
        return float(p)
    except OverflowError:
        return math.inf


def _two_power(e: float) -> float:
    """2^e for an integer-valued float e, exact, and inf past the float range."""
    return 2.0**e if e < 1024 else math.inf


class _Prefixes(NamedTuple):
    """Prefixes of one sequence, one row each. Every per-prefix quantity is
    a row over the whole sequence, zeroed past its prefix and summed with
    _rowsum along the row, so a row's value never depends on which other
    rows are stacked with it: a single prefix and every prefix at once give
    bitwise-equal bounds."""

    n: int
    lengths: np.ndarray  # (R,) prefix lengths k
    values: np.ndarray  # (K,) the whole sequence
    mask: np.ndarray  # (R, K), True on each row's prefix
    last: np.ndarray  # (R,) Lambda_k

    def take(self, rows) -> _Prefixes:
        return self._replace(lengths=self.lengths[rows], mask=self.mask[rows], last=self.last[rows])

    def masked(self, w) -> np.ndarray:
        """w (per eigenvalue, or per row and eigenvalue) zeroed past each
        row's prefix."""
        return np.where(self.mask, w, 0.0)

    def shifts(self, unit=False) -> np.ndarray:
        """e_i = Lambda_k - lambda_i on each row's prefix, divided by
        Lambda_k when unit is set."""
        last = self.last[:, None]
        e = last - self.values
        return self.masked(e / last if unit else e)


def _prefixes(seq: EigenSequence, ks) -> _Prefixes:
    """The prefixes of the lengths ks, an integer or a 1-D array of them; a
    list or tuple is read entry by entry, as numpy reads [True, 2] as integers."""
    lengths = np.atleast_1d(np.asarray(ks))
    if not (lengths.ndim == 1 and lengths.dtype.kind in "iu"
            and (not isinstance(ks, (list, tuple)) or all(map(_is_int, ks)))
            and ((1 <= lengths) & (lengths <= len(seq))).all()):
        raise ValidationError(f"prefix length must be in 1..{len(seq)}, got {ks!r}")
    lengths = lengths.astype(int)
    values = np.array(seq.values)
    return _Prefixes(n=seq.n, lengths=lengths, values=values,
                     mask=np.arange(len(values)) < lengths[:, None],
                     last=values[lengths - 1])


def _one_prefix(seq: EigenSequence, k):
    """k, refused unless it is a single prefix length (the per-k entry
    points take one; the all-prefix passes take arrays)."""
    if np.ndim(k):
        raise ValidationError(f"prefix length must be in 1..{len(seq)}, got {k!r}")
    return k


def _rowsum(x: np.ndarray) -> np.ndarray:
    """The sum along each row (the last axis), np.sum's pairwise sum."""
    return np.add.reduce(x, axis=-1)


def _checked_prefixes(fam: BoundFamily, seq: EigenSequence, ks) -> _Prefixes:
    """The prefixes of the lengths ks (ks itself if it is already the
    prefixes), once the family applies to the sequence and passes its guard."""
    _check_compat(fam, seq)
    pre = ks if isinstance(ks, _Prefixes) else _prefixes(seq, ks)
    check_guard(fam, seq)
    return pre


def check_guard(fam: BoundFamily, seq: EigenSequence) -> None:
    """The sphere guard: GuardViolation unless every eigenvalue exceeds n - 2."""
    if fam.needs_guard and seq.values[0] <= seq.n - 2:
        raise GuardViolation(f"family {fam.name} requires the smallest eigenvalue to exceed "
                             f"n - 2 = {seq.n - 2}; got {seq.values[0]:.6g}")


def _coeff_h(values: np.ndarray, n: int) -> np.ndarray:
    return values + (n - 2) ** 2 / 4.0


def _sqrt_weights(fam: BoundFamily, seq: EigenSequence, values: np.ndarray):
    """(w, g, h) of a sqrt family at the sequence's values: the weights of
    L = sum w_i d_i^2, G = sum g_i d_i^2 and H = sum h_i d_i (see
    _sqrt_sides), with g = seq.coeff_g, or its p = 2 form for SQRT_P2."""
    above = values - (seq.n - 2)
    g = seq.coeff_g if fam.name == SQRT else values - (seq.n - 2) / above
    return 2.0 + (seq.n - 2) / above, g, _coeff_h(values, seq.n)


def _delta_weight(values: np.ndarray, n: int, d):
    """The delta family's weight on (c - lambda_i)^2, divided by d:
    lambda + d (lambda - (n-2)) / (4 (d lambda + n - 2)), with no d^2 formed
    and no n = 2 denominator that can cancel to zero. A subnormal d overflows
    (n-2)/d to inf, the right limit; callers ignore the overflow."""
    return values + (values - (n - 2)) / (4.0 * (values + (n - 2) / d))


def quadratic_terms(seq: EigenSequence, k: int) -> tuple[float, float]:
    """Averaged pair (S, T) of the closed-form sphere buckling bound."""
    fam = family(QUADRATIC)
    s, t = _st_terms(fam, seq, _checked_prefixes(fam, seq, _one_prefix(seq, k)))
    return float(s[0]), float(t[0])


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


def evaluate_predicate(fam: BoundFamily, seq: EigenSequence, k,
                       candidate) -> PredicateResult:
    """Both sides of a predicate family's inequality with the (k+1)-th
    eigenvalue replaced by the candidate; holds is tested with relative
    slack 1e-12. k (a prefix length) and candidate may be arrays that
    broadcast together; lhs, rhs and holds then have their shape, and each
    entry is the scalar call's value."""
    if fam.name not in _PREDICATE_FAMILIES:
        raise FamilyMismatch(f"family {fam.name} has no candidate predicate")
    if isinstance(k, (list, tuple)):  # checked before numpy reads [True, 2] as integers
        k = _prefixes(seq, k).lengths
    candidate = _reals(candidate, "candidate must be a real >= the k-th eigenvalue")
    lengths, candidates = np.broadcast_arrays(k, candidate)
    pre = _checked_prefixes(fam, seq, lengths.ravel())
    candidates = candidates.ravel()
    ok = np.isfinite(candidates) & (candidates >= pre.last)
    if not ok.all():
        at = ok.argmin()
        raise ValidationError(
            f"candidate must be >= the k-th eigenvalue {pre.last[at]:.6g}, "
            f"got {candidates[at].item()!r}"
        )
    n, vals = seq.n, pre.values
    diffs = pre.masked(candidates[:, None] - vals)
    if fam.name in (SQRT, SQRT_P2):
        lhs, rhs, _, _ = _sqrt_sides(diffs, _sqrt_weights(fam, seq, vals))
    elif fam.name == QUADRATIC:
        lhs = _rowsum(diffs**2)
        rhs = _rowsum(diffs * seq.coeff_g * _coeff_h(vals, n))
    else:  # DELTA
        d = fam.delta
        with np.errstate(over="ignore"):
            mult = d * _delta_weight(vals, n, d)
        lhs = 2.0 * _rowsum(diffs**2)
        rhs = _rowsum(diffs**2 * mult) + _rowsum(diffs * _coeff_h(vals, n)) / d
    holds = _holds(lhs, rhs)
    if lengths.ndim == 0:
        return PredicateResult(float(lhs[0]), float(rhs[0]), bool(holds[0]))
    return PredicateResult(*(side.reshape(lengths.shape) for side in (lhs, rhs, holds)))


def _sqrt_sides(d: np.ndarray, weights):
    """(L, 2 sqrt(G) sqrt(H), G, H) per row: the sides of L <= 2 sqrt(G H),
    L = sum w_i d_i^2, G = sum g_i d_i^2 and H = sum h_i d_i for weights
    (w, g, h), d zero past each row's prefix; a negative G or H counts as 0."""
    dd = d * d
    gsum, hsum = _rowsum(dd * weights[1]), _rowsum(d * weights[2])
    rhs = 2.0 * np.sqrt(np.maximum(gsum, 0.0)) * np.sqrt(np.maximum(hsum, 0.0))
    return _rowsum(dd * weights[0]), rhs, gsum, hsum


def _holds(lhs, rhs):
    """lhs <= rhs with relative slack INEQ_SLACK."""
    return lhs <= rhs + INEQ_SLACK * (np.abs(lhs) + np.abs(rhs))


def _implied_rows(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes, shared):
    """implied_bound's (bound, aux) or error for every prefix: the delta
    family's closed form (see _delta_closed_form), or the sqrt families'
    first failure (see _sqrt_bounds). BracketFailure when no failure lies
    at or below Lambda_k 2^64, or when the polynomial's coefficients
    overflow the float range."""
    if fam.name == DELTA:
        bounds = _delta_closed_form(_delta_terms(pre), np.array([[fam.delta]]))[:, 0]
        aux = {"delta": fam.delta}
    else:
        bounds = yield from _sqrt_bounds(fam, seq, pre)
        aux = {}
    out = []
    for bound, last in zip(bounds.tolist(), pre.last.tolist()):
        if math.isnan(bound):
            out.append(BracketFailure(f"the coefficients of the {fam} predicate "
                                      f"overflow; no finite implied bound"))
        elif math.isinf(bound):
            out.append(BracketFailure(f"predicate of {fam} holds at every candidate up to "
                                      f"{last * 2.0**LIMIT_LOG2:.6g}; no finite implied bound"))
        else:
            out.append((bound, aux))
    return out


def _sqrt_bounds(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes):
    """The sqrt families' implied bounds, Lambda_k plus the first failure
    of (1-eps) L <= 2 (1+eps) sqrt(G) sqrt(H), eps = INEQ_SLACK, whose
    probes evaluate_predicate classifies: inf where the predicate holds up
    to Lambda_k 2^64, NaN where the coefficients overflow. It yields its
    rows of the shared search and is sent their first failures."""
    weights = pre.masked(np.array(_sqrt_weights(fam, seq, pre.values))[:, None])

    def fails(rows, x):
        return ~evaluate_predicate(fam, seq, pre.lengths[rows], pre.last[rows] + x).holds

    return pre.last + (yield weights, pre.shifts(), pre.last, fails)


def implied_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                  actual: float | None = None) -> BoundResult:
    """First candidate at which the predicate fails, from polynomial roots
    (see _implied_rows): the one-prefix case of the all-prefix pass."""
    return _one_result("implied", fam, seq, k, actual)


def _shifted_sum(w: np.ndarray, e: np.ndarray, power: int) -> np.ndarray:
    """Coefficients in x, highest power first, of each row's
    sum_i w_i (x + e_i)^power for power 1 or 2, as an (R, power + 1) array;
    w and e are zero past each row's prefix."""
    we = w * e
    if power == 1:
        return np.array([_rowsum(w), _rowsum(we)]).T
    return np.array([_rowsum(w), 2.0 * _rowsum(we), _rowsum(we * e)]).T


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of polynomials given highest power first."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i, None] * b
    return out


def _slack_quartic(lsum: np.ndarray, gsum: np.ndarray,
                   hsum: np.ndarray) -> np.ndarray:
    """(1-eps)^2 L^2 - 4 (1+eps)^2 G H, eps = INEQ_SLACK, row by row from
    the coefficients of L, G and H in x (highest power first, L and G of
    degree 2, H of degree 1). For L >= 0 it is positive exactly where
    (1-eps) L > 2 (1+eps) sqrt(G H)."""
    quartic = (1.0 - INEQ_SLACK) ** 2 * _poly_mul(lsum, lsum)
    quartic[:, 1:] -= 4.0 * (1.0 + INEQ_SLACK) ** 2 * _poly_mul(gsum, hsum)
    return quartic


def _positive_real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Positive real roots of each row's polynomial (highest power first),
    NaN-padded to the degree. As in np.roots, leading and trailing zero
    coefficients are stripped first (a trailing zero is an exact root at
    0, never positive) and the roots are the eigenvalues of the companion
    matrix; rows that strip alike share one stacked eigvals call. A linear
    row's root is -c1/c0, its eigvals bit for bit wherever LAPACK's geev
    leaves a 1x1 matrix unscaled, for magnitudes in [2^-459, 2^459]."""
    rows, width = coeffs.shape
    out = np.full((rows, width - 1), np.nan)
    nonzero = coeffs != 0.0
    lead = nonzero.argmax(axis=1)
    tail = width - nonzero[:, ::-1].argmax(axis=1)
    live = nonzero.any(axis=1) & (tail - lead > 1)
    for first, end in set(zip(lead[live].tolist(), tail[live].tolist())):
        pick = live & (lead == first) & (tail == end)
        poly = coeffs[pick, first:end]
        degree = end - first - 1
        roots = -poly[:, 1:] / poly[:, :1]  # the companion's first row
        size = abs(roots)
        if degree > 1 or not ((2.0**-459 <= size) & (size <= 2.0**459)).all():
            companion = np.zeros((len(poly), degree, degree))
            companion[:, 0, :] = roots
            companion[:, 1:, :-1] = np.eye(degree - 1)
            roots = np.linalg.eigvals(companion)
            roots = np.where(abs(roots.imag) <= 1e-8 * abs(roots), roots.real, np.nan)
        out[pick, :degree] = np.where(roots > 0.0, roots, np.nan)
    return out


def _first_failures(blocks) -> list:
    """Per row of each block (weights, e, unit, fails), the least x >= 0 at
    which (1-eps) L(x) <= 2 (1+eps) sqrt(G(x) H(x)), eps = INEQ_SLACK, fails,
    where L, G and H are sum_i w_i (x + e_i)^m for the weight rows
    weights = (L, G, H) and m = 2, 2, 1; inf where it holds at every
    x <= unit (2^64 - 1), NaN where the quartic's coefficients overflow.
    unit is Lambda_k in the units of x and e. All rows run in one stacked
    pass, which a row's value does not depend on (see _Prefixes).

    For x >= 0, L and H are non-negative, so the predicate fails exactly
    where the quartic (1-eps)^2 L^2 - 4 (1+eps)^2 G H is positive: where
    G < 0 it is at least (1-eps)^2 L^2. A root of G therefore never begins
    a failing interval, and the quartic's positive real roots alone cut
    [0, inf) into intervals of one verdict each. A block's fails(rows, x)
    classifies the points x of its given rows (True where the predicate
    fails); it is asked once, for x = 0 and an interior point of every
    interval that starts below the limit, with overflow ignored. x = 0 is
    probed on its own: a prefix that fails there needs no root, and the
    roots can lose small ones when the coefficients span decades. The last
    interval is probed at left + max(left, unit, 1)."""
    if not blocks:
        return []
    weights = np.concatenate([block[0] for block in blocks], axis=1)
    e, unit = (np.concatenate([block[j] for block in blocks]) for j in (1, 2))
    starts = [0, *accumulate(len(block[2]) for block in blocks)]

    def fails(rows, x):  # rows ascend, so each block's rows are one run
        runs = np.searchsorted(rows, starts).tolist()
        return np.concatenate([block[3](rows[lo:hi] - start, x[lo:hi])
                               for block, start, lo, hi in zip(blocks, starts, runs, runs[1:])])

    with np.errstate(over="ignore", invalid="ignore"):
        quartic = _slack_quartic(_shifted_sum(weights[0], e, 2),
                                 _shifted_sum(weights[1], e, 2),
                                 _shifted_sum(weights[2], e, 1))
    finite = np.isfinite(quartic).all(axis=1)
    # the cuts 0, 0 and the sorted distinct roots, then NaN: interval j
    # runs from cut j to cut j + 1, the first from 0 to 0 (the point x = 0)
    cuts = np.zeros((finite.sum(), quartic.shape[1] + 2))
    cuts[:, -1] = math.nan
    edges = cuts[:, 2:-1]
    edges[:] = _positive_real_roots(quartic[finite])
    edges.sort(axis=1)  # NaN sorts last
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = math.nan
    edges.sort(axis=1)
    lefts, rights = cuts[:, :-1], cuts[:, 1:]
    scale = unit[finite, None]
    failing = np.zeros(lefts.shape, dtype=bool)
    # an overflowed probe compares inf with inf, and the predicate holds
    with np.errstate(over="ignore"):
        probes = np.where(np.isnan(rights), lefts + np.maximum(np.maximum(lefts, scale), 1.0),
                          0.5 * (lefts + rights))
        rows, cols = np.nonzero(scale + lefts <= scale * 2.0**LIMIT_LOG2)  # NaN is False
        failing[rows, cols] = fails(np.flatnonzero(finite)[rows], probes[rows, cols])
    out = np.full(len(finite), math.nan)
    out[finite] = np.where(failing, lefts, math.inf).min(axis=1)  # the lefts ascend
    return [out[lo:hi] for lo, hi in zip(starts, starts[1:])]


def _first_positive(a, b, c):
    """Elementwise smallest x >= 0 at which a x^2 + b x + c > 0 (inf if
    none), for arrays a, b and c of one shape."""
    abc = np.array([a, b, c])
    scale = abs(abc).max(axis=0)
    scale[scale == 0.0] = 1.0
    a, b, c = abc / scale
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
    # q / a and c / q are the two roots (Press et al.'s stable form); each
    # quotient is kept only where its denominator is non-zero, and one that
    # overflows is a root beyond every finite candidate
    with np.errstate(all="ignore"):
        rising, near = b > 0.0, c / q
        x = np.maximum(q / a, near)
        x[q == 0.0] = 0.0
        x[~(a > 0.0)] = math.inf
        np.copyto(x, near, where=(a < 0.0) & (disc > 0.0) & rising)
        np.copyto(x, -c / b, where=(a == 0.0) & rising)
    x[c > 0.0] = 0.0
    return x


_BLOCK = 1 << 16  # elements of one (rows, deltas, eigenvalues) temporary


class _DeltaTerms(NamedTuple):
    """The delta-free sums of the delta family's quadratic for some
    prefixes, with x and e_i in units of Lambda_k and h_i in units of
    Lambda_k^2, so neither tiny nor huge eigenvalues under- or overflow
    them."""

    pre: _Prefixes
    powers: np.ndarray  # (R, 3, K): 1, e_i and e_i^2 on each prefix
    lhs: np.ndarray  # (R, 3): coefficients in x of 2 sum_i (x + e_i)^2
    h_sums: np.ndarray  # (R, 2): sum_i h_i and sum_i h_i e_i
    h: np.ndarray  # (R, K): h_i on each prefix, not in units of Lambda_k
    fade: np.ndarray  # (K,): 1 - (n-2)/lambda_i, see _delta_weight_slope

    def take(self, rows) -> _DeltaTerms:
        return _DeltaTerms(self.pre.take(rows), *(rows_of[rows] for rows_of in self[1:-1]),
                           self.fade)


def _delta_terms(pre: _Prefixes) -> _DeltaTerms:
    e = pre.shifts(unit=True)
    powers = np.stack([pre.mask, e, e * e], axis=1)
    h = pre.masked(_coeff_h(pre.values, pre.n))
    h_unit = h / pre.last[:, None]
    return _DeltaTerms(pre, powers, 2.0 * _rowsum(powers) * [1.0, 2.0, 1.0],
                       np.array([_rowsum(h_unit), _rowsum(h_unit * e)]).T, h,
                       1.0 - (pre.n - 2) / pre.values)


def _delta_closed_form(terms: _DeltaTerms, deltas: np.ndarray) -> np.ndarray:
    """The delta family's implied bound for each prefix (row) at each delta
    of its row of deltas, an (R, D) or (1, D) array; inf where the
    predicate holds up to Lambda_k 2^64. The predicate fails where
    (1-eps) lhs - (1+eps) rhs > 0, a quadratic in x = c - Lambda_k. The
    output is filled in tiles of at most _BLOCK (row, delta, eigenvalue)
    triples, which no entry's value depends on."""
    rows, count, size = len(terms.pre.last), deltas.shape[1], len(terms.pre.values)
    cols = max(1, min(count, _BLOCK // size))
    step = max(1, _BLOCK // (cols * size))
    out = np.empty((rows, count))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in product(range(0, rows, step), range(0, count, cols)):
            d = deltas[i:i + step] if len(deltas) > 1 else deltas
            out[i:i + step, j:j + cols] = _delta_block(terms, slice(i, i + step), d[:, j:j + cols])
    return out


def _delta_block(terms: _DeltaTerms, rows: slice, d: np.ndarray) -> np.ndarray:
    """_delta_closed_form on the rows of terms in the slice rows, d (R, D)
    or (1, D)."""
    last = terms.pre.last[rows, None]
    weight = _delta_weight(terms.pre.values, terms.pre.n, d[:, :, None])  # (R or 1, D, K)
    # the three weighted power sums, (R, D, 3), in one product and reduction
    m_sums = _rowsum(weight[:, :, None] * terms.powers[rows, None])
    # the quadratic is divided by max(d, 1/d) so that no coefficient can
    # overflow: with r = min(d, 1/d) the lhs, d-weighted and h / d sums
    # carry the factors r, d r = min(d^2, 1) and r / d = min(1/d^2, 1)
    inv = 1.0 / d
    r = np.minimum(d, inv)
    # the right side's coefficients of x^2, x and 1, each (R, D)
    rhs = np.minimum(d * d, 1.0)[..., None] * m_sums * [1.0, 2.0, 1.0]
    rhs[..., 1:] += np.minimum(inv * inv, 1.0)[..., None] * terms.h_sums[rows, None]
    coeffs = ((1.0 - INEQ_SLACK) * (r[..., None] * terms.lhs[rows, None])
              - (1.0 + INEQ_SLACK) * rhs)
    out = last + last * _first_positive(*coeffs.transpose(2, 0, 1))
    out[~(out <= last * 2.0**LIMIT_LOG2)] = math.inf
    return out


def delta_bounds(seq: EigenSequence, k, deltas) -> np.ndarray:
    """The delta family's implied bound at every delta of an array, in
    closed form; +inf where the predicate has no failure at or below
    Lambda_k 2^64 (where implied_bound raises BracketFailure). k is a
    prefix length, or a 1-D array of them for one row of bounds each."""
    pre = _checked_prefixes(family(DELTA_OPT), seq, k)
    deltas = _reals(deltas, "every delta must be a positive finite real").ravel()
    if not (np.isfinite(deltas) & (deltas > 0.0)).all():
        raise ValidationError("every delta must be a positive finite real")
    bounds = _delta_closed_form(_delta_terms(pre), deltas[None, :])
    return bounds if np.ndim(k) else bounds[0]


def _disc_roots(s: np.ndarray, t: np.ndarray):
    """S^2 - T, sqrt(max(S^2 - T, 0)) and where S^2 - T lies below
    -DISC_SLACK S^2, which no genuine eigenvalue prefix gives. Where S^2
    alone overflows, S^2 - T is taken in units of S^2, so the root is
    |S| sqrt(1 - T/S^2)."""
    disc = s * s - t
    root = np.sqrt(np.maximum(disc, 0.0))
    huge = np.isinf(s * s) & np.isfinite(s)
    root[huge] = np.abs(s[huge]) * np.sqrt(np.maximum(1.0 - t[huge] / s[huge] / s[huge], 0.0))
    return disc, root, disc < -DISC_SLACK * s * s


def _st_terms(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes):
    """The averaged pair (S, T) of a closed-form family for every prefix."""
    vals, k = pre.values, pre.lengths
    c = (seq.coeff_g * _coeff_h(vals, seq.n) if fam.name in (QUADRATIC, GAP)
         else _root_coeffs(fam, vals, seq.n, seq.p))
    sums = _rowsum(pre.masked(np.array([vals, c, vals**2, vals * c])[:, None]))
    return sums[0] / k + sums[1] / (2 * k), sums[2] / k + sums[3] / k


def _closed_form_rows(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes, shared):
    """closed_form_bound's (bound, aux) or error for every prefix. Every
    family's coefficients are per eigenvalue, so they are formed once for
    the whole sequence, and once per call for the quadratic and gap families
    (both c_i = g_i h_i); the sphere buckling families report S and T."""
    yield from ()  # no search rows
    key = QUADRATIC if fam.name == GAP else fam.name
    # huge eigenvalues overflow the sums to inf and the bound to NaN, which
    # is refused below, and a prefix its caller never reaches must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if key not in shared:
            shared[key] = _st_terms(fam, seq, pre)
        s, t = shared[key]
        disc, root, negative = _disc_roots(s, t)
        bounds = pre.last + 2.0 * root if fam.name == GAP else s + root
        low = bounds < pre.last * (1.0 - 1e-12)
    finite = np.isfinite(s) & np.isfinite(t) & np.isfinite(bounds)
    # a genuine cap spectrum can fail a flat-space inequality; a sphere
    # family's failure blames the input
    flat = (fam.name.startswith("euclidean-")
            and f"{fam} is a flat-space inequality and need not hold on a cap")
    out = []
    for row in range(len(pre.lengths)):
        if not finite[row]:
            out.append(BracketFailure(
                f"{fam} overflows the float range (S = {s[row]:.6g}, T = {t[row]:.6g}); "
                f"no finite closed-form bound"))
        elif negative[row]:
            out.append(DiscriminantNegative(
                f"S^2 - T = {disc[row]:.6g} < 0 (S = {s[row]:.6g}, T = {t[row]:.6g}); "
                f"{flat or 'the inputs cannot be a genuine eigenvalue prefix'}"))
        elif low[row]:
            out.append(DomainError(
                f"bound {bounds[row]:.6g} fell below the k-th eigenvalue "
                f"{pre.last[row]:.6g}; {flat or 'the inputs are not a genuine spectrum prefix'}"))
        else:
            aux = {"S": float(s[row]), "T": float(t[row])} if fam.name in (QUADRATIC, GAP) else {}
            out.append((float(bounds[row]), aux))
    return out


def _root_coeffs(fam: BoundFamily, vals: np.ndarray, n: int, p: int) -> np.ndarray:
    """c_i of the closed-form families but quadratic and gap (see _st_terms)."""
    # formed in floats: a large order overflows to inf or NaN, never to an
    # exact integer power, and the caller refuses the non-finite bound
    q = _float_order(p)
    if fam.name == SPHERE_CLAMPED:
        roots = vals ** (1.0 / q)
        # (roots + n)^q - lambda cancels once n is far below the root; there
        # it is formed as lambda expm1(q log1p(n / root)), which does not
        bracket = np.where(n < roots * 2.0**-20, vals * np.expm1(q * np.log1p(n / roots)),
                           (roots + n) ** q - vals)
        c_extra = _two_power(q) - (q + 1)
        if c_extra:
            bracket = bracket + 4.0 * c_extra * roots * (roots + n) ** (q - 2)
        # trailing factor lambda_i^(1/p) + n^2/4; at p = 1 this is the
        # Yang-type inequality for the Dirichlet Laplacian on a sphere domain
        return 4.0 / (n * n) * bracket * (roots + n * n / 4.0)
    if fam.name == EUCLIDEAN_MEMBRANE:
        return 4.0 / n * vals
    if fam.name == EUCLIDEAN_CLAMPED:
        return 4.0 * q * (2 * q + n - 2) / (n * n) * vals
    if fam.name == EUCLIDEAN_BUCKLING_P2:
        return 4.0 * (n + 2) / (n * n) * vals
    # EUCLIDEAN_BUCKLING
    return 4.0 * (q - 1) * (n + 2 * q - 2) / (n * n) * vals ** ((2 * q - 3) / (q - 1))


def closed_form_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                      actual: float | None = None) -> BoundResult:
    """Closed-form families: the bound from the averaged pair (S, T); the
    one-prefix case of the all-prefix pass."""
    return _one_result("closed-form", fam, seq, k, actual)


def _delta_weight_slope(terms: _DeltaTerms, d) -> np.ndarray:
    """d/d delta of delta * _delta_weight: with c = n - 2,
    lambda + (1 - c/lambda) (1 - (c / (delta lambda + c))^2) / 4, whose
    delta-free factor 1 - c/lambda is terms.fade. It rises from lambda as
    delta -> 0 to lambda + (1 - c/lambda) / 4 as delta -> inf, and is
    lambda + 1/4 at every delta when n = 2."""
    c, values = terms.pre.n - 2, terms.pre.values
    return values + terms.fade * (1.0 - (c / (d * values + c)) ** 2) / 4.0


def _delta_seeds(terms: _DeltaTerms):
    """Per prefix, log10 of the best delta with the delta weights frozen at
    their large-delta limit W_i = lambda_i + (1 - (n-2)/lambda_i) / 4
    (_delta_weight_slope at delta = inf), or NaN if that frozen family has
    no failure at or below Lambda_k 2^64.

    Frozen, the predicate fails where (1-eps) L > (1+eps) (delta M + H/delta)
    with L = 2 sum d_i^2, M = sum W_i d_i^2, H = sum h_i d_i, d_i = x + e_i.
    Its right side is least, 2 (1+eps) sqrt(M H), at delta = sqrt(H/M), so
    the best frozen bound is the first failure of the sqrt shape with the
    weights (L, M, H) (see _sqrt_sides), and the seed is sqrt(H/M) there. At
    n = 2 the weights do not depend on delta and the seed is the optimum
    itself. x, e_i and H are taken in units of Lambda_k (H in units of
    Lambda_k^2), so no eigenvalue under- or overflows the coefficients. It
    yields its rows of the shared search, as _sqrt_bounds does."""
    pre, e = terms.pre, terms.powers[:, 1]
    weights = np.array([pre.masked(2.0), pre.masked(_delta_weight_slope(terms, math.inf)),
                        terms.h / pre.last[:, None]])  # L, M and H

    def sides(rows, x):
        d = np.where(pre.mask[rows], x[:, None] + e[rows], 0.0)
        return _sqrt_sides(d, weights[:, rows])

    x = yield weights, e, np.ones(len(e)), lambda rows, x: ~_holds(*sides(rows, x)[:2])
    found = np.isfinite(x)
    seeds = np.full(len(x), math.nan)
    with np.errstate(all="ignore"):
        _, _, msum, hsum = sides(np.flatnonzero(found), x[found])
        seeds[found] = 0.5 * np.log10(hsum / msum)
    return seeds


def _delta_points(terms: _DeltaTerms, ts: np.ndarray) -> list:
    """(t, bound, residual, delta) of the delta-opt search at log10 delta
    ts[i] for prefix i, the residual None where there is no bound; d_i are
    taken in units of the bound, so no square under- or overflows."""
    pre, deltas = terms.pre, 10.0**ts
    bounds = _delta_closed_form(terms, deltas[:, None])[:, 0]
    finite = np.isfinite(bounds)
    at = np.where(finite, bounds, 1.0)[:, None]
    d = pre.masked((at - pre.values) / at)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = _rowsum(d * d * _delta_weight_slope(terms, deltas[:, None]))
        ratio = slope / _rowsum(terms.h * d)
        residuals = 2.0 * LN10 * ts + np.log(ratio) + np.log(at[:, 0])
    return list(zip(ts.tolist(), bounds.tolist(), np.where(finite, residuals, None).tolist(),
                    deltas.tolist()))


def _delta_search(seed: float):
    """The delta-opt root search for one prefix, as a generator: it yields
    each log10 delta to evaluate, is sent back its point (t, bound,
    residual, delta), and returns the chosen point or raises
    BracketFailure (see best_delta_bound)."""
    lo_t, hi_t = DELTA_LOG_RANGE
    inner = yield min(max(seed, lo_t), hi_t)
    if inner[2] is None:
        raise BracketFailure(
            f"the delta family has no finite implied bound at delta = "
            f"{inner[3]:.6g}, where its large-delta form is least"
        )
    # step from the seed (a chord step, then secant extrapolation) until the
    # residual changes sign or the bound is lost; a root past an end of the
    # range stays at that end
    step = -inner[2] / (2.0 * LN10)
    while True:
        t = min(max(inner[0] + step, lo_t), hi_t)
        if abs(t - inner[0]) <= DELTA_ROOT_TOL:
            return inner
        outer = yield t
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
            return last if last[2] is not None else inner
        last = yield t
        if last[2] is None:
            outer, fb, side = last, None, 0
        elif last[2] == 0.0:
            return last
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


def _delta_opt_rows(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes, shared):
    """best_delta_bound's (bound, aux) or error for every prefix. The
    searches run in lockstep: each round evaluates the closed form once for
    every prefix whose search is still open."""
    out, terms = [None] * len(pre.lengths), _delta_terms(pre)
    open_rows = {}  # row -> (search, the log10 delta it asks for)
    for row, seed in enumerate((yield from _delta_seeds(terms)).tolist()):
        if math.isnan(seed):
            out[row] = BracketFailure(
                "the delta family has no finite implied bound even with its "
                "weights at their large-delta limit")
        else:
            search = _delta_search(seed)
            open_rows[row] = search, next(search)
    held = range(len(out))  # the rows terms holds: every open row, in order
    while open_rows:
        if len(held) > len(open_rows):
            keep = [at for at, row in enumerate(held) if row in open_rows]
            terms, held = terms.take(keep), [held[at] for at in keep]
        points = _delta_points(terms, np.array([open_rows[row][1] for row in held]))
        for row, point in zip(held, points):
            search = open_rows.pop(row)[0]
            try:
                open_rows[row] = search, search.send(point)
            except StopIteration as done:
                out[row] = done.value[1], {"delta_star": done.value[3]}
            except BracketFailure as error:
                out[row] = error
    return out


def best_delta_bound(seq: EigenSequence, k: int,
                     actual: float | None = None) -> BoundResult:
    """Minimize the delta family's implied bound over delta in [1e-6, 1e6].

    The bound Lambda_k + x(delta) is the first failure of
    (1-eps) L(x) > (1+eps) R(x, delta), R = sum_i d_i^2 delta w_i(delta)
    + H(x)/delta (see _delta_closed_form). By the envelope theorem x(delta)
    moves with the sign of dR/d delta at (x(delta), delta), and each term of
    R is convex in delta, so where x(delta) has one minimum (on every
    stored spectrum) it lies at the root of that derivative. The root is
    found in t = log10 delta on the sign-equivalent residual
    log(delta^2 sum_i d_i^2 w_i'(delta) / H), whose slope is about 2 ln 10:
    a chord step from _delta_seeds (already the optimum at n = 2), secant
    steps until the sign changes, then Illinois regula falsi, to
    DELTA_ROOT_TOL. Every point is the closed form at one delta, so the
    bound is the delta family's own bound at delta_star. A root past an end
    of the range is clamped to that end. BracketFailure when the seed's
    frozen-weight family has no finite bound, or the closed form has none
    at the (clamped) seed. The one-prefix case of the all-prefix pass."""
    return _one_result("delta-opt", family(DELTA_OPT), seq, k, actual)


_KERNELS = {"implied": _implied_rows, "closed-form": _closed_form_rows,
            "delta-opt": _delta_opt_rows}


def evaluate_families(fams, seq: EigenSequence, ks, actuals=None) -> list:
    """Per family of fams, evaluate_bound's BoundResult or the error it raises
    at each prefix length of ks (with that entry of actuals), so a caller can
    raise errors in its own order. Each kernel (see _KERNELS) yields its rows
    of the one _first_failures search, if any, and is sent their first
    failures; shared holds the call's (S, T). Rows are independent, so each
    family gets its bits alone, and a whole-family error fills its entries."""
    fams = _items(fams, "bound families must be a list of BoundFamily records", BoundFamily)
    lengths = np.atleast_1d(ks).tolist()
    actuals = (None,) * len(lengths) if actuals is None else _items(
        actuals, "actuals must hold one value per prefix length", count=len(lengths))
    try:
        pre = _prefixes(seq, ks)
    except ValidationError:
        pre = ks  # each family raises it after its own checks
    shared, outcomes, runs = {}, [None] * len(fams), {}
    for at, fam in enumerate(fams):
        try:
            run = _KERNELS[fam.kind](fam, seq, _checked_prefixes(fam, seq, pre), shared)
            runs[at] = run, next(run)
        except StopIteration as done:
            outcomes[at] = done.value
        except CapspecError as error:
            outcomes[at] = [error] * len(lengths)
    found = _first_failures([block for _, block in runs.values()])
    for (at, (run, _)), x in zip(runs.items(), found):
        try:
            run.send(x)
        except StopIteration as done:
            outcomes[at] = done.value
    return [[outcome if isinstance(outcome, CapspecError)
             else BoundResult(family=fam, k=k, bound=outcome[0], aux=outcome[1], actual=actual)
             for outcome, k, actual in zip(family_outcomes, lengths, actuals)]
            for fam, family_outcomes in zip(fams, outcomes)]


def _one_result(kind: str, fam: BoundFamily, seq: EigenSequence, k: int,
                actual) -> BoundResult:
    """A per-k entry point for families of the given kind: the one-family,
    one-prefix case of evaluate_families."""
    if fam.kind != kind:
        raise FamilyMismatch(f"family {fam.name} has no {kind} bound")
    outcome = evaluate_families([fam], seq, _one_prefix(seq, k), [actual])[0][0]
    if isinstance(outcome, CapspecError):
        raise outcome
    return outcome


def evaluate_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                   actual: float | None = None) -> BoundResult:
    """Single entry point: the one-prefix case of evaluate_families, with
    the kernel of the family's kind."""
    return _one_result(fam.kind, fam, seq, k, actual)
