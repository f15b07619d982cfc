"""Universal eigenvalue bound families.

Every family bounds the (k+1)-th eigenvalue of a clamped or buckling
problem by the first k eigenvalues. A family's kind, a column of the
registry, names the one kernel that evaluates it (_KERNELS):

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
row over the whole sequence, zeroed past k, so one array pass (stacked
eigvals calls for the roots, one probe classification for the intervals,
one closed-form call per delta-opt search round) serves them all. The
per-k entry points are the one-row case of the same passes.

Sphere buckling families share the coefficient functions

    g(L) = factor(L) - L / (L - (n-2)),   h(L) = L + (n-2)^2 / 4,

where factor is sphere_buckling_factor below; they require every
eigenvalue to exceed n - 2 (for n = 2 this is just positivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BracketFailure,
    CapspecError,
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

# name -> (problem, exact_p, sphere guard required, kind); EigenSequence
# already demands p >= 2 for buckling and p >= 1 for clamped, and the kind
# names the family's kernel in _KERNELS
_REGISTRY = {
    SQRT: (Problem.BUCKLING, None, True, "implied"),
    QUADRATIC: (Problem.BUCKLING, None, True, "closed-form"),
    GAP: (Problem.BUCKLING, None, True, "closed-form"),
    DELTA: (Problem.BUCKLING, 2, True, "implied"),
    DELTA_OPT: (Problem.BUCKLING, 2, True, "delta-opt"),
    SQRT_P2: (Problem.BUCKLING, 2, True, "implied"),
    SPHERE_CLAMPED: (Problem.CLAMPED, None, False, "closed-form"),
    EUCLIDEAN_MEMBRANE: (Problem.CLAMPED, 1, False, "closed-form"),
    EUCLIDEAN_CLAMPED: (Problem.CLAMPED, None, False, "closed-form"),
    EUCLIDEAN_BUCKLING_P2: (Problem.BUCKLING, 2, False, "closed-form"),
    EUCLIDEAN_BUCKLING: (Problem.BUCKLING, None, False, "closed-form"),
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
    problem, exact_p, needs_guard, _ = _REGISTRY[name]
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


def default_families(seq: EigenSequence,
                     sphere_clamped_use_lambda_i: bool = False) -> list[BoundFamily]:
    """Every sphere family that applies to the sequence, in registry order,
    except the delta family, whose free parameter has no default;
    sphere_clamped_use_lambda_i picks the variant of the clamped family."""
    return [family(name, sphere_clamped_use_lambda_i=sphere_clamped_use_lambda_i
                   and name == SPHERE_CLAMPED)
            for name, (problem, exact_p, _, _) in _REGISTRY.items()
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
        return self._replace(lengths=self.lengths[rows], mask=self.mask[rows],
                             last=self.last[rows])

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
    """The prefixes of the lengths ks, an integer or a 1-D array of them."""
    lengths = np.atleast_1d(np.asarray(ks))
    if not (lengths.ndim == 1 and lengths.dtype.kind in "biu"
            and np.all((1 <= lengths) & (lengths <= len(seq)))):
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
    """The prefixes of the lengths ks, once the family applies to the
    sequence and, if the family needs the sphere guard, every eigenvalue
    exceeds n - 2."""
    _check_compat(fam, seq)
    pre = _prefixes(seq, ks)
    floor = seq.n - 2
    if fam.needs_guard and seq.values[0] <= floor:
        raise DomainError(
            f"sphere buckling families require every eigenvalue > n - 2 = {floor}; "
            f"smallest is {seq.values[0]:.6g}"
        )
    return pre


def _coeff_g(values: np.ndarray, n: int, p: int) -> np.ndarray:
    factors = np.array([sphere_buckling_factor(v, n, p) for v in values.tolist()])
    return factors - values / (values - (n - 2))


def _coeff_g_p2(values: np.ndarray, n: int) -> np.ndarray:
    return values - (n - 2) / (values - (n - 2))


def _coeff_h(values: np.ndarray, n: int) -> np.ndarray:
    return values + (n - 2) ** 2 / 4.0


def _sqrt_lhs_weight(values: np.ndarray, n: int) -> np.ndarray:
    return 2.0 + (n - 2) / (values - (n - 2))


def _delta_weight(values: np.ndarray, n: int, d):
    """The delta family's weight on (c - lambda_i)^2, divided by d:
    lambda + d (lambda - (n-2)) / (4 (d lambda + n - 2)), written so that
    no d^2 is formed and the n = 2 denominator cannot cancel to zero. For
    subnormal d, (n-2)/d overflows to inf, the right limit."""
    with np.errstate(over="ignore"):
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
    lengths, candidates = np.broadcast_arrays(k, np.asarray(candidate, dtype=float))
    pre = _checked_prefixes(fam, seq, lengths.ravel())
    candidates = candidates.ravel()
    bad = ~(np.isfinite(candidates) & (candidates >= pre.last))
    if bad.any():
        at = int(np.argmax(bad))
        raise ValidationError(
            f"candidate must be >= the k-th eigenvalue {pre.last[at]:.6g}, "
            f"got {float(candidates[at])!r}"
        )
    n, vals = seq.n, pre.values
    diffs = pre.masked(candidates[:, None] - vals)
    h = _coeff_h(vals, n)
    if fam.name in (SQRT, SQRT_P2):
        g = _coeff_g(vals, n, seq.p) if fam.name == SQRT else _coeff_g_p2(vals, n)
        lhs = _rowsum(diffs**2 * _sqrt_lhs_weight(vals, n))
        rhs = (2.0 * np.sqrt(np.maximum(_rowsum(diffs**2 * g), 0.0))
               * np.sqrt(np.maximum(_rowsum(diffs * h), 0.0)))
    elif fam.name == QUADRATIC:
        g = _coeff_g(vals, n, seq.p)
        lhs = _rowsum(diffs**2)
        rhs = _rowsum(diffs * g * h)
    else:  # DELTA
        d = fam.delta
        mult = d * _delta_weight(vals, n, d)
        lhs = 2.0 * _rowsum(diffs**2)
        rhs = _rowsum(diffs**2 * mult) + _rowsum(diffs * h) / d
    holds = lhs <= rhs + INEQ_SLACK * (np.abs(lhs) + np.abs(rhs))
    if lengths.ndim == 0:
        return PredicateResult(lhs=float(lhs[0]), rhs=float(rhs[0]), holds=bool(holds[0]))
    shape = lengths.shape
    return PredicateResult(lhs=lhs.reshape(shape), rhs=rhs.reshape(shape),
                           holds=holds.reshape(shape))


def _implied_rows(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes) -> list:
    """implied_bound's (bound, aux) or error for every prefix: the delta
    family's closed form (see _delta_closed_form), or the sqrt families'
    first failure (see _sqrt_bounds). BracketFailure when no failure lies
    at or below Lambda_k 2^64, or when the polynomial's coefficients
    overflow the float range."""
    with np.errstate(over="ignore"):  # an infinite limit is no limit
        limits = pre.last * 2.0**LIMIT_LOG2
    if fam.name == DELTA:
        bounds = _delta_closed_form(_delta_terms(pre), np.array([[fam.delta]]))[:, 0]
        aux = {"delta": fam.delta}
    else:
        bounds = _sqrt_bounds(fam, seq, pre)
        aux = {}
    out = []
    for bound, limit in zip(bounds.tolist(), limits.tolist()):
        if math.isnan(bound):
            out.append(BracketFailure(f"the coefficients of the {fam} predicate "
                                      f"overflow; no finite implied bound"))
        elif math.isinf(bound):
            out.append(BracketFailure(f"predicate of {fam} holds at every candidate "
                                      f"up to {limit:.6g}; no finite implied bound"))
        else:
            out.append((bound, aux))
    return out


def _sqrt_bounds(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes) -> np.ndarray:
    """The sqrt families' implied bounds, Lambda_k plus the first failure
    of (1-eps) L <= 2 (1+eps) sqrt(G) sqrt(H), eps = INEQ_SLACK, whose
    probes evaluate_predicate classifies: inf where the predicate holds up
    to Lambda_k 2^64, NaN where the coefficients overflow."""
    n, vals = seq.n, pre.values
    g = _coeff_g(vals, n, seq.p) if fam.name == SQRT else _coeff_g_p2(vals, n)
    weights = [pre.masked(w) for w in (_sqrt_lhs_weight(vals, n), g, _coeff_h(vals, n))]

    def fails(rows, x):
        return ~evaluate_predicate(fam, seq, pre.lengths[rows], pre.last[rows] + x).holds

    return pre.last + _first_failures(weights, pre.shifts(), pre.last, fails)


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
        return np.stack([_rowsum(w), _rowsum(we)], axis=1)
    return np.stack([_rowsum(w), 2.0 * _rowsum(we),
                     _rowsum(we * e)], axis=1)


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
    matrix; rows that strip alike share one stacked eigvals call."""
    rows, width = coeffs.shape
    out = np.full((rows, width - 1), np.nan)
    nonzero = coeffs != 0.0
    lead = np.argmax(nonzero, axis=1)
    tail = width - np.argmax(nonzero[:, ::-1], axis=1)
    live = nonzero.any(axis=1) & (tail - lead > 1)
    for first, end in set(zip(lead[live].tolist(), tail[live].tolist())):
        pick = live & (lead == first) & (tail == end)
        poly = coeffs[pick, first:end]
        degree = end - first - 1
        companion = np.zeros((len(poly), degree, degree))
        companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
        below = np.arange(degree - 1)
        companion[:, below + 1, below] = 1.0
        # a linear factor's root is its companion's one entry, -c1 / c0
        roots = companion[:, :, 0] if degree == 1 else np.linalg.eigvals(companion)
        real = np.where(np.abs(roots.imag) <= 1e-8 * np.abs(roots), roots.real, np.nan)
        out[pick, :degree] = np.where(real > 0.0, real, np.nan)
    return out


def _first_failures(weights, e: np.ndarray, unit: np.ndarray, fails) -> np.ndarray:
    """Per prefix (row), the least x >= 0 at which
    (1-eps) L(x) <= 2 (1+eps) sqrt(G(x) H(x)), eps = INEQ_SLACK, fails,
    where L, G and H are sum_i w_i (x + e_i)^m for the weight rows
    weights = (L, G, H) and m = 2, 2, 1; inf where it holds at every
    x <= unit (2^64 - 1), NaN where the quartic's coefficients overflow.
    unit is Lambda_k in the units of x and e.

    For x >= 0, L and H are non-negative, so the predicate fails exactly
    where the quartic (1-eps)^2 L^2 - 4 (1+eps)^2 G H is positive: where
    G < 0 it is at least (1-eps)^2 L^2. A root of G therefore never begins
    a failing interval, and the quartic's positive real roots alone cut
    [0, inf) into intervals of one verdict each. fails(rows, x) classifies
    the points x of the given rows (True where the predicate fails); it is
    asked once, for x = 0 and an interior point of every interval that
    starts below the limit, with overflow ignored. x = 0 is probed on its
    own: a prefix that fails there needs no root, and the roots can lose
    small ones when the coefficients span decades. The last interval is
    probed at left + max(left, unit, 1)."""
    with np.errstate(over="ignore", invalid="ignore"):
        quartic = _slack_quartic(_shifted_sum(weights[0], e, 2),
                                 _shifted_sum(weights[1], e, 2),
                                 _shifted_sum(weights[2], e, 1))
    finite = np.isfinite(quartic).all(axis=1)
    edges = np.sort(_positive_real_roots(quartic[finite]), axis=1)  # NaN sorts last
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.nan
    edges = np.sort(edges, axis=1)
    zero = np.zeros((len(edges), 1))
    lefts = np.concatenate([zero, zero, edges], axis=1)
    rights = np.concatenate([zero, edges, zero + np.nan], axis=1)
    scale = unit[finite, None]
    failing = np.zeros(lefts.shape, dtype=bool)
    # an overflowed probe compares inf with inf, and the predicate holds
    with np.errstate(over="ignore"):
        probes = np.where(np.isnan(rights), lefts + np.maximum(np.maximum(lefts, scale), 1.0),
                          0.5 * (lefts + rights))
        rows, cols = np.nonzero(scale + lefts <= scale * 2.0**LIMIT_LOG2)  # NaN is False
        failing[rows, cols] = fails(np.flatnonzero(finite)[rows], probes[rows, cols])
    out = np.full(len(finite), math.nan)
    out[finite] = np.where(failing.any(axis=1),
                           lefts[np.arange(len(lefts)), np.argmax(failing, axis=1)], math.inf)
    return out


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

    def take(self, rows) -> _DeltaTerms:
        return _DeltaTerms(self.pre.take(rows), self.powers[rows], self.lhs[rows],
                           self.h_sums[rows])


def _delta_terms(pre: _Prefixes) -> _DeltaTerms:
    e = pre.shifts(unit=True)
    powers = np.stack([pre.mask.astype(float), e, e * e], axis=1)
    h = pre.masked(_coeff_h(pre.values, pre.n) / pre.last[:, None])
    return _DeltaTerms(pre, powers, 2.0 * _rowsum(powers) * [1.0, 2.0, 1.0],
                       np.array([_rowsum(h), _rowsum(h * e)]).T)


def _delta_closed_form(terms: _DeltaTerms, deltas: np.ndarray) -> np.ndarray:
    """The delta family's implied bound for each prefix (row) at each delta
    of its row of deltas, an (R, D) or (1, D) array; inf where the
    predicate holds up to Lambda_k 2^64. The predicate fails where
    (1-eps) lhs - (1+eps) rhs > 0, a quadratic in x = c - Lambda_k. Rows
    are evaluated in blocks of at most _BLOCK elements per temporary, which
    a row's value does not depend on."""
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
            out[rows] = last[rows] + last[rows] * _first_positive(a, b, c)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(out <= last * 2.0**LIMIT_LOG2, out, math.inf)


def delta_bounds(seq: EigenSequence, k, deltas) -> np.ndarray:
    """The delta family's implied bound at every delta of an array, in
    closed form; +inf where the predicate has no failure at or below
    Lambda_k 2^64 (where implied_bound raises BracketFailure). k is a
    prefix length, or a 1-D array of them for one row of bounds each."""
    pre = _checked_prefixes(family(DELTA_OPT), seq, k)
    deltas = np.asarray(deltas, dtype=float).ravel()
    if not np.all(np.isfinite(deltas) & (deltas > 0.0)):
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
    c = _root_coeffs(fam, vals, seq.n, seq.p)
    s = _rowsum(pre.masked(vals)) / k + _rowsum(pre.masked(c)) / (2 * k)
    t = _rowsum(pre.masked(vals**2)) / k + _rowsum(pre.masked(vals * c)) / k
    return s, t


def _closed_form_rows(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes) -> list:
    """closed_form_bound's (bound, aux) or error for every prefix. Every
    family's coefficients are per eigenvalue, so they are formed once for
    the whole sequence; the sphere buckling families report S and T."""
    # huge eigenvalues overflow the sums to inf and the bound to NaN, which
    # is refused below, and a prefix its caller never reaches must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        s, t = _st_terms(fam, seq, pre)
        disc, root, negative = _disc_roots(s, t)
        bounds = pre.last + 2.0 * root if fam.name == GAP else s + root
        low = bounds < pre.last * (1.0 - 1e-12)
    finite = np.isfinite(s) & np.isfinite(t) & np.isfinite(bounds)
    out = []
    for row in range(len(pre.lengths)):
        if not finite[row]:
            out.append(BracketFailure(
                f"{fam} overflows the float range (S = {s[row]:.6g}, T = {t[row]:.6g}); "
                f"no finite closed-form bound"))
        elif negative[row]:
            out.append(DiscriminantNegative(
                f"S^2 - T = {disc[row]:.6g} < 0 (S = {s[row]:.6g}, T = {t[row]:.6g}); "
                f"the inputs cannot be a genuine eigenvalue prefix"))
        elif low[row]:
            out.append(DomainError(
                f"bound {bounds[row]:.6g} fell below the k-th eigenvalue "
                f"{pre.last[row]:.6g}; the inputs are not a genuine spectrum prefix"))
        else:
            aux = {"S": float(s[row]), "T": float(t[row])} if fam.name in (QUADRATIC, GAP) else {}
            out.append((float(bounds[row]), aux))
    return out


def _root_coeffs(fam: BoundFamily, vals: np.ndarray, n: int, p: int) -> np.ndarray:
    """Per-eigenvalue coefficients c_i of the closed-form families."""
    if fam.name in (QUADRATIC, GAP):
        return _coeff_g(vals, n, p) * _coeff_h(vals, n)
    if fam.name == SPHERE_CLAMPED:
        roots = vals ** (1.0 / p)
        bracket = (roots + n) ** p - vals
        c_extra = 2**p - (p + 1)
        if c_extra:
            bracket = bracket + 4.0 * c_extra * roots * (roots + n) ** (p - 2)
        tail = (roots if fam.use_lambda_i else roots[0]) + n * n / 4.0
        return 4.0 / (n * n) * bracket * tail
    if fam.name == EUCLIDEAN_MEMBRANE:
        return 4.0 / n * vals
    if fam.name == EUCLIDEAN_CLAMPED:
        return 4.0 * p * (2 * p + n - 2) / (n * n) * vals
    if fam.name == EUCLIDEAN_BUCKLING_P2:
        return 4.0 * (n + 2) / (n * n) * vals
    # EUCLIDEAN_BUCKLING
    return 4.0 * (p - 1) * (n + 2 * p - 2) / (n * n) * vals ** ((2 * p - 3) / (p - 1))


def closed_form_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                      actual: float | None = None) -> BoundResult:
    """Closed-form families: the bound from the averaged pair (S, T); the
    one-prefix case of the all-prefix pass."""
    return _one_result("closed-form", fam, seq, k, actual)


def _delta_weight_slope(values: np.ndarray, n: int, d) -> np.ndarray:
    """d/d delta of delta * _delta_weight: with c = n - 2,
    lambda + (1 - c/lambda) (1 - (c / (delta lambda + c))^2) / 4. It rises
    from lambda as delta -> 0 to lambda + (1 - c/lambda) / 4 as delta -> inf,
    and is lambda + 1/4 at every delta when n = 2."""
    c = n - 2
    return values + (1.0 - c / values) * (1.0 - (c / (d * values + c)) ** 2) / 4.0


def _delta_seeds(pre: _Prefixes) -> np.ndarray:
    """Per prefix, log10 of the best delta with the delta weights frozen at
    their large-delta limit W_i = lambda_i + (1 - (n-2)/lambda_i) / 4, or
    NaN if that frozen family has no failure at or below Lambda_k 2^64.

    Frozen, the predicate fails where (1-eps) L > (1+eps) (delta M + H/delta)
    with L = 2 sum d_i^2, M = sum W_i d_i^2, H = sum h_i d_i, d_i = x + e_i.
    Its right side is least, 2 (1+eps) sqrt(M H), at delta = sqrt(H/M), so
    the best frozen bound is the first failure _first_failures finds with
    the weights (L, M, H), and the seed is sqrt(H/M) there. At n = 2 the
    weights do not depend on delta and the seed is the optimum itself. x,
    e_i and H are taken in units of Lambda_k (H in units of Lambda_k^2), so
    neither tiny nor huge eigenvalues under- or overflow the coefficients."""
    n, vals = pre.n, pre.values
    e = pre.shifts(unit=True)
    weights = [pre.masked(2.0), pre.masked(vals + (1.0 - (n - 2) / vals) / 4.0),
               pre.masked(_coeff_h(vals, n) / pre.last[:, None])]  # L, M and H

    def sums(rows, x):
        """The L, M and H sums of the given rows at the points x, in d-form."""
        d = np.where(pre.mask[rows], x[:, None] + e[rows], 0.0)
        dd = d * d
        return (_rowsum(dd * weights[0][rows]), _rowsum(dd * weights[1][rows]),
                _rowsum(d * weights[2][rows]))

    def fails(rows, x):
        lsum, msum, hsum = sums(rows, x)
        with np.errstate(invalid="ignore"):
            return (1.0 - INEQ_SLACK) * lsum > 2.0 * (1.0 + INEQ_SLACK) * np.sqrt(msum * hsum)

    x = _first_failures(weights, e, np.ones(len(e)), fails)
    found = np.isfinite(x)
    seeds = np.full(len(x), math.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, msum, hsum = sums(np.flatnonzero(found), x[found])
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
        slope = _rowsum(d * d * _delta_weight_slope(pre.values, pre.n, deltas[:, None]))
        ratio = slope / _rowsum(pre.masked(_coeff_h(pre.values, pre.n)) * d)
        residuals = 2.0 * LN10 * ts + np.log(ratio) + np.log(at[:, 0])
    return [(t, bound, residual if ok else None, delta) for t, bound, residual, delta, ok
            in zip(ts.tolist(), bounds.tolist(), residuals.tolist(), deltas.tolist(),
                   finite.tolist())]


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


def _delta_opt_rows(fam: BoundFamily, seq: EigenSequence, pre: _Prefixes) -> list:
    """best_delta_bound's (bound, aux) or error for every prefix. The
    searches run in lockstep: each round evaluates the closed form once for
    every prefix whose search is still open."""
    out = [None] * len(pre.lengths)
    open_rows = {}  # row -> (search, the log10 delta it asks for)
    for row, seed in enumerate(_delta_seeds(pre).tolist()):
        if math.isnan(seed):
            out[row] = BracketFailure(
                "the delta family has no finite implied bound even with its "
                "weights at their large-delta limit")
        else:
            search = _delta_search(seed)
            open_rows[row] = search, next(search)
    terms = _delta_terms(pre)
    while open_rows:
        rows = list(open_rows)
        points = _delta_points(terms.take(rows),
                               np.array([open_rows[row][1] for row in rows]))
        for row, point in zip(rows, points):
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


def evaluate_bounds(fam: BoundFamily, seq: EigenSequence, ks,
                    actuals=None) -> list:
    """evaluate_bound at every prefix length of ks (with the matching entry
    of actuals), in array passes over all of them. One entry per k: its
    BoundResult, or the error evaluate_bound raises at that k; an error of
    the whole family, such as a problem mismatch, fills every entry. So a
    caller can raise errors in its own order."""
    lengths = np.atleast_1d(ks).tolist()
    actuals = [None] * len(lengths) if actuals is None else list(actuals)
    try:
        outcomes = _KERNELS[_REGISTRY[fam.name][3]](fam, seq, _checked_prefixes(fam, seq, ks))
    except CapspecError as error:
        return [error] * len(lengths)
    return [outcome if isinstance(outcome, CapspecError)
            else BoundResult(family=fam, k=k, bound=outcome[0], aux=outcome[1],
                             actual=actual)
            for outcome, k, actual in zip(outcomes, lengths, actuals)]


def _one_result(kind: str, fam: BoundFamily, seq: EigenSequence, k: int,
                actual) -> BoundResult:
    """A per-k entry point for families of the given kind: the one-prefix
    case of evaluate_bounds."""
    if _REGISTRY[fam.name][3] != kind:
        raise FamilyMismatch(f"family {fam.name} has no {kind} bound")
    outcome = evaluate_bounds(fam, seq, _one_prefix(seq, k), [actual])[0]
    if isinstance(outcome, CapspecError):
        raise outcome
    return outcome


def evaluate_bound(fam: BoundFamily, seq: EigenSequence, k: int,
                   actual: float | None = None) -> BoundResult:
    """Single entry point: the one-prefix case of evaluate_bounds, with the
    kernel of the family's kind."""
    return _one_result(_REGISTRY[fam.name][3], fam, seq, k, actual)
