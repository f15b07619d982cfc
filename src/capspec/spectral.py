"""Per-mode Galerkin assembly and the merged cap spectrum.

For a cap of radius theta0 and mode l, trial functions are

    q_j(x) = (x - x0)^p * T_j(s) = a^p (1 + s)^p T_j(s),   j = 0 .. N-1,

with x0 = cos(theta0), T_j Chebyshev in the mapped variable s, x = 1 - a (1 - s),
and a = (1 - x0)/2 the cap's half-width; the factor (x - x0)^p encodes all p
Dirichlet boundary conditions at once. Writing m = floor(p/2) and D for the
mode-reduced Laplacian, the forms are

    p even:    A[i][j] =  integral (D^m q_i) (D^m q_j) w dx
    p odd:     A[i][j] = -integral (D^m q_i) D(D^m q_j) w dx
    clamped:   B[i][j] =  integral q_i q_j w dx
    buckling:  B[i][j] = -integral q_i (D q_j) w dx

over [x0, 1] with weight w(x) = (1 - x^2)^gamma, gamma = l + (n-2)/2. There
1 - x = a (1 - s) and 1 + x = 2 - a (1 - s), and gamma splits as
gamma0 + j with gamma0 = (n-2)/2 mod 1 in {0, 1/2} and j = l + floor((n-2)/2)
an integer. The Gauss-Jacobi rule carries only (1 - s)^gamma0, so one rule
per node count serves every mode of a solve; the polynomial factor
(1 - s)^j and the smooth factor (1 + x)^gamma are folded into the effective
weight. Every factor is formed from a = sin(theta0/2)^2, never from the
rounded x0, which would cost a small cap ~1e-16/theta0^2 relative.
Assemblies are validated by node doubling.

The forms are assembled at the nodes. The jets of the trial functions (their
s-derivatives to order 2 top, top the most applications of D a form needs)
are sampled once per solve at both rules' nodes and serve every mode; each
mode applies D to them point by point (capspec.radial.operator_coeffs).

Each mode's inverted pencil B x = mu A x, lambda = 1/mu, is reduced once
to the symmetric matrix C = L^{-1} B L^{-T}, A = L L^T (see capspec.linalg),
and its values are those of C; the spectrum merges modes by value (ties
broken by (radial_index, l)) and expands each by the harmonic multiplicity
of its mode. Since q_j does not depend on N, the forms of a smaller basis
are leading blocks of the forms of a larger one, and since L is lower
triangular, so are their reduced matrices. One assembly and one reduction
per mode at the largest size thus serve every size a run needs: the
companion at basis N - 4 and each row of a convergence study are the
eigenvalues of leading blocks of C, those of all their modes in one stacked
call.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ModeCapTooSmall,
    MonotonicityViolation,
    NumericalError,
    QuadratureNotConverged,
    ValidationError,
)
from .linalg import _eigen, _reduce
from .quadrature import MAX_NODES, gauss_jacobi_rule
from .radial import MAX_DIMENSION, multiplicity, operator_coeffs, shown

QUAD_DOUBLING_REL = 1e-11
ASYMMETRY_WARN = 1e-8
MODE_SAFETY = 1.05
MONOTONE_SLACK = 1e-10
# a radial mu at or below 0 by at most this * size * eps * mu_max is taken
# as roundoff (see _inverted)
ROUNDOFF_MU = 4
COMPANION_DROP = 4
# size limits, checked before anything is allocated: the doubled rule has
# 2 * quad_base <= MAX_NODES nodes (the automatic base always fits), and the
# trial jets hold (2 top + 1) * N * 3 * quad_base floats (see _jet_orders),
# at most MAX_JET_ENTRIES (64 MB)
MAX_BASIS_SIZE = 512
MAX_ORDER = 64
MAX_JET_ENTRIES = 2**23


class Problem(str, enum.Enum):
    CLAMPED = "clamped"
    BUCKLING = "buckling"


def _checked_problem(problem, n, p) -> Problem:
    """Problem(problem), once n is an integer >= 2 and p an integer at or
    above the problem's least order (2 for buckling, 1 for clamped)."""
    problem = Problem(problem)
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValidationError(f"dimension must be an integer >= 2, got {n!r}")
    if n > MAX_DIMENSION:
        raise ValidationError(f"dimension must be at most {MAX_DIMENSION}, got {shown(n)}")
    min_p = 2 if problem is Problem.BUCKLING else 1
    if not (isinstance(p, (int, np.integer)) and p >= min_p):
        raise ValidationError(
            f"order must be an integer >= {min_p} for {problem.value}, got {p!r}"
        )
    return problem


@dataclass(frozen=True)
class SolverConfig:
    """Frozen description of one cap eigenproblem and its discretization.

    mode_cap / quad_size of None mean automatic selection: the mode loop
    extends until the last mode's smallest radial value clears the current
    K-th merged value by 5%, and the quadrature base size is set by the
    parity of n (see quad_base).
    """

    n: int
    p: int
    theta0: float
    problem: Problem
    basis_size: int = 32
    mode_cap: int | None = None
    quad_size: int | None = None
    requested_count: int = 8

    def __post_init__(self):
        object.__setattr__(self, "problem", _checked_problem(self.problem, self.n, self.p))
        if self.p > MAX_ORDER:
            raise ValidationError(f"order must be at most {MAX_ORDER} for a solve, got {self.p}")
        if not (
            isinstance(self.theta0, (int, float)) and 0.0 < float(self.theta0) < math.pi
        ):
            raise ValidationError(f"cap radius must lie in (0, pi), got {self.theta0!r}")
        object.__setattr__(self, "theta0", float(self.theta0))
        if math.cos(self.theta0) == 1.0:
            raise ValidationError(
                f"cap radius {self.theta0!r} is too small: its cosine rounds to 1")
        if not (isinstance(self.requested_count, (int, np.integer)) and self.requested_count >= 1):
            raise ValidationError(
                f"requested count must be a positive integer, got {self.requested_count!r}"
            )
        if not (
            isinstance(self.basis_size, (int, np.integer))
            and self.basis_size >= self.requested_count
        ):
            raise ValidationError(
                f"basis size must be an integer >= requested count "
                f"({self.requested_count}), got {self.basis_size!r}"
            )
        if self.basis_size > MAX_BASIS_SIZE:
            raise ValidationError(
                f"basis size must be at most {MAX_BASIS_SIZE}, got {self.basis_size}")
        if self.mode_cap is not None and not (
            isinstance(self.mode_cap, (int, np.integer)) and self.mode_cap >= 0
        ):
            raise ValidationError(f"mode cap must be None or an integer >= 0, got {self.mode_cap!r}")
        if self.quad_size is not None and not (
            isinstance(self.quad_size, (int, np.integer))
            and 2 <= self.quad_size <= MAX_NODES // 2
        ):
            raise ValidationError(
                f"quadrature size must be None or an integer in 2..{MAX_NODES // 2} "
                f"(doubled to at most {MAX_NODES} nodes), got {self.quad_size!r}"
            )
        entries = _jet_orders(self) * self.basis_size * 3 * self.quad_base
        if entries > MAX_JET_ENTRIES:
            raise ValidationError(
                f"order {self.p} at basis size {self.basis_size} with {self.quad_base} "
                f"quadrature nodes needs {entries} jet samples, more than {MAX_JET_ENTRIES}")

    @property
    def half_width(self) -> float:
        """(1 - cos(theta0))/2, formed as sin(theta0/2)^2: a few ulps at every radius."""
        return math.sin(self.theta0 / 2.0) ** 2

    @property
    def quad_base(self) -> int:
        """Quadrature node count before the doubling check.

        For even n the form integrands of mode l are polynomials of degree
        2 (p + N - 1) + 2l + n - 2 (two trial functions of degree p + N - 1
        and the folded (1 - s)^j (2 - a (1 - s))^j, j = l + (n - 2)/2), which
        p + N + 16 + (n - 2)/2 nodes integrate exactly for every l <= 16.
        For odd n the folded (2 - a (1 - s))^(l + 1/2) is no polynomial and
        the base is 2 (p + N - 1) + 16, which also caps the even-n base.
        Past that reach the doubling check decides.
        """
        if self.quad_size is not None:
            return int(self.quad_size)
        base = 2 * (self.p + self.basis_size - 1) + 16
        if self.n % 2 == 0:
            return min(base, self.p + self.basis_size + 16 + (self.n - 2) // 2)
        return base


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    l: int
    radial_index: int
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """Merged spectrum: entries ascending, covering requested_count
    eigenvalues after multiplicity expansion."""

    config: SolverConfig
    entries: tuple[SpectrumEntry, ...]
    diagnostics: dict = field(compare=False)

    def expanded_values(self, limit: int | None = None) -> np.ndarray:
        count = self.config.requested_count if limit is None else limit
        return np.array(expanded(self.entries, count))


def expanded(entries, count=None) -> list:
    """The first count values of the entries, each repeated by its
    multiplicity, which may be far above count (all of them if count is None)."""
    values = []
    for e in entries:
        room = e.multiplicity if count is None else count - len(values)
        values.extend([e.value] * min(e.multiplicity, room))
    return values


def assemble_mode(cfg: SolverConfig, l: int):
    """(A, B, health): the stiffness-like and mass-like forms of mode l,
    doubling-validated, symmetrized and read-only.

    Forms past the float range (a non-finite entry, with no overflow
    warning, or all zero) raise ValidationError; forms that move by more
    than 1e-11 of their scale under node doubling raise
    QuadratureNotConverged. health holds the worst asymmetry defect
    max|M - M^T| / max|M| and the worst relative doubling gap.
    """
    base = cfg.quad_base
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = _raw_forms(cfg, l)
    if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
        raise ValidationError("matrix entries must be finite")
    # both forms at once, stacked (stiffness, mass)
    scales = np.max(np.abs(fine), axis=(1, 2))
    gaps = np.max(np.abs(coarse - fine), axis=(1, 2))
    for tag, scale, gap in zip(("stiffness", "mass"), scales.tolist(), gaps.tolist()):
        if scale == 0.0:
            raise ValidationError(
                f"{tag} form of mode {l} underflows to zero in double precision")
        if gap > QUAD_DOUBLING_REL * scale:
            raise QuadratureNotConverged(
                f"{tag} form moved by {gap:.3e} (scale {scale:.3e}) "
                f"under node doubling {base} -> {2 * base} at mode {l}"
            )
    fine_t = np.swapaxes(fine, 1, 2)
    defects = np.max(np.abs(fine - fine_t), axis=(1, 2)) / scales
    health = {"max_form_asymmetry": float(np.max(defects)),
              "quad_doubling_gap": float(np.max(gaps / scales))}
    forms = (fine + fine_t) / 2.0
    forms.flags.writeable = False
    return forms[0], forms[1], health


def _form_orders(cfg: SolverConfig):
    """(sign, i, k) for the stiffness and then the mass form, which is
    sign * integral (D^i q) (D^k q) w."""
    m = cfg.p // 2
    stiffness = (1.0, m, m) if cfg.p % 2 == 0 else (-1.0, m, m + 1)
    mass = (1.0, 0, 0) if cfg.problem is Problem.CLAMPED else (-1.0, 0, 1)
    return stiffness, mass


def _jet_orders(cfg: SolverConfig) -> int:
    """Derivative orders 0 .. 2 top of the trial jets, top being the most
    operator applications a form needs: D^top q takes 2 top derivatives."""
    return 2 * max(k for _, _, k in _form_orders(cfg)) + 1


def _raw_forms(cfg: SolverConfig, l: int):
    """The stiffness and mass forms of mode l under the base rule and the
    doubled rule, each stacked (2, N, N).

    D is applied to the trial jets at both rules' nodes at once; only row 0
    of each image is kept, as a copy, so no image outlives its use.
    """
    a = cfg.half_width
    base = cfg.quad_base
    gamma0 = cfg.n % 2 / 2.0
    shift = l + (cfg.n - 2) // 2
    gamma = gamma0 + shift
    s, w = _shared_rule(gamma0, base)
    eff_w = w * a ** (gamma + 1.0) * (1.0 - s) ** shift * (2.0 - a * (1.0 - s)) ** gamma
    jets = _trial_jets(cfg.p, cfg.basis_size, a, gamma0, base, _jet_orders(cfg))
    forms = _form_orders(cfg)
    used = {i for _, i, _ in forms} | {k for _, _, k in forms}
    sampled = {0: jets[:, 0]}
    image = jets
    for order in range(1, max(used) + 1):
        image = operator_coeffs(image, l, cfg.n, a, s)
        if order in used:
            sampled[order] = image[:, 0].copy()
    return tuple(
        np.array([(sampled[i][:, part] * (sign * eff_w[part])) @ sampled[k][:, part].T
                  for sign, i, k in forms])
        for part in (slice(0, base), slice(base, None)))


@functools.lru_cache(maxsize=32)
def _shared_rule(gamma0: float, base: int):
    """Nodes and weights of the Gauss-Jacobi rules for (1 - s)^gamma0 with
    base and 2 * base nodes, concatenated, shared by every mode."""
    rules = [gauss_jacobi_rule(gamma0, m) for m in (base, 2 * base)]
    s, w = (np.concatenate(parts) for parts in zip(*rules))
    for arr in (s, w):
        arr.flags.writeable = False
    return s, w


@functools.lru_cache(maxsize=1)
def _trial_jets(p: int, basis_size: int, half_width: float, gamma0: float, base: int,
                orders: int) -> np.ndarray:
    """The s-derivatives 0 .. orders - 1 of q_j = a^p (1 + s)^p T_j(s) at the
    nodes of _shared_rule(gamma0, base), stored (N, orders, nodes) so the
    jet of q_j is one contiguous block.

    The jets follow T_j's recurrence q_{j+1} = 2s q_j - q_{j-1}
    (q_1 = s q_0), which differentiated k times gains the term
    2k q_j^(k-1) (k q_0^(k-1) for q_1); q_0^(k) = a^p p!/(p-k)! (1 + s)^(p-k).
    """
    s, _ = _shared_rule(gamma0, base)
    jets = np.zeros((basis_size, orders, len(s)))
    falling = 1.0
    for k in range(min(orders, p + 1)):
        jets[0, k] = half_width ** p * falling * (1.0 + s) ** (p - k)
        falling *= p - k
    two_k = 2.0 * np.arange(1, orders, dtype=float)[:, None]
    for j in range(basis_size - 1):
        half = 0.5 if j == 0 else 1.0  # q_1 = s q_0 is half of 2s q_0
        nxt = jets[j + 1]
        np.multiply(jets[j], 2.0 * half * s, out=nxt)
        nxt[1:] += half * two_k * jets[j, :-1]
        if j:
            nxt -= jets[j - 1]
    jets.flags.writeable = False
    return jets


def _solve_mode(cfg: SolverConfig, l: int):
    """All radial eigenvalues of mode l (ascending), the read-only reduced
    matrix C of its inverted pencil B x = mu A x, and its health numbers
    from `assemble_mode`.

    The wanted smallest lambda are the largest mu, which the eigensolver
    resolves to full relative accuracy on these graded pencils.
    """
    a, b, health = assemble_mode(cfg, l)
    defect = health["max_form_asymmetry"]
    if defect > ASYMMETRY_WARN:
        warnings.warn(f"form asymmetry defect {defect:.3e} at mode {l} exceeds "
                      f"{ASYMMETRY_WARN:g}", RuntimeWarning, stacklevel=3)
    reduced, _, _ = _reduce(b, a)
    reduced.flags.writeable = False
    (values,) = _leading_values({l: reduced}, [l], cfg.basis_size)
    return values, reduced, health


def _leading_values(reduced, modes, size: int) -> list:
    """Radial values of each listed mode at basis size `size`: the
    eigenvalues of the leading size-by-size blocks of the modes' reduced
    matrices, which are the reduced leading blocks of their pencils, in one
    stacked values-only call."""
    mu = _eigen(np.array([reduced[l][:size, :size] for l in modes]), vectors=False)
    return [_inverted(row, l) for row, l in zip(mu, modes)]


def _inverted(mu, l: int) -> np.ndarray:
    """Ascending lambda = 1/mu from the ascending mu of mode l.

    The smallest mu belong to the largest lambda, which no solve reports;
    on an ill-conditioned pencil they sink to the roundoff floor, where
    their sign is that of a rounding error. A mu at or below 0 but no
    further below than ROUNDOFF_MU * size * eps * mu_max is taken as such
    roundoff: its lambda is inf, past every reported value (see
    `_reportable`). A mu further below, or a nonpositive mu_max, is refused.
    """
    mu = mu[::-1]
    floor = -ROUNDOFF_MU * len(mu) * np.finfo(float).eps * float(mu[0])
    if not (float(mu[0]) > 0.0 and float(mu[-1]) >= floor):
        raise NumericalError(
            f"nonpositive radial eigenvalue (1/mu with mu = {mu[-1]:.6e}) at mode {l}"
        )
    lam = np.full(len(mu), np.inf)
    return np.divide(1.0, mu, out=lam, where=mu > 0.0)


def _reportable(values, what: str):
    """values, unless one is the inf of a radial value lost to roundoff
    (see `_inverted`), which no written value may carry."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(
            f"{what} needs a radial eigenvalue lost to roundoff (1/mu with mu within "
            f"{ROUNDOFF_MU} * size * eps * mu_max of 0)")
    return values


def solve_spectrum(cfg: SolverConfig) -> Spectrum:
    """First requested_count eigenvalues of the cap problem.

    Merges per-mode radial values across angular modes, expanding by
    multiplicity; the mode loop is extended (or, with a fixed cap, verified)
    until the last mode's smallest value clears the K-th merged value by 5%.
    Diagnostics carry the worst form asymmetry and relative node-doubling
    gap over the solved modes, a per-entry convergence estimate against the
    companion values of the leading N - 4 blocks of each mode's reduced
    matrix, and the lambda_1 > n - 2 guard outcome. A basis of 4 or less, or
    an entry whose radial index the companion does not reach, is refused
    with ValidationError.
    """
    companion = _companion_basis(cfg)
    mode_values, reduced, health, records = _solve_modes(cfg)
    estimates = _convergence_estimates(records, reduced, companion)
    entries = tuple(
        SpectrumEntry(value=float(v), l=l, radial_index=j, multiplicity=multiplicity(l, cfg.n))
        for v, l, j in records
    )
    diagnostics = {
        **health,
        "convergence": estimates,
        "l_max": len(mode_values) - 1,
        "quad_size": cfg.quad_base,
        "basis_companion": companion,
        "lambda1_guard_ok": bool(entries[0].value > cfg.n - 2),
    }
    return Spectrum(config=cfg, entries=entries, diagnostics=diagnostics)


def _solve_modes(cfg: SolverConfig):
    """Solve modes 0, 1, ... until the last ground value clears the K-th
    merged value by 5%; returns (values, reduced, health, records), where
    values[l] and reduced[l] are mode l's radial values and reduced matrix,
    health holds the worst health numbers and records is the final `_merge`
    of the values, each mode's records inserted into it once. Raises
    ModeCapTooSmall if a ground value drops or the mode cap comes first."""
    want = cfg.requested_count
    hard_cap = cfg.mode_cap if cfg.mode_cap is not None else max(64, 2 * want + 8)
    values, reduced, worst, merger = [], [], {}, _Merger(cfg.n, want)
    for l in itertools.count():
        radial_values, mode_reduced, health = _solve_mode(cfg, l)
        for key, value in health.items():
            worst[key] = max(worst.get(key, 0.0), value)
        ground = float(radial_values[0])
        if values and ground < float(values[-1][0]) * (1.0 - 1e-12):
            raise ModeCapTooSmall(
                f"per-mode ground value dropped from {values[-1][0]:.6e} to {ground:.6e} "
                f"at mode {l}; the sufficiency rule does not apply"
            )
        values.append(radial_values)
        reduced.append(mode_reduced)
        merger.add(radial_values)
        covering = merger.covering()
        # a value lost to roundoff (inf) never clears this, so none is returned
        if covering and ground > MODE_SAFETY * covering[-1][0]:
            return values, reduced, worst, covering
        if l >= hard_cap:
            raise ModeCapTooSmall(
                f"modes 0..{l} cannot certify the first {want} eigenvalues "
                f"(need last ground value > {MODE_SAFETY:g} * K-th merged value)"
            )


def _merge(mode_values, n: int, want: int):
    """(value, l, radial_index) records of the radial values of modes
    0, 1, ... in `_merge_key` order, cut once they cover `want` expanded
    eigenvalues.

    The labels keep their `_merge_key` order and take the values in
    ascending order, so the merged values ascend even when roundoff leaves a
    later label of a tie level 1 ulp below an earlier one. Rounding is
    monotone, so each level is a contiguous run of the sorted values. Only
    radial indices below `want` are read: a later one has `want` records of
    its own mode before it in both orders, so no cut reaches it.
    """
    merger = _Merger(n, want)
    for values in mode_values:
        merger.add(values)
    return merger.covering()


class _Merger:
    """The running `_merge` of modes 0, 1, ...: each added mode's records
    are inserted into the two orders once, with one `_merge_key` each. The
    keys are distinct (no two records share (l, radial_index)), and equal
    values are indistinguishable, so insertion gives the orders a sort of
    all records gives."""

    def __init__(self, n: int, want: int):
        self.n, self.want, self.modes = n, want, 0
        self.keys, self.labels, self.values = [], [], []

    def add(self, values):
        """Insert the radial values of the next mode."""
        l, self.modes = self.modes, self.modes + 1
        for j, v in enumerate(values[:self.want]):
            v = float(v)
            key = _merge_key((v, l, j))
            at = bisect.bisect(self.keys, key)
            self.keys.insert(at, key)
            self.labels.insert(at, (l, j))
            bisect.insort(self.values, v)

    def covering(self):
        """`_merge` of the modes added so far."""
        return _covering_prefix([(v, l, j) for v, (l, j) in zip(self.values, self.labels)],
                                self.n, self.want)


def _merge_key(record):
    """Sort key for (value, l, radial_index) records.

    Values equal to 12 significant digits count as one level, ordered by
    radial index and then mode, so ties such as the two n=2 clamped entries
    at 12 do not swap with last-bit roundoff of the eigensolver.
    """
    v, l, j = record
    return (float(f"{v:.12g}"), j, l)


def _covering_prefix(sorted_records, n, k):
    """Shortest prefix of the records covering k expanded eigenvalues, or
    None if they cover fewer."""
    total = 0
    for i, (_, l, _) in enumerate(sorted_records):
        total += multiplicity(l, n)
        if total >= k:
            return sorted_records[: i + 1]
    return None


def _companion_basis(cfg: SolverConfig) -> int:
    """N - 4, the basis size of the companion solve; a basis of 4 or less
    has none and is refused."""
    companion = cfg.basis_size - COMPANION_DROP
    if companion < 1:
        raise ValidationError(
            f"basis size {cfg.basis_size} leaves no companion basis for the convergence "
            f"estimates; it must exceed {COMPANION_DROP}"
        )
    return companion


def _convergence_estimates(records, reduced, companion: int):
    """Per-record |v_N - v_companion| / v_N.

    The companion values of the merged modes are the eigenvalues of the
    leading companion-by-companion blocks of their reduced matrices, in one
    stacked call. A record whose radial index the companion does not reach
    has no estimate, and the solve is refused with ValidationError; one
    whose companion value is lost to roundoff is refused with NumericalError.
    """
    for _, l, j in records:
        if j >= companion:
            raise ValidationError(
                f"entry (l={l}, radial index {j}) has no convergence estimate: the "
                f"companion basis {companion} (basis - {COMPANION_DROP}) is too small"
            )
    modes = sorted({l for _, l, _ in records})
    coarse = dict(zip(modes, _leading_values(reduced, modes, companion)))
    return _reportable([abs(float(coarse[l][j]) - v) / v for v, l, j in records],
                       "a convergence estimate")


@dataclass(frozen=True)
class ConvergenceStudy:
    """Eigenvalue table over nested basis sizes, plus final-step estimates."""

    basis_sizes: tuple[int, ...]
    values: np.ndarray  # (len(basis_sizes), requested_count)
    estimates: np.ndarray  # (requested_count,)

    def __post_init__(self):
        self.values.flags.writeable = False
        self.estimates.flags.writeable = False


def convergence_study(cfg: SolverConfig, basis_sizes) -> ConvergenceStudy:
    """First K eigenvalues of cfg at each of the ascending basis sizes.

    The modes are solved once, at the largest size and with its sufficiency
    rule; every smaller size merges the radial values of the same modes from
    the leading blocks of their reduced matrices. The trial spaces are nested,
    so by Cauchy interlacing the values cannot increase with the size; a
    rise beyond 1e-10 absolute slack (eigensolver roundoff) raises
    MonotonicityViolation. Estimates are |last - previous| / last per index.
    """
    sizes = [int(b) for b in basis_sizes]
    if len(sizes) < 2:
        raise ValidationError("need at least two basis sizes")
    if any(b <= 0 for b in sizes) or any(
        sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)
    ):
        raise ValidationError(f"basis sizes must be positive and ascending, got {sizes}")
    replace(cfg, basis_size=sizes[0])  # every size must be >= requested_count
    want = cfg.requested_count
    _, reduced, _, top = _solve_modes(replace(cfg, basis_size=sizes[-1]))
    modes = range(len(reduced))
    rows = []
    for size in sizes:
        records = top if size == sizes[-1] else _merge(
            _leading_values(reduced, modes, size), cfg.n, want)
        rows.append([v for v, l, _ in records for _ in range(multiplicity(l, cfg.n))][:want])

    values = _reportable(np.array(rows), "a convergence study row")
    for t in range(1, len(sizes)):
        jump = values[t] - values[t - 1]
        worst = float(np.max(jump))
        if worst > MONOTONE_SLACK:
            idx = int(np.argmax(jump))
            raise MonotonicityViolation(
                f"eigenvalue {idx + 1} increased by {worst:.3e} when the basis "
                f"grew from {sizes[t - 1]} to {sizes[t]}"
            )
    estimates = np.abs(values[-1] - values[-2]) / values[-1]
    return ConvergenceStudy(tuple(sizes), values, estimates)
