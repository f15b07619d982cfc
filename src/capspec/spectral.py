"""Galerkin assembly of the angular modes and the merged cap spectrum.

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
Assemblies are validated by node doubling. The jets of the trial functions
(their s-derivatives to order 2 top, top the most applications of D a form
needs) are sampled once per solve at both rules' nodes.

Modes are solved in blocks: one pass applies D to the jets of every mode of
a block (capspec.radial.operator_coeffs with a mode axis) and forms their
forms in stacked products, one stacked call reduces each inverted pencil
B x = mu A x, lambda = 1/mu, to C = L^{-1} B L^{-T}, A = L L^T, and one
stacked eigvalsh gives the values of every C (see capspec.linalg; a mode
gets the same bytes in any block). The first block is modes 0 .. L, clipped
to the mode cap and to BLOCK_JET_ENTRIES floats of images; every later block
is one mode. The assembly and solve kernels take only a list of modes, so
one mode is the list [l] (assemble_mode is that case of assemble_modes).
In the flat limit the values of mode l are powers of the Bessel zeros
j_{nu,k}, nu = l + (n-2)/2, spaced by McMahon's expansion (DLMF 10.21.19)
as (k + nu/2 - 1/4) pi: raising l by 2 costs one more radial zero.
So the least L with sum_{l<L} mult(l, n) (floor((L-1-l)/2) + 1) >= K counts
the modes holding the first K values, and mode L is the first whose ground
value can clear the K-th. The modes are walked in order under the one-mode
rules (asymmetry warning, health maxima, ground-drop check, 5% sufficiency
rule, mode cap); if a mode of the first block warns or fails, the block is
dropped and its modes are solved one at a time as the walk reaches them, so
a mode past the stop has no effect. The spectrum merges modes by value (ties
by (radial_index, l)) and expands each by its mode's harmonic multiplicity.

Since q_j does not depend on N, the forms of a smaller basis are leading
blocks of the forms of a larger one, and since L is lower triangular, so are
their reduced matrices. One assembly and one reduction per mode at the
largest size thus serve every size a run needs: the companion at basis N - 4
and each row of a convergence study are the eigenvalues of leading blocks of
C, those of all their modes in one stacked call.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CapspecError,
    ModeCapTooSmall,
    MonotonicityViolation,
    NumericalError,
    QuadratureNotConverged,
    ValidationError,
    _is_int,
    _real,
)
from .linalg import ROUNDOFF_MU, _leading_values, _reduce
# gauss_jacobi_rule stays bound here too, where benchmark/spans.py wraps it
from .quadrature import MAX_NODES, gauss_jacobi_pair, gauss_jacobi_rule  # noqa: F401
from .radial import MAX_DIMENSION, multiplicity, operator_coeffs, shown

QUAD_DOUBLING_REL = 1e-11
ASYMMETRY_WARN = 1e-8
MODE_SAFETY = 1.05
MONOTONE_SLACK = 1e-10
COMPANION_DROP = 4
# size limits, checked before anything is allocated: the doubled rule has
# 2 * quad_base <= MAX_NODES nodes (the automatic base always fits), and the
# trial jets hold (2 top + 1) * N * 3 * quad_base floats (see _jet_orders),
# at most MAX_JET_ENTRIES (64 MB)
MAX_BASIS_SIZE = 512
MAX_ORDER = 64
MAX_JET_ENTRIES = 2**23
BLOCK_JET_ENTRIES = 2**19  # the first block's images fit in this many floats (4 MB)


class Problem(str, enum.Enum):
    CLAMPED = "clamped"
    BUCKLING = "buckling"


def _checked_problem(problem, n, p) -> tuple[Problem, int, int]:
    """(Problem(problem), n, p), n and p as ints, once problem names one, n is
    an integer in 2..MAX_DIMENSION and p an integer at or above the problem's
    least order (2 buckling, 1 clamped). A message is formed only on a
    refusal: sphere_buckling_factor calls this once per eigenvalue."""
    if problem not in ("clamped", "buckling"):
        raise ValidationError(f"problem must be 'clamped' or 'buckling', got {problem!r}")
    problem = Problem(problem)
    min_p = 2 if problem is Problem.BUCKLING else 1
    if not (_is_int(n) and 2 <= n <= MAX_DIMENSION and _is_int(p) and p >= min_p):
        _require(_is_int(n) and n >= 2, f"dimension must be an integer >= 2, got {n!r}")
        _require(n <= MAX_DIMENSION, f"dimension must be at most {MAX_DIMENSION}, got {shown(n)}")
        raise ValidationError(f"order must be an integer >= {min_p} for {problem.value}, got {p!r}")
    return problem, operator.index(n), operator.index(p)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValidationError(message)


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
        object.__setattr__(self, "problem", _checked_problem(self.problem, self.n, self.p)[0])
        _require(self.p <= MAX_ORDER,
                 f"order must be at most {MAX_ORDER} for a solve, got {self.p}")
        message = f"cap radius must lie in (0, pi), got {self.theta0!r}"
        object.__setattr__(self, "theta0", _real(self.theta0, message))
        _require(0.0 < self.theta0 < math.pi, message)
        _require(math.cos(self.theta0) != 1.0,
                 f"cap radius {self.theta0!r} is too small: its cosine rounds to 1")
        _require(_is_int(self.requested_count) and self.requested_count >= 1,
                 f"requested count must be a positive integer, got {self.requested_count!r}")
        _require(_is_int(self.basis_size) and self.basis_size >= self.requested_count,
                 f"basis size must be an integer >= requested count "
                 f"({self.requested_count}), got {self.basis_size!r}")
        _require(self.basis_size <= MAX_BASIS_SIZE,
                 f"basis size must be at most {MAX_BASIS_SIZE}, got {self.basis_size}")
        _require(self.mode_cap is None or (_is_int(self.mode_cap) and self.mode_cap >= 0),
                 f"mode cap must be None or an integer >= 0, got {self.mode_cap!r}")
        _require(self.quad_size is None or (
            _is_int(self.quad_size) and 2 <= self.quad_size <= MAX_NODES // 2),
            f"quadrature size must be None or an integer in 2..{MAX_NODES // 2} "
            f"(doubled to at most {MAX_NODES} nodes), got {self.quad_size!r}")
        for name in ("n", "p", "basis_size", "requested_count", "mode_cap", "quad_size"):
            if getattr(self, name) is not None:  # a numpy integer becomes an int
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        entries = _jet_entries(self)
        _require(entries <= MAX_JET_ENTRIES,
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
            return self.quad_size
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


def assemble_modes(cfg: SolverConfig, modes):
    """(forms, health) of a list of modes: their stiffness and mass forms,
    doubling-validated, symmetrized, read-only and shaped
    (len(modes), 2, N, N), and per mode the worst asymmetry
    defect max|M - M^T| / max|M| and relative doubling gap. Forms past the
    float range (a non-finite entry, with no overflow warning, or all zero)
    raise ValidationError, forms moving by over 1e-11 of their scale under node
    doubling QuadratureNotConverged."""
    base = cfg.quad_base
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = _raw_forms(cfg, modes)
    _require(np.isfinite(coarse).all() and np.isfinite(fine).all(), "matrix entries must be finite")
    scales = np.max(np.abs(fine), axis=(-2, -1))
    gaps = np.max(np.abs(coarse - fine), axis=(-2, -1))
    labels = itertools.product(modes, ("stiffness", "mass"))
    for (l, tag), scale, gap in zip(labels, scales.ravel().tolist(), gaps.ravel().tolist()):
        if scale == 0.0:
            raise ValidationError(f"{tag} form of mode {l} underflows to zero in double precision")
        if gap > QUAD_DOUBLING_REL * scale:
            raise QuadratureNotConverged(f"{tag} form moved by {gap:.3e} (scale {scale:.3e}) under "
                                         f"node doubling {base} -> {2 * base} at mode {l}")
    fine_t = np.swapaxes(fine, -1, -2)
    defects = np.max(np.abs(fine - fine_t), axis=(-2, -1)) / scales
    health = [{"max_form_asymmetry": d, "quad_doubling_gap": g} for d, g in zip(
        np.max(defects, axis=-1).tolist(), np.max(gaps / scales, axis=-1).tolist())]
    forms = (fine + fine_t) / 2.0
    forms.flags.writeable = False
    return forms, health


def assemble_mode(cfg: SolverConfig, l: int):
    """(A, B, health) of mode l: the one-mode case of `assemble_modes`."""
    (forms,), (health,) = assemble_modes(cfg, [l])
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


def _jet_entries(cfg: SolverConfig) -> int:
    """Floats in the trial jets at both rules' nodes, as in one mode's images."""
    return _jet_orders(cfg) * cfg.basis_size * 3 * cfg.quad_base


def _raw_forms(cfg: SolverConfig, modes):
    """The stiffness and mass forms of a list of modes under the base rule
    and the doubled rule, each shaped (len(modes), 2, N, N). D is applied to
    the trial jets of every mode at both rules' nodes at once; only row 0 of
    each image is kept, as a copy, so no image outlives its use."""
    a = cfg.half_width
    base = cfg.quad_base
    gamma0 = cfg.n % 2 / 2.0
    s, w = _shared_rule(gamma0, base)
    one_minus_s = 1.0 - s
    wide = 2.0 - a * one_minus_s  # 1 + x
    eff_w = np.array([w * a ** (gamma0 + j + 1.0) * one_minus_s ** j * wide ** (gamma0 + j)
                      for j in (l + (cfg.n - 2) // 2 for l in modes)])[:, None]
    jets = _trial_jets(cfg.p, cfg.basis_size, a, gamma0, base, _jet_orders(cfg))
    forms = _form_orders(cfg)
    used = {i for _, i, _ in forms} | {k for _, _, k in forms}
    sampled = {0: jets[:, 0]}
    image = jets
    for order in range(1, max(used) + 1):
        image = operator_coeffs(image, np.expand_dims(modes, -1), cfg.n, a, s)
        if order in used:
            sampled[order] = image[..., 0, :].copy()
    return tuple(
        np.stack([(sampled[i][..., part] * (sign * eff_w[..., part]))
                  @ np.swapaxes(sampled[k][..., part], -1, -2) for sign, i, k in forms], axis=-3)
        for part in (slice(0, base), slice(base, None)))


@functools.lru_cache(maxsize=32)
def _shared_rule(gamma0: float, base: int):
    """Nodes and weights of the Gauss-Jacobi rules for (1 - s)^gamma0 with
    base and 2 * base nodes, concatenated, shared by every mode; one
    `gauss_jacobi_pair` call builds both in shared Newton passes."""
    s, w = (np.concatenate(parts) for parts in zip(*gauss_jacobi_pair(gamma0, base)))
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
    ks = np.arange(1, orders, dtype=float)[:, None]
    steps = ((s, ks), (2.0 * s, 2.0 * ks))  # q_1 = s q_0 is half of 2s q_0
    for j in range(basis_size - 1):
        two_s, two_k = steps[j > 0]
        nxt = jets[j + 1]
        np.multiply(jets[j], two_s, out=nxt)
        nxt[1:] += two_k * jets[j, :-1]
        if j:
            nxt -= jets[j - 1]
    jets.flags.writeable = False
    return jets


def _solve_block(cfg: SolverConfig, modes, strict: bool = False) -> list:
    """(values, reduced, health) of each listed mode (radial values ascending,
    the reduced matrix read-only), raising the first error of any mode. A form
    asymmetry past ASYMMETRY_WARN warns; with `strict` it raises NumericalError,
    and overflow, invalid values and division by zero raise FloatingPointError."""
    with np.errstate(**dict.fromkeys(("over", "invalid", "divide"), "raise" if strict else None)):
        forms, health = assemble_modes(cfg, modes)
        for l, defect in zip(modes, (h["max_form_asymmetry"] for h in health)):
            if defect > ASYMMETRY_WARN:
                text = f"form asymmetry defect {defect:.3e} at mode {l} exceeds {ASYMMETRY_WARN:g}"
                if strict:
                    raise NumericalError(text)
                warnings.warn(text, RuntimeWarning, stacklevel=4)
        reduced, _, _ = _reduce(forms[:, 1], forms[:, 0])
        reduced.flags.writeable = False
        values = _leading_values(dict(zip(modes, reduced)), modes, cfg.basis_size)
    return list(zip(values, reduced, health))


def _reportable(values, what: str):
    """values, unless one is the inf of a radial value lost to roundoff
    (see `linalg._inverted`), which no written value may carry."""
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
    entries = tuple(SpectrumEntry(value=float(v), l=l, radial_index=j,
                                  multiplicity=multiplicity(l, cfg.n)) for v, l, j in records)
    return Spectrum(config=cfg, entries=entries, diagnostics={
        **health,
        "convergence": estimates,
        "l_max": len(mode_values) - 1,
        "quad_size": cfg.quad_base,
        "basis_companion": companion,
        "lambda1_guard_ok": bool(entries[0].value > cfg.n - 2),
    })


def _solve_modes(cfg: SolverConfig):
    """Walk the modes of `_blocks` until the last ground value clears the
    K-th merged value by 5%; returns (values, reduced, health, records),
    where values[l] and reduced[l] are mode l's radial values and reduced
    matrix, health holds the worst health numbers and records is the final
    `_merge` of the values, each mode's records inserted into it once.
    Raises ModeCapTooSmall if a ground value drops or the mode cap comes first."""
    want = cfg.requested_count
    hard_cap = cfg.mode_cap if cfg.mode_cap is not None else max(64, 2 * want + 8)
    values, reduced, worst, merger = [], [], {}, _Merger(cfg.n, want)
    for l, (radial_values, mode_reduced, health) in enumerate(_blocks(cfg, hard_cap)):
        for key, value in health.items():
            worst[key] = max(worst.get(key, 0.0), value)
        ground = float(radial_values[0])
        if values and ground < float(values[-1][0]) * (1.0 - 1e-12):
            raise ModeCapTooSmall(
                f"per-mode ground value dropped from {values[-1][0]:.6e} to {ground:.6e} "
                f"at mode {l}; the sufficiency rule does not apply")
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
                f"(need last ground value > {MODE_SAFETY:g} * K-th merged value)")


def _blocks(cfg: SolverConfig, cap: int):
    """`_solve_block`'s solutions of modes 0, 1, ...: the first block, then one
    mode at a time (see the module docstring)."""
    count = next((c for c in range(1, cap + 1) if cfg.requested_count <= sum(
        multiplicity(l, cfg.n) * ((c - 1 - l) // 2 + 1) for l in range(c))), cap)
    first = range(min(count + 1, max(1, BLOCK_JET_ENTRIES // _jet_entries(cfg))))
    try:
        block = _solve_block(cfg, first, strict=True)
    except (CapspecError, FloatingPointError):
        block = []
    yield from block
    for l in itertools.count(len(block)):
        yield from _solve_block(cfg, [l])


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
    return _Merger(n, want, mode_values).covering()


class _Merger:
    """The running `_merge` of modes 0, 1, ...: each added mode's records
    are inserted into the two orders once, with one `_merge_key` each. The
    keys are distinct (no two records share (l, radial_index)), and equal
    values are indistinguishable, so insertion gives the orders a sort of
    all records gives."""

    def __init__(self, n: int, want: int, mode_values=()):
        self.n, self.want, self.modes = n, want, 0
        self.keys, self.values = [], []
        for values in mode_values:
            self.add(values)

    def add(self, values):
        """Insert the radial values of the next mode."""
        l, self.modes = self.modes, self.modes + 1
        for j, v in enumerate(values[:self.want]):
            v = float(v)
            key = _merge_key((v, l, j))
            bisect.insort(self.keys, key)
            bisect.insort(self.values, v)

    def covering(self):
        """`_merge` of the modes added so far."""
        return _covering_prefix([(v, l, j) for v, (_, j, l) in zip(self.values, self.keys)],
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
    _require(companion >= 1, f"basis size {cfg.basis_size} leaves no companion basis for the "
                             f"convergence estimates; it must exceed {COMPANION_DROP}")
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
        _require(j < companion, f"entry (l={l}, radial index {j}) has no convergence estimate: "
                 f"the companion basis {companion} (basis - {COMPANION_DROP}) is too small")
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
    """First K eigenvalues of cfg at each of the strictly ascending basis
    sizes.

    The modes are solved once, at the largest size and with its sufficiency
    rule; every smaller size merges the radial values of the same modes from
    the leading blocks of their reduced matrices. The trial spaces are nested,
    so by Cauchy interlacing the values cannot increase with the size; a
    rise beyond 1e-10 absolute slack (eigensolver roundoff) raises
    MonotonicityViolation. Estimates are |last - previous| / last per index.
    """
    sizes = list(basis_sizes)
    _require(len(sizes) >= 2, "need at least two basis sizes")
    _require(all(map(_is_int, sizes)) and sizes[0] > 0 and all(map(operator.lt, sizes, sizes[1:])),
             f"basis sizes must be positive and strictly ascending, got {sizes}")
    replace(cfg, basis_size=sizes[0])  # every size must be >= requested_count
    want = cfg.requested_count
    _, reduced, _, top = _solve_modes(replace(cfg, basis_size=sizes[-1]))
    rows = []
    for size in sizes:
        records = top if size == sizes[-1] else _merge(
            _leading_values(reduced, range(len(reduced)), size), cfg.n, want)
        rows.append([v for v, l, _ in records for _ in range(multiplicity(l, cfg.n))][:want])

    values = _reportable(np.array(rows), "a convergence study row")
    for t, jump in enumerate(np.diff(values, axis=0), 1):
        if jump.max() > MONOTONE_SLACK:
            raise MonotonicityViolation(
                f"eigenvalue {jump.argmax() + 1} increased by {jump.max():.3e} when the basis "
                f"grew from {sizes[t - 1]} to {sizes[t]}")
    estimates = np.abs(values[-1] - values[-2]) / values[-1]
    return ConvergenceStudy(tuple(sizes), values, estimates)
