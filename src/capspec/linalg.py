"""Dense symmetric linear algebra on small matrices.

Everything here is sized for spectral-Galerkin systems (order <= a few
hundred). LAPACK's symmetric eigensolver is backward stable, so each
eigenvalue of the reduced matrix comes with an absolute error of a few ulps
of its largest eigenvalue. The cap pencils are strongly graded (at N=32,
p=3 their eigenvalues span 75 to 4e9), so that error is large relative to
the smallest eigenvalues, which are the wanted ones: reducing
A x = lambda B x by the Cholesky of B loses up to 2e-10 relative in them,
and Rayleigh-Ritz monotonicity across nested bases then fails its 1e-10
slack. The solver therefore passes the pencil inverted, B x = mu A x with
lambda = 1/mu, reduced by the Cholesky of the positive definite stiffness
form A. The wanted values are then the largest mu, which the eigensolver
resolves to full relative accuracy (about 1e-13 at N=32, p=3).

Pencils are plain arrays, or stacks of them along a leading axis, one per
angular mode of a block. One `_reduce` call scales to unit diagonal,
factors (LAPACK's Cholesky, checked against the pivot threshold below) and
reduces the whole stack to C = L^{-1} A L^{-T} by two LU solves
(`numpy.linalg.solve`), and one `eigvalsh` call (`_eigen`) gives the values
of every C, inverted to lambda = 1/mu with their roundoff floor
(`_inverted`). LAPACK runs once per matrix of a stack, so each C and its
values equal those of its pencil alone; a stack whose factor fails raises
for its first failing pencil. L is lower triangular, so the leading blocks
of C are the reduced leading blocks of the pencil, and the values at every
smaller nested basis are `eigvalsh` of those blocks (`_leading_values`),
with no second factorization or solve. The vectors path
`generalized_sym_eigen`, kept for tests and acceptance criterion 7, checks
and symmetrizes array-likes, ends in `eigh` and maps the vectors back. Both
keep the two solves against L: on the inverted clamped n=5, p=3,
theta0=2.6, l=7 pencil at N=32 they agree to ~1e-15 relative in the first
8 lambda, while forming inv(L) explicitly moves those values by up to 1.5e-5.

Tolerances:
  - Cholesky pivot failure: pivot diag(L)^2 <= order * 1e-14 * max(diag),
    reported with the index of the first such pivot.
  - A LAPACK convergence failure is reported as NoConvergence.
  - Reported eigenvectors are B-orthonormal to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, NumericalError, ValidationError, _reals

PIVOT_RELATIVE = 1e-14
ROUNDOFF_MU = 4  # the roundoff band of a radial mu at or below 0 (see _inverted)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues with matching eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False
        self.vectors.flags.writeable = False


def generalized_sym_eigen(a_mat, b_mat) -> EigenPairs:
    """Solve A x = lambda B x for symmetric A and positive definite B.

    Reduction is B = L L^T, C = L^{-1} A L^{-T}, then `eigh` on C; vectors
    are mapped back through L^{-T} so they are B-orthonormal. A symmetric
    diagonal pre-scaling (unit diagonal of B) is applied first; it is an
    exact congruence and only improves conditioning. The values are accurate
    relative to the largest |lambda|, so callers after the smallest values
    of a graded pencil pass it inverted (see the module docstring).
    """
    c, low, d = _reduce(_symmetrized(a_mat), _symmetrized(b_mat))
    values, vec = _eigen(c, vectors=True)
    x = np.linalg.solve(low.T, vec) * d[:, None]
    return EigenPairs(values=values, vectors=np.ascontiguousarray(x))


def _symmetrized(mat) -> np.ndarray:
    """(M + M^T) / 2 of a square array-like M with finite entries."""
    arr = _reals(mat, "matrix entries must be finite")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite")
    return (arr + arr.T) / 2.0


def _reduce(a, b):
    """(C, L, d) of the scaled Cholesky reduction of A x = lambda B x.

    a and b are exactly symmetric arrays of one order, or stacks of them
    along a leading axis. d = diag(B)^{-1/2} scales both operands to unit
    diagonal of B, the scaled B is L L^T (pivot-checked), and
    C = L^{-1} A L^{-T} is symmetrized. L is lower triangular, so the
    leading c-by-c blocks of L and C are the factor and the reduced matrix
    of the pencil's leading c-by-c blocks.
    """
    if a.shape != b.shape:
        raise ValidationError(f"operand orders differ: {a.shape[-1]} vs {b.shape[-1]}")
    diag = b.diagonal(axis1=-2, axis2=-1)
    # a pencil that is not positive definite keeps unit scaling; the pivot
    # check then says so
    d = 1.0 / np.sqrt(np.where(np.all(diag > 0.0, axis=-1, keepdims=True), diag, 1.0))
    scale = d[..., :, None] * d[..., None, :]
    low = _checked_cholesky(b * scale)
    half = np.linalg.solve(low, a * scale)
    c = np.linalg.solve(low, np.swapaxes(half, -1, -2))
    return (c + np.swapaxes(c, -1, -2)) / 2.0, low, d


def _eigen(c, vectors: bool):
    """LAPACK's ascending eigenvalues of symmetric c (or a stack), with
    orthonormal eigenvectors if `vectors`."""
    try:
        return np.linalg.eigh(c) if vectors else np.linalg.eigvalsh(c)
    except np.linalg.LinAlgError as err:
        name = "eigh" if vectors else "eigvalsh"
        raise NoConvergence(f"LAPACK {name} did not converge: {err}") from None


def _leading_values(reduced, modes, size: int) -> list:
    """Radial values of each listed mode l at basis size `size`, from the leading
    size-by-size blocks of reduced[l] in one stacked values-only call."""
    mu = _eigen(np.array([reduced[l][:size, :size] for l in modes]), vectors=False)
    return [_inverted(row, l) for row, l in zip(mu, modes)]


def _inverted(mu, l: int) -> np.ndarray:
    """Ascending lambda = 1/mu from the ascending mu of mode l.

    The smallest mu belong to the largest lambda, which no solve reports; on
    an ill-conditioned pencil they sink to the roundoff floor, where their
    sign is that of a rounding error. A mu at or below 0 by at most
    ROUNDOFF_MU * size * eps * mu_max is taken as such roundoff, with lambda
    inf; a mu further below, or a nonpositive mu_max, is refused.
    """
    mu = mu[::-1]
    floor = -ROUNDOFF_MU * len(mu) * _EPS * float(mu[0])
    if not (float(mu[0]) > 0.0 and float(mu[-1]) >= floor):
        raise NumericalError(
            f"nonpositive radial eigenvalue (1/mu with mu = {mu[-1]:.6e}) at mode {l}")
    lam = np.full(len(mu), np.inf)
    return np.divide(1.0, mu, out=lam, where=mu > 0.0)


def _checked_cholesky(b):
    """Lower Cholesky factor of exactly symmetric b, or of each matrix of a
    stack, pivot-checked: LAPACK factors b, and the factor is accepted only
    if every pivot diag(L)^2 exceeds order * 1e-14 * max(diag), a test LAPACK
    itself applies only against 0. On failure the first bad pivot is found
    by bisection over leading blocks, whose pivots are the leading pivots of
    b; a stack that fails raises for its first failing matrix."""
    n = b.shape[-1]
    threshold = n * PIVOT_RELATIVE * (np.max(b.diagonal(axis1=-2, axis2=-1), axis=-1) if n else 0.0)
    low = _factor_above(b, threshold)
    if low is None and b.ndim > 2:
        return np.array([_checked_cholesky(one) for one in b])
    if low is None:
        good, bad = 0, n  # leading blocks of order `good` pass, of order `bad` fail
        while bad - good > 1:
            mid = (good + bad) // 2
            if _factor_above(b[:mid, :mid], threshold) is None:
                bad = mid
            else:
                good = mid
        raise NotPositiveDefinite(f"pivot {bad} of {n} at or below threshold {threshold:.3e}")
    return low


def _factor_above(b, threshold):
    """LAPACK's lower Cholesky factor of b (or a stack), or None if a pivot
    is at or below threshold (LAPACK stops at the first one at or below 0)."""
    try:
        low = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return None
    pivots = low.diagonal(axis1=-2, axis2=-1) ** 2
    return low if np.all(pivots > np.asarray(threshold)[..., None]) else None
