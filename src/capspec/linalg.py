"""Dense symmetric linear algebra on small matrices.

Everything here is sized for spectral-Galerkin systems (order <= a few
hundred): a pivot-checked Cholesky, LAPACK's symmetric eigensolver
(`numpy.linalg.eigh`), and the Cholesky reduction of the generalized
symmetric-definite problem. The factor is LAPACK's (`numpy.linalg.cholesky`),
checked afterwards against the pivot threshold below; the triangular solves
of the reduction go to LAPACK through `numpy.linalg.solve`.

`eigh` is backward stable, so each eigenvalue of the reduced matrix comes
with an absolute error of a few ulps of its largest eigenvalue. The cap
pencils are strongly graded (at N=32, p=3 their eigenvalues span 75 to 4e9),
so that error is large relative to the smallest eigenvalues, which are the
wanted ones: reducing A x = lambda B x by the Cholesky of B loses up to
2e-10 relative in them, and Rayleigh-Ritz monotonicity across nested bases
then fails its 1e-10 slack. The solver therefore passes the pencil inverted,
B x = mu A x with lambda = 1/mu, reduced by the Cholesky of the positive
definite stiffness form A. The wanted values are then the largest mu, which
`eigh` resolves to full relative accuracy (about 1e-13 at N=32, p=3).

Tolerances:
  - Cholesky pivot failure: pivot diag(L)^2 <= order * 1e-14 * max(diag),
    reported with the index of the first such pivot.
  - A LAPACK convergence failure is reported as NoConvergence.
  - Reported eigenvectors are orthonormal (B-orthonormal in the generalized
    case) to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, ValidationError

PIVOT_RELATIVE = 1e-14


class SymMatrix:
    """A symmetrized square matrix that remembers how asymmetric it arrived.

    Construction replaces the input with (M + M^T) / 2 and records the
    relative asymmetry defect max|M - M^T| / max|M| (0 for the zero matrix).
    Entries are exposed read-only.
    """

    __slots__ = ("_entries", "asymmetry_defect")

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("matrix entries must be finite")
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        gap = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
        self.asymmetry_defect = gap / scale if scale > 0.0 else 0.0
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        self._entries = sym

    @property
    def entries(self) -> np.ndarray:
        return self._entries


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues with matching eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False
        self.vectors.flags.writeable = False


def _as_sym(mat) -> SymMatrix:
    return mat if isinstance(mat, SymMatrix) else SymMatrix(mat)


def cholesky(mat) -> np.ndarray:
    """Lower Cholesky factor L with L L^T = mat.

    Raises NotPositiveDefinite when any pivot falls at or below
    order * 1e-14 * max(diag); the message names the first failing pivot.
    """
    return _checked_cholesky(_as_sym(mat).entries)


def sym_eigen(mat) -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix by LAPACK `eigh`.

    Values come back ascending, vectors orthonormal in the columns. Raises
    NoConvergence if LAPACK reports that its iteration failed.
    """
    values, vectors = _eigh(_as_sym(mat).entries)
    return EigenPairs(values=values, vectors=vectors)


def generalized_sym_eigen(a_mat, b_mat) -> EigenPairs:
    """Solve A x = lambda B x for symmetric A and positive definite B.

    Reduction is B = L L^T, C = L^{-1} A L^{-T}, then `eigh` on C; vectors
    are mapped back through L^{-T} so they are B-orthonormal. A symmetric
    diagonal pre-scaling (unit diagonal of B) is applied first; it is an
    exact congruence and only improves conditioning. The values are accurate
    relative to the largest |lambda|, so callers after the smallest values
    of a graded pencil pass it inverted (see the module docstring).
    """
    a = _as_sym(a_mat).entries
    b = _as_sym(b_mat).entries
    if a.shape != b.shape:
        raise ValidationError(f"operand orders differ: {a.shape[0]} vs {b.shape[0]}")
    diag = b.diagonal()
    if np.all(diag > 0.0):
        d = 1.0 / np.sqrt(diag)
    else:
        d = np.ones_like(diag)  # not positive definite; let the pivot check say so
    scale = np.outer(d, d)
    a_s = a * scale
    b_s = b * scale
    low = _checked_cholesky(b_s)
    half = np.linalg.solve(low, a_s)
    c = np.linalg.solve(low, half.T)
    values, vec = _eigh((c + c.T) / 2.0)
    x = np.linalg.solve(low.T, vec) * d[:, None]
    return EigenPairs(values=values, vectors=np.ascontiguousarray(x))


def _eigh(c):
    """Ascending eigenvalues and orthonormal eigenvectors of symmetric c."""
    try:
        return np.linalg.eigh(c)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"LAPACK eigh did not converge: {err}") from None


def _checked_cholesky(b):
    """Lower Cholesky factor of exactly symmetric b, pivot-checked.

    LAPACK factors b; the factor is accepted only if every pivot diag(L)^2
    exceeds order * 1e-14 * max(diag), a test LAPACK itself applies only
    against 0. On failure the first bad pivot is found by bisection over
    leading blocks, whose pivots are the leading pivots of b.
    """
    n = b.shape[0]
    maxdiag = float(np.max(b.diagonal())) if n else 0.0
    threshold = n * PIVOT_RELATIVE * maxdiag
    low = _factor_above(b, threshold)
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
    """LAPACK's lower Cholesky factor of b, or None if a pivot is at or
    below threshold (LAPACK stops at the first one at or below 0)."""
    try:
        low = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return None
    return low if np.all(low.diagonal() ** 2 > threshold) else None
