"""Dense linear algebra: frozen hand values and contracts."""

import math

import numpy as np
import pytest

from capspec import linalg, spectral
from capspec.errors import NoConvergence, NotPositiveDefinite, ValidationError
from capspec.linalg import generalized_sym_eigen
from capspec.spectral import Problem, SolverConfig, assemble_mode

from oracles import generalized_eigen_2x2


# ------------------------------------------------------------ symmetrization
# Pencils are plain arrays. generalized_sym_eigen checks and symmetrizes its
# operands; the solver's forms are symmetrized where assemble_mode builds
# them, and it records their asymmetry defect max|M - M^T| / max|M|.


def assembled(monkeypatch, a_raw, b_raw):
    """assemble_mode on fixed raw forms, the same at both node counts."""
    forms = np.array([[a_raw, b_raw]], dtype=float)  # a stack of one mode
    monkeypatch.setattr(spectral, "_raw_forms", lambda *args: (forms.copy(), forms.copy()))
    cfg = SolverConfig(n=2, p=1, theta0=1.0, problem=Problem.CLAMPED,
                       basis_size=2, requested_count=1)
    return assemble_mode(cfg, 0)


def test_symmetrization_records_defect(monkeypatch):
    pairs = generalized_sym_eigen([[1.0, 2.0], [1.0, 1.0]], np.eye(2))
    assert np.allclose(pairs.values, [-0.5, 2.5], atol=1e-15)  # of [[1, 1.5], [1.5, 1]]
    a, b, health = assembled(monkeypatch, [[1.0, 2.0], [1.0, 1.0]], np.eye(2))
    assert np.allclose(a, [[1.0, 1.5], [1.5, 1.0]])
    assert health["max_form_asymmetry"] == pytest.approx(0.5)  # |2-1| / max|entry|
    assert health["quad_doubling_gap"] == 0.0


def test_symmetric_input_zero_defect(monkeypatch):
    a, b, health = assembled(monkeypatch, [[2.0, 1.0], [1.0, 2.0]], np.eye(2))
    assert health["max_form_asymmetry"] == 0.0
    for form in (a, b):
        with pytest.raises(ValueError):
            form[0, 0] = 5.0  # read-only


def test_rejects_nonsquare_and_nonfinite(monkeypatch):
    with pytest.raises(ValidationError, match="square"):
        generalized_sym_eigen([[1.0, 2.0, 3.0]], np.eye(1))
    with pytest.raises(ValidationError, match="finite"):
        generalized_sym_eigen(np.eye(2), [[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="matrix entries must be finite"):
        assembled(monkeypatch, [[np.inf, 0.0], [0.0, 1.0]], np.eye(2))


# ----------------------------------------------------------------- cholesky
# Hand oracle for the 2x2: L11 = sqrt(4) = 2, L21 = 2/2 = 1,
# L22 = sqrt(5 - 1^2) = 2.


def cholesky(mat):
    """The reduction's pivot-checked factor of the symmetric part of mat."""
    arr = np.array(mat, dtype=float)
    return linalg._checked_cholesky((arr + arr.T) / 2.0)


def test_cholesky_hand_value():
    low = cholesky([[4.0, 2.0], [2.0, 5.0]])
    assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)


def test_cholesky_identity():
    low = cholesky(np.eye(3))
    assert np.allclose(low, np.eye(3), atol=0.0)


def test_cholesky_indefinite_fails_on_second_pivot():
    # pivot 2 is 1 - 2^2 = -3
    with pytest.raises(NotPositiveDefinite, match="pivot 2"):
        cholesky([[1.0, 2.0], [2.0, 1.0]])


def test_cholesky_reconstructs():
    rng = np.random.RandomState(7)
    for order in (1, 2, 5, 16, 33):
        m = rng.standard_normal((order, order))
        b = m @ m.T + order * np.eye(order)
        maxdiag = float(np.max(b.diagonal()))
        low = cholesky(b)
        assert np.array_equal(low, np.tril(low))
        assert np.max(np.abs(low @ low.T - b)) <= 1e-12 * maxdiag


def cholesky_rows(b, threshold):
    """Referee: row-by-row Cholesky of symmetric b.

    Returns (L, i) where i == -1 on success; otherwise i is the index of the
    first pivot that fell at or below threshold (L is then partial garbage).
    """
    n = b.shape[0]
    low = np.zeros_like(b)
    for i in range(n):
        row = low[i, :i]
        pivot = b[i, i] - row @ row
        if pivot <= threshold:
            return low, i
        d = math.sqrt(pivot)
        low[i, i] = d
        if i + 1 < n:
            low[i + 1 :, i] = (b[i + 1 :, i] - low[i + 1 :, :i] @ row) / d
    return low, -1


def test_cholesky_matches_row_referee():
    rng = np.random.RandomState(19)
    for order in (1, 2, 5, 16, 33):
        m = rng.standard_normal((order, order))
        b = m @ m.T + order * np.eye(order)
        threshold = order * linalg.PIVOT_RELATIVE * float(np.max(b.diagonal()))
        expected, bad = cholesky_rows(b, threshold)
        assert bad == -1
        assert np.max(np.abs(cholesky(b) - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["negative", "tiny"])
def test_cholesky_names_first_bad_pivot(kind):
    # B = L D L^T with unit lower L has pivots D; one of them is made bad:
    # negative, or positive but at or below the threshold, which LAPACK
    # accepts and only the diag(L)^2 check rejects
    order = 33
    rng = np.random.RandomState(23)
    unit = np.eye(order) + 0.1 * np.tril(rng.standard_normal((order, order)), -1)
    base = rng.uniform(1.0, 2.0, order)
    for index in range(order):
        pivots = base.copy()
        if kind == "negative":
            pivots[index] = -0.5
        else:
            maxdiag = float(np.max(((unit**2) @ base)))
            pivots[index] = 0.25 * order * linalg.PIVOT_RELATIVE * maxdiag
        b = (unit * pivots) @ unit.T
        b = (b + b.T) / 2.0
        threshold = order * linalg.PIVOT_RELATIVE * float(np.max(b.diagonal()))
        _, bad = cholesky_rows(b, threshold)
        assert bad == index
        if kind == "tiny":
            np.linalg.cholesky(b[: index + 1, : index + 1])  # LAPACK accepts it
        message = f"pivot {bad + 1} of {order} at or below threshold {threshold:.3e}"
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky(b)
        assert str(err.value) == message


# --------------------------------------------- standard problem, B = I
# The standard symmetric problem is the generalized one with B = I: the
# scaling and the Cholesky factor are then exactly the identity.


def eigen(c):
    return generalized_sym_eigen(c, np.eye(len(c)))


def test_sym_eigen_diagonal():
    pairs = eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(pairs.values, [1.0, 2.0, 3.0], atol=1e-14)


def test_sym_eigen_hand_2x2():
    pairs = eigen([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(pairs.values, [1.0, 3.0], atol=1e-13)
    pairs = eigen([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pairs.values, [-1.0, 1.0], atol=1e-14)


def test_sym_eigen_posts():
    rng = np.random.RandomState(11)
    for order in (2, 3, 8, 24):
        m = rng.standard_normal((order, order))
        c = np.ascontiguousarray((m + m.T) / 2.0)
        norm = float(np.linalg.norm(c))
        pairs = eigen(c)
        diag, vec = pairs.values, pairs.vectors
        # off-diagonal norm of the rotated matrix
        rot = vec.T @ c @ vec
        np.fill_diagonal(rot, 0.0)
        assert np.linalg.norm(rot) <= 1e-12 * norm
        # residuals and orthonormality
        order_idx = np.argsort(diag)
        for i in order_idx:
            r = c @ vec[:, i] - diag[i] * vec[:, i]
            assert np.linalg.norm(r) <= 1e-10 * norm
        assert np.max(np.abs(vec.T @ vec - np.eye(order))) <= 1e-10


def test_sym_eigen_trace_and_det_identities():
    rng = np.random.RandomState(3)
    for _ in range(20):
        order = rng.randint(2, 9)
        m = rng.standard_normal((order, order))
        c = (m + m.T) / 2.0
        pairs = eigen(c)
        assert np.trace(c) == pytest.approx(float(np.sum(pairs.values)), rel=1e-10, abs=1e-10)
        # determinant via an SPD shift so the cholesky-product oracle applies
        shift = float(np.max(np.abs(pairs.values))) + 1.0
        spd = c + shift * np.eye(order)
        low = cholesky(spd)
        det_chol = float(np.prod(np.diag(low)) ** 2)
        det_eig = float(np.prod(pairs.values + shift))
        assert det_eig == pytest.approx(det_chol, rel=1e-8)


def test_sym_eigen_congruence_invariance():
    # eigenvalue signs are congruence-invariant (Sylvester); here we use
    # orthogonal congruence so values themselves must match
    rng = np.random.RandomState(5)
    for order in (2, 4, 6):
        m = rng.standard_normal((order, order))
        c = (m + m.T) / 2.0
        q, _ = np.linalg.qr(rng.standard_normal((order, order)))
        rotated = q.T @ c @ q
        v1 = eigen(c).values
        v2 = eigen(rotated).values
        assert np.allclose(v1, v2, rtol=1e-10, atol=1e-10)


def test_lapack_failure_is_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        eigen([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoConvergence):
        generalized_sym_eigen(np.eye(2), np.eye(2))


def test_sym_eigen_zero_matrix():
    pairs = eigen(np.zeros((4, 4)))
    assert np.all(pairs.values == 0.0)
    assert np.allclose(pairs.vectors, np.eye(4))


# ---------------------------------------------- generalized_sym_eigen


def test_generalized_hand_diagonal():
    pairs = generalized_sym_eigen(np.diag([2.0, 3.0]), np.diag([2.0, 1.0]))
    assert np.allclose(pairs.values, [1.0, 3.0], atol=1e-13)


def test_generalized_hand_quadratic():
    # det(A - xB) = 2x^2 - 6x + 3 = 0 -> x = (3 +- sqrt(3)) / 2
    a = [[2.0, 1.0], [1.0, 2.0]]
    b = [[2.0, 0.0], [0.0, 1.0]]
    expected = generalized_eigen_2x2(a, b)
    assert expected[0] == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, abs=1e-15)
    pairs = generalized_sym_eigen(a, b)
    assert np.allclose(pairs.values, expected, atol=1e-13)


def test_generalized_identity_matches_sym_eigen():
    rng = np.random.RandomState(13)
    for order in (2, 5, 12):
        m = rng.standard_normal((order, order))
        c = (m + m.T) / 2.0
        v1 = np.linalg.eigh(c)[0]
        v2 = generalized_sym_eigen(c, np.eye(order)).values
        assert np.max(np.abs(v1 - v2)) <= 1e-12 * max(1.0, float(np.max(np.abs(v1))))


def test_generalized_posts():
    rng = np.random.RandomState(17)
    for order in (2, 6, 20):
        m = rng.standard_normal((order, order))
        a = (m + m.T) / 2.0
        g = rng.standard_normal((order, order))
        b = g @ g.T + order * np.eye(order)
        pairs = generalized_sym_eigen(a, b)
        assert np.all(np.diff(pairs.values) >= 0.0)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        for i in range(order):
            x = pairs.vectors[:, i]
            lam = pairs.values[i]
            res = np.linalg.norm(a @ x - lam * b @ x)
            assert res <= 1e-9 * (na + abs(lam) * nb)
        gram = pairs.vectors.T @ b @ pairs.vectors
        assert np.max(np.abs(gram - np.eye(order))) <= 1e-10


def test_generalized_rejects_indefinite_b():
    with pytest.raises(NotPositiveDefinite, match="pivot 1"):
        generalized_sym_eigen(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])


def test_generalized_order_mismatch():
    with pytest.raises(ValidationError):
        generalized_sym_eigen(np.eye(2), np.eye(3))


# ----------------------------------- values-only, stacks and leading blocks


def spd_pencils(count, order, seed):
    """A stack of `count` pencils (A, B): A symmetric, B positive definite."""
    rng = np.random.RandomState(seed)
    m = rng.standard_normal((count, order, order))
    g = rng.standard_normal((count, order, order))
    a = (m + np.swapaxes(m, 1, 2)) / 2.0
    b = g @ np.swapaxes(g, 1, 2) + order * np.eye(order)
    return a, (b + np.swapaxes(b, 1, 2)) / 2.0


def test_stack_rows_are_single_pencil_values():
    # LAPACK runs once per matrix of a stack, so each row of a stacked
    # values call on reduced pencils is bitwise the values of its matrix
    # alone (the solver reads the companion and every convergence size this
    # way, one stack of leading blocks per size)
    a, b = spd_pencils(4, 9, 31)
    reduced = np.array([linalg._reduce(a_one, b_one)[0] for a_one, b_one in zip(a, b)])
    stacked = linalg._eigen(reduced, vectors=False)
    assert stacked.shape == (4, 9)
    for row, c in zip(stacked, reduced):
        assert np.array_equal(row, linalg._eigen(c, vectors=False))


def test_values_only_lapack_failure_is_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    a, b = spd_pencils(3, 5, 43)
    reduced = np.array([linalg._reduce(a_one, b_one)[0] for a_one, b_one in zip(a, b)])
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        linalg._eigen(reduced[0], vectors=False)
    with pytest.raises(NoConvergence, match="did not converge"):
        linalg._eigen(reduced, vectors=False)


def test_leading_block_of_reduction_is_reduced_leading_block():
    # L is lower triangular, so the leading c-by-c block of C = L^{-1} A L^{-T}
    # is the reduction of the pencil's leading blocks, up to roundoff
    a, b = spd_pencils(1, 12, 47)
    full, low, d = linalg._reduce(a[0], b[0])
    for size in (1, 5, 11):
        block, low_block, d_block = linalg._reduce(a[0][:size, :size], b[0][:size, :size])
        assert np.array_equal(d[:size], d_block)
        assert np.allclose(low[:size, :size], low_block, rtol=0.0, atol=1e-13)
        assert np.allclose(full[:size, :size], block, rtol=0.0, atol=1e-13)
