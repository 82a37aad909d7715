import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epslab.linalg import (
    EXPM_NORM_CAP, Overflow, SectorialityReport, SingularMatrix,
    SqrtNotConverged, as_matrix, check_positivity, expm, inv,
    mat_solve, narrow, op_norm, solve_cells, sqrtm,
)


class TestNarrow:
    @pytest.mark.parametrize("x, dtype", [
        ([1, 2], np.float64), (np.ones(2, np.float32), np.float64),
        (np.ones(2) + 0j, np.float64), (np.ones(2, np.complex64), np.float64),
        (np.array([1.0, 1j]), np.complex128), (np.array([1.0, np.nan * 1j]), np.complex128),
        (3 + 0j, np.float64), (3 + 2j, np.complex128)])
    def test_dtype_follows_the_imaginary_part(self, x, dtype):
        y = narrow(x)
        assert y.dtype == dtype and y.shape == np.shape(x)
        np.testing.assert_array_equal(y, np.asarray(x))

    def test_real_input_is_not_copied_and_a_real_part_is_compact(self):
        # the real part of a complex array is a strided view; narrow copies
        # it out, so BLAS calls on the result need no copy of their own
        x = np.arange(6.0).reshape(2, 3)
        assert narrow(x) is x
        y = narrow(x + 0j)
        assert y.flags.c_contiguous and y.flags.owndata


class TestKeepKind:
    # inv and expm keep their input's kind, as mat_solve does; they do not
    # judge realness by value, so complex-typed real input stays complex
    @pytest.mark.parametrize("M, dtype", [
        ([[2, 1], [1, 3]], np.float64), (np.array([[2.0, 1.0], [1.0, 3.0]]), np.float64),
        (np.array([[2.0, 1.0], [1.0, 3.0]]) + 0j, np.complex128),
        (np.array([[2.0, 1j], [1.0, 3.0]]), np.complex128)])
    def test_inv_and_expm(self, M, dtype):
        ref = np.asarray(M, dtype=complex)
        X, E = inv(M), expm(M)
        assert X.dtype == E.dtype == dtype
        assert _close_to(X, np.linalg.inv(ref))
        assert _close_to(E, expm(ref))


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        A = as_matrix([[1, 2], [3, 4]])
        assert A.dtype == np.float64
        assert A.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            as_matrix(np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0], [0, 1]])


class TestMatSolve:
    def test_residual_small(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        b = rng.normal(size=12) + 1j * rng.normal(size=12)
        x = mat_solve(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_matrix_rhs(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        X = mat_solve(A, np.eye(2))
        np.testing.assert_allclose(A @ X, np.eye(2), atol=1e-14)

    def test_inverse_consistency_moderate_conditioning(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 16))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if np.linalg.cond(A) > 1e6:
                continue
            Ainv = inv(A)
            np.testing.assert_allclose(A @ Ainv, np.eye(n), atol=1e-8)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            mat_solve(np.zeros((3, 3)), np.ones(3))


def _close_to(x, ref, rtol=1e-12):
    return np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)


class TestMatSolveContract:
    """mat_solve against np.linalg.solve, its inputs, and every guard."""

    @pytest.mark.parametrize("n", [1, 2, 16, 32, 64])
    def test_matches_numpy_solve(self, n):
        rng = np.random.default_rng(100 + n)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        Bm = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x = mat_solve(M, b)
        assert x.shape == (n,)
        assert _close_to(x, np.linalg.solve(M, b))
        X = mat_solve(M, Bm)
        assert X.shape == (n, 3)
        assert _close_to(X, np.linalg.solve(M, Bm))
        assert _close_to(mat_solve(M.tolist(), b.tolist()), np.linalg.solve(M, b))
        # real input, and transposed (non-C-contiguous) views of both sides
        R = M.real
        assert _close_to(mat_solve(R, b.real), np.linalg.solve(R, b.real))
        Bt = Bm.T.copy().T
        assert n == 1 or not (M.T.flags.c_contiguous or Bt.flags.c_contiguous)
        assert _close_to(mat_solve(M.T, Bt), np.linalg.solve(M.T, Bt))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_diagonally_dominant(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        k = data.draw(st.integers(min_value=1, max_value=3))
        entry = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False)
        X = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n)))
        b = np.array(data.draw(st.lists(entry, min_size=n * k, max_size=n * k)))
        M = X.reshape(n, n)
        M = M + np.diag(np.abs(M).sum(axis=1) + 1.0)
        B = b.reshape(n, k)
        assert _close_to(mat_solve(M, B), np.linalg.solve(M, B))

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(5)
        # Fortran-ordered complex128 is the layout LAPACK could work in
        M = np.asfortranarray(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        B = np.asfortranarray(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
        b = B[:, 0].copy()
        M0, B0, b0 = M.copy(), B.copy(), b.copy()
        mat_solve(M, B)
        mat_solve(M, b)
        np.testing.assert_array_equal(M, M0)
        np.testing.assert_array_equal(B, B0)
        np.testing.assert_array_equal(b, b0)

    def test_zero_and_empty_matrix(self):
        with pytest.raises(SingularMatrix, match="zero matrix"):
            mat_solve(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(SingularMatrix, match="zero matrix"):
            mat_solve(np.zeros((0, 0)), np.zeros(0))

    def test_exactly_singular(self):
        with pytest.raises(SingularMatrix, match="rcond"):
            mat_solve([[0.0, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_pivot_ratio_threshold(self):
        with pytest.raises(SingularMatrix, match="rcond"):
            mat_solve(np.diag([1.0, 5e-14]), np.ones(2))
        x = mat_solve(np.diag([1.0, 5e-13]), np.ones(2))
        np.testing.assert_allclose(x, [1.0, 2e12], rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_matrix(self, bad):
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            mat_solve(M, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_rhs(self, bad):
        b = np.ones((3, 2), dtype=complex)
        b[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            mat_solve(np.eye(3), b)
        with pytest.raises(ValueError, match="infs or NaNs"):
            mat_solve(np.eye(3), b[:, 1])

    @pytest.mark.parametrize("shape", [(2,), (4,), (2, 3), (3, 2, 2)])
    def test_rhs_shape_mismatch(self, shape):
        with pytest.raises(ValueError):
            mat_solve(np.eye(3), np.ones(shape))

    def test_working_dtype(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        x = mat_solve(M, b)
        assert x.dtype == np.float64
        assert mat_solve(M.astype(int).tolist(), [1, 2]).dtype == np.float64
        for M_, b_ in ((M + 0j, b), (M, b + 0j), (M + 1j, b), (M, 1j * b)):
            y = mat_solve(M_, b_)
            assert y.dtype == np.complex128
            assert _close_to(y, np.linalg.solve(M_, b_))
        assert _close_to(x, np.linalg.solve(M, b))

    def test_empty_rhs_columns(self):
        X = mat_solve(np.eye(3) + 1j, np.ones((3, 0)))
        assert X.shape == (3, 0)
        assert X.dtype == np.complex128


class TestFailureOrder:
    """Which failure mat_solve and inv report when an input has several."""

    def test_zero_matrix_before_non_finite_rhs(self):
        with pytest.raises(SingularMatrix, match="^zero matrix$"):
            mat_solve(np.zeros((2, 2)), [np.nan, 1.0])

    def test_non_finite_rhs_before_rcond(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            mat_solve([[1.0, 2.0], [2.0, 4.0]], [np.nan, 1.0])

    def test_matrix_and_shape_before_rhs_values(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            mat_solve([[np.nan, 0.0], [0.0, 0.0]], [np.nan, 1.0])
        with pytest.raises(ValueError, match="does not match"):
            mat_solve(np.zeros((2, 2)), [np.nan, 1.0, 1.0])

    def test_inv(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            inv([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrix, match="^zero matrix$"):
            inv(np.zeros((2, 2)))
        with pytest.raises(SingularMatrix, match="^rcond 0.000e[+]00 below 1e-13$"):
            inv([[1.0, 2.0], [2.0, 4.0]])


def _stack(*cells):
    return np.stack([np.asarray(c, dtype=float) for c in cells])


class TestSolveCells:
    """The package's one guarded inverse of a (cells, n, n) stack."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_each_cell_is_its_inverse_in_the_stack_dtype(self, dtype):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 4, 4)) + np.eye(4)
        M = M + 1j * rng.normal(size=M.shape) if dtype is np.complex128 else M
        X, errors = solve_cells(M)
        assert errors == [None] * 5 and X.dtype == dtype and X.shape == M.shape
        for Mi, Xi in zip(M, X):
            np.testing.assert_allclose(Xi, np.linalg.inv(Mi), rtol=1e-12, atol=0)

    def test_errors_in_order_and_failed_cells_get_zeros(self):
        M = _stack(np.eye(2),
                   [[np.nan, 0.0], [0.0, 0.0]],  # non-finite and otherwise zero
                   [[np.inf, 1.0], [0.0, 1.0]],
                   np.zeros((2, 2)),
                   [[1.0, 2.0], [2.0, 4.0]],
                   np.diag([1.0, 5e-14]),
                   1e-310 * np.eye(2),  # its inverse overflows
                   2 * np.eye(2))
        X, errors = solve_cells(M)
        assert [(type(e), str(e)) for e in errors] == [
            (type(None), "None"),
            (ValueError, "matrix entries must be finite"),
            (ValueError, "matrix entries must be finite"),
            (SingularMatrix, "zero matrix"),
            (SingularMatrix, "rcond 0.000e+00 below 1e-13"),
            (SingularMatrix, "rcond 5.000e-14 below 1e-13"),
            (SingularMatrix, "rcond 0.000e+00 below 1e-13"),
            (type(None), "None")]
        np.testing.assert_array_equal(X[1:7], 0.0)
        np.testing.assert_array_equal(X[0], np.eye(2))
        np.testing.assert_array_equal(X[7], 0.5 * np.eye(2))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_skip_gives_none_and_zeros(self, dtype):
        M = _stack(2 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2)),
                   4 * np.eye(2)).astype(dtype)
        X, errors = solve_cells(M, skip=[False, True, True, False])
        assert errors == [None] * 4 and X.dtype == dtype
        np.testing.assert_array_equal(X[1:3], 0.0)
        np.testing.assert_array_equal(X[[0, 3]], [0.5 * np.eye(2), 0.25 * np.eye(2)])
        X, errors = solve_cells(M, skip=[True] * 4)
        assert errors == [None] * 4 and X.dtype == dtype
        np.testing.assert_array_equal(X, 0.0)

    def test_exactly_singular_cell_leaves_the_others_their_solo_inverses(self):
        # LAPACK refuses the whole stack, so each cell is inverted alone
        rng = np.random.default_rng(8)
        good = rng.normal(size=(3, 3, 3)) + 3 * np.eye(3)
        singular = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        M = np.stack([good[0], singular, good[1], good[2]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(M)
        X, errors = solve_cells(M)
        assert [type(e) for e in errors] == [type(None), SingularMatrix] + [type(None)] * 2
        np.testing.assert_array_equal(X[1], 0.0)
        for i in (0, 2, 3):
            solo, _ = solve_cells(M[i:i + 1])
            np.testing.assert_array_equal(X[i], solo[0])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_input_is_not_overwritten(self, dtype):
        rng = np.random.default_rng(9)
        M = np.asfortranarray((rng.normal(size=(4, 3, 3)) + 2 * np.eye(3)).astype(dtype))
        M[2] = 0.0
        M0 = M.copy()
        solve_cells(M, skip=[False, True, False, False])
        solve_cells(M)
        np.testing.assert_array_equal(M, M0)


class TestSqrtm:
    def test_frozen_integer_example(self):
        # X = [[5, 2], [1, 3]] squares to [[27, 16], [8, 11]]
        R = sqrtm([[27.0, 16.0], [8.0, 11.0]])
        np.testing.assert_allclose(R, [[5.0, 2.0], [1.0, 3.0]], atol=1e-9)

    def test_diagonal(self):
        R = sqrtm(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(R, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity_and_zero(self):
        np.testing.assert_allclose(sqrtm(np.eye(3)), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(sqrtm(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_complex_spectrum(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])  # eigenvalues +-2i
        R = sqrtm(A)
        np.testing.assert_allclose(R @ R, A, atol=1e-10)
        assert np.all(np.linalg.eigvals(R).real > 0)

    def test_negative_scalar_raises(self):
        with pytest.raises(SqrtNotConverged):
            sqrtm([[-1.0]])

    @pytest.mark.parametrize("M", [
        np.diag([4.0, -1.0]),
        [[0.0, 1.0], [0.0, 0.0]],  # nilpotent: no square root at all
    ])
    def test_spectrum_on_branch_cut_raises(self, M):
        with pytest.raises(SqrtNotConverged):
            sqrtm(M)

    @pytest.mark.filterwarnings("error")
    def test_large_positive_scalar_is_off_the_cut(self):
        # ||M||_F overflows past 1e154; the branch-cut tolerance must not
        R = sqrtm([[8e300]])
        np.testing.assert_allclose(R, [[np.sqrt(8e300)]], rtol=1e-14)

    def test_just_off_the_cut(self):
        A = np.array([[-1.0, -1e-3], [1e-3, -1.0]])  # eigenvalues -1 +- 1e-3 i
        R = sqrtm(A)
        np.testing.assert_allclose(R @ R, A, atol=1e-12)
        assert np.all(np.linalg.eigvals(R).real > 0)

    def test_random_spd_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 33))
            G = rng.normal(size=(n, n))
            A = G @ G.T + n * np.eye(n)
            R = sqrtm(A)
            err = np.linalg.norm(R @ R - A, "fro")
            assert err <= 1e-10 * np.linalg.norm(A, "fro")

    def test_principal_branch_matches_scipy(self):
        rng = np.random.default_rng(5)
        import scipy.linalg
        for _ in range(5):
            A = rng.normal(size=(6, 6)) + 0.5j * rng.normal(size=(6, 6))
            A = A + 6 * np.eye(6)  # push spectrum well off the cut
            np.testing.assert_allclose(sqrtm(A), scipy.linalg.sqrtm(A), atol=1e-8)


class TestExpm:
    def test_diagonal_log(self):
        E = expm(np.diag([np.log(2.0), np.log(3.0)]))
        np.testing.assert_allclose(E, np.diag([2.0, 3.0]), rtol=1e-13)

    def test_nilpotent(self):
        E = expm([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(E, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_overflow_cap(self):
        with pytest.raises(Overflow):
            expm(np.diag([np.log(EXPM_NORM_CAP) + 1.0, 0.0]))

    def test_overflow_nonfinite(self):
        with pytest.raises(Overflow):
            expm(np.diag([2000.0, 0.0]))


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-8)

    def test_one_by_one(self):
        assert op_norm([[3.0 - 4.0j]]) == pytest.approx(5.0)

    def test_nilpotent(self):
        assert op_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, rel=1e-8)

    def test_zero(self):
        assert op_norm(np.zeros((4, 4))) == 0.0

    def test_matches_numpy_2norm(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert op_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    def test_close_top_singular_values(self):
        # sigma_1 = 1, sigma_2 = 1 - 1e-4: power iteration on M^H M
        # converges too slowly here and stops below the true norm
        rng = np.random.default_rng(23)
        U, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        V, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        s = np.concatenate(([1.0, 1.0 - 1e-4], np.linspace(0.9, 0.1, 14)))
        M = U @ np.diag(s) @ V.conj().T
        assert op_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**31 - 1))
    def test_submultiplicative(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        assert op_norm(A @ B) <= op_norm(A) * op_norm(B) * (1 + 1e-7) + 1e-12


class TestCheckPositivity:
    def test_scalar_identity(self):
        rep = check_positivity([[1.0]], lam_samples=(0.0, 1.0, 10.0))
        assert isinstance(rep, SectorialityReport)
        # (1+|lam|)/(1+lam) == 1 for lam >= 0
        np.testing.assert_allclose(rep.values, 1.0, rtol=1e-10)
        assert rep.bound == pytest.approx(1.0)
        assert rep.passed

    def test_singular_shift_raises(self):
        with pytest.raises(SingularMatrix):
            check_positivity([[-1.0]], lam_samples=(1.0,))

    def test_cap_enforced(self):
        rep = check_positivity([[1e-4]], lam_samples=(0.0,), cap=1e3)
        assert not rep.passed
        assert rep.bound == pytest.approx(1e4)
        assert rep.worst_lam == 0.0

    def test_spd_matrix_bounded(self):
        rng = np.random.default_rng(2)
        G = rng.normal(size=(6, 6))
        A = G @ G.T + np.eye(6)
        rep = check_positivity(A)
        assert rep.passed
        # normal SPD: value at lam is (1+lam)/(mu_min+lam), sup = max(1, 1/mu_min)
        mu = min(np.linalg.eigvalsh(A))
        assert rep.bound <= max(1.0, 1.0 / mu) + 1e-6
