import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from epslab.discretize import (
    BoundaryData, ConditionReport, GridFunction, NonPositiveCoefficient,
    OperatorPair, SpaceGrid, build_integral_operator, build_wentzell_operator,
    _as_coefficient, _one_sided_rows, check_condition_1, check_condition_2_1,
    check_condition_4_1, e_norm, kfunctional_norm, mixed_norm,
)
from epslab.linalg import SingularMatrix, mat_solve, op_norm


def _kfunctional_by_solves(f, A, theta, p, w, stacked=False):
    """Reference K-functional norm from one regularized solve per mu.

    By default each candidate solves (W + mu A^H W A) g = W f with the
    guarded LU and is dropped when the pivot guard trips, as
    kfunctional_norm did before its closed form.  stacked=True solves the
    same problem as the least-squares system [W^1/2; mu^1/2 W^1/2 A] g =
    [W^1/2 f; 0] instead, which is well conditioned and keeps every mu.
    """
    A = np.asarray(A, dtype=complex)
    x = np.asarray(f, dtype=complex)
    w = np.asarray(w, dtype=float)
    n = len(x)
    W = np.diag(w)
    sw = np.sqrt(w)
    rs = [(0.0, e_norm(A @ x, w)), (e_norm(x, w), 0.0)]
    for mu in np.logspace(-10, 10, 81):
        if stacked:
            S = np.vstack([np.diag(sw), np.sqrt(mu) * sw[:, None] * A])
            rhs = np.concatenate([sw * x, np.zeros(n)])
            g = np.linalg.lstsq(S, rhs, rcond=None)[0]
        else:
            try:
                g = mat_solve(W + mu * A.conj().T @ W @ A, W @ x)
            except SingularMatrix:
                continue
        rs.append((e_norm(x - g, w), e_norm(A @ g, w)))
    r = np.array([q[0] for q in rs])
    s = np.array([q[1] for q in rs])
    t = np.logspace(-4, 4, 200)
    K = np.min(r[None, :] + t[:, None] * s[None, :], axis=1)
    return float(np.trapezoid((t ** (-theta) * K) ** p, np.log(t)) ** (1.0 / p))


class TestSpaceGrid:
    def test_single_node(self):
        g = SpaceGrid.uniform_interior(1)
        np.testing.assert_array_equal(g.nodes, [0.5])
        np.testing.assert_array_equal(g.weights, [1.0])

    def test_nodes_and_weights(self):
        g = SpaceGrid.uniform_interior(4)
        np.testing.assert_allclose(g.nodes, [0.2, 0.4, 0.6, 0.8])
        np.testing.assert_allclose(g.weights, [0.3, 0.2, 0.2, 0.3])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    def test_weights_sum_to_one_exactly(self, n):
        g = SpaceGrid.uniform_interior(n)
        assert np.sum(g.weights) == pytest.approx(1.0, abs=1e-15)

    def test_quadrature_second_order(self):
        # integral of y^2 over (0,1) is 1/3
        errs = []
        for n in (20, 40, 80):
            g = SpaceGrid.uniform_interior(n)
            errs.append(abs(np.sum(g.weights * g.nodes**2) - 1.0 / 3.0))
        assert errs[0] / errs[2] > 10

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            SpaceGrid.uniform_interior(0)


class TestGridFunction:
    def test_basic(self):
        t = np.linspace(0, 2, 9)
        u = GridFunction(t, np.ones((9, 3)))
        assert u.n_t == 9 and u.n == 3
        assert u.dt == pytest.approx(0.25)
        assert u.T == pytest.approx(2.0)

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.1, 0.5]), np.ones((3, 1)))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.ones((2, 1)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridFunction(np.linspace(0, 1, 5), np.ones((4, 2)))

    def test_e_norms(self):
        t = np.linspace(0, 1, 5)
        vals = np.outer(t, np.ones(4))
        u = GridFunction(t, vals)
        np.testing.assert_allclose(u.e_norms(), t, atol=1e-15)


class TestOperatorPair:
    def test_accepts_positive_scalar(self):
        pair = OperatorPair([[1.0]], [[0.5]])
        assert pair.n == 1
        assert pair.positivity is not None and pair.positivity.passed

    def test_rejects_negative_scalar(self):
        with pytest.raises(SingularMatrix):
            OperatorPair([[-1.0]], [[0.0]])

    def test_rejects_tiny_positive_scalar(self):
        # resolvent bound at lam=0 is 1e6, beyond the default cap
        with pytest.raises(ValueError):
            OperatorPair([[1e-6]], [[0.0]])

    def test_waiver_skips_check(self):
        pair = OperatorPair([[-1.0]], [[0.0]], check_positive=False)
        assert pair.positivity is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            OperatorPair(np.eye(2), np.eye(3))

    def test_commutes(self):
        assert OperatorPair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])).commutes()
        pair = OperatorPair(np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]),
                            check_positive=False)
        assert not pair.commutes()

    def test_commutator_norms_computed_once(self, monkeypatch):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = OperatorPair(A, B, check_positive=False)
        calls = []
        monkeypatch.setattr("epslab.discretize.op_norm",
                            lambda M: calls.append(1) or op_norm(M))
        for _ in range(3):
            assert pair.commutator_norm == op_norm(A @ B - B @ A)
            assert not pair.commutes()
        assert len(calls) == 3  # ||AB - BA||, ||A||, ||B||

    def test_joint_eigenbasis_diagonalizes_both(self, monkeypatch):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        Sinv = np.linalg.inv(S)
        A = S @ np.diag([1.0, 2.0, 3.0, 4.0]) @ Sinv
        pair = OperatorPair(A, S @ np.diag([0.5, -1.0, 0.0, 2.0]) @ Sinv,
                            check_positive=False)
        V, Vinv, a, b = pair.joint_eigenbasis
        np.testing.assert_allclose(V @ Vinv, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(V @ np.diag(a) @ Vinv, pair.A, atol=1e-11)
        np.testing.assert_allclose(V @ np.diag(b) @ Vinv, pair.B, atol=1e-11)
        monkeypatch.setattr("epslab.discretize.np.linalg.eig", None)
        assert pair.joint_eigenbasis[0] is V  # computed once per pair

    def test_no_joint_eigenbasis_without_commuting(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        pair = OperatorPair(A, np.array([[0.0, 1.0], [1.0, 0.0]]), check_positive=False)
        assert pair.joint_eigenbasis is None

    @pytest.mark.parametrize("a, b", [
        ([1.0, 1.0 + 0.5 ** 0.5], [1.0, 0.0]),   # A + B / sqrt(2) = (1 + 1/sqrt(2)) I
        ([2.0, 2.0, 3.0], [1.0, -1.0, 1.0]),     # A's repeated eigenvalue, split by B
    ], ids=["degenerate-combination", "repeated-eigenvalue"])
    def test_degenerate_pairs_get_a_basis(self, a, b):
        Q, _ = np.linalg.qr(np.random.default_rng(len(a)).normal(size=(len(a), len(a))))
        pair = OperatorPair(Q @ np.diag(a) @ Q.T, Q @ np.diag(b) @ Q.T)
        V, Vinv, a_got, b_got = pair.joint_eigenbasis
        np.testing.assert_allclose(V @ np.diag(a_got) @ Vinv, pair.A, atol=1e-12)
        np.testing.assert_allclose(V @ np.diag(b_got) @ Vinv, pair.B, atol=1e-12)
        np.testing.assert_allclose(sorted(zip(a_got.real, b_got.real)), sorted(zip(a, b)),
                                   atol=1e-12)

    def test_defective_pair_has_no_basis(self):
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert OperatorPair(J, J).joint_eigenbasis is None

    def test_default_weights(self):
        pair = OperatorPair(np.eye(4), np.zeros((4, 4)))
        np.testing.assert_allclose(pair.weights(), 0.25)

    def test_grid_weights(self):
        g = SpaceGrid.uniform_interior(4)
        pair = OperatorPair(np.eye(4), np.zeros((4, 4)), grid=g)
        np.testing.assert_allclose(pair.weights(), g.weights)


class TestBoundaryData:
    def test_dirichlet_neumann(self):
        bc = BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0),
                          f1=1.0, f2=0.0)
        assert bc.d == 1.0
        assert bc.theta(2.0) == (0.25, 0.75)

    def test_rejects_dirichlet_dirichlet(self):
        with pytest.raises(ValueError):
            BoundaryData(alpha=(1.0, 0.0), beta=(1.0, 0.0),
                         f1=0.0, f2=0.0)

    def test_rejects_neumann_neumann(self):
        with pytest.raises(ValueError):
            BoundaryData(alpha=(0.0, 1.0), beta=(0.0, 1.0),
                         f1=0.0, f2=0.0)

    def test_robin_neumann_allowed(self):
        bc = BoundaryData(alpha=(1.0, 1.0), beta=(0.0, 1.0),
                          f1=0.0, f2=0.0)
        assert bc.d == 1.0

    def test_rejects_overorder_coefficient(self):
        # a nonzero derivative coefficient makes the condition order 1
        bc = BoundaryData(alpha=(1.0, 0.5), beta=(0.0, 1.0),
                          f1=0.0, f2=0.0)
        assert bc.m1 == 1

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            BoundaryData(alpha=(1.0, 0.0), beta=(1.0, 0.0),
                         f1=0.0, f2=0.0)

    @pytest.mark.parametrize("alpha, beta, orders, theta", [
        ((1.0, 0.0), (0.0, 1.0), (0, 1), (0.25, 0.75)),   # Dirichlet-Neumann
        ((0.0, 1.0), (1.0, 0.0), (1, 0), (0.75, 0.25)),   # Neumann-Dirichlet
        ((1.0, 1.0), (0.0, 1.0), (1, 1), (0.75, 0.75)),   # Robin-Neumann
        ((1.0, 0.7), (0.4, 1.0), (1, 1), (0.75, 0.75)),   # Robin-Robin
    ])
    def test_orders_derived_from_coefficients(self, alpha, beta, orders, theta):
        bc = BoundaryData(alpha=alpha, beta=beta, f1=0.0, f2=0.0)
        assert (bc.m1, bc.m2) == orders
        assert bc.theta(2.0) == theta

    def test_rejects_end_without_coefficients(self):
        with pytest.raises(ValueError, match="degenerate"):
            BoundaryData(alpha=(0.0, 0.0), beta=(0.0, 1.0), f1=0.0, f2=0.0)

    @pytest.mark.parametrize("p", [1.0, np.inf, 0.5, np.nan])
    def test_theta_rejects_inadmissible_p(self, p):
        bc = BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0), f1=0.0, f2=0.0)
        with pytest.raises(ValueError, match="p = "):
            bc.theta(p)

    def test_data_broadcast(self):
        bc = BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0),
                          f1=2.0, f2=np.array([1.0, 2.0, 3.0]))
        f1, f2 = bc.data_for(3)
        np.testing.assert_array_equal(f1, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(f2, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            bc.data_for(4)


def _phi(y):
    return y**3 * (1 - y) ** 3


def _dphi(y):
    return 3 * y**2 * (1 - y) ** 3 - 3 * y**3 * (1 - y) ** 2


def _ddphi(y):
    return 6 * y * (1 - y) ** 3 - 18 * y**2 * (1 - y) ** 2 + 6 * y**3 * (1 - y)


class TestWentzellOperator:
    def test_constants_in_kernel_exactly(self):
        g = SpaceGrid.uniform_interior(24)
        A = build_wentzell_operator(g, "1+y", "y")
        assert np.abs(A @ np.ones(24)).max() <= 1e-9

    def test_positivity_required(self):
        g = SpaceGrid.uniform_interior(8)
        with pytest.raises(NonPositiveCoefficient):
            build_wentzell_operator(g, "y", "1")  # a(0) = 0
        with pytest.raises(NonPositiveCoefficient):
            build_wentzell_operator(g, "y-2", "0")

    def test_laplacian_spectrum_real_with_double_kernel(self):
        # a=1, b=0: both constants and linears satisfy u''=0 and the
        # boundary relations, so the kernel is two dimensional
        g = SpaceGrid.uniform_interior(24)
        A = build_wentzell_operator(g, 1.0, 0.0)
        ev = np.linalg.eigvals(A)
        assert np.abs(ev.imag).max() <= 1e-8
        assert ev.real.min() >= -1e-8
        assert np.sum(np.abs(ev) < 1e-8) == 2
        for v in (np.ones(24), g.nodes):
            assert np.abs(A @ v).max() <= 1e-8

    def test_drift_breaks_extra_kernel(self):
        g = SpaceGrid.uniform_interior(24)
        A = build_wentzell_operator(g, "1+y", "y")
        ev = np.linalg.eigvals(A)
        assert np.abs(ev.imag).max() <= 1e-8
        assert ev.real.min() >= -1e-8
        assert np.sum(np.abs(ev) < 1e-8) == 1

    def test_consistency_second_order(self):
        # phi = y^3(1-y)^3 satisfies a phi'' + b phi' = 0 at both ends
        errs = {}
        for n in (64, 128):
            g = SpaceGrid.uniform_interior(n)
            A = build_wentzell_operator(g, "1+y", "y")
            y = g.nodes
            want = -((1 + y) * _ddphi(y) + y * _dphi(y))
            errs[n] = np.abs((A @ _phi(y)).real - want).max()
        rate = np.log2(errs[64] / errs[128])
        assert rate >= 1.7

    def test_interior_consistency_for_noncompatible_function(self):
        # psi = y^2(1-y)^2 violates the boundary relation, so only rows
        # away from the ends are expected to be consistent
        n = 128
        g = SpaceGrid.uniform_interior(n)
        A = build_wentzell_operator(g, "1+y", "y")
        y = g.nodes
        psi = y**2 * (1 - y) ** 2
        dpsi = 2 * y * (1 - y) ** 2 - 2 * y**2 * (1 - y)
        ddpsi = 2 * (1 - y) ** 2 - 8 * y * (1 - y) + 2 * y**2
        want = -((1 + y) * ddpsi + y * dpsi)
        err = np.abs((A @ psi).real - want)
        assert err[8:-8].max() <= 5e-3

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            build_wentzell_operator(SpaceGrid.uniform_interior(1), 1.0, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64])
    @pytest.mark.parametrize("a, b", [("1+y", "y"), (1.0, 0.0),
                                      ("2+sin(3*y)", "-1+2*y"), ("exp(y)", "10*cos(y)")])
    def test_schur_complement_matches_row_by_row_assembly(self, n, a, b):
        g = SpaceGrid.uniform_interior(n)
        A = build_wentzell_operator(g, a, b)
        assert np.array_equal(A, _row_by_row_wentzell(g, a, b))

    def test_constant_expressions_equal_constants(self):
        g = SpaceGrid.uniform_interior(6)
        assert np.array_equal(build_wentzell_operator(g, "2", "-0.5"),
                              build_wentzell_operator(g, 2.0, -0.5))


@pytest.mark.parametrize("coef", ["2", "2+0*y", 2.0, lambda y: 2.0],
                         ids=["expression", "y-expression", "number", "callable"])
def test_every_coefficient_kind_samples_to_the_grid_shape(coef):
    y = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(_as_coefficient(coef, ("y",))(y=y), np.full(5, 2.0))


def _row_by_row_wentzell(g, a, b):
    """The Wentzell matrix as it was assembled before the Schur form: each
    one-sided stencil point placed in the 2x2 system C or the coupling R,
    then each interior row built with the boundary values substituted."""
    n, h = g.n, g.h
    full = np.linspace(0.0, 1.0, n + 2)
    a_all = np.asarray(_as_coefficient(a, ("y",))(y=full), dtype=float)
    b_all = np.asarray(_as_coefficient(b, ("y",))(y=full), dtype=float)
    left = _one_sided_rows(a_all[0], b_all[0], h)
    right = _one_sided_rows(a_all[-1], -b_all[-1], h)
    C = np.zeros((2, 2))
    R = np.zeros((2, n))
    for k in range(4):
        idx, coef = k, left[k]
        if idx == 0:
            C[0, 0] += coef
        elif idx == n + 1:
            C[0, 1] += coef
        else:
            R[0, idx - 1] += coef
        jdx, coef = n + 1 - k, right[k]
        if jdx == n + 1:
            C[1, 1] += coef
        elif jdx == 0:
            C[1, 0] += coef
        else:
            R[1, jdx - 1] += coef
    S = -mat_solve(C, R)
    A = np.zeros((n, n))
    for j in range(1, n + 1):
        aj, bj = a_all[j], b_all[j]
        cm = -(aj / h**2 - bj / (2 * h))
        cc = -(-2 * aj / h**2)
        cp = -(aj / h**2 + bj / (2 * h))
        row = np.zeros(n)
        row[j - 1] += cc
        if j - 1 >= 1:
            row[j - 2] += cm
        else:
            row += cm * S[0]
        if j + 1 <= n:
            row[j] += cp
        else:
            row += cp * S[1]
        A[j - 1] = row
    return A


class TestIntegralOperator:
    def test_constant_kernel(self):
        g = SpaceGrid.uniform_interior(6)
        B = build_integral_operator(g, 0.5)
        u = np.arange(1.0, 7.0)
        np.testing.assert_allclose(B @ u, 0.5 * np.sum(g.weights * u))

    def test_constant_expression_kernel(self):
        g = SpaceGrid.uniform_interior(6)
        assert np.array_equal(build_integral_operator(g, "0.5"),
                              build_integral_operator(g, 0.5))

    def test_norm_bounded_by_kernel_sup(self):
        g = SpaceGrid.uniform_interior(12)
        B = build_integral_operator(g, "0.5*exp(-(y-tau)^2)")
        assert op_norm(B) <= 0.5 + 1e-12

    def test_matches_direct_loop(self):
        g = SpaceGrid.uniform_interior(5)
        B = build_integral_operator(g, "y*tau+1")
        for i in range(5):
            for j in range(5):
                want = (g.nodes[i] * g.nodes[j] + 1) * g.weights[j]
                assert B[i, j] == pytest.approx(want, rel=1e-14)

    def test_gaussian_kernel_quadrature_accuracy(self):
        # row sums approximate int_0^1 K(y, s) ds to O(h^2)
        n = 200
        g = SpaceGrid.uniform_interior(n)
        B = build_integral_operator(g, "exp(-(y-tau)^2)")
        i = n // 2
        want = quad(lambda s: np.exp(-((g.nodes[i] - s) ** 2)), 0, 1)[0]
        assert float(np.sum(B[i]).real) == pytest.approx(want, rel=1e-4)


class TestConditions:
    def test_condition_1_passes_for_valid_data(self):
        bc = BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0),
                          f1=0.0, f2=0.0)
        rep = check_condition_1(bc)
        assert isinstance(rep, ConditionReport)
        assert rep.passed
        assert rep.details["smallness_lhs"] == 0.0
        assert rep.details["leading_determinant"] != 0

    def test_condition_2_1_small_drift_passes(self):
        pair = OperatorPair([[1.0]], [[0.5]])
        rep = check_condition_2_1(pair)
        assert rep.passed
        assert rep.details["sup_resolvent_ratio"] == pytest.approx(1.0)

    def test_condition_2_1_large_drift_fails(self):
        pair = OperatorPair([[1.0]], [[1.5]])
        assert not check_condition_2_1(pair).passed

    def test_condition_2_1_all_zero_scan_has_no_maximizer(self):
        # A = 0: the shift t = 0 is singular and skipped, every other
        # ratio is 0, and the strict comparison records no sup_at_t
        pair = OperatorPair(np.zeros((2, 2)), np.zeros((2, 2)), check_positive=False)
        rep = check_condition_2_1(pair)
        assert rep.details["skipped_t"] == [0.0]
        assert rep.details["sup_resolvent_ratio"] == 0.0
        assert rep.details["sup_at_t"] is None
        assert not rep.passed

    def test_condition_2_1_skips_singular_shift(self):
        g = SpaceGrid.uniform_interior(8)
        A = build_wentzell_operator(g, 1.0, 0.0)
        pair = OperatorPair(A, np.zeros((8, 8)), grid=g, check_positive=False)
        rep = check_condition_2_1(pair)
        assert 0.0 in rep.details["skipped_t"]
        assert rep.passed  # ||B|| = 0 < sup

    def test_condition_4_1_passes(self):
        g = SpaceGrid.uniform_interior(10)
        rep = check_condition_4_1(g, "1+y", "y", "0.5*exp(-(y-tau)^2)")
        assert rep.passed
        assert rep.details["a_min"] > 0
        assert np.isfinite(rep.details["weight_mass"])

    def test_condition_4_1_flags_sign_failure(self):
        g = SpaceGrid.uniform_interior(10)
        rep = check_condition_4_1(g, "y-2", "0", "1")
        assert not rep.passed
        assert not rep.details["a_positive"]


class TestNorms:
    def test_e_norm_uniform(self):
        assert e_norm(np.ones(5)) == pytest.approx(1.0)
        assert e_norm([3.0]) == pytest.approx(3.0)

    def test_e_norm_weighted(self):
        w = np.array([0.25, 0.75])
        assert e_norm([2.0, 0.0], w) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_e_norm_of_a_stack_and_past_the_float_range(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(e_norm(v, w), [e_norm(row, w) for row in v])
        assert e_norm([1e200, 1e200]) == np.inf

    def test_mixed_norm_of_one(self):
        u = GridFunction(np.linspace(0, 1, 11), np.ones((11, 4)))
        assert mixed_norm(u, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_mixed_norm_of_t(self):
        t = np.linspace(0, 1, 2001)
        u = GridFunction(t, t[:, None].astype(complex))
        assert mixed_norm(u, 2.0) == pytest.approx(1 / np.sqrt(3), abs=1e-6)

    def test_mixed_norm_scales_with_T(self):
        u = GridFunction(np.linspace(0, 2, 21), np.ones((21, 1)))
        assert mixed_norm(u, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_mixed_norm_sup(self):
        t = np.linspace(0, 1, 11)
        u = GridFunction(t, (t * (1 - t))[:, None].astype(complex))
        assert mixed_norm(u, np.inf) == pytest.approx(0.25, abs=1e-12)

    def test_mixed_norm_rejects_small_p(self):
        u = GridFunction(np.linspace(0, 1, 5), np.ones((5, 1)))
        with pytest.raises(ValueError):
            mixed_norm(u, 0.5)

    def test_mixed_norm_rejects_nan_p(self):
        u = GridFunction(np.linspace(0, 1, 5), np.ones((5, 1)))
        with pytest.raises(ValueError, match="p must be >= 1"):
            mixed_norm(u, np.nan)


class TestKFunctionalNorm:
    @pytest.mark.parametrize("a,theta,p", [
        (1.0, 0.25, 2.0), (3.0, 0.75, 2.0), (0.5, 0.5, 1.5), (2.0, 0.25, 4.0),
    ])
    def test_scalar_against_quadrature(self, a, theta, p):
        got = kfunctional_norm([1.0], [[a]], theta, p)

        def integrand(logt):
            t = np.exp(logt)
            return (t ** (-theta) * min(1.0, t * a)) ** p

        lo, _ = quad(integrand, np.log(1e-4), np.log(1 / a), limit=200)
        hi, _ = quad(integrand, np.log(1 / a), np.log(1e4), limit=200)
        assert got == pytest.approx((lo + hi) ** (1 / p), rel=1e-2)

    def test_scalar_against_closed_form(self):
        # untruncated closed form; truncation tails are below the tolerance
        a, theta, p = 1.0, 0.25, 2.0
        closed = a**theta * (1 / ((1 - theta) * p) + 1 / (theta * p)) ** (1 / p)
        got = kfunctional_norm([1.0], [[a]], theta, p)
        assert got == pytest.approx(closed, rel=1e-2)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_homogeneous_in_f(self, c):
        base = kfunctional_norm([1.0], [[2.0]], 0.5, 2.0)
        assert kfunctional_norm([c], [[2.0]], 0.5, 2.0) == pytest.approx(c * base, rel=1e-9)

    def test_diagonal_decouples(self):
        A = np.diag([1.0, 5.0])
        got = kfunctional_norm([1.0, 0.0], A, 0.25, 2.0)
        want = np.sqrt(0.5) * kfunctional_norm([1.0], [[1.0]], 0.25, 2.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_zero_vector(self):
        assert kfunctional_norm([0.0, 0.0], np.eye(2), 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("theta,p", [(0.25, 2.0), (0.75, 2.0), (0.5, 1.0), (0.25, 3.0)])
    def test_matches_regularized_solves_random(self, theta, p):
        rng = np.random.default_rng(29)
        A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        f = rng.normal(size=16) + 1j * rng.normal(size=16)
        w = rng.uniform(0.5, 1.5, size=16)
        want = _kfunctional_by_solves(f, A, theta, p, w)
        assert kfunctional_norm(f, A, theta, p, weights=w) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("theta,p", [(0.25, 1.0), (0.25, 2.0), (0.75, 2.0)])
    def test_matches_regularized_solves_singular(self, theta, p):
        # the dynamic-boundary operator annihilates constants
        g = SpaceGrid.uniform_interior(16)
        A = build_wentzell_operator(g, "1+y", "y")
        w = g.weights
        generic = 1.0 + g.nodes
        off_kernel = generic - np.sum(w * generic)  # W-orthogonal to constants
        for f in (generic, off_kernel):
            got = kfunctional_norm(f, A, theta, p, weights=w)
            assert got == pytest.approx(
                _kfunctional_by_solves(f, A, theta, p, w, stacked=True), rel=1e-8)
            # the pivot guard drops the large-mu candidates, so the guarded
            # envelope is never lower ...
            guarded = _kfunctional_by_solves(f, A, theta, p, w)
            assert got <= guarded * (1 + 1e-12)
            # ... and off the kernel the dropped candidates do not bind
            if f is off_kernel:
                assert got == pytest.approx(guarded, rel=1e-8)

    def test_sup_norm_at_p_inf(self):
        # K(t, 1) = min(1, 2t) for A = [[2]], so the p = inf norm is the
        # largest t^-1/2 min(1, 2t) on the quadrature grid, at most sqrt(2)
        t = np.logspace(-4, 4, 200)
        want = np.max(t ** -0.5 * np.minimum(1.0, 2.0 * t))
        got = kfunctional_norm([1.0], [[2.0]], 0.5, np.inf)
        assert got == pytest.approx(want, rel=1e-12)
        assert 1.4 < got <= np.sqrt(2.0)

    def test_validates_p(self):
        for p in (0.5, np.nan):
            with pytest.raises(ValueError, match="p must be >= 1"):
                kfunctional_norm([1.0], [[1.0]], 0.5, p)

    def test_validates_theta(self):
        with pytest.raises(ValueError):
            kfunctional_norm([1.0], [[1.0]], 0.0, 2.0)
        with pytest.raises(ValueError):
            kfunctional_norm([1.0], [[1.0]], 1.0, 2.0)
