import numpy as np
import pytest
from scipy.integrate import quad

from epslab.discretize import BoundaryData, OperatorPair
from epslab.elliptic import ProblemSpec
from epslab.linalg import SingularMatrix, op_norm
from epslab.multiplier import (
    LineGrid, _symbol, multiplier_bound_scan, resolvent_symbol, whole_line_solve,
)


def dn_bc():
    return BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0),
                        f1=0.0, f2=0.0)


def line_spec(a=1.0, b=0.0, eps=0.01, lam=3.0, f="exp(-64*(t-0.5)^2)"):
    pair = OperatorPair([[a]], [[b]])
    return ProblemSpec(pair=pair, eps=eps, lam=lam, T=1.0, bc=dn_bc(),
                       f=f, n_t=101)


def nodal_values(sol, derivative=0):
    """The solution's derivative at the nodes of its own grid, by one FFT."""
    return np.fft.ifft((1j * sol.grid.xi[:, None]) ** derivative * sol.uhat, axis=0)


class TestLineGrid:
    def test_make(self):
        g = LineGrid.make(8, 4.0)
        assert g.n_x == 8
        assert g.dx == pytest.approx(1.0)
        assert g.x[0] == -4.0
        assert g.x[-1] == pytest.approx(3.0)
        assert np.max(np.abs(g.xi)) == pytest.approx(np.pi / g.dx)

    def test_rejects_non_power_of_two(self):
        for bad in (0, 3, 6, 100):
            with pytest.raises(ValueError):
                LineGrid.make(bad, 4.0)

    def test_rejects_bad_halfwidth(self):
        with pytest.raises(ValueError):
            LineGrid.make(8, 0.0)


class TestWholeLineSolve:
    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_green_function_oracle(self, b):
        # u = G * f with the explicit two-rate exponential kernel
        eps, a, lam = 0.01, 1.0, 3.0
        spec = line_spec(a=a, b=b, eps=eps, lam=lam)
        sol = whole_line_solve(spec, 1024)
        R = np.sqrt(b * b + 4 * eps * (a + lam))
        mu_m = (b - R) / (2 * eps)
        mu_p = (b + R) / (2 * eps)
        fsrc = lambda s: np.exp(-64 * (s - 0.5) ** 2)

        def exact(x):
            i1 = quad(lambda s: np.exp(mu_m * (x - s)) * fsrc(s),
                      0.0, min(x, 1.0), limit=400)[0] if x > 0 else 0.0
            lo = max(x, 0.0)
            i2 = quad(lambda s: np.exp(mu_p * (x - s)) * fsrc(s),
                      lo, 1.0, limit=400)[0] if lo < 1.0 else 0.0
            return (i1 + i2) / R

        xs = np.linspace(-3.5, 3.5, 29)
        got = sol.on_grid(xs)[:, 0].real
        want = np.array([exact(x) for x in xs])
        assert np.abs(got - want).max() <= 1e-8

    def test_resubstitution_residual(self):
        spec = line_spec(a=1.0, b=0.5, eps=0.05, lam=1.0)
        sol = whole_line_solve(spec, 1024)
        x = sol.grid.x
        u, du, ddu = (nodal_values(sol, d) for d in (0, 1, 2))
        fv = np.zeros_like(u)
        m = (x >= 0) & (x <= spec.T)
        fv[m] = spec.f_samples(x[m])
        res = -spec.eps * ddu + 0.5 * du + (1.0 + 1.0) * u - fv
        assert np.abs(res).max() <= 1e-10

    def test_interpolation_matches_nodal_values(self):
        spec = line_spec()
        sol = whole_line_solve(spec, 1024)
        for d in (0, 1, 2):
            want = nodal_values(sol, d)
            got = sol.on_grid(sol.grid.x, derivative=d)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_interpolation_takes_points_in_any_order(self):
        # nodes shuffled and repeated, no two steps alike
        sol = whole_line_solve(line_spec(), 256)
        idx = np.random.default_rng(5).choice(256, size=40)
        for d in (0, 1, 2):
            want = nodal_values(sol, d)[idx]
            got = sol.on_grid(sol.grid.x[idx], derivative=d)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_parseval(self):
        spec = line_spec()
        sol = whole_line_solve(spec, 1024)
        u = nodal_values(sol)
        lhs = np.sum(np.abs(u) ** 2)
        rhs = np.sum(np.abs(sol.uhat) ** 2) / sol.grid.n_x
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_translation_covariance(self):
        # shifting the load support by whole cells shifts the solution
        pair = OperatorPair([[1.0]], [[0.3]])
        g = LineGrid.make(2048, 32.0)  # the solve's window at T = 4
        shift_cells = 16
        shift = shift_cells * g.dx

        def make(f):
            return ProblemSpec(pair=pair, eps=0.05, lam=2.0, T=4.0, bc=dn_bc(),
                               f=f, n_t=101)

        base = whole_line_solve(make("exp(-32*(t-1.0)^2)"), 2048)
        moved = whole_line_solve(make(f"exp(-32*(t-1.0-{shift})^2)"), 2048)
        u0 = nodal_values(base)
        u1 = nodal_values(moved)
        np.testing.assert_allclose(np.roll(u0, shift_cells, axis=0), u1, atol=1e-9)

    def test_matrix_load_decouples_on_diagonal(self):
        A = np.diag([1.0, 4.0])
        pair = OperatorPair(A, np.zeros((2, 2)))
        spec = ProblemSpec(pair=pair, eps=0.01, lam=3.0, T=1.0, bc=dn_bc(),
                           f=lambda t: np.array([np.exp(-64 * (t - 0.5) ** 2), 0.0]),
                           n_t=101)
        sol = whole_line_solve(spec, 1024)
        u = nodal_values(sol)
        assert np.abs(u[:, 1]).max() <= 1e-12
        scalar = whole_line_solve(line_spec(a=1.0, b=0.0), 1024)
        np.testing.assert_allclose(u[:, 0], nodal_values(scalar)[:, 0], atol=1e-12)

    def test_singular_symbol_raises(self):
        # A + lam = 0, so the symbol vanishes at xi = 0
        with pytest.raises(SingularMatrix):
            whole_line_solve(line_spec(a=1.0, lam=-1.0), 1024)

    def test_zero_load(self):
        spec = line_spec(f=None)
        sol = whole_line_solve(spec, 1024)
        assert np.abs(sol.uhat).max() == 0.0


def symbol_solve(spec):
    """uhat by one dense solve of the symbol matrix per frequency."""
    sol = whole_line_solve(spec, 1024)
    x = sol.grid.x
    fvals = np.zeros((len(x), spec.n), dtype=complex)
    m = (x >= 0) & (x <= spec.T)
    fvals[m] = spec.f_samples(x[m])
    M = _symbol(spec.pair.A, spec.pair.B, spec.eps, spec.lam, sol.grid.xi)
    return sol.uhat, np.linalg.solve(M, np.fft.fft(fvals, axis=0)[..., None])[..., 0]


def random_orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


class TestJointEigenbasis:
    # the diagonal solve in the pair's joint eigenbasis against dense
    # solves of the symbol, on pairs that no preset builds
    @pytest.mark.parametrize("eps, lam", [(1e-2, 3.0), (1e-4, 1.0 + 2.0j)])
    def test_rotated_diagonal_pair(self, eps, lam):
        Q = random_orthogonal(6, 5)
        rng = np.random.default_rng(6)
        A = Q @ np.diag(rng.uniform(1.0, 4.0, 6)) @ Q.T
        B = Q @ np.diag(rng.uniform(-1.0, 1.0, 6)) @ Q.T
        spec = ProblemSpec(pair=OperatorPair(A, B), eps=eps, lam=lam, T=1.0,
                           bc=dn_bc(), f="exp(-64*(t-0.5)^2)*(1+y)", n_t=101)
        got, want = symbol_solve(spec)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_identity_with_a_non_diagonal_drift(self):
        G = np.random.default_rng(7).normal(size=(5, 5))
        pair = OperatorPair(np.eye(5), (G + G.T) / 4)
        assert np.abs(pair.B - np.diag(np.diagonal(pair.B))).max() > 0.1
        spec = ProblemSpec(pair=pair, eps=1e-2, lam=2.0, T=1.0, bc=dn_bc(),
                           f="exp(-64*(t-0.5)^2)*(1+y)", n_t=101)
        got, want = symbol_solve(spec)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_defective_pair_has_no_line_solve(self):
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        pair = OperatorPair(J, J)
        assert pair.joint_eigenbasis is None
        spec = ProblemSpec(pair=pair, eps=1e-2, lam=1.0, T=1.0, bc=dn_bc(),
                           f="exp(-64*(t-0.5)^2)", n_t=101)
        with pytest.raises(ValueError, match="joint eigenbasis"):
            whole_line_solve(spec, 1024)


class TestResolventSymbol:
    def test_scalar_formula(self):
        xi = np.array([-2.0, 0.0, 1.0, 10.0])
        Phi = resolvent_symbol([[1.5]], [[0.4]], 0.2, 1.0 + 0.5j, xi)
        want = 1.0 / (1.5 + 1j * xi * 0.4 + 0.2 * xi**2 + 1.0 + 0.5j)
        np.testing.assert_allclose(Phi[:, 0, 0], want, rtol=1e-13)

    def test_matrix_inverse_property(self):
        rng = np.random.default_rng(3)
        A = np.diag([1.0, 2.0, 3.0]) + 0.1 * rng.normal(size=(3, 3))
        A = A @ A.T / 4 + np.eye(3)
        B = 0.2 * np.eye(3)
        xi = np.array([0.0, 1.3, -4.0])
        Phi = resolvent_symbol(A, B, 0.3, 2.0, xi)
        for k, x in enumerate(xi):
            M = A + 1j * x * B + (0.3 * x**2 + 2.0) * np.eye(3)
            np.testing.assert_allclose(Phi[k] @ M, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("lam", [-1 + 1e-15, -1.0])
    def test_a_singular_symbol_raises(self, lam):
        # at xi = 0 the symbol is diag(1 + lam, 2 + lam): its rcond is about
        # 1e-15 at lam = -1 + 1e-15, below solve_cells' guard, and it is
        # exactly singular at lam = -1, as the 1 x 1 symbol 1 + lam is
        A = np.diag([1.0, 2.0])
        with pytest.raises(SingularMatrix):
            resolvent_symbol(A, np.zeros((2, 2)), 0.0, lam, [0.0])
        if lam == -1.0:
            with pytest.raises(SingularMatrix):
                resolvent_symbol([[1.0]], [[0.0]], 0.0, lam, [0.0])


class TestBoundScan:
    def test_scalar_coercive_identity(self):
        # A=1, B=0, eps=1, lam=1: (1+|xi^2+1|)||Phi|| == 1 for every xi
        pair = OperatorPair([[1.0]], [[0.0]])
        rec = multiplier_bound_scan(pair, [1.0], [1.0])[0]
        assert rec["bound_coercive"] == pytest.approx(1.0, abs=1e-10)

    def test_weighted_bound_moderate_across_decades(self):
        pair = OperatorPair([[1.0]], [[0.5]])
        eps_list = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
        recs = multiplier_bound_scan(pair, eps_list, [1.0, 10.0, 100.0])
        for lam in (1.0, 10.0, 100.0):
            vals = [r["bound_weighted"] for r in recs if r["lam"] == lam]
            assert max(vals) / min(vals) < 10.0

    def test_eps_zero_column(self):
        pair = OperatorPair([[1.0]], [[0.5]])
        rec = multiplier_bound_scan(pair, [0.0], [2.0])[0]
        # s = |lam|, Phi = 1/(1 + 0.5 i xi + 2); sup at xi = 0
        assert rec["bound_weighted"] == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_matrix_pair_matches_per_xi_norms(self):
        rng = np.random.default_rng(13)
        G = rng.normal(size=(6, 6))
        pair = OperatorPair(G @ G.T + 6 * np.eye(6), rng.normal(size=(6, 6)))
        xi = np.linspace(-50.0, 50.0, 41)
        rec = multiplier_bound_scan(pair, [0.01], [3.0], xi=xi)[0]
        Phi = resolvent_symbol(pair.A, pair.B, 0.01, 3.0, xi)
        norms = np.array([op_norm(P) for P in Phi])
        want = np.max((1.0 + np.abs(0.01 * xi**2 + 3.0)) * norms)
        assert rec["bound_coercive"] == pytest.approx(want, rel=1e-12)

    def test_record_fields(self):
        pair = OperatorPair([[1.0]], [[0.0]])
        recs = multiplier_bound_scan(pair, [1.0, 0.1], [1.0])
        assert len(recs) == 2
        for r in recs:
            assert {"eps", "lam", "bound_weighted", "bound_coercive",
                    "argmax_xi"} <= set(r)
