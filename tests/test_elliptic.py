import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from epslab.cli import COMPLEXES, REALS, _build_spec, load_config
from epslab.discretize import BoundaryData, OperatorPair, SpaceGrid
from epslab.elliptic import (
    ProblemSpec, QSystem, _boundary_matrix, _orbit, compute_q_system, direct_solve,
    direct_batch, full_solve, homogeneous_solution, mode_derivatives, solve_batch,
)
from epslab import elliptic, linalg
from epslab.linalg import Overflow, SingularMatrix, op_norm, sqrtm
from epslab.multiplier import whole_line_solve
from epslab.presets import dirichlet_neumann, make_pair, make_wentzell_pair, uniformity_base


def scalar_pair(a=1.0, b=0.0):
    return OperatorPair([[a]], [[b]])


def dn_bc(f1=1.0, f2=0.0):
    # value condition at 0, derivative condition at T
    return BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0), f1=f1, f2=f2)


def commuting_pair(n=6, seed=0):
    rng = np.random.default_rng(seed)
    a_diag = 1.0 + 2.0 * rng.uniform(size=n)
    A = np.diag(a_diag)
    B = 0.3 * np.eye(n) + 0.1 * A
    return OperatorPair(A, B)


class TestProblemSpec:
    def test_defaults(self):
        s = ProblemSpec(pair=scalar_pair(), eps=0.5, lam=1.0, T=2.0, bc=dn_bc())
        assert whole_line_solve(s, 1024).grid.halfwidth == 16.0
        assert s.n == 1
        np.testing.assert_allclose(s.t_grid()[[0, -1]], [0.0, 2.0])

    def test_eps_bounds(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                ProblemSpec(pair=scalar_pair(), eps=bad, lam=0.0, T=1.0, bc=dn_bc())
        s = ProblemSpec(pair=scalar_pair(), eps=1.5, lam=0.0, T=1.0, bc=dn_bc())
        assert s.eps == 1.5

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
    def test_T_must_be_finite_and_positive(self, T):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            ProblemSpec(pair=scalar_pair(), eps=0.5, lam=0.0, T=T, bc=dn_bc())

    @pytest.mark.parametrize("lam", [np.inf, complex(1.0, np.nan)], ids=["inf", "nan"])
    def test_lam_must_be_finite(self, lam):
        # refused where the spec is made, so no solver meets it unchecked
        with pytest.raises(ValueError, match="^lam must be finite$"):
            ProblemSpec(pair=commuting_pair(3, 1), eps=0.5, lam=lam, T=1.0, bc=dn_bc())

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ProblemSpec(pair=scalar_pair(), eps=0.5, lam=0.0, T=0.0, bc=dn_bc())
        with pytest.raises(ValueError):
            ProblemSpec(pair=scalar_pair(), eps=0.5, lam=0.0, T=1.0, bc=dn_bc(),
                        n_t=4)

    def test_boundary_dimension_checked(self):
        bad = BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0),
                           f1=np.array([1.0, 2.0]), f2=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(pair=scalar_pair(), eps=0.5, lam=0.0, T=1.0, bc=bad)

    def test_f_sampling_string_and_callable(self):
        s = ProblemSpec(pair=scalar_pair(), eps=0.5, lam=0.0, T=1.0, bc=dn_bc(),
                        f="t^2")
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(s.f_samples(t)[:, 0], t**2)
        s2 = dataclasses.replace(s, f=lambda ti: np.array([3.0 * ti]))
        np.testing.assert_allclose(s2.f_samples(t)[:, 0], 3 * t)
        s0 = dataclasses.replace(s, f=None)
        assert np.array_equal(s0.f_samples(t), np.zeros((3, 1)))

    def test_string_f_in_y(self):
        g = SpaceGrid.uniform_interior(3)
        pair = OperatorPair(np.eye(3), np.zeros((3, 3)), grid=g)
        s = ProblemSpec(pair=pair, eps=0.5, lam=0.0, T=1.0, bc=dn_bc(), f="t+y")
        vals = s.f_samples(np.array([0.0, 1.0]))
        np.testing.assert_allclose(vals[0], g.nodes)
        np.testing.assert_allclose(vals[1], 1.0 + g.nodes)


class TestQSystem:
    def test_frozen_scalar_values(self):
        # eps=1/4, B=3, A=1, lam=0: R = sqrt(10)
        spec = ProblemSpec(pair=scalar_pair(1.0, 3.0), eps=0.25, lam=0.0,
                           T=1.0, bc=dn_bc())
        q = compute_q_system(spec)
        assert q.Q1[0, 0].real == pytest.approx(12.32455532, abs=1e-8)
        assert q.Q2[0, 0].real == pytest.approx(-0.32455532, abs=1e-8)
        assert q.Qlam[0, 0].real == pytest.approx(np.sqrt(10.0), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_algebraic_identities(self, seed):
        pair = commuting_pair(5, seed)
        spec = ProblemSpec(pair=pair, eps=0.3, lam=1.5, T=1.0, bc=dn_bc())
        q = compute_q_system(spec)
        scale = op_norm(q.Qlam)
        # eps(Q1+Q2) = B and eps(Q1-Q2) = Qlam
        assert op_norm(spec.eps * (q.Q1 + q.Q2) - pair.B) <= 1e-9 * scale
        assert op_norm(spec.eps * (q.Q1 - q.Q2) - q.Qlam) <= 1e-9 * scale
        # Qlam squares back to B^2 + 4 eps A_lam
        M = pair.B @ pair.B + 4 * spec.eps * spec.A_lam
        assert op_norm(q.Qlam @ q.Qlam - M) <= 1e-9 * op_norm(M)

    def test_generator_residual_is_commutator_term(self):
        # eps Q^2 - B Q - A_lam = +-(RB - BR)/(4 eps), exactly zero only
        # for commuting pairs
        rng = np.random.default_rng(5)
        A = np.diag([2.0, 3.0, 4.0]) + 0.3 * rng.normal(size=(3, 3))
        A = A + A.T + 3 * np.eye(3)
        B = 0.2 * np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        pair = OperatorPair(A, B, check_positive=False)
        spec = ProblemSpec(pair=pair, eps=0.4, lam=1.0, T=1.0, bc=dn_bc())
        q = compute_q_system(spec)
        R = q.Qlam
        comm = (R @ B - B @ R) / (4 * spec.eps)
        res1 = spec.eps * q.Q1 @ q.Q1 - B @ q.Q1 - spec.A_lam
        res2 = spec.eps * q.Q2 @ q.Q2 - B @ q.Q2 - spec.A_lam
        assert op_norm(res1 - comm) <= 1e-8 * max(op_norm(comm), 1.0)
        assert op_norm(res2 + comm) <= 1e-8 * max(op_norm(comm), 1.0)
        assert op_norm(comm) > 1e-3  # genuinely non-commuting case

    def test_scalar_boundary_oracle(self):
        # -u'' + u = 0 on (0,1), u(0)=1, u'(1)=0
        spec = ProblemSpec(pair=scalar_pair(), eps=1.0, lam=0.0, T=1.0,
                           bc=dn_bc(1.0, 0.0))
        q = compute_q_system(spec)
        want = 1.0 / (1.0 + np.exp(-2.0))
        assert q.g1[0] == pytest.approx(want, abs=1e-8)
        assert q.g2[0] == pytest.approx(1.0 - want, abs=1e-8)
        assert q.h2[0] == pytest.approx(np.exp(-1.0) * want, abs=1e-8)

    def test_semigroup_law(self):
        pair = commuting_pair(4, 3)
        spec = ProblemSpec(pair=pair, eps=0.2, lam=0.5, T=1.0, bc=dn_bc())
        q = compute_q_system(spec)
        from epslab.linalg import expm
        half1 = expm(-0.5 * spec.T * q.G1)
        half2 = expm(-0.5 * spec.T * q.G2)
        assert op_norm(half1 @ half1 - q.E1) <= 1e-8
        assert op_norm(half2 @ half2 - q.E2) <= 1e-8

    @pytest.mark.parametrize("alpha, beta", [((1.0, 0.0), (0.0, 1.0)),
                                             ((0.3 - 0.2j, 1.1), (0.7, 0.4 + 0.5j))])
    def test_boundary_blocks_match_explicit_formulas(self, alpha, beta):
        rng = np.random.default_rng(3)
        G1, G2, E1, E2 = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                          for _ in range(4))
        bc = BoundaryData(alpha=alpha, beta=beta, f1=0.0, f2=0.0)
        eps = 0.37
        eye = np.eye(4, dtype=np.complex128)
        se = np.sqrt(eps)
        a0, a1 = bc.alpha
        b0, b1 = bc.beta
        want = (a0 * eye - se * a1 * G1,
                (a0 * eye + se * a1 * G2) @ E2,
                (b0 * eye - se * b1 * G1) @ E1,
                b0 * eye + se * b1 * G2)
        S = _boundary_matrix(G1, G2, E1, E2, bc, eps)
        got = (S[:4, :4], S[:4, 4:], S[4:, :4], S[4:, 4:])
        for blk, ref in zip(got, want):
            assert np.array_equal(blk, ref)


class TestHomogeneousSolution:
    def test_matches_cosh_solution(self):
        spec = ProblemSpec(pair=scalar_pair(), eps=1.0, lam=0.0, T=1.0,
                           bc=dn_bc(1.0, 0.0), n_t=101)
        u = homogeneous_solution(spec)
        exact = np.cosh(1 - u.t) / np.cosh(1.0)
        assert np.abs(u.values[:, 0] - exact).max() <= 1e-12
        assert u.meta["path"] == "semigroup"

    @pytest.mark.parametrize("seed, alpha, beta, f1, f2, eps, lam, T", [
        (11, (0.5, 1.0), (1.0, 0.0), np.linspace(0.5, 1.0, 5), np.linspace(-1, 0, 5),
         0.25, 1.0, 1.5),
        (7, (1.0, 0.5), (0.2, 1.0), np.linspace(1, 2, 5), np.linspace(-1, 1, 5),
         0.15, 2.0, 1.0),
    ], ids=["robin-value", "robin-robin"])
    def test_residual_and_boundary_functionals(self, seed, alpha, beta, f1, f2,
                                               eps, lam, T):
        pair = commuting_pair(5, seed)
        bc = BoundaryData(alpha=alpha, beta=beta, f1=f1, f2=f2)
        spec = ProblemSpec(pair=pair, eps=eps, lam=lam, T=T, bc=bc, n_t=61)
        t, u, du, ddu = mode_derivatives(spec)
        res = (-spec.eps * ddu + du @ pair.B.T + u @ spec.A_lam.T)
        assert np.abs(res).max() <= 1e-8
        se = np.sqrt(spec.eps)
        f1, f2 = bc.data_for(5)
        l1 = bc.alpha[0] * u[0] + se * bc.alpha[1] * du[0]
        l2 = bc.beta[0] * u[-1] + se * bc.beta[1] * du[-1]
        np.testing.assert_allclose(l1, f1, atol=1e-9)
        np.testing.assert_allclose(l2, f2, atol=1e-9)

    def test_boundary_layer_profile(self):
        # drift b < 0 makes the t=0 mode fast: G1 = (R+|b|)/(2 eps) ~ |b|/eps,
        # a sharp layer of width O(eps) under a value condition at 0
        spec = ProblemSpec(pair=scalar_pair(1.0, -0.5), eps=0.01, lam=0.0,
                           T=1.0, bc=dn_bc(1.0, 0.0), n_t=401)
        u = homogeneous_solution(spec)
        vals = np.abs(u.values[:, 0])
        assert vals[0] == pytest.approx(1.0, rel=1e-9)
        assert vals[u.n_t // 2] < 1e-6

    def test_slow_mode_for_positive_drift(self):
        # drift b > 0: the t=0 mode relaxes at the reduced rate a/b, no layer
        spec = ProblemSpec(pair=scalar_pair(1.0, 0.5), eps=0.01, lam=0.0,
                           T=1.0, bc=dn_bc(1.0, 0.0), n_t=401)
        u = homogeneous_solution(spec)
        vals = np.abs(u.values[:, 0])
        mid = vals[u.n_t // 2]
        # a/b = 2, so u(0.5) ~ exp(-1) up to O(eps)
        assert mid == pytest.approx(np.exp(-1.0), rel=0.05)

    def test_overflow_guard(self):
        pair = OperatorPair([[-10.0]], [[10.0]], check_positive=False)
        spec = ProblemSpec(pair=pair, eps=1.0, lam=0.0, T=100.0, bc=dn_bc(), n_t=5)
        with pytest.raises(Overflow):
            homogeneous_solution(spec)

    def test_orbit_matches_stepping_loop(self):
        rng = np.random.default_rng(3)
        P = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        start = rng.normal(size=6) + 0j
        want = np.empty((9, 6), dtype=np.complex128)
        want[0] = start
        for i in range(1, 9):
            want[i] = P @ want[i - 1]
        scale = np.linalg.norm(want, axis=1)
        # block doubling sums in another order than the loop: compare
        # each row to 1e-13 of its norm, not bit for bit
        got = _orbit(P, start, 9)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_orbit_matches_long_double_stepping(self, n):
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        P = M / (1.02 * np.linalg.norm(M, 2))
        start = rng.normal(size=n) + 1j * rng.normal(size=n)
        for n_t in (1, 2, 3, 9, 1024, 1025, 1601):
            ref = np.empty((n_t, n), dtype=np.clongdouble)
            ref[0] = start
            for i in range(1, n_t):
                ref[i] = P.astype(np.clongdouble) @ ref[i - 1]
            scale = np.max(np.abs(ref))
            got = _orbit(P, start, n_t)
            assert got.shape == (n_t, n)
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_orbit_overflow_is_typed(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                _orbit(np.array([[1e5 + 0j]]), np.array([1 + 0j]), 200)

    @pytest.mark.parametrize("eps", [1e-1, 1e-4])
    def test_matches_per_node_exponentials(self, eps):
        from scipy.linalg import expm as sexpm
        spec = ProblemSpec(pair=make_pair("commuting", n_y=64), eps=eps,
                           lam=0.0, T=1.0, bc=dirichlet_neumann(64), n_t=1601)
        qsys = compute_q_system(spec)
        u = homogeneous_solution(spec)
        want = np.array([sexpm(-t * qsys.G1) @ qsys.g1
                         + sexpm(-(spec.T - t) * qsys.G2) @ qsys.h2
                         for t in u.t])
        assert np.max(np.abs(u.values - want)) <= 1e-12 * np.max(np.abs(want))


def _manufactured_scalar(eps=0.2, lam=0.5, a=1.3, b=0.7, T=1.5):
    ustar = lambda t: np.cos(0.9 * t) + 0.3 * t**2
    dustar = lambda t: -0.9 * np.sin(0.9 * t) + 0.6 * t
    ddustar = lambda t: -0.81 * np.cos(0.9 * t) + 0.6
    f = lambda t: np.array([-eps * ddustar(t) + b * dustar(t) + (a + lam) * ustar(t)])
    se = np.sqrt(eps)
    alpha, beta = (1.0, 0.5), (0.3, 1.0)
    bc = BoundaryData(alpha=alpha, beta=beta,
                      f1=alpha[0] * ustar(0) + se * alpha[1] * dustar(0),
                      f2=beta[0] * ustar(T) + se * beta[1] * dustar(T))
    pair = OperatorPair([[a]], [[b]])
    return pair, bc, f, ustar, eps, lam, T


class TestDirectSolve:
    def test_matches_cosh_solution(self):
        spec = ProblemSpec(pair=scalar_pair(), eps=1.0, lam=0.0, T=1.0,
                           bc=dn_bc(1.0, 0.0), n_t=201)
        u = direct_solve(spec)
        exact = np.cosh(1 - u.t) / np.cosh(1.0)
        assert np.abs(u.values[:, 0] - exact).max() <= 1e-5

    def test_manufactured_second_order(self):
        pair, bc, f, ustar, eps, lam, T = _manufactured_scalar()
        errs = {}
        for nt in (101, 201, 401):
            spec = ProblemSpec(pair=pair, eps=eps, lam=lam, T=T, bc=bc, f=f, n_t=nt)
            u = direct_solve(spec)
            errs[nt] = np.abs(u.values[:, 0] - ustar(u.t)).max()
        assert np.log2(errs[101] / errs[201]) >= 1.8
        assert np.log2(errs[201] / errs[401]) >= 1.8

    def test_matrix_valued_against_semigroup(self):
        pair = commuting_pair(4, 13)
        bc = BoundaryData(alpha=(1.0, 0.0), beta=(0.0, 1.0),
                          f1=np.linspace(1, 2, 4), f2=np.zeros(4))
        spec = ProblemSpec(pair=pair, eps=0.5, lam=1.0, T=1.0, bc=bc, n_t=401)
        ud = direct_solve(spec)
        uh = homogeneous_solution(spec)
        assert np.abs(ud.values - uh.values).max() <= 5e-5


def _dense_fd_solution(spec):
    """Assemble the whole (N n) x (N n) finite difference system and solve it."""
    t = spec.t_grid()
    h = t[1] - t[0]
    n, N = spec.n, spec.n_t
    eye = np.eye(n)
    B = spec.pair.B
    lower = -spec.eps / h**2 * eye - B / (2 * h)
    diag = 2 * spec.eps / h**2 * eye + spec.A_lam
    upper = -spec.eps / h**2 * eye + B / (2 * h)
    a0, a1 = spec.bc.alpha
    b0, b1 = spec.bc.beta
    cl = np.sqrt(spec.eps) * a1 / (2 * h)
    cr = np.sqrt(spec.eps) * b1 / (2 * h)
    K = np.zeros((N, n, N, n), dtype=complex)
    rhs = spec.f_samples(t)
    K[0, :, 0], K[0, :, 1], K[0, :, 2] = (a0 - 3 * cl) * eye, 4 * cl * eye, -cl * eye
    for i in range(1, N - 1):
        K[i, :, i - 1], K[i, :, i], K[i, :, i + 1] = lower, diag, upper
    K[-1, :, -3], K[-1, :, -2], K[-1, :, -1] = cr * eye, -4 * cr * eye, (b0 + 3 * cr) * eye
    rhs[0], rhs[-1] = spec.bc.data_for(n)
    return np.linalg.solve(K.reshape(N * n, N * n), rhs.ravel()).reshape(N, n)


def _peclet_one_spec(eps):
    # h = 0.005 and B = 1: the cell Peclet number |B| h / (2 eps) is 1 at
    # eps = 0.0025, where the upper stencil block is exactly zero
    bc = BoundaryData(alpha=(1.0, 1.0), beta=(1.0, 0.0), f1=1.0, f2=0.5)
    return ProblemSpec(pair=scalar_pair(1.0, 1.0), eps=eps, lam=0.0, T=1.0,
                       bc=bc, n_t=201), 1e-12


def _wentzell_robin_spec(eps, n_t, lam=3.0):
    # non-commuting pair with Robin rows at both ends; n_t = 5 leaves one
    # interior row between the two 2n x 2n end pivots.  The dense system
    # has condition numbers up to ~2e6 here, so the oracle itself is only
    # good to ~1e-11.  A real lam runs the sweep in float64, a complex
    # one in complex128
    pair = make_wentzell_pair(n_y=8)
    bc = BoundaryData(alpha=(1.0, 0.7), beta=(0.4, 1.0),
                      f1=np.ones(8), f2=0.5 * np.ones(8))
    return ProblemSpec(pair=pair, eps=eps, lam=lam, T=1.0, bc=bc,
                       f="exp(-64*(t-0.5)^2)", n_t=n_t), 1e-10


@pytest.mark.parametrize("make, args", [
    *[pytest.param(_peclet_one_spec, (eps,), id=f"peclet1-eps{eps!r}")
      for eps in (0.0025, 0.0025 * (1 + 1e-12), 0.0025 * (1 + 1e-8))],
    *[pytest.param(_wentzell_robin_spec, (eps, n_t), id=f"wentzell-eps{eps:g}-nt{n_t}")
      for eps in (1.0, 1e-2, 1e-4) for n_t in (5, 41)],
    *[pytest.param(_wentzell_robin_spec, (eps, n_t, lam),
                   id=f"wentzell-eps{eps:g}-nt{n_t}-lam{tag}")
      for eps in (1.0, 1e-2, 1e-4) for n_t in (5, 41)
      for lam, tag in ((3 + 2j, "3+2j"), (-0.5j, "-0.5j"))],
])
def test_direct_solve_matches_dense_assembly(make, args):
    spec, rtol = make(*args)
    u = direct_solve(spec).values
    ref = _dense_fd_solution(spec)
    assert np.abs(u - ref).max() <= rtol * np.abs(ref).max()


_END_CONDITIONS = {
    "robin-robin": ((1.0, 0.7), (0.4, 1.0)),
    "dirichlet-neumann": ((1.0, 0.0), (0.0, 1.0)),
    "neumann-dirichlet": ((0.0, 1.0), (1.0, 0.0)),
}


@pytest.mark.parametrize("ends", sorted(_END_CONDITIONS))
@pytest.mark.parametrize("lam", [3.0, 3 + 2j], ids=["float64", "complex128"])
@pytest.mark.parametrize("n_t", [*range(5, 13), 33, 34, 35])
def test_direct_solve_matches_dense_assembly_on_every_reduction_shape(n_t, lam, ends):
    # n_t - 4 rows go through the cyclic reduction: 1 row needs no level,
    # and odd, even and power-of-two counts eliminate or keep the last row
    alpha, beta = _END_CONDITIONS[ends]
    bc = BoundaryData(alpha=alpha, beta=beta, f1=np.ones(4), f2=0.5 * np.ones(4))
    spec = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=1e-2, lam=lam, T=1.0, bc=bc,
                       f="exp(-64*(t-0.5)^2)", n_t=n_t)
    u = direct_solve(spec).values
    ref = _dense_fd_solution(spec)
    assert np.abs(u - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("ends", sorted(_END_CONDITIONS))
@pytest.mark.parametrize("lam", [3.0, 3 + 2j], ids=["float64", "complex128"])
@pytest.mark.parametrize("n_t", [*range(5, 13), 33, 34, 35])
def test_direct_batch_matches_solo_on_every_reduction_shape(n_t, lam, ends):
    alpha, beta = _END_CONDITIONS[ends]
    bc = BoundaryData(alpha=alpha, beta=beta, f1=np.ones(4), f2=0.5 * np.ones(4))
    spec = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=1e-2, lam=lam, T=1.0, bc=bc,
                       f="exp(-64*(t-0.5)^2)", n_t=n_t)
    eps_list = [1.0, 1e-2, 1e-4]
    batch = direct_batch(spec, [(eps, spec.lam) for eps in eps_list])
    assert len(batch) == 3
    for eps, u in zip(eps_list, batch):
        solo = direct_solve(dataclasses.replace(spec, eps=eps)).values
        assert u.meta == {"path": "direct"}
        assert np.abs(u.values - solo).max() <= 1e-13 * np.abs(solo).max()


def test_cyclic_reduction_rows_are_evenly_spaced(monkeypatch):
    # _rows makes a slice of every row class; that is right only because
    # the first, interior and last classes keep every class's rows evenly
    # spaced at every level, which this records for each n_t
    seen, rows = [], elliptic._rows

    def recording(index):
        seen.append(index.copy())
        return rows(index)

    monkeypatch.setattr(elliptic, "_rows", recording)
    bc = BoundaryData(alpha=(1.0, 0.7), beta=(0.4, 1.0), f1=np.ones(2), f2=0.5 * np.ones(2))
    for n_t in range(5, 131):
        spec = ProblemSpec(pair=make_wentzell_pair(n_y=2), eps=1e-2, lam=3.0, T=1.0, bc=bc,
                           f="1", n_t=n_t)
        direct_solve(spec)
    assert len(seen) > 1000
    for index in seen:
        steps = np.diff(index)
        assert len(index) > 0 and (steps > 0).all() and (steps == steps[:1]).all()


def test_direct_solve_factorizations_grow_with_log_n_t(monkeypatch):
    # every factorization is an inverse through linalg.INV, one per cell
    # of its stack; cyclic reduction needs a few per level, not one per
    # time node
    n_t = 801
    bc = BoundaryData(alpha=(1.0, 0.7), beta=(0.4, 1.0), f1=np.ones(16), f2=0.5 * np.ones(16))
    spec = ProblemSpec(pair=make_wentzell_pair(n_y=16), eps=1e-2, lam=3.0, T=1.0, bc=bc,
                       f="exp(-64*(t-0.5)^2)", n_t=n_t)
    count, INV = [0], linalg.INV

    def counting(M):
        count[0] += len(M)
        return INV(M)

    monkeypatch.setattr(linalg, "INV", counting)
    direct_solve(spec)
    assert 0 < count[0] <= 2 * int(np.ceil(np.log2(n_t))) + 4


def _singular_interior_spec(f1, n_t, a1=1.0):
    # diagonal pair, h = 1/4, eps = 1/16: the first component's upper
    # stencil entry is exactly 0 and its diagonal entry 2 + a1 - 3, so
    # every interior pivot from row 3 on is diag(2 + a1 - 3, s)
    pair = OperatorPair(np.diag([a1, 5.0]), np.diag([0.5, 0.5]), check_positive=False)
    bc = BoundaryData(alpha=(1.0, 1.0), beta=(1.0, 0.0), f1=f1, f2=0.0)
    return ProblemSpec(pair=pair, eps=1 / 16, lam=-3.0, T=(n_t - 1) / 4, bc=bc, n_t=n_t)


@pytest.mark.parametrize("f1", [1.0, 1j], ids=["float64", "complex128"])
@pytest.mark.parametrize("a1, rcond", [(1.0, r"0\.000e\+00"), (1.0 + 2.0**-50, r"\d\.\d{3}e-16")])
def test_direct_solve_interior_pivot_guard(monkeypatch, f1, a1, rcond):
    # the failing interior row raises the error mat_solve would raise for
    # its block, and every inverse up to it runs in the data's dtype
    dtypes, INV = [], linalg.INV

    def recording(M):
        dtypes.append(M.dtype)
        return INV(M)

    monkeypatch.setattr(linalg, "INV", recording)
    spec = _singular_interior_spec(f1, n_t=41, a1=a1)
    with pytest.raises(SingularMatrix, match=rf"^rcond {rcond} below 1e-13$"):
        direct_solve(spec)
    assert set(dtypes) == {np.dtype(np.float64 if f1 == 1.0 else np.complex128)}


def test_direct_solve_rejects_non_finite_load():
    # an inf in the load at the interior node t = 0.5 must stop the sweep
    # rather than come back as NaNs
    pair = make_wentzell_pair(n_y=8)
    bc = BoundaryData(alpha=(1.0, 0.7), beta=(0.4, 1.0),
                      f1=np.ones(8), f2=0.5 * np.ones(8))

    def load(t):
        f = np.ones(8)
        if t == 0.5:
            f[3] = np.inf
        return f

    spec = ProblemSpec(pair=pair, eps=1e-2, lam=3.0, T=1.0, bc=bc, f=load, n_t=801)
    assert spec.t_grid()[400] == 0.5
    with pytest.raises(ValueError, match="infs or NaNs"):
        direct_solve(spec)


def _load_spec(lam, size, t_load=None, data=1.0):
    # a finite load of size at the node t_load alone, or at every node
    # when t_load is None, and boundary data data
    bc = BoundaryData(alpha=(1.0, 0.5), beta=(1.0, 1.0), f1=np.full(4, data),
                      f2=np.full(4, data))

    def load(t):
        return np.full(4, size if t_load is None or abs(t - t_load) < 1e-12 else 0.0)

    spec = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=1e-2, lam=lam, T=1.0,
                       bc=bc, f=load, n_t=21)
    return spec


def _assert_scaled_unit_solve(lam, t_load):
    # by linearity the solution is 1e308 times the unit-load solve with
    # zero data, plus the O(1) part of the data: max|u| is about 9e306,
    # and 2.3e307 at t = 0.05, so nothing overflows
    u = direct_solve(_load_spec(lam, 1e308, t_load)).values
    unit = direct_solve(_load_spec(lam, 1.0, t_load, data=0.0)).values
    assert np.abs(u - 1e308 * unit).max() <= 1e-12 * np.abs(u).max()


@pytest.mark.parametrize("t_load", [0.05, 0.5, 0.90, 0.95])
@pytest.mark.parametrize("lam", [3.0, 3 + 2j], ids=["float64", "complex128"])
def test_direct_solve_of_a_1e308_load_is_its_scaled_unit_solve(lam, t_load):
    _assert_scaled_unit_solve(lam, t_load)


@pytest.mark.filterwarnings("error")
def test_direct_solve_last_pivot_load_of_1e308_solves_without_warning():
    # a 1e308 load at t = 0.90 enters the last pivot's right-hand side
    _assert_scaled_unit_solve(3 + 2j, 0.90)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.1, 0.1 + 0.05j], ids=["float64", "complex128"])
def test_direct_solve_raises_when_the_solution_overflows(lam):
    # 1e308 at every node: the unit-load solve exceeds 1.8, so the true
    # solution is past the largest float64; the error is the only signal
    unit = direct_solve(_load_spec(lam, 1.0, data=0.0)).values
    assert np.abs(unit).max() > np.finfo(float).max / 1e308
    with pytest.raises(Overflow, match="non-finite"):
        direct_solve(_load_spec(lam, 1e308))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [3.0, 3 + 2j], ids=["float64", "complex128"])
def test_direct_solve_of_1e308_at_every_node_is_its_scaled_unit_solve(lam):
    # the true max|u| is 3.3e307 (2.8e307 for the complex lam); the data
    # enter the sweep scaled by a power of two, so no intermediate overflows
    unit = direct_solve(_load_spec(lam, 1.0, data=0.0)).values
    u = direct_solve(_load_spec(lam, 1e308, data=0.0)).values
    assert 2.5e307 < np.abs(u).max() < 3.5e307
    assert np.abs(u - 1e308 * unit).max() <= 1e-15 * 1e308
    # and that scaling is exact: a power-of-two load is its unit solve, bit for bit
    assert np.array_equal(direct_solve(_load_spec(lam, 2.0 ** 1000, data=0.0)).values,
                          2.0 ** 1000 * unit)


def test_solve_batch_returns_a_failed_modes_cell_as_its_value():
    # at lam = -5+1j the modes of eps = 1e-6 grow past float64 over (0, 1)
    pair = OperatorPair([[1.0]], [[0.005]], check_positive=False)
    spec = ProblemSpec(pair=pair, eps=1.0, lam=-5 + 1j, T=1.0, bc=dn_bc(), f="1", n_t=51)
    eps_list = [1e-2, 1e-6, 1.0]
    cells = solve_batch(spec, [(eps, spec.lam) for eps in eps_list])
    assert isinstance(cells[1], Overflow)
    assert str(cells[1]) == "semigroup orbit left the representable range"
    with pytest.raises(Overflow, match=str(cells[1])):
        full_solve(dataclasses.replace(spec, eps=1e-6))
    for eps, u in zip(eps_list[::2], cells[::2]):
        assert u.meta == {"path": "modes"}
        assert np.array_equal(u.values, full_solve(dataclasses.replace(spec, eps=eps)).values)


@pytest.mark.parametrize("pair", [commuting_pair(3, 1), make_wentzell_pair(n_y=4)],
                         ids=["modes", "direct"])
def test_solve_batch_raises_for_an_inadmissible_eps(pair):
    spec = ProblemSpec(pair=pair, eps=1.0, lam=1.0, T=1.0, bc=dn_bc(), n_t=21)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        solve_batch(spec, [(1.0, 1.0), (-1.0, 1.0)])


@pytest.mark.parametrize("n_t, eps", [(41, 1e305), (41, 1.7e308), (801, 2.9e302)])
def test_direct_solve_of_an_overflowing_stencil_is_overflow(n_t, eps):
    # eps / h^2 leaves float64, so the first pivot's blocks are not
    # finite: that is overflow, raised with no warning, as for the blocks
    # of the last pivot and of the reduction
    spec = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=eps, lam=1.0, T=1.0,
                       bc=dn_bc(), f="1", n_t=n_t)
    with pytest.raises(Overflow, match="^finite difference sweep overflowed"):
        direct_solve(spec)


def test_direct_batch_keeps_an_overflowing_cell_apart():
    spec = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=1e-2, lam=1.0, T=1.0,
                       bc=dn_bc(), f="1", n_t=41)
    good, bad = direct_batch(spec, [(1e-2, 1.0), (1e305, 1.0)])
    assert isinstance(bad, Overflow)
    assert np.array_equal(good.values, direct_solve(spec).values)


@pytest.mark.parametrize("preset", ["scalar", "commuting"])
@pytest.mark.parametrize("eps, lam", [(1.7e308, 1.0), (1.0, 1e308)])
def test_mode_solve_of_an_overflowing_discriminant_is_overflow(preset, eps, lam):
    # b^2 + 4 eps (a + lam) is inf: no root near the branch cut, overflow
    spec = ProblemSpec(pair=make_pair(preset), eps=eps, lam=lam, T=1.0, bc=dn_bc(),
                       f="1", n_t=41)
    with pytest.raises(Overflow, match="^b\\^2 \\+ 4 eps \\(a \\+ lam\\) overflowed"):
        full_solve(spec)


@pytest.mark.parametrize("lam", [np.inf, complex(1.0, np.nan)], ids=["inf", "nan"])
@pytest.mark.parametrize("pair", [commuting_pair(3, 1), make_wentzell_pair(n_y=4)],
                         ids=["modes", "direct"])
def test_solve_batch_raises_for_a_non_finite_lam(pair, lam):
    # like an inadmissible eps, on both routes
    spec = ProblemSpec(pair=pair, eps=1.0, lam=1.0, T=1.0, bc=dn_bc(), f="1", n_t=21)
    with pytest.raises(ValueError, match="^lam must be finite$"):
        solve_batch(spec, [(1.0, 1.0), (1.0, lam)])


@pytest.mark.parametrize("loaded", [True, False], ids=["load", "zero-load"])
def test_direct_batch_peaks_below_three_solutions(loaded):
    # the cyclic reduction works in the solution array: no per-cell copy
    # of the load, no per-level load or solution buffers, no result copy,
    # and no solve concatenates a block's coupling with its load
    cfg = load_config(Path(__file__).resolve().parent / "golden" / "sweep-fd.ini")
    eps_list = cfg.get("sweep", "eps_list", REALS)
    lam_list = cfg.get("sweep", "lambda_list", COMPLEXES)
    spec = _build_spec(cfg, "wentzell", eps_list, lam=lam_list[0])
    spec = spec if loaded else dataclasses.replace(spec, f=None)
    cells = [(eps, lam) for lam in lam_list for eps in eps_list]
    assert len(cells) == 15 and (spec.loads is None) != loaded
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = direct_batch(spec, cells)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(u.values.nbytes for u in out)


def _with_load(spec, loads):
    """spec with the load whose samples on spec's time grid are loads, as
    a callable f."""
    rows = dict(zip(spec.t_grid().tolist(), loads))
    return dataclasses.replace(spec, f=lambda t: rows[t])


@pytest.mark.parametrize("preset", ["commuting", "wentzell"])
def test_solve_batch_of_a_non_finite_load_fails_every_cell(preset):
    spec = uniformity_base(preset, n_t=51)
    loads = spec.loads.copy()
    loads[7, 0] = np.nan
    cells = solve_batch(_with_load(spec, loads), [(1.0, 1.0), (1e-2, 3 + 2j), (1e-4, 10.0)])
    assert [type(c) for c in cells] == [ValueError] * 3
    assert {str(c) for c in cells} == {"array must not contain infs or NaNs"}


ROUTES = [("commuting", "modes"), ("scalar", "modes"), ("wentzell", "direct")]


@pytest.mark.parametrize("n_t", [51, 201])
@pytest.mark.parametrize("preset, path", ROUTES)
def test_modes_batch_cells_are_their_solo_solves(preset, path, n_t):
    # a batch mixing real and complex lam solves one kind per stack on
    # every route: each cell's numbers are those of its own full_solve,
    # bit for bit and in its dtype
    spec = uniformity_base(preset, n_t=n_t)
    cells = [(eps, lam) for lam in [1.0, 3 + 2j, 10.0, 100.0] for eps in [1.0, 1e-2, 1e-4]]
    batch = solve_batch(spec, cells)
    assert len(batch) == len(cells)
    for (eps, lam), u in zip(cells, batch):
        solo = full_solve(dataclasses.replace(spec, eps=eps, lam=lam))
        assert u.meta == solo.meta == {"path": path}
        assert u.values.dtype == solo.values.dtype
        assert np.array_equal(u.values, solo.values)


@pytest.mark.parametrize("preset", [preset for preset, _ in ROUTES])
def test_an_empty_batch_is_no_cells(preset):
    spec = uniformity_base(preset, n_t=51)
    assert solve_batch(spec, []) == []
    assert direct_batch(spec, []) == []


def _stacks(batch):
    """(index, dtype) of each solution stack of batch, with every solved
    cell's values checked to share memory with its row."""
    for index, stack in batch.stacks:
        assert stack.shape[0] == len(index)
        for k, i in enumerate(index):
            if not isinstance(batch[i], Exception):
                assert np.shares_memory(batch[i].values, stack[k])
    return [(index, stack.dtype) for index, stack in batch.stacks]


@pytest.mark.parametrize("preset, path", ROUTES)
def test_a_batch_hands_out_one_stack_per_kind_of_lam(preset, path):
    # the stacks partition the cells by the kind of their lam, in the
    # order the kinds first occur, and the GridFunctions view their rows
    spec = uniformity_base(preset, n_t=51)
    batch = solve_batch(spec, [(1, 1), (1e-2, 3 + 2j), (1e-4, 10), (1, 1j)])
    assert _stacks(batch) == [([0, 2], np.float64), ([1, 3], np.complex128)]
    assert [u.meta for u in batch] == [{"path": path}] * 4


def test_a_failed_cell_keeps_its_row_in_the_stack():
    # the eps = 1e-6 orbit overflows at lam = -5+1j: that cell's entry is
    # its error, and its row stays in the stack of its kind
    pair = OperatorPair(np.array([[1.0]]), np.array([[0.005]]), check_positive=False)
    spec = dataclasses.replace(uniformity_base("scalar", n_t=51), pair=pair, f="1")
    batch = solve_batch(spec, [(1e-2, -5 + 1j), (1e-6, -5 + 1j), (1.0, 2.0)])
    assert _stacks(batch) == [([0, 1], np.complex128), ([2], np.float64)]
    assert isinstance(batch[1], Overflow)
    assert str(batch[1]) == "semigroup orbit left the representable range"
    assert [u.meta for u in batch[::2]] == [{"path": "modes"}] * 2


@pytest.mark.parametrize("n_t", [5, 6, 9, 33, 201])
def test_fd_batch_inverts_per_level_not_per_cell(monkeypatch, n_t):
    # the end pivots and the cyclic reduction's levels each invert one
    # stack over all the cells: the solve_cells calls of a batch follow
    # its n_t alone, at most 3 + 2 ceil(log2(n_t - 4))
    calls = [0]
    solve_cells = elliptic.solve_cells

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve_cells(*args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_cells", counting)
    spec = uniformity_base("wentzell", n_t=n_t)
    cells = [(eps, lam) for lam in [1.0, 10.0, 100.0] for eps in [1.0, 1e-1, 1e-2, 1e-3, 1e-4]]
    counts = []
    for n_cells in (1, 5, 15):
        calls[0] = 0
        assert all(u.meta == {"path": "direct"} for u in direct_batch(spec, cells[:n_cells]))
        counts.append(calls[0])
    assert counts[0] == counts[1] == counts[2] <= 3 + 2 * math.ceil(math.log2(n_t - 4))


def _sweep_split_cells():
    """The spec and the 15 (eps, lam) cells of the sweep-split golden scenario."""
    cfg = load_config(Path(__file__).resolve().parent / "golden" / "sweep-split.ini")
    eps_list = cfg.get("sweep", "eps_list", REALS)
    lam_list = cfg.get("sweep", "lambda_list", COMPLEXES)
    spec = _build_spec(cfg, "commuting", eps_list, lam=lam_list[0])
    return spec, [(eps, lam) for lam in lam_list for eps in eps_list]


def test_modes_batch_takes_phi_once_per_kind(monkeypatch):
    # every cell's increment weights come from one _phi per dtype kind
    spec, cells = _sweep_split_cells()
    calls = []
    phi = elliptic._phi
    monkeypatch.setattr(elliptic, "_phi", lambda z, k: calls.append(len(z)) or phi(z, k))
    solve_batch(spec, cells)
    assert calls == [15 * 2 * spec.n]
    calls.clear()
    solve_batch(spec, cells + [(1e-2, 3 + 2j), (1.0, 1j)])
    assert calls == [15 * 2 * spec.n, 2 * 2 * spec.n]


def test_modes_batch_peaks_below_two_solutions():
    # one workspace per kind, and the solutions are rows of one stack
    spec, cells = _sweep_split_cells()
    assert len(cells) == 15 and spec.loads is not None
    solve_batch(spec, cells)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = solve_batch(spec, cells)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(u.values.base is out[0].values.base for u in out)
    assert peak < 2 * sum(u.values.nbytes for u in out)


def _sequential_scan(P, x):
    """x_k += P x_(k-1), in order, in long double."""
    wide = np.clongdouble if np.iscomplexobj(P) else np.longdouble
    x, P = x.astype(wide), P.astype(wide)
    for k in range(1, len(x)):
        x[k] += P * x[k - 1]
    return x


@pytest.mark.parametrize("dtype", [float, complex])
def test_scan_is_the_sequential_recurrence(dtype):
    # the Brent-Kung scan reassociates the sums: within 4e-15 of the
    # largest sum of magnitudes sum_j |P|^(k-j) |x_j| of the exact
    # recurrence, at every length up to 70 and around the powers of two,
    # for |P| from 1e-6 to 1 - 1e-9 of either sign or of any phase.  For
    # same-signed x and P > 0 that scale is max |x|
    rng = np.random.default_rng(11)
    modulus = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9])
    P = modulus * (np.exp(1j * rng.uniform(-np.pi, np.pi, len(modulus)))
                   if dtype is complex else np.sign(rng.uniform(-1, 1, len(modulus))))
    for n_t in [*range(1, 71), 127, 128, 129, 255, 256, 257, 801, 1024, 1025]:
        x = rng.normal(size=(n_t, len(P))) + (1j * rng.normal(size=(n_t, len(P)))
                                               if dtype is complex else 0)
        want = _sequential_scan(P, x)
        scale = _sequential_scan(np.abs(P), np.abs(x)).max()
        elliptic._scan(P, x, np.empty((n_t // 2, len(P)), x.dtype))
        assert np.abs(x - want).max() <= 4e-15 * scale, n_t


def _data_times_1j(spec):
    """spec with its boundary vectors multiplied by 1j."""
    return dataclasses.replace(spec, bc=dataclasses.replace(
        spec.bc, f1=1j * spec.bc.f1, f2=1j * spec.bc.f2))


@pytest.mark.parametrize("lam", [1.0, 100.0])
@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize("preset, path", ROUTES)
def test_real_solve_is_its_solve_with_data_times_1j_over_1j(preset, path, eps, lam):
    # u is linear in the data: the copy with load and boundary data times
    # 1j is forced onto complex128, and its solution over 1j must be the
    # float64 one
    spec = uniformity_base(preset)
    u, = solve_batch(spec, [(eps, lam)])
    u1j, = solve_batch(_with_load(_data_times_1j(spec), 1j * spec.loads), [(eps, lam)])
    assert u.meta == u1j.meta == {"path": path}
    assert (u.values.dtype, u1j.values.dtype) == (np.float64, np.complex128)
    assert np.abs(u1j.values / 1j - u.values).max() <= 1e-12 * np.abs(u.values).max()


@pytest.mark.parametrize("preset, path", ROUTES)
def test_real_cells_solve_in_float64_and_the_rest_in_complex128(preset, path):
    spec = uniformity_base(preset, n_t=51)
    real, = solve_batch(spec, [(1e-2, 3.0)])
    complex_lam, = solve_batch(spec, [(1e-2, 3 + 2j)])
    complex_bc, = solve_batch(_data_times_1j(spec), [(1e-2, 3.0)])
    assert real.meta == complex_lam.meta == complex_bc.meta == {"path": path}
    assert real.values.dtype == np.float64
    assert complex_lam.values.dtype == complex_bc.values.dtype == np.complex128
    # every route picks the dtype per kind of lam, not per batch
    mixed = solve_batch(spec, [(1e-2, 3.0), (1e-2, 3 + 2j)])
    assert mixed[0].values.dtype == np.float64


def test_an_oscillatory_modes_cell_solves_in_complex128():
    # b^2 + 4 eps (a + lam) = -0.16 + 0.04j: both roots are mostly imaginary
    pair = OperatorPair([[1.0]], [[0.005]], check_positive=False)
    spec = ProblemSpec(pair=pair, eps=1e-2, lam=-5 + 1j, T=1.0, bc=dn_bc(), f="1", n_t=51)
    u = full_solve(spec)
    assert u.meta == {"path": "modes"} and u.values.dtype == np.complex128
    # with real data and a real lam a negative b^2 + 4 eps (a + lam) lies on
    # the branch cut and raises, so float64 cells only ever see real roots
    with pytest.raises(linalg.SqrtNotConverged, match="branch cut"):
        full_solve(dataclasses.replace(spec, lam=-5.0))


def test_a_real_fd_cell_batched_with_a_complex_one_is_its_solo_solve():
    # the real cell solves in its own float64 stack, bit for bit its solo solve
    spec = uniformity_base("wentzell", n_t=201)
    for eps in (1.0, 1e-2, 1e-4):
        real, cplx = direct_batch(spec, [(eps, 3.0), (eps, 3 + 2j)])
        solo, = direct_batch(spec, [(eps, 3.0)])
        assert (real.values.dtype, cplx.values.dtype, solo.values.dtype) == (
            np.float64, np.complex128, np.float64)
        assert np.array_equal(real.values, solo.values)


class TestFullSolve:
    def test_path_modes_without_a_load(self):
        spec = ProblemSpec(pair=commuting_pair(3, 1), eps=0.5, lam=1.0, T=1.0,
                           bc=dn_bc(), n_t=51)
        u = full_solve(spec)
        assert u.meta["path"] == "modes"
        ref = homogeneous_solution(spec).values
        assert np.abs(u.values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_path_modes_for_commuting_load(self):
        spec = ProblemSpec(pair=commuting_pair(3, 1), eps=0.5, lam=1.0, T=1.0,
                           bc=dn_bc(), f="exp(-64*(t-0.5)^2)", n_t=51)
        assert full_solve(spec).meta["path"] == "modes"

    def test_path_direct_for_a_commuting_pair_without_eigenbasis(self):
        J = np.array([[2.0, 1.0], [0.0, 2.0]])
        spec = ProblemSpec(pair=OperatorPair(J, J), eps=0.5, lam=1.0, T=1.0,
                           bc=dn_bc(), f="exp(-64*(t-0.5)^2)", n_t=51)
        u = full_solve(spec)
        assert u.meta["path"] == "direct"
        assert np.array_equal(u.values, direct_solve(spec).values)
        assert full_solve(dataclasses.replace(spec, f=None)).meta["path"] == "direct"

    def test_load_zero_at_its_samples_is_no_load(self):
        spec = ProblemSpec(pair=commuting_pair(3, 1), eps=0.5, lam=1.0, T=1.0,
                           bc=dn_bc(), f="0*t", n_t=51)
        u = full_solve(spec)
        assert np.array_equal(u.values, full_solve(dataclasses.replace(spec, f=None)).values)

    def test_path_direct_for_noncommuting(self):
        A = np.array([[2.0, 0.5], [0.0, 3.0]])
        B = np.array([[0.3, 0.0], [0.2, 0.4]])
        pair = OperatorPair(A, B)
        spec = ProblemSpec(pair=pair, eps=0.3, lam=0.5, T=1.0, bc=dn_bc(), n_t=51)
        u = full_solve(spec)
        assert u.meta["path"] == "direct"

    def test_cross_validation_scalar(self):
        # smooth load decaying below 1e-7 at the support edges: both solver
        # routes must agree up to the finite difference error
        pair = OperatorPair([[1.3]], [[0.7]])
        bc = BoundaryData(alpha=(1.0, 0.5), beta=(0.3, 1.0),
                          f1=0.8, f2=-0.4)
        spec = ProblemSpec(pair=pair, eps=0.2, lam=0.5, T=2.0, bc=bc,
                           f="exp(-16*(t-1)^2)", n_t=801)
        u = full_solve(spec)
        assert u.meta["path"] == "modes"
        ud = direct_solve(spec)
        assert np.abs(u.values - ud.values).max() <= 1e-5

    def test_boundary_functionals_reproduced(self):
        pair = commuting_pair(4, 17)
        bc = BoundaryData(alpha=(2.0, 0.0), beta=(0.5, 1.0),
                          f1=np.linspace(1, 2, 4), f2=np.linspace(0, 1, 4))
        spec = ProblemSpec(pair=pair, eps=0.3, lam=1.0, T=1.0, bc=bc,
                           f="sin(3*t)*exp(-16*(t-0.5)^2)", n_t=801)
        u = full_solve(spec)
        h = u.dt
        du0 = (-3 * u.values[0] + 4 * u.values[1] - u.values[2]) / (2 * h)
        duT = (3 * u.values[-1] - 4 * u.values[-2] + u.values[-3]) / (2 * h)
        se = np.sqrt(spec.eps)
        f1, f2 = bc.data_for(4)
        l1 = bc.alpha[0] * u.values[0] + se * bc.alpha[1] * du0
        l2 = bc.beta[0] * u.values[-1] + se * bc.beta[1] * duT
        np.testing.assert_allclose(l1, f1, atol=5e-5)
        np.testing.assert_allclose(l2, f2, atol=5e-5)


ROBIN = BoundaryData(alpha=(1.0, 0.7), beta=(0.4, 1.0), f1=0.8, f2=-0.4)
COMMUTING_LOADS = {"one": "1", "sin": "sin(3*t)", "bump": "exp(-64*(t-0.5)^2)*(1+0.2*y)"}


def _constant_load_closed_form(a, b, eps, lam, bc, T, t):
    """u of -eps u'' + b u' + (a + lam) u = 1 with bc: 1/(a + lam) plus
    the two exponentials, from numpy's roots and a dense 2 x 2 solve."""
    c = a + lam
    r_minus, r_plus = sorted(np.roots([eps, -b, -c]), key=lambda r: r.real)
    se = np.sqrt(eps)
    (a0, a1), (b0, b1) = bc.alpha, bc.beta
    S = [[a0 + se * a1 * r_minus, (a0 + se * a1 * r_plus) * np.exp(-r_plus * T)],
         [(b0 + se * b1 * r_minus) * np.exp(r_minus * T), b0 + se * b1 * r_plus]]
    f1, f2 = bc.data_for(1)
    alpha, beta = np.linalg.solve(S, [f1[0] - a0 / c, f2[0] - b0 / c])
    return 1.0 / c + alpha * np.exp(r_minus * t) + beta * np.exp(r_plus * (t - T))


class TestModeSolve:
    @pytest.mark.parametrize("bc", [dn_bc(1.0, 0.5), ROBIN], ids=["dirichlet-neumann", "robin"])
    @pytest.mark.parametrize("eps, lam, n_t", [(1e-2, 1.0, 201), (1e-4, 3 + 2j, 801),
                                               (0.3, 1.0, 5)])
    def test_scalar_constant_load_matches_closed_form(self, bc, eps, lam, n_t):
        spec = ProblemSpec(pair=scalar_pair(1.3, 0.7), eps=eps, lam=lam, T=1.0, bc=bc,
                           f="1", n_t=n_t)
        u = full_solve(spec)
        want = _constant_load_closed_form(1.3, 0.7, eps, lam, bc, 1.0, u.t)
        assert np.abs(u.values[:, 0] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("lam", [1.0, 3 + 2j])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("load", sorted(COMMUTING_LOADS))
    def test_commuting_matches_itself_on_a_grid_eight_times_finer(self, load, eps, lam):
        spec = ProblemSpec(pair=make_pair("commuting"), eps=eps, lam=lam, T=1.0,
                           bc=dirichlet_neumann(8), f=COMMUTING_LOADS[load], n_t=801)
        u = full_solve(spec).values
        fine = full_solve(dataclasses.replace(spec, n_t=6401)).values[::8]
        assert np.abs(u - fine).max() <= 1e-12 * np.abs(fine).max()

    @pytest.mark.parametrize("bc", [dirichlet_neumann(8), ROBIN],
                             ids=["dirichlet-neumann", "robin"])
    def test_bump_matches_the_fourier_reference(self, bc):
        # the whole-line solve on its own grid, plus the semigroup modes
        # for the boundary data it leaves over
        spec = ProblemSpec(pair=make_pair("commuting"), eps=1e-2, lam=1.0, T=1.0, bc=bc,
                           f=COMMUTING_LOADS["bump"], n_t=401)
        t = spec.t_grid()
        line = whole_line_solve(spec, 2048)
        u1, du1 = line.on_grid(t), line.on_grid(t[[0, -1]], derivative=1)
        f1, f2 = bc.data_for(8)
        rest = dataclasses.replace(bc, f1=f1 - bc.apply(1, u1[0], du1[0], spec.eps),
                                   f2=f2 - bc.apply(2, u1[-1], du1[-1], spec.eps))
        want = u1 + homogeneous_solution(dataclasses.replace(spec, bc=rest, f=None)).values
        u = full_solve(spec).values
        assert np.abs(u - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("n_t", [5, 6, 7, 12])
    def test_loads_of_degree_below_the_stencil_width_are_exact_at_any_n_t(self, n_t):
        # the interpolant of a quartic is the quartic itself, so every grid
        # reads the same exact solution
        spec = ProblemSpec(pair=make_pair("commuting", n_y=4), eps=1e-2, lam=3 + 2j, T=1.0,
                           bc=ROBIN, f="(1+y)*(t^4-t+0.5)", n_t=n_t)
        u = full_solve(spec)
        fine = full_solve(dataclasses.replace(spec, n_t=4 * (n_t - 1) + 1)).values[::4]
        assert np.abs(u.values - fine).max() <= 1e-12 * np.abs(fine).max()

    def test_branch_cut_is_a_sqrt_failure(self):
        spec = ProblemSpec(pair=scalar_pair(1.0, 0.0), eps=1.0, lam=-5.0, T=1.0, bc=dn_bc(),
                           n_t=51)
        with pytest.raises(linalg.SqrtNotConverged, match="branch cut"):
            full_solve(spec)

    @pytest.mark.parametrize("eps, lam", [(1e-6, 1.0), (1e-2, 3 + 2j)])
    def test_negative_drift_constant_load_matches_closed_form(self, eps, lam):
        # b < 0 takes q = b - s; b + s would cancel to 1e-5 |b| at eps = 1e-6
        spec = ProblemSpec(pair=scalar_pair(1.3, -0.7), eps=eps, lam=lam, T=1.0, bc=ROBIN,
                           f="1", n_t=201)
        u = full_solve(spec)
        want = _constant_load_closed_form(1.3, -0.7, eps, lam, ROBIN, 1.0, u.t)
        assert np.abs(u.values[:, 0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_degenerate_pair_is_solved_in_its_rotated_basis(self):
        # A + B / sqrt(2) = (1 + 1/sqrt(2)) I: the rotated pair takes the modes
        # route and returns the diagonal pair's solution, rotated
        Q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(2, 2)))
        a, b = np.array([1.0, 1.0 + 0.5 ** 0.5]), np.array([1.0, 0.0])
        bc = BoundaryData(alpha=(1.0, 0.7), beta=(0.4, 1.0), f1=np.array([0.8, -0.3]),
                          f2=np.array([-0.4, 0.2]))

        def load(t):
            return np.array([np.exp(-64 * (t - 0.5) ** 2), np.sin(3 * t)])

        diag = ProblemSpec(pair=OperatorPair(np.diag(a), np.diag(b)), eps=1e-2, lam=1.0,
                           T=1.0, bc=bc, f=load, n_t=401)
        rotated = dataclasses.replace(
            diag, pair=OperatorPair(Q @ np.diag(a) @ Q.T, Q @ np.diag(b) @ Q.T),
            bc=dataclasses.replace(bc, f1=Q @ bc.f1, f2=Q @ bc.f2), f=lambda t: Q @ load(t))
        u = full_solve(rotated)
        assert u.meta["path"] == "modes"
        want = full_solve(diag).values @ Q.T
        assert np.abs(u.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_load_and_boundary_data_superpose(self):
        spec = ProblemSpec(pair=make_pair("commuting", n_y=4), eps=1e-3, lam=3 + 2j, T=1.0,
                           bc=ROBIN, f=COMMUTING_LOADS["bump"], n_t=401)
        homogeneous = dataclasses.replace(spec, bc=dataclasses.replace(ROBIN, f1=0.0, f2=0.0))
        u = full_solve(spec).values
        parts = full_solve(homogeneous).values + full_solve(dataclasses.replace(spec, f=None)).values
        assert np.abs(u - parts).max() <= 1e-13 * np.abs(u).max()

    def test_singular_boundary_system_raises(self):
        # u(0) = 0 and beta0 u(T) + sqrt(eps) u'(T) = 0 with beta0 chosen so
        # that a combination of the two exponentials meets both: the
        # homogeneous problem has a nonzero solution
        eps, a, b, lam, T = 0.3, 1.0, 0.5, 1.0, 1.0
        r_minus, r_plus = sorted(np.roots([eps, -b, -(a + lam)]).real)
        k = np.exp((r_minus - r_plus) * T)
        beta0 = np.sqrt(eps) * (k * r_minus - r_plus) / (1.0 - k)
        bc = BoundaryData(alpha=(1.0, 0.0), beta=(beta0, 1.0), f1=1.0, f2=0.0)
        spec = ProblemSpec(pair=scalar_pair(a, b), eps=eps, lam=lam, T=T, bc=bc, n_t=51)
        with pytest.raises(SingularMatrix, match="scaled determinant"):
            full_solve(spec)

    def test_rejects_non_finite_loads(self):
        spec = ProblemSpec(pair=make_pair("commuting", n_y=4), eps=1e-2, lam=1.0, T=1.0,
                           bc=ROBIN, n_t=51)
        loads = np.ones((51, 4))
        loads[17, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            full_solve(_with_load(spec, loads))


LOAD_PAIRS = pytest.mark.parametrize(
    "pair, path", [(make_pair("commuting", n_y=4), "modes"),
                   (OperatorPair([[2.0, 0.5], [0.0, 3.0]], [[0.3, 0.0], [0.2, 0.4]]), "direct")],
    ids=["modes", "direct"])


class TestLoads:
    """ProblemSpec.loads, the one sampling of the load on the time grid."""

    @staticmethod
    def spec(pair, f="exp(-64*(t-0.5)^2)"):
        return ProblemSpec(pair=pair, eps=1e-2, lam=1.0, T=1.0, bc=ROBIN, f=f, n_t=101)

    @LOAD_PAIRS
    def test_loads_are_the_samples_on_the_time_grid(self, pair, path):
        spec = self.spec(pair)
        assert spec.loads.shape == (101, pair.n)
        assert np.array_equal(spec.loads, spec.f_samples(spec.t_grid()))

    @LOAD_PAIRS
    def test_loads_are_read_only_and_sampled_once(self, pair, path):
        spec = self.spec(pair)
        loads = spec.loads
        assert spec.loads is loads
        assert not loads.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            loads[0, 0] = 1.0

    @LOAD_PAIRS
    def test_a_spec_without_a_load_has_none(self, pair, path):
        spec = self.spec(pair, f=None)
        assert spec.loads is None
        assert full_solve(spec).meta["path"] == path

    @LOAD_PAIRS
    def test_a_replaced_spec_samples_its_own_load(self, pair, path):
        spec = self.spec(pair)
        loads = spec.loads
        same = dataclasses.replace(spec, eps=1e-3)
        assert same.loads is not loads and np.array_equal(same.loads, loads)
        for changed in (dataclasses.replace(spec, f="exp(-64*(t-0.25)^2)"),
                        dataclasses.replace(spec, n_t=201)):
            assert np.array_equal(changed.loads, changed.f_samples(changed.t_grid()))
        assert dataclasses.replace(spec, f=None).loads is None

    @LOAD_PAIRS
    def test_spec_is_frozen(self, pair, path):
        spec = self.spec(pair)
        loads = spec.loads
        for name, value in (("eps", 1e-3), ("f", None), ("n_t", 201), ("loads", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        assert spec.loads is loads

    @LOAD_PAIRS
    def test_the_solve_sees_the_load_only_through_its_samples(self, pair, path):
        spec = self.spec(pair)
        u = full_solve(spec)
        assert u.meta["path"] == path
        tabulated = full_solve(_with_load(spec, spec.loads))
        assert np.array_equal(tabulated.values, u.values)


# |z| below and above PHI_TAYLOR_RADIUS = 2, so both branches of _phi serve
Z_REAL = np.array([-0.5, 1.5, -3.0, 5.0, -40.0])
Z_COMPLEX = np.array([0.3 + 1.2j, -1.0 - 0.5j, -2.5 + 2.0j, 4.0j, -30.0 + 10.0j])
# positive on [0, 1], so no reference integral is near zero
LOAD_COEFFS = [1.0, 0.5, -0.3, 0.8, -0.2, 0.4]


@functools.lru_cache(maxsize=None)
def _load_integral(n_t: int, zj: complex, k: int):
    """int_0^h e^(zj (h - s)/h) p(t_k + s) ds by mpmath's quadrature at 30
    digits, for the load p with the first min(STENCIL_WIDTH, n_t) of
    LOAD_COEFFS and h = 1/(n_t - 1); an mpc."""
    import mpmath
    coeffs = LOAD_COEFFS[:min(elliptic.STENCIL_WIDTH, n_t)]
    with mpmath.workdps(30):
        mh = mpmath.mpf(1.0 / (n_t - 1))
        z, tk = mpmath.mpc(zj), k * mh
        return mpmath.quad(lambda s: mpmath.exp(z * (mh - s) / mh)
                           * mpmath.polyval([mpmath.mpf(c) for c in coeffs[::-1]], tk + s),
                           [0, mh])


class TestLoadQuadrature:
    @pytest.mark.parametrize("load_dtype", [float, complex])
    @pytest.mark.parametrize("z", [Z_REAL, Z_COMPLEX], ids=["real-z", "complex-z"])
    @pytest.mark.parametrize("n_t", [5, 6, 801])
    def test_increments_are_the_exact_integrals_of_a_polynomial_load(self, n_t, z, load_dtype):
        # the width-node interpolant reproduces a load of degree width - 1,
        # so each step's increment is int_0^h e^(z (h - s)/h) p(t_k + s) ds,
        # here against mpmath's quadrature at 30 digits.  The complex load
        # is the real one times 1 + 0.5j, exactly in binary, so its
        # integrals are the real load's (_load_integral) times that factor
        mpmath = pytest.importorskip("mpmath")
        width = min(elliptic.STENCIL_WIDTH, n_t)
        scale = 1 + 0.5j if load_dtype is complex else 1
        coeffs = np.array(LOAD_COEFFS[:width]) * scale
        h = 1.0 / (n_t - 1)
        # column j carries the load times 1 + j/4
        F = np.outer(np.polynomial.polynomial.polyval(np.arange(n_t) * h, coeffs),
                     1 + np.arange(len(z)) / 4)
        out = np.empty((n_t - 1, len(z)), np.result_type(F, z))
        elliptic._increments(elliptic._Load(F), elliptic._weights(n_t, z[None], h, 1.0)[0], out)
        # both first steps, one interior step and both last steps
        steps = sorted({0, 1, (n_t - 1) // 2, n_t - 3, n_t - 2})
        with mpmath.workdps(30):
            for k in steps:
                for j, zj in enumerate(z):
                    want = (1 + j / 4) * complex(
                        mpmath.mpc(scale) * _load_integral(n_t, complex(zj), k))
                    assert abs(out[k, j] - want) <= 1e-13 * abs(want), (k, j)

    def test_complex_weights_on_a_real_load_are_those_on_it_cast_to_complex(self):
        # the real load's float64 contraction gives the complex one's bits
        rng = np.random.default_rng(3)
        F = rng.normal(size=(201, 5))
        out, want = np.empty((2, 200, 5), complex)
        w = elliptic._weights(201, Z_COMPLEX[None], 0.005, 0.3)[0]
        elliptic._increments(elliptic._Load(F), w, out)
        elliptic._increments(elliptic._Load(F.astype(complex)), w, want)
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("k_max", [5, 6])
    @pytest.mark.parametrize("radius", [2 - 1e-9, 2 + 1e-9])
    def test_phi_branches_agree_at_their_switch(self, monkeypatch, radius, k_max):
        # each branch forced at the same z with |z| = 2 -+ 1e-9, real and complex
        z_real = radius * np.array([1.0, -1.0])
        z_complex = radius * np.exp(1j * np.array([0.3, 1.5, 2.0, -2.8, -np.pi / 2]))
        for z in (z_real, z_complex):
            monkeypatch.setattr(elliptic, "PHI_TAYLOR_RADIUS", np.inf)
            taylor = elliptic._phi(z, k_max)
            monkeypatch.setattr(elliptic, "PHI_TAYLOR_RADIUS", 0.0)
            recurrence = elliptic._phi(z, k_max)
            assert taylor.dtype == recurrence.dtype == z.dtype
            assert np.all(np.abs(taylor - recurrence) <= 1e-13 * np.abs(taylor))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("k_max", [5, 6])
    def test_phi_at_zero_is_one_over_k_factorial(self, k_max, dtype):
        phi = elliptic._phi(np.zeros(3, dtype), k_max)
        want = [1.0 / math.factorial(k) for k in range(k_max + 1)]
        assert phi.dtype == dtype
        assert np.array_equal(phi, np.array(want)[:, None] * np.ones(3))
