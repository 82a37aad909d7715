import numpy as np
import pytest
from scipy.integrate import solve_ivp

from epslab.discretize import BoundaryData, OperatorPair, SpaceGrid
from epslab.elliptic import ProblemSpec, compute_q_system, homogeneous_solution
from epslab.linalg import Overflow, SingularMatrix
from epslab.parabolic import CauchySpec, build_MN, cauchy_solve


def scalar_pair(a=1.0, b=1.0):
    return OperatorPair(np.array([[a]]), np.array([[b]]), check_positive=False)


# ---------------------------------------------------------------- CauchySpec


def test_spec_validation():
    pair = scalar_pair()
    with pytest.raises(ValueError):
        CauchySpec(pair, 0.0, -1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        CauchySpec(pair, 0.0, 1.0, np.array([1.0]), n_t=2)
    with pytest.raises(ValueError):
        CauchySpec(pair, 0.0, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(SingularMatrix):
        CauchySpec(scalar_pair(b=0.0), 0.0, 1.0, np.array([1.0]))


def test_f_samples_string_and_callable():
    pair = scalar_pair()
    cs = CauchySpec(pair, 0.0, 1.0, np.array([1.0]), f="t^2")
    t = np.array([0.0, 0.5, 2.0])
    assert np.allclose(cs.f_samples(t)[:, 0], t ** 2)
    cs2 = CauchySpec(pair, 0.0, 1.0, np.array([1.0]),
                     f=lambda t: np.array([np.sin(t)]))
    assert np.allclose(cs2.f_samples(t)[:, 0], np.sin(t))
    assert np.allclose(CauchySpec(pair, 0.0, 1.0, np.array([1.0])).f_samples(t), 0.0)


def test_f_samples_string_sees_grid_nodes():
    grid = SpaceGrid.uniform_interior(3)
    A = np.eye(3)
    pair = OperatorPair(A, np.eye(3), grid=grid, check_positive=False)
    cs = CauchySpec(pair, 0.0, 1.0, np.ones(3), f="t+y")
    got = cs.f_samples(np.array([2.0]))[0]
    assert np.allclose(got, 2.0 + grid.nodes)


# --------------------------------------------------------------- cauchy_solve


def test_homogeneous_scalar_exact():
    # B u' + a u = 0, u(0)=1  ->  u = exp(-a t / b)
    cs = CauchySpec(scalar_pair(a=2.0, b=1.0), 0.0, 1.5, np.array([1.0]), n_t=41)
    u = cauchy_solve(cs)
    exact = np.exp(-2.0 * u.t)
    assert np.max(np.abs(u.values[:, 0] - exact)) < 1e-10


def test_homogeneous_matrix_exact():
    rng = np.random.default_rng(7)
    A = np.diag(1.0 + rng.uniform(size=4))
    B = 0.5 * np.eye(4) + 0.1 * A
    pair = OperatorPair(A, B, check_positive=False)
    u0 = rng.normal(size=4) + 0j
    cs = CauchySpec(pair, 0.5, 1.0, u0, n_t=11)
    u = cauchy_solve(cs)
    from scipy.linalg import expm as sexpm
    G = np.linalg.solve(B, A + 0.5 * np.eye(4))
    for i in (3, 10):
        assert np.allclose(u.values[i], sexpm(-u.t[i] * G) @ u0, atol=1e-11)


def test_steady_state_constant_load():
    # u' + (a + lam) u = c: settles at c / (a + lam)
    cs = CauchySpec(scalar_pair(a=1.0, b=1.0), 1.0, 12.0, np.array([3.0]),
                    f="4", n_t=3001)
    u = cauchy_solve(cs)
    assert abs(u.values[-1, 0] - 2.0) < 1e-5


def test_second_order_in_time():
    A = np.array([[2.0, 0.4], [0.0, 1.0]])
    B = np.array([[1.0, 0.1], [0.0, 0.5]])
    pair = OperatorPair(A, B, check_positive=False)
    u0 = np.array([1.0, -0.5])

    def f(t):
        return np.array([np.sin(3.0 * t), np.cos(t)])

    def rhs(t, u):
        return np.linalg.solve(B, f(t) - A @ u)

    ref = solve_ivp(rhs, (0.0, 1.0), u0, rtol=1e-12, atol=1e-12,
                    dense_output=True)
    errs = []
    for n_t in (21, 41, 81):
        cs = CauchySpec(pair, 0.0, 1.0, u0, f=f, n_t=n_t)
        u = cauchy_solve(cs)
        errs.append(np.max(np.abs(u.values.real - ref.sol(u.t).T)))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert r1 > 1.9 and r2 > 1.9


def test_unstable_drift_raises():
    # B < 0 makes the semigroup grow like exp(t/|b| * a)
    cs = CauchySpec(scalar_pair(a=1.0, b=-1.0), 0.0, 20.0, np.array([1.0]))
    with pytest.raises(Overflow):
        cauchy_solve(cs)


# ------------------------------------------------------------------ build_MN


def _spec(eps=0.25, b=1.0, bc=None, n_t=9):
    pair = scalar_pair(a=1.0, b=b)
    if bc is None:
        bc = BoundaryData((1.0, 0.0), (0.0, 1.0),
                          np.array([1.0]), np.array([0.5]))
    return ProblemSpec(pair=pair, eps=eps, lam=0.5, T=1.0, bc=bc, n_t=n_t)


def test_mn_reproduce_homogeneous_solution():
    spec = _spec()
    qsys = compute_q_system(spec)
    u = homogeneous_solution(spec, qsys)
    M, N = build_MN(spec, qsys)
    f1, f2 = spec.bc.data_for(1)
    for i, t in enumerate(u.t):
        want = u.values[i]
        got = M(t) @ f1 + N(t) @ f2
        assert np.allclose(got, want, atol=1e-10)


def test_mn_matrix_case():
    rng = np.random.default_rng(3)
    A = np.diag(1.0 + rng.uniform(size=3))
    B = 0.3 * np.eye(3) + 0.1 * A
    pair = OperatorPair(A, B, check_positive=False)
    bc = BoundaryData((1.0, 0.0), (1.0, 1.0),
                      rng.normal(size=3), rng.normal(size=3))
    spec = ProblemSpec(pair=pair, eps=0.1, lam=1.0, T=1.0, bc=bc, n_t=7)
    qsys = compute_q_system(spec)
    u = homogeneous_solution(spec, qsys)
    M, N = build_MN(spec, qsys)
    for i, t in enumerate(u.t):
        got = M(t) @ spec.bc.f1 + N(t) @ spec.bc.f2
        assert np.allclose(got, u.values[i], atol=1e-9)


def test_mn_boundary_functionals():
    # L1[M] = I, L2[M] = 0, L1[N] = 0, L2[N] = I
    spec = _spec(eps=0.3, b=0.7)
    M, N = build_MN(spec)
    a0, a1 = spec.bc.alpha
    b0, b1 = spec.bc.beta
    se = np.sqrt(spec.eps)
    eye = np.eye(1)
    L1 = lambda K: a0 * K(0.0) + se * a1 * K(0.0, derivative=1)
    L2 = lambda K: b0 * K(spec.T) + se * b1 * K(spec.T, derivative=1)
    assert np.allclose(L1(M), eye, atol=1e-10)
    assert np.allclose(L2(M), 0.0, atol=1e-10)
    assert np.allclose(L1(N), 0.0, atol=1e-10)
    assert np.allclose(L2(N), eye, atol=1e-10)


def test_mn_derivative_flag():
    spec = _spec()
    M, _ = build_MN(spec)
    h = 1e-6
    fd = (M(0.5 + h) - M(0.5 - h)) / (2 * h)
    assert np.allclose(M(0.5, derivative=1), fd, atol=1e-6)
    with pytest.raises(ValueError):
        M(0.5, derivative=2)
