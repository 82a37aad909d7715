import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from epslab.discretize import BoundaryData, OperatorPair, SpaceGrid
from epslab.elliptic import ProblemSpec, homogeneous_solution
from epslab.linalg import Overflow, SingularMatrix
from epslab import parabolic
from epslab.parabolic import build_MN, cauchy_solve


def scalar_pair(a=1.0, b=1.0):
    return OperatorPair(np.array([[a]]), np.array([[b]]), check_positive=False)


def limit_spec(pair, lam, T, f=None, n_t=201):
    """A ProblemSpec whose eps -> 0 limit is B u' + (A + lam) u = f on (0, T).

    eps and the boundary data do not enter the limit.
    """
    zero = np.zeros(pair.n)
    bc = BoundaryData((1.0, 0.0), (0.0, 1.0), zero, zero)
    return ProblemSpec(pair=pair, eps=1.0, lam=lam, T=T, bc=bc, f=f, n_t=n_t)


# ----------------------------------------------------------- the limit spec


def test_spec_validation():
    pair = scalar_pair()
    with pytest.raises(ValueError):
        limit_spec(pair, 0.0, -1.0)
    with pytest.raises(ValueError):
        limit_spec(pair, 0.0, 1.0, n_t=2)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_spec_rejects_a_non_finite_T(T):
    with pytest.raises(ValueError, match="T must be finite and positive"):
        limit_spec(scalar_pair(), 0.0, T)


def test_f_samples_string_and_callable():
    pair = scalar_pair()
    t = np.array([0.0, 0.5, 2.0])
    assert np.allclose(limit_spec(pair, 0.0, 1.0, f="t^2").f_samples(t)[:, 0], t ** 2)
    spec = limit_spec(pair, 0.0, 1.0, f=lambda t: np.array([np.sin(t)]))
    assert np.allclose(spec.f_samples(t)[:, 0], np.sin(t))
    assert np.allclose(limit_spec(pair, 0.0, 1.0).f_samples(t), 0.0)


def test_f_samples_and_a_lam_are_narrowed():
    # the load and A + lam enter float64 when real, complex128 otherwise
    pair = OperatorPair(np.eye(2) + 0j, np.eye(2) + 0j, check_positive=False)
    t = np.linspace(0.0, 1.0, 5)
    cases = [("t*y", np.float64), (lambda t: [t, 1], np.float64),
             (lambda t: np.array([t, 1], dtype=complex), np.float64),
             (lambda t: [t, 1j], np.complex128), (None, np.float64)]
    for f, dtype in cases:
        assert limit_spec(pair, 0.0, 1.0, f=f).f_samples(t).dtype == dtype
    assert limit_spec(pair, 2 + 0j, 1.0).A_lam.dtype == np.float64
    assert limit_spec(pair, 2 + 1j, 1.0).A_lam.dtype == np.complex128
    complex_A = OperatorPair(np.eye(2) + 1j, np.eye(2), check_positive=False)
    assert limit_spec(complex_A, 2.0, 1.0).A_lam.dtype == np.complex128


def test_f_samples_string_sees_grid_nodes():
    grid = SpaceGrid.uniform_interior(3)
    pair = OperatorPair(np.eye(3), np.eye(3), grid=grid, check_positive=False)
    got = limit_spec(pair, 0.0, 1.0, f="t+y").f_samples(np.array([2.0]))[0]
    assert np.allclose(got, 2.0 + grid.nodes)


# --------------------------------------------------------------- cauchy_solve


def test_solve_validation():
    with pytest.raises(ValueError, match="u0 has length 2, operator size is 1"):
        cauchy_solve(limit_spec(scalar_pair(), 0.0, 1.0), np.array([1.0, 2.0]))
    with pytest.raises(SingularMatrix, match="zero matrix"):
        cauchy_solve(limit_spec(scalar_pair(b=0.0), 0.0, 1.0), np.array([1.0]))


def test_homogeneous_scalar_exact():
    # B u' + a u = 0, u(0)=1  ->  u = exp(-a t / b)
    u = cauchy_solve(limit_spec(scalar_pair(a=2.0, b=1.0), 0.0, 1.5, n_t=41),
                     np.array([1.0]))
    exact = np.exp(-2.0 * u.t)
    assert np.max(np.abs(u.values[:, 0] - exact)) < 1e-10


def test_homogeneous_matrix_exact():
    rng = np.random.default_rng(7)
    A = np.diag(1.0 + rng.uniform(size=4))
    B = 0.5 * np.eye(4) + 0.1 * A
    pair = OperatorPair(A, B, check_positive=False)
    u0 = rng.normal(size=4) + 0j
    u = cauchy_solve(limit_spec(pair, 0.5, 1.0, n_t=11), u0)
    from scipy.linalg import expm as sexpm
    G = np.linalg.solve(B, A + 0.5 * np.eye(4))
    for i in (3, 10):
        assert np.allclose(u.values[i], sexpm(-u.t[i] * G) @ u0, atol=1e-11)


def test_steady_state_constant_load():
    # u' + (a + lam) u = c: settles at c / (a + lam)
    spec = limit_spec(scalar_pair(a=1.0, b=1.0), 1.0, 12.0, f="4", n_t=3001)
    u = cauchy_solve(spec, np.array([3.0]))
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
        u = cauchy_solve(limit_spec(pair, 0.0, 1.0, f=f, n_t=n_t), u0)
        errs.append(np.max(np.abs(u.values.real - ref.sol(u.t).T)))
    r1 = np.log2(errs[0] / errs[1])
    r2 = np.log2(errs[1] / errs[2])
    assert r1 > 1.9 and r2 > 1.9


def test_only_a_load_takes_the_half_step_exponential(monkeypatch):
    # exp(-T G) for the stability cap and the step exp(-h G) always;
    # exp(-h G / 2) only for the midpoint forcing of a load
    calls, expm = [], parabolic.expm
    monkeypatch.setattr(parabolic, "expm", lambda M: calls.append(M) or expm(M))
    cauchy_solve(limit_spec(scalar_pair(), 1.0, 1.0), np.array([1.0]))
    assert len(calls) == 2
    cauchy_solve(limit_spec(scalar_pair(), 1.0, 1.0, f="1"), np.array([1.0]))
    assert len(calls) == 5


def _real_limit(n_y, f):
    """A commuting-style real pair with an invertible B on n_y nodes."""
    A = np.diag(1.0 + np.linspace(0.0, 2.0, n_y)) + 0.1 * np.eye(n_y, k=1)
    B = 0.5 * np.eye(n_y) + 0.2 * A
    return limit_spec(OperatorPair(A + 0j, B + 0j, check_positive=False), 0.5, 1.0,
                      f=f, n_t=81), np.linspace(1.0, 2.0, n_y) + 0j


@pytest.mark.parametrize("loaded", [False, True], ids=["no-load", "load"])
@pytest.mark.parametrize("n_y", [1, 5])
def test_cauchy_solve_keeps_real_data_real(n_y, loaded):
    # real data, handed over complex-typed, give a float64 limit, and it is
    # its copy with u0 and the load times 1j, divided by 1j
    def f(t):
        return np.sin(3.0 * t) * np.arange(1.0, n_y + 1.0)

    spec, u0 = _real_limit(n_y, f if loaded else None)
    w = cauchy_solve(spec, u0)
    assert w.values.dtype == np.float64
    spec1j = limit_spec(spec.pair, spec.lam, spec.T, n_t=spec.n_t,
                        f=(lambda t: 1j * f(t)) if loaded else None)
    w1j = cauchy_solve(spec1j, 1j * u0)
    assert w1j.values.dtype == np.complex128
    assert np.abs(w1j.values / 1j - w.values).max() <= 1e-12 * np.abs(w.values).max()


def test_cauchy_solve_of_a_complex_lam_is_complex():
    spec, u0 = _real_limit(3, None)
    spec = dataclasses.replace(spec, lam=0.5 + 0.25j)
    assert cauchy_solve(spec, u0.real).values.dtype == np.complex128


def test_unstable_drift_raises():
    # B < 0 makes the semigroup grow like exp(t/|b| * a)
    spec = limit_spec(scalar_pair(a=1.0, b=-1.0), 0.0, 20.0)
    with pytest.raises(Overflow):
        cauchy_solve(spec, np.array([1.0]))


def test_unstable_drift_past_the_stability_cap_raises():
    # at T = 15 the limit propagator e^15 is finite but above the cap
    spec = limit_spec(scalar_pair(a=1.0, b=-1.0), 0.0, 15.0)
    with pytest.raises(Overflow, match=r"^limit propagator norm 3\.269e\+06 exceeds 1e\+06$"):
        cauchy_solve(spec, np.array([1.0]))


# ------------------------------------------------------------------ build_MN


def _spec(eps=0.25, b=1.0, bc=None, n_t=9):
    pair = scalar_pair(a=1.0, b=b)
    if bc is None:
        bc = BoundaryData((1.0, 0.0), (0.0, 1.0),
                          np.array([1.0]), np.array([0.5]))
    return ProblemSpec(pair=pair, eps=eps, lam=0.5, T=1.0, bc=bc, n_t=n_t)


def test_mn_reproduce_homogeneous_solution():
    spec = _spec()
    u = homogeneous_solution(spec)
    M, N = build_MN(spec)
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
    u = homogeneous_solution(spec)
    M, N = build_MN(spec)
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
