"""Two-point solvers for -eps u'' + B u' + (A + lam) u = f on (0, T).

The solution calculus factors the quadratic pencil through the square
root R = (B^2 + 4 eps (A+lam))^(1/2):

    Q1 = (B + R) / (2 eps),   Q2 = (B - R) / (2 eps).

The roots of eps G^2 + B G - (A+lam) = 0 are G1 = -Q2 and G2 = Q1, both
with spectrum in the right half plane, so the homogeneous solution is
written in the anchored, decaying form

    u(t) = exp(-t G1) g1 + exp(-(T-t) G2) h2,

and the boundary functionals give a 2n x 2n block system for (g1, h2).
The factorization is exact when A and B commute; otherwise the residual
of the quadratic is (RB - BR)/(4 eps) and the solvers fall back to a
block-tridiagonal finite difference scheme (direct_solve), solved by one
block Thomas pass whose first and last pivots are 2n x 2n blocks that
absorb the two-node reach of the one-sided boundary derivatives.  The
pass runs gesv in the data's dtype (float64 for real data) and checks
the pivot guard once per solve, after the forward sweep.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .discretize import BoundaryData, GridFunction, IntervalProblem, OperatorPair
from .linalg import (GESV, Overflow, SingularMatrix, check_solves, expm, mat_solve,
                     op_norm, sqrtm)
from .multiplier import check_n_x, whole_line_solve

__all__ = [
    "ProblemSpec", "QSystem",
    "compute_q_system", "solve_boundary_system",
    "homogeneous_solution", "direct_solve", "full_solve",
]

PROPAGATOR_CAP = 1e6


@dataclass
class ProblemSpec(IntervalProblem):
    """Full description of one singularly perturbed two-point problem.

    eps must be finite and positive.  The load f (None when homogeneous)
    and the time grid work as in IntervalProblem.  n_x, a power of two
    >= 4, only matters for the Fourier route, whose periodic window is
    [-8T, 8T).
    """
    pair: OperatorPair
    eps: float
    lam: complex
    T: float
    bc: BoundaryData
    f: Union[None, str, Callable] = None
    n_t: int = 201
    n_x: int = 1024

    def __post_init__(self):
        self.eps = float(self.eps)
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        self._init_interval(min_nodes=5)
        check_n_x(self.n_x)
        self.bc.data_for(self.pair.n)  # shape check up front

    def f_is_zero(self) -> bool:
        if self.f is None:
            return True
        return bool(np.max(np.abs(self.f_samples(self.t_grid()))) == 0.0)


@dataclass(frozen=True)
class QSystem:
    """Square-root calculus objects and the solved boundary coefficients.

    Qlam = (B^2+4 eps A_lam)^(1/2).  G1 = -Q2 and G2 = Q1 generate the
    decaying modes; E1 = exp(-T G1), E2 = exp(-T G2) are the
    cross-interval propagators.
    g1 and h2 solve the boundary block system; g2 = E2 h2 is the weight
    the T-anchored mode carries at t = 0.
    """
    Q1: np.ndarray
    Q2: np.ndarray
    Qlam: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    h2: np.ndarray


def _q_operators(spec: ProblemSpec):
    B = spec.pair.B
    R = sqrtm(B @ B + 4.0 * spec.eps * spec.A_lam)
    Q1 = (B + R) / (2.0 * spec.eps)
    Q2 = (B - R) / (2.0 * spec.eps)
    return Q1, Q2, R


def _boundary_blocks(G1, G2, E1, E2, bc: BoundaryData, eps: float):
    """Blocks of the boundary system in unknowns (g1, h2)."""
    eye = np.eye(G1.shape[0], dtype=np.complex128)
    A11 = bc.apply(1, eye, -G1, eps)
    A12 = bc.apply(1, eye, G2, eps) @ E2
    A21 = bc.apply(2, eye, -G1, eps) @ E1
    A22 = bc.apply(2, eye, G2, eps)
    return A11, A12, A21, A22


def solve_boundary_system(G1, G2, E1, E2, bc: BoundaryData, eps: float,
                          f1: np.ndarray, f2: np.ndarray):
    """Solve the 2n x 2n block system for the mode weights (g1, h2)."""
    A11, A12, A21, A22 = _boundary_blocks(G1, G2, E1, E2, bc, eps)
    n = G1.shape[0]
    S = np.block([[A11, A12], [A21, A22]])
    rhs = np.concatenate([f1, f2])
    sol = mat_solve(S, rhs)
    return sol[:n], sol[n:]


def compute_q_system(spec: ProblemSpec) -> QSystem:
    """Square-root calculus plus the solved boundary weights for spec.

    The boundary system is driven by the raw boundary vectors of spec;
    to solve a full inhomogeneous problem the interior contribution must
    be subtracted from the data first, which full_solve does.
    """
    Q1, Q2, R = _q_operators(spec)
    G1, G2 = -Q2, Q1
    E1 = expm(-spec.T * G1)
    E2 = expm(-spec.T * G2)
    f1, f2 = spec.bc.data_for(spec.n)
    g1, h2 = solve_boundary_system(G1, G2, E1, E2, spec.bc, spec.eps, f1, f2)
    return QSystem(Q1=Q1, Q2=Q2, Qlam=R, G1=G1, G2=G2,
                   E1=E1, E2=E2, g1=g1, g2=E2 @ h2, h2=h2)


def _orbit(P: np.ndarray, start: np.ndarray, n_t: int,
           backward: bool = False) -> np.ndarray:
    """n_t states of the step x -> P x from start, sampled by block doubling.

    Row 0 is start.  With the first k rows filled, the next
    m = min(k, n_t - k) rows are rows[:m] @ (P^k)^T, one GEMM, and P^k
    is then squared: about log2(n_t) GEMMs plus as many n x n
    squarings, O(n_t n^2) flops in all.  backward=True anchors start at
    the last row: the orbit is filled forward and returned as a reversed
    view, so no GEMM works on negative strides.  Raises Overflow when a
    state is not finite.
    """
    x = np.empty((n_t, len(start)), dtype=np.complex128)
    x[0] = start
    Pk, k = P, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_t:
            m = min(k, n_t - k)
            np.matmul(x[:m], Pk.T, out=x[k:k + m])
            k += m
            if k < n_t:
                Pk = Pk @ Pk
    if not np.isfinite(x).all():
        raise Overflow("semigroup orbit left the representable range")
    return x[::-1] if backward else x


def _propagate_modes(spec: ProblemSpec, qsys: QSystem):
    """Sample both anchored modes on the time grid.

    Each mode is the orbit of its one-step propagator exp(-h G), built
    by block doubling in _orbit.
    """
    t = spec.t_grid()
    h = t[1] - t[0]
    P1 = expm(-h * qsys.G1)
    P2 = expm(-h * qsys.G2)
    for P in (P1, P2):
        if op_norm(P) > PROPAGATOR_CAP:
            raise Overflow("mode propagator is unstable over one step")
    x = _orbit(P1, qsys.g1, spec.n_t)
    w = _orbit(P2, qsys.h2, spec.n_t, backward=True)
    return t, x, w


def homogeneous_solution(spec: ProblemSpec, qsys: Optional[QSystem] = None) -> GridFunction:
    """Solve the problem with f = 0 via the anchored semigroup modes."""
    if qsys is None:
        qsys = compute_q_system(spec)
    t, x, w = _propagate_modes(spec, qsys)
    u = x + w
    return GridFunction(t, u, meta={"path": "semigroup"})


def mode_derivatives(spec: ProblemSpec, qsys: Optional[QSystem] = None):
    """(u, u', u'') of the homogeneous representation, sampled exactly."""
    if qsys is None:
        qsys = compute_q_system(spec)
    t, x, w = _propagate_modes(spec, qsys)
    u = x + w
    du = -x @ qsys.G1.T + w @ qsys.G2.T
    ddu = x @ (qsys.G1 @ qsys.G1).T + w @ (qsys.G2 @ qsys.G2).T
    return t, u, du, ddu


def direct_solve(spec: ProblemSpec) -> GridFunction:
    """Block-tridiagonal finite difference solve of the full problem.

    Interior rows are the standard O(h^2) stencil; the boundary rows use
    one-sided O(h^2) derivatives, which reach two nodes in.  One block
    Thomas pass solves the system: the first pivot is the 2n x 2n block
    of rows 0 and 1 on (u_0, u_1), which both reach u_2; interior rows
    pivot on single n x n blocks; the last pivot is the 2n x 2n block of
    rows N-2 and N-1 on (u_{N-2}, u_{N-1}) once u_{N-3} is substituted.
    Each pivot is factored and solved once by one LAPACK gesv, and no
    off-diagonal block is inverted.  gesv runs in float64 when A + lam,
    B, the load and the boundary data are all real, else in complex128;
    the result is complex128 either way.  The two end pivots go through
    mat_solve; the interior pivots meet the same guard (check_solves)
    once per solve, after the forward sweep, and the first failing row
    raises the error mat_solve would have raised for it.  Non-finite
    load or boundary data raise mat_solve's ValueError up front; after
    that, a pivot, rhs or back substitution that leaves the finite range
    raises Overflow.
    """
    t = spec.t_grid()
    h = t[1] - t[0]
    n, N = spec.n, spec.n_t
    B, A_lam = spec.pair.B, spec.A_lam
    fvals = spec.f_samples(t)
    f1, f2 = spec.bc.data_for(n)
    if not all(np.isfinite(x).all() for x in (fvals, f1, f2)):
        raise ValueError("array must not contain infs or NaNs")
    (a0, a1), (b0, b1) = spec.bc.alpha, spec.bc.beta
    data = (B, A_lam, fvals, f1, f2, spec.bc.alpha, spec.bc.beta)
    dtype = np.dtype(np.complex128 if any(np.any(np.imag(x)) for x in data)
                     else np.float64)
    if dtype == np.float64:
        B, A_lam, fvals, f1, f2 = B.real, A_lam.real, fvals.real, f1.real, f2.real
        a0, a1, b0, b1 = a0.real, a1.real, b0.real, b1.real
    eye = np.eye(n, dtype=dtype)
    lower = -spec.eps / h**2 * eye - B / (2 * h)
    diag = 2 * spec.eps / h**2 * eye + A_lam
    upper = -spec.eps / h**2 * eye + B / (2 * h)
    c_left = np.sqrt(spec.eps) * a1 / (2 * h)
    c_right = np.sqrt(spec.eps) * b1 / (2 * h)

    # W[i] = [Uhat_i | r_i]: u_i = r_i - Uhat_i u_{i+1} (u_2 for i = 0)
    W = np.empty((N - 2, n, n + 1), dtype=dtype)
    # rows 0 and 1: (a0 - 3c) u0 + 4c u1 - c u2 = f1, then the stencil
    P = np.block([[(a0 - 3 * c_left) * eye, 4 * c_left * eye], [lower, diag]])
    rhs = np.block([[-c_left * eye, f1[:, None]], [upper, fvals[1][:, None]]])
    W[:2] = mat_solve(P, rhs).reshape(2, n, n + 1)
    # row i: Z[i] = [diag | f_i] - lower W[i-1] = [S_i | c_i], and
    # S_i W[i] = [upper | c_i]; Z keeps every pivot block for the guard
    Z = np.empty_like(W)
    Z[2:, :, :n] = diag
    Z[2:, :, n] = fvals[2:N - 2]
    E = np.empty((n, n + 1), dtype=dtype)
    rhs = np.empty((n, n + 1), dtype=dtype)
    rhs[:, :n] = upper
    gesv = GESV[dtype]
    pivots = np.empty((N - 2, n), dtype=dtype)   # diagonals of the LU factors
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2, N - 2):
            Zi = Z[i]
            np.matmul(lower, W[i - 1], out=E)
            np.subtract(Zi, E, out=Zi)
            rhs[:, n] = Zi[:, n]
            lu, _, W[i], _ = gesv(Zi[:, :n], rhs)
            pivots[i] = lu.diagonal()
        # rhs = [upper | c_i] and upper already passed as part of the first
        # pivot's rhs, so only c_i needs the finiteness check
        S = Z[2:, :, :n]
        u = np.empty((N, n), dtype=dtype)
        try:
            check_solves(np.isfinite(S).all(axis=(1, 2)), np.abs(S).sum(axis=2).max(axis=1),
                         np.isfinite(Z[2:, :, n]).all(axis=1), np.abs(pivots[2:]).min(axis=1))
            # rows N-2 and N-1 with u_{N-3} = r - Uhat u_{N-2} substituted; the
            # last row is (b0 + 3c') u_{N-1} - 4c' u_{N-2} + c' u_{N-3} = f2;
            # a non-finite entry here is left to mat_solve's check
            Uhat, r = W[N - 3, :, :n], W[N - 3, :, n]
            P = np.block([[diag - lower @ Uhat, upper],
                          [-c_right * (4 * eye + Uhat), (b0 + 3 * c_right) * eye]])
            rhs = np.concatenate([fvals[N - 2] - lower @ r, f2 - c_right * r])
            u[N - 2:] = mat_solve(P, rhs).reshape(2, n)
        except SingularMatrix:
            raise
        except ValueError as exc:
            # the data are finite, so a non-finite pivot or rhs is overflow
            raise Overflow("finite difference sweep overflowed to non-finite values") from exc
    Uhat, r, Uu = W[:, :, :n], W[:, :, n], np.empty(n, dtype=dtype)
    for i in range(N - 3, 0, -1):
        np.matmul(Uhat[i], u[i + 1], out=Uu)
        np.subtract(r[i], Uu, out=u[i])
    u[0] = r[0] - Uhat[0] @ u[2]
    if not np.isfinite(u).all():
        raise Overflow("finite difference solution overflowed to non-finite values")
    return GridFunction(t, u, meta={"path": "direct"})


def full_solve(spec: ProblemSpec) -> GridFunction:
    """Dispatching solver for the full inhomogeneous problem.

    Commuting pairs go through the split route: a whole-line Fourier
    multiplier handles the interior load, and the anchored semigroup
    modes absorb the boundary mismatch.  Non-commuting pairs use the
    finite difference scheme, recorded in meta["path"].
    """
    if not spec.pair.commutes():
        return direct_solve(spec)
    if spec.f_is_zero():
        return homogeneous_solution(spec)

    t = spec.t_grid()
    line = whole_line_solve(spec)
    u1 = line.on_grid(t)
    du1 = line.on_grid(t[[0, -1]], derivative=1)
    l1 = spec.bc.apply(1, u1[0], du1[0], spec.eps)
    l2 = spec.bc.apply(2, u1[-1], du1[-1], spec.eps)
    f1, f2 = spec.bc.data_for(spec.n)
    bc2 = dataclasses.replace(spec.bc, f1=f1 - l1, f2=f2 - l2)
    spec2 = dataclasses.replace(spec, bc=bc2, f=None)
    u2 = homogeneous_solution(spec2)
    return GridFunction(t, u1 + u2.values, meta={
        "path": "multiplier+semigroup", "alias_energy": line.alias_energy})

