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
absorb the two-node reach of the one-sided boundary derivatives.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .discretize import (BoundaryData, GridFunction, OperatorPair, parse_load,
                         sample_load)
from .linalg import Overflow, expm, inv, mat_solve, op_norm, sqrtm

__all__ = [
    "ProblemSpec", "QSystem",
    "compute_q_system", "solve_boundary_system", "solve_boundary_cramer",
    "homogeneous_solution", "direct_solve", "full_solve",
    "epsilon_derivative", "COMMUTE_RTOL",
]

COMMUTE_RTOL = 1e-10
PROPAGATOR_CAP = 1e6


@dataclass
class ProblemSpec:
    """Full description of one singularly perturbed two-point problem.

    f may be None (homogeneous), an expression string in t and y, or a
    callable t -> vector of length pair.n.  n_x and line_halfwidth only
    matter for the Fourier route; line_halfwidth defaults to 8*T.
    """
    pair: OperatorPair
    eps: float
    lam: complex
    T: float
    bc: BoundaryData
    f: Union[None, str, Callable] = None
    n_t: int = 201
    eps0: float = 1.0
    n_x: int = 1024
    line_halfwidth: Optional[float] = None

    def __post_init__(self):
        self.eps = float(self.eps)
        self.lam = complex(self.lam)
        self.T = float(self.T)
        if not 0 < self.eps <= self.eps0:
            raise ValueError(f"eps must lie in (0, {self.eps0}], got {self.eps}")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.n_t < 5:
            raise ValueError("need at least 5 time nodes")
        if self.line_halfwidth is None:
            self.line_halfwidth = 8.0 * self.T
        elif self.line_halfwidth < self.T:
            raise ValueError("line halfwidth must cover (0, T)")
        self._f_expr = parse_load(self.f)
        self.bc.data_for(self.pair.n)  # shape check up front

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def A_lam(self) -> np.ndarray:
        return self.pair.A + self.lam * np.eye(self.n)

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t)

    def f_samples(self, t) -> np.ndarray:
        """Sample the interior load on time nodes t; shape (len(t), n)."""
        return sample_load(self.f, self._f_expr, self.pair, t)

    def f_is_zero(self) -> bool:
        if self.f is None:
            return True
        return bool(np.max(np.abs(self.f_samples(self.t_grid()))) == 0.0)


@dataclass(frozen=True)
class QSystem:
    """Square-root calculus objects and the solved boundary coefficients.

    Qlam = (B^2+4 eps A_lam)^(1/2), Dinv = -Qlam^(-1)/d is the inverse of
    the operator determinant of the boundary system in the anchored
    parameterization.  G1 = -Q2 and G2 = Q1 generate the decaying modes;
    E1 = exp(-T G1), E2 = exp(-T G2) are the cross-interval propagators.
    g1 and h2 solve the boundary block system; g2 = E2 h2 is the weight
    the T-anchored mode carries at t = 0.
    """
    Q1: np.ndarray
    Q2: np.ndarray
    Qlam: np.ndarray
    Dinv: np.ndarray
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
    n = G1.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    se = np.sqrt(eps)
    a0, a1 = bc.alpha
    b0, b1 = bc.beta
    A11 = a0 * eye - se * a1 * G1
    A12 = (a0 * eye + se * a1 * G2) @ E2
    A21 = (b0 * eye - se * b1 * G1) @ E1
    A22 = b0 * eye + se * b1 * G2
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


def solve_boundary_cramer(G1, G2, E1, E2, bc: BoundaryData, eps: float,
                          f1: np.ndarray, f2: np.ndarray):
    """Block-Cramer solution, valid when all blocks commute.

    For commuting pairs the blocks are rational functions of (B, R) and
    commute with each other, so the 2x2 block determinant
    Delta = A11 A22 - A12 A21 inverts the system componentwise.  Serves
    as an independent cross-check of solve_boundary_system.
    """
    A11, A12, A21, A22 = _boundary_blocks(G1, G2, E1, E2, bc, eps)
    Delta = A11 @ A22 - A12 @ A21
    g1 = mat_solve(Delta, A22 @ f1 - A12 @ f2)
    h2 = mat_solve(Delta, A11 @ f2 - A21 @ f1)
    return g1, h2


def compute_q_system(spec: ProblemSpec) -> QSystem:
    """Square-root calculus plus the solved boundary weights for spec.

    The boundary system is driven by the raw boundary vectors of spec;
    to solve a full inhomogeneous problem the interior contribution must
    be subtracted from the data first, which full_solve does.
    """
    Q1, Q2, R = _q_operators(spec)
    Dinv = -inv(R) / spec.bc.d
    G1, G2 = -Q2, Q1
    E1 = expm(-spec.T * G1)
    E2 = expm(-spec.T * G2)
    f1, f2 = spec.bc.data_for(spec.n)
    g1, h2 = solve_boundary_system(G1, G2, E1, E2, spec.bc, spec.eps, f1, f2)
    return QSystem(Q1=Q1, Q2=Q2, Qlam=R, Dinv=Dinv, G1=G1, G2=G2,
                   E1=E1, E2=E2, g1=g1, g2=E2 @ h2, h2=h2)


def _propagate_modes(spec: ProblemSpec, qsys: QSystem):
    """Sample both anchored modes on the time grid by stepping."""
    t = spec.t_grid()
    h = t[1] - t[0]
    P1 = expm(-h * qsys.G1)
    P2 = expm(-h * qsys.G2)
    for P in (P1, P2):
        if op_norm(P) > PROPAGATOR_CAP:
            raise Overflow("mode propagator is unstable over one step")
    x = np.empty((spec.n_t, spec.n), dtype=np.complex128)
    w = np.empty((spec.n_t, spec.n), dtype=np.complex128)
    x[0] = qsys.g1
    for i in range(1, spec.n_t):
        x[i] = P1 @ x[i - 1]
    w[-1] = qsys.h2
    for i in range(spec.n_t - 2, -1, -1):
        w[i] = P2 @ w[i + 1]
    return t, x, w


def homogeneous_solution(spec: ProblemSpec, qsys: Optional[QSystem] = None) -> GridFunction:
    """Solve the problem with f = 0 via the anchored semigroup modes."""
    if qsys is None:
        qsys = compute_q_system(spec)
    t, x, w = _propagate_modes(spec, qsys)
    u = x + w
    return GridFunction(t, u, meta={
        "path": "semigroup", "eps": spec.eps, "lam": spec.lam})


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
    Each pivot is factored once, by mat_solve, and no off-diagonal block
    is inverted.
    """
    t = spec.t_grid()
    h = t[1] - t[0]
    n, N = spec.n, spec.n_t
    eye = np.eye(n, dtype=np.complex128)
    B = spec.pair.B
    lower = -spec.eps / h**2 * eye - B / (2 * h)
    diag = 2 * spec.eps / h**2 * eye + spec.A_lam
    upper = -spec.eps / h**2 * eye + B / (2 * h)
    fvals = spec.f_samples(t)
    f1, f2 = spec.bc.data_for(n)
    a0, a1 = spec.bc.alpha
    b0, b1 = spec.bc.beta
    c_left = np.sqrt(spec.eps) * a1 / (2 * h)
    c_right = np.sqrt(spec.eps) * b1 / (2 * h)

    # W[i] = [Uhat_i | r_i]: u_i = r_i - Uhat_i u_{i+1} (u_2 for i = 0)
    W = np.empty((N - 2, n, n + 1), dtype=np.complex128)
    # rows 0 and 1: (a0 - 3c) u0 + 4c u1 - c u2 = f1, then the stencil
    P = np.block([[(a0 - 3 * c_left) * eye, 4 * c_left * eye], [lower, diag]])
    rhs = np.block([[-c_left * eye, f1[:, None]], [upper, fvals[1][:, None]]])
    W[:2] = mat_solve(P, rhs).reshape(2, n, n + 1)
    for i in range(2, N - 2):
        E = lower @ W[i - 1]
        W[i] = mat_solve(diag - E[:, :n],
                         np.column_stack([upper, fvals[i] - E[:, n]]))

    # rows N-2 and N-1 with u_{N-3} = r - Uhat u_{N-2} substituted; the
    # last row is (b0 + 3c') u_{N-1} - 4c' u_{N-2} + c' u_{N-3} = f2
    Uhat, r = W[N - 3, :, :n], W[N - 3, :, n]
    P = np.block([[diag - lower @ Uhat, upper],
                  [-c_right * (4 * eye + Uhat), (b0 + 3 * c_right) * eye]])
    rhs = np.concatenate([fvals[N - 2] - lower @ r, f2 - c_right * r])
    u = np.empty((N, n), dtype=np.complex128)
    u[N - 2:] = mat_solve(P, rhs).reshape(2, n)
    for i in range(N - 3, 0, -1):
        u[i] = W[i, :, n] - W[i, :, :n] @ u[i + 1]
    u[0] = W[0, :, n] - W[0, :, :n] @ u[2]
    return GridFunction(t, u, meta={
        "path": "direct", "eps": spec.eps, "lam": spec.lam})


def full_solve(spec: ProblemSpec) -> GridFunction:
    """Dispatching solver for the full inhomogeneous problem.

    Commuting pairs go through the split route: a whole-line Fourier
    multiplier handles the interior load, and the anchored semigroup
    modes absorb the boundary mismatch.  Non-commuting pairs use the
    finite difference scheme, recorded in meta["path"].
    """
    commutator = spec.pair.commutator_norm()
    if not spec.pair.commutes(COMMUTE_RTOL):
        out = direct_solve(spec)
        out.meta["commutator"] = commutator
        return out

    t = spec.t_grid()
    if spec.f_is_zero():
        out = homogeneous_solution(spec)
        out.meta["commutator"] = commutator
        return out

    from .multiplier import whole_line_solve
    line = whole_line_solve(spec)
    u1 = line.on_grid(t)
    du1 = line.on_grid(t[[0, -1]], derivative=1)
    se = np.sqrt(spec.eps)
    a0, a1 = spec.bc.alpha
    b0, b1 = spec.bc.beta
    l1 = a0 * u1[0] + se * a1 * du1[0]
    l2 = b0 * u1[-1] + se * b1 * du1[-1]
    f1, f2 = spec.bc.data_for(spec.n)
    bc2 = dataclasses.replace(spec.bc, f1=f1 - l1, f2=f2 - l2)
    spec2 = dataclasses.replace(spec, bc=bc2, f=None)
    u2 = homogeneous_solution(spec2)
    return GridFunction(t, u1 + u2.values, meta={
        "path": "multiplier+semigroup", "eps": spec.eps, "lam": spec.lam,
        "commutator": commutator, "alias_energy": line.alias_energy})


def epsilon_derivative(spec: ProblemSpec, delta: Optional[float] = None,
                       order: int = 1) -> GridFunction:
    """Central finite difference of the solution in the parameter eps."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if delta is None:
        delta = 0.05 * spec.eps
    if spec.eps - delta <= 0:
        raise ValueError("delta too large: eps - delta must stay positive")
    cap = max(spec.eps0, spec.eps + delta)

    def at(e):
        return full_solve(dataclasses.replace(spec, eps=e, eps0=cap))

    lo = at(spec.eps - delta)
    hi = at(spec.eps + delta)
    if order == 1:
        vals = (hi.values - lo.values) / (2 * delta)
    else:
        mid = at(spec.eps)
        vals = (hi.values - 2 * mid.values + lo.values) / delta**2
    return GridFunction(lo.t, vals, meta={
        "path": "eps-derivative", "order": order, "delta": delta,
        "eps": spec.eps, "lam": spec.lam})
