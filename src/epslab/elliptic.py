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
block-tridiagonal finite difference scheme (direct_solve).  Two 2n x 2n
end pivots absorb the two-node reach of the one-sided boundary
derivatives; the nodes between share one stencil and are solved by
odd-even block cyclic reduction, which factors one block per distinct
row class and level, O(log n_t) gesv calls in the data's dtype (float64
for real data).  The pivot guard sees every factored block and its
coupling columns, never the load, so a load that overflows surfaces as
"solution overflowed" at the end.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import exprparse
from .discretize import BoundaryData, GridFunction, OperatorPair, SpaceGrid
from .linalg import (GESV, Overflow, SingularMatrix, check_solves, expm, mat_solve,
                     op_norm, sqrtm)
from .multiplier import check_n_x, whole_line_solve

__all__ = [
    "ProblemSpec", "QSystem",
    "compute_q_system",
    "homogeneous_solution", "direct_solve", "full_solve",
]

PROPAGATOR_CAP = 1e6


@dataclass
class ProblemSpec:
    """Full description of one singularly perturbed two-point problem.

    eps must be finite and positive, T finite and positive, and the time
    grid needs n_t >= 5 nodes.  f is None (zero load), a callable
    t -> vector of length pair.n, or an expression string in t and y;
    expressions see y at the pair's grid nodes, or at uniform interior
    nodes without a grid.  n_x, a power of two >= 4, only matters for
    the Fourier route, whose periodic window is [-8T, 8T).  The same
    spec describes the eps -> 0 limit that parabolic.cauchy_solve
    integrates, in which eps and bc do not enter.
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
        self.lam = complex(self.lam)
        self.T = float(self.T)
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if self.n_t < 5:
            raise ValueError("need at least 5 time nodes")
        self._f_expr = (exprparse.parse(self.f, allowed_vars=("t", "y"))
                        if isinstance(self.f, str) else None)
        check_n_x(self.n_x)
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
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = self.n
        if self.f is None:
            return np.zeros((len(t), n), dtype=np.complex128)
        if self._f_expr is not None:
            grid = self.pair.grid or SpaceGrid.uniform_interior(n)
            vals = exprparse.eval_expr(
                self._f_expr, {"t": t[:, None], "y": grid.nodes[None, :]})
            return np.broadcast_to(np.asarray(vals, dtype=np.complex128), (len(t), n)).copy()
        rows = [np.asarray(self.f(float(ti)), dtype=np.complex128).reshape(n) for ti in t]
        return np.stack(rows)

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


def _boundary_matrix(G1, G2, E1, E2, bc: BoundaryData, eps: float) -> np.ndarray:
    """The 2n x 2n boundary system in the unknowns (g1, h2)."""
    eye = np.eye(G1.shape[0], dtype=np.complex128)
    return np.block([[bc.apply(1, eye, -G1, eps), bc.apply(1, eye, G2, eps) @ E2],
                     [bc.apply(2, eye, -G1, eps) @ E1, bc.apply(2, eye, G2, eps)]])


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
    S = _boundary_matrix(G1, G2, E1, E2, spec.bc, spec.eps)
    g1, h2 = np.split(mat_solve(S, np.concatenate([f1, f2])), 2)
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


def homogeneous_solution(spec: ProblemSpec) -> GridFunction:
    """Solve the problem with f = 0 via the anchored semigroup modes."""
    t, x, w = _propagate_modes(spec, compute_q_system(spec))
    u = x + w
    return GridFunction(t, u, meta={"path": "semigroup"})


def mode_derivatives(spec: ProblemSpec):
    """(u, u', u'') of the homogeneous representation, sampled exactly."""
    qsys = compute_q_system(spec)
    t, x, w = _propagate_modes(spec, qsys)
    u = x + w
    du = -x @ qsys.G1.T + w @ qsys.G2.T
    ddu = x @ (qsys.G1 @ qsys.G1).T + w @ (qsys.G2 @ qsys.G2).T
    return t, u, du, ddu


def _guard_args(M: np.ndarray, lu: np.ndarray, coupling=None) -> tuple:
    """check_solves' arguments for a block M factored into lu; only the
    coupling columns of the right-hand side count, never the load."""
    return (np.isfinite(M).all(), np.abs(M).sum(axis=1).max(),
            coupling is None or np.isfinite(coupling).all(), np.abs(lu.diagonal()).min())


def _cyclic_reduction(kinds: list, cls: np.ndarray, load: np.ndarray, gesv) -> np.ndarray:
    """Solve L_i x_{i-1} + D_i x_i + U_i x_{i+1} = load_i by odd-even reduction.

    Row i has class cls[i], and kinds[c] = (L, D, U) are the blocks of
    class c, with None for the missing neighbour of an end row.  Each
    level eliminates the odd rows: one gesv per distinct class among
    them, with right-hand side [L | U | their loads], gives
    x_j = y_j - alpha x_{j-1} - beta x_{j+1}.  The kept rows get new
    blocks by GEMMs, and the class of a kept row becomes the triple of
    the classes of its left neighbour, itself and its right neighbour.
    Every factored block meets check_solves on its [L | U] columns, so
    the guard does not see the load.  The caller holds the errstate.
    """
    n = load.shape[1]
    levels = []
    while len(cls) > 1:
        m = len(cls)
        y = np.empty_like(load)
        elim, guard = {}, []
        for c in np.unique(cls[1::2]):
            rows = 2 * np.flatnonzero(cls[1::2] == c) + 1
            L, D, U = kinds[c]
            coupling = L if U is None else np.hstack([L, U])
            lu, _, X, _ = gesv(D, np.hstack([coupling, load[rows].T]))
            guard.append(_guard_args(D, lu, coupling))
            k = coupling.shape[1]
            y[rows] = X[:, k:].T
            elim[c] = (rows, X[:, :n], None if U is None else X[:, n:k])
        check_solves(*map(np.array, zip(*guard)))
        keep = np.arange(0, m, 2)
        left = np.where(keep > 0, cls[keep - 1], -1)
        right = np.where(keep + 1 < m, cls[np.minimum(keep + 1, m - 1)], -1)
        K = len(kinds) + 1
        codes, new_cls = np.unique((left + 1) * K * K + cls[keep] * K + right + 1,
                                   return_inverse=True)
        new_kinds = []
        for code in codes:
            l, s, r = code // (K * K) - 1, code // K % K, code % K - 1
            L, D, U = kinds[s]
            if l >= 0:
                _, alpha, beta = elim[l]
                L, D = -L @ alpha, D - L @ beta
            if r >= 0:
                _, alpha, beta = elim[r]
                D, U = D - U @ alpha, None if beta is None else -U @ beta
            new_kinds.append((L, D, U))
        new_load = load[keep]
        for s in np.unique(cls[keep]):
            L, _, U = kinds[s]
            rows = keep[cls[keep] == s]
            if L is not None:
                new_load[rows // 2] -= y[rows - 1] @ L.T
            if U is not None:
                new_load[rows // 2] -= y[rows + 1] @ U.T
        levels.append((m, y, elim))
        kinds, cls, load = new_kinds, new_cls, new_load
    _, D, _ = kinds[cls[0]]
    lu, _, X, _ = gesv(D, load.T)
    check_solves(*_guard_args(D, lu))
    x = X.T
    for m, y, elim in reversed(levels):
        x_kept, x = x, np.empty((m, n), dtype=x.dtype)
        x[0::2] = x_kept
        for rows, alpha, beta in elim.values():
            x[rows] = y[rows] - x[rows - 1] @ alpha.T
            if beta is not None:
                x[rows] -= x[rows + 1] @ beta.T
    return x


def direct_solve(spec: ProblemSpec) -> GridFunction:
    """Block-tridiagonal finite difference solve of the full problem.

    Interior rows are the standard O(h^2) stencil; the boundary rows use
    one-sided O(h^2) derivatives, which reach two nodes in.  Two 2n x 2n
    pivots absorb them: rows 0 and 1 give (u_0, u_1) in terms of u_2,
    rows N-2 and N-1 give (u_{N-2}, u_{N-1}) in terms of u_{N-3}.  The
    nodes 2..N-3 left over share one stencil (lower, diag, upper) except
    for the diagonal blocks of the two end rows, and odd-even block
    cyclic reduction solves them (_cyclic_reduction): each level factors
    one block per distinct row class by one LAPACK gesv, O(log n_t)
    factorizations per solve, and no off-diagonal block is inverted.
    gesv runs in float64 when A + lam, B, the load and the boundary data
    are all real, else in complex128; the result is complex128 either
    way.  The first pivot goes through mat_solve; the last pivot and
    every block of the reduction meet the same guard (check_solves) on
    the block and its coupling columns, level by level, and the first
    failing factorization in reduction order raises the error mat_solve
    would have raised for it.  No factored block depends on the load.
    Non-finite load or boundary data raise mat_solve's ValueError up
    front; after that, a block that leaves the finite range raises
    Overflow, and so does a load that overflows anywhere, as "finite
    difference solution overflowed to non-finite values".
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
    gesv = GESV[dtype]

    # rows 0 and 1: (a0 - 3c) u0 + 4c u1 - c u2 = f1, then the stencil;
    # first[i] = [Uhat_i | r_i] with u_i = r_i - Uhat_i u_2
    P = np.block([[(a0 - 3 * c_left) * eye, 4 * c_left * eye], [lower, diag]])
    rhs = np.block([[-c_left * eye, f1[:, None]], [upper, fvals[1][:, None]]])
    first = mat_solve(P, rhs).reshape(2, n, n + 1)
    u = np.empty((N, n), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # the stencil at N-2, then the last row
            # c' u_{N-3} - 4c' u_{N-2} + (b0 + 3c') u_{N-1} = f2;
            # last[i] = [V_i | s_i] with u_{N-2+i} = s_i - V_i u_{N-3}
            P = np.block([[diag, upper], [-4 * c_right * eye, (b0 + 3 * c_right) * eye]])
            coupling = np.vstack([lower, c_right * eye])
            rhs = np.hstack([coupling, np.concatenate([fvals[N - 2], f2])[:, None]])
            lu, _, X, _ = gesv(P, rhs)
            check_solves(*_guard_args(P, lu, coupling))
            last = X.reshape(2, n, n + 1)
            D_first = diag - lower @ first[1, :, :n]
            D_last = diag - upper @ last[0, :, :n]
            load = fvals[2:N - 2].copy()
            load[0] -= lower @ first[1, :, n]
            load[-1] -= upper @ last[0, :, n]
            m = N - 4
            if m == 1:
                kinds, cls = [(None, D_first - upper @ last[0, :, :n], None)], np.zeros(1, int)
            else:
                kinds = [(None, D_first, upper), (lower, diag, upper), (lower, D_last, None)]
                cls = np.ones(m, int)
                cls[0], cls[-1] = 0, 2
            u[2:N - 2] = _cyclic_reduction(kinds, cls, load, gesv)
        except SingularMatrix:
            raise
        except ValueError as exc:
            # the data are finite, so a non-finite block is overflow
            raise Overflow("finite difference sweep overflowed to non-finite values") from exc
        u[:2] = first[:, :, n] - first[:, :, :n] @ u[2]
        u[N - 2:] = last[:, :, n] - last[:, :, :n] @ u[N - 3]
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

