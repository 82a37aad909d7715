"""Two-point solvers for -eps u'' + B u' + (A + lam) u = f on (0, T).

solve_batch solves one spec at a sequence of (eps, lam) cells and is the
one place that picks a route; full_solve is its batch of one.  In a
joint eigenbasis the problem splits into n scalar ones, solved exactly
but for the load quadrature (_modes_batch, one _mode_solve per cell).
The solution calculus, kept as a reference, factors the quadratic
pencil through the square root R = (B^2 + 4 eps (A+lam))^(1/2):

    Q1 = (B + R) / (2 eps),   Q2 = (B - R) / (2 eps).

The roots of eps G^2 + B G - (A+lam) = 0 are G1 = -Q2 and G2 = Q1, both
with spectrum in the right half plane, so the homogeneous solution is
written in the anchored, decaying form

    u(t) = exp(-t G1) g1 + exp(-(T-t) G2) h2,

and the boundary functionals give a 2n x 2n block system for (g1, h2).
The factorization is exact when A and B commute; otherwise the residual
of the quadratic is (RB - BR)/(4 eps).  Pairs with no eigenbasis go to a
block-tridiagonal finite difference scheme (direct_batch).  Two 2n x 2n
end pivots absorb the two-node reach of the one-sided boundary
derivatives; the nodes between share one stencil and are solved by
odd-even block cyclic reduction, which inverts one block per distinct
row class and level, O(log n_t) linalg.solve_cells calls in the data's
dtype (float64 for real data).  The rcond guard of solve_cells sees
each block and its coupling columns, never the load; the load and
boundary vectors are scaled by a power of two, so only a solution past
the float64 range surfaces, as "solution overflowed" at the end.
direct_batch runs the scheme for several (eps, lam) cells at once: the
blocks carry a leading cell axis, each solve_cells call inverts the
stack of the cells that have not failed, and a cell's failure is its
own; direct_solve is its batch of one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial
from typing import Callable, Union

import numpy as np

from . import exprparse
from .discretize import BoundaryData, GridFunction, OperatorPair, SpaceGrid
from .linalg import (BRANCH_CUT_RTOL, MIN_RCOND, NUMERICAL_ERRORS, Overflow, SingularMatrix,
                     SqrtNotConverged, expm, mat_solve, op_norm, solve_cells, sqrtm)

__all__ = [
    "ProblemSpec", "QSystem", "SOLVER_ERRORS",
    "compute_q_system",
    "homogeneous_solution", "direct_batch", "direct_solve", "full_solve", "solve_batch",
]

PROPAGATOR_CAP = 1e6
SOLVER_ERRORS = NUMERICAL_ERRORS + (ValueError,)


def _positive_eps(eps) -> float:
    eps = float(eps)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    return eps


@dataclass
class ProblemSpec:
    """Full description of one singularly perturbed two-point problem.

    eps must be finite and positive, T finite and positive, and the time
    grid needs n_t >= 5 nodes.  f is None (zero load), a callable
    t -> vector of length pair.n, or an expression string in t and y;
    expressions see y at the pair's grid nodes, or at uniform interior
    nodes without a grid.  The same spec describes the eps -> 0 limit that parabolic.cauchy_solve
    integrates, in which eps and bc do not enter.
    """
    pair: OperatorPair
    eps: float
    lam: complex
    T: float
    bc: BoundaryData
    f: Union[None, str, Callable] = None
    n_t: int = 201

    def __post_init__(self):
        self.eps = _positive_eps(self.eps)
        self.lam = complex(self.lam)
        self.T = float(self.T)
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if self.n_t < 5:
            raise ValueError("need at least 5 time nodes")
        self._f_expr = (exprparse.parse(self.f, allowed_vars=("t", "y"))
                        if isinstance(self.f, str) else None)
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
           backward: bool = False, out=None) -> np.ndarray:
    """n_t states of the step x -> P x from start, sampled by block doubling.

    Row 0 is start.  With the first k rows filled, the next
    m = min(k, n_t - k) rows are rows[:m] @ (P^k)^T, one GEMM, and P^k
    is then squared: about log2(n_t) GEMMs plus as many n x n
    squarings, O(n_t n^2) flops in all; a vector P acts elementwise, and
    out, if given, takes the states.  backward=True anchors start at
    the last row: the orbit is filled forward and returned as a reversed
    view, so no GEMM works on negative strides.  Raises Overflow when a
    state is not finite.
    """
    step = np.matmul if P.ndim == 2 else np.multiply
    x = np.empty((n_t, len(start)), dtype=np.complex128) if out is None else out
    x[0] = start
    Pk, k = P, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_t:
            m = min(k, n_t - k)
            step(x[:m], Pk.T, out=x[k:k + m])
            k += m
            if k < n_t:
                Pk = step(Pk, Pk)
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
    x += w
    return GridFunction(t, x, meta={"path": "semigroup"})


def mode_derivatives(spec: ProblemSpec):
    """(u, u', u'') of the homogeneous representation, sampled exactly."""
    qsys = compute_q_system(spec)
    t, x, w = _propagate_modes(spec, qsys)
    u = x + w
    du = -x @ qsys.G1.T + w @ qsys.G2.T
    ddu = x @ (qsys.G1 @ qsys.G1).T + w @ (qsys.G2 @ qsys.G2).T
    return t, u, du, ddu


def _solve_live(fails: list, M, coupling, load) -> np.ndarray:
    """linalg.solve_cells of the stacks M, coupling and load, skipping
    every cell that has failed already.

    The leading axis runs over the cells; coupling or load may be None.
    A cell that fails here gets the error direct_solve raises for it in
    fails and a zero result, and no later call inverts its blocks.
    """
    X, errors = solve_cells(M, coupling, load, skip=[f is not None for f in fails])
    for i, exc in enumerate(errors):
        if isinstance(exc, SingularMatrix):
            fails[i] = exc
        elif exc is not None:
            # the data are finite, so a non-finite block is overflow
            fails[i] = Overflow("finite difference sweep overflowed to non-finite values")
            fails[i].__cause__ = exc
    return X


def _rows(index: np.ndarray) -> slice:
    """The increasing, evenly spaced row indices index as a slice, so that
    indexing by it makes views and not copies."""
    step = index[1] - index[0] if len(index) > 1 else 1
    return slice(int(index[0]), int(index[-1]) + 1, int(step))


def _shifted(rows: slice, by: int) -> slice:
    """rows moved on by `by` places."""
    return slice(rows.start + by, rows.stop + by, rows.step)


def _cyclic_reduction(kinds: list, cls: np.ndarray, load: np.ndarray,
                      fails: list) -> np.ndarray:
    """Solve L_i x_{i-1} + D_i x_i + U_i x_{i+1} = load_i by odd-even reduction.

    The leading axis of load, (cells, rows, n), and of every block,
    (cells, n, n), runs over the cells of a batch, which share the row
    classes: row i has class cls[i], and kinds[c] = (L, D, U) are the
    block stacks of class c, with None for the missing neighbour of an
    end row.  Each level eliminates the odd rows: per distinct class
    among them, one solve_cells stack with right-hand side [L | U | their
    loads] gives x_j = y_j - alpha x_{j-1} - beta x_{j+1}.  A kept row's
    class becomes the triple of the classes of its left neighbour, itself
    and its right neighbour, and per triple batched GEMMs update its load
    and then its blocks.  The rows of a class are indexed by a slice
    (_rows): with a first, an interior and a last class at the start,
    every class's rows are evenly spaced.  The guard sees each block
    and its [L | U] columns, not the load; the first failing inverse of a
    cell in reduction order goes to fails (_solve_live), and that cell's
    rows of the result mean nothing.  The caller holds the errstate.
    """
    n = load.shape[2]
    levels = []
    while len(cls) > 1:
        m = len(cls)
        y = np.empty_like(load)
        elim = {}
        for c in np.unique(cls[1::2]):
            rows = _rows(2 * np.flatnonzero(cls[1::2] == c) + 1)
            L, D, U = kinds[c]
            coupling = L if U is None else np.concatenate([L, U], axis=2)
            X = _solve_live(fails, D, coupling, load[:, rows].mT)
            k = coupling.shape[2]
            y[:, rows] = X[:, :, k:].mT
            elim[c] = (rows, X[:, :, :n], None if U is None else X[:, :, n:k])
        keep = np.arange(0, m, 2)
        left = np.where(keep > 0, cls[keep - 1], -1)
        right = np.where(keep + 1 < m, cls[np.minimum(keep + 1, m - 1)], -1)
        K = len(kinds) + 1
        codes, new_cls = np.unique((left + 1) * K * K + cls[keep] * K + right + 1,
                                   return_inverse=True)
        new_kinds, new_load = [], load[:, ::2].copy()
        for j, code in enumerate(codes):
            l, s, r = code // (K * K) - 1, code // K % K, code % K - 1
            L, D, U = kinds[s]
            kept = np.flatnonzero(new_cls == j)
            rows, half = _rows(2 * kept), _rows(kept)
            if l >= 0:
                _, alpha, beta = elim[l]
                new_load[:, half] -= y[:, _shifted(rows, -1)] @ L.mT
                L, D = -L @ alpha, D - L @ beta
            if r >= 0:
                _, alpha, beta = elim[r]
                new_load[:, half] -= y[:, _shifted(rows, 1)] @ U.mT
                D, U = D - U @ alpha, None if beta is None else -U @ beta
            new_kinds.append((L, D, U))
        levels.append((m, y, elim))
        kinds, cls, load = new_kinds, new_cls, new_load
    _, D, _ = kinds[cls[0]]
    x = _solve_live(fails, D, None, load.mT).mT
    for m, y, elim in reversed(levels):
        x_kept, x = x, np.empty((len(fails), m, n), dtype=x.dtype)
        x[:, 0::2] = x_kept
        for rows, alpha, beta in elim.values():
            x[:, rows] = y[:, rows] - x[:, _shifted(rows, -1)] @ alpha.mT
            if beta is not None:
                x[:, rows] -= x[:, _shifted(rows, 1)] @ beta.mT
    return x


def direct_batch(spec: ProblemSpec, cells, loads=None) -> list:
    """direct_solve of spec at every (eps, lam) pair of cells, as one batch.

    The cells share everything else: the row classes of the cyclic
    reduction, the load samples (loads, the load on spec.t_grid(), is
    sampled here when None) and the float64/complex128 choice, float64
    only when every cell is real: its A + lam, B, the load, the boundary
    vectors and its two boundary rows.  A real cell batched with a
    complex one so runs in complex128, within roundoff of its solo
    solve.  Blocks, end pivots, loads and the back substitution are
    (cells, ...) stacks, and every factorization is one
    linalg.solve_cells call over the stack, whose guard judges each cell
    apart.  Returns, per cell, its GridFunction or the exception a solo
    direct_solve raises for it; a failed cell gets no further
    factorization and leaves the other cells' numbers as they are.  An
    eps that is not finite and positive raises ValueError.
    """
    eps = np.array([_positive_eps(e) for e, _ in cells])
    lam = np.array([complex(z) for _, z in cells])
    t = spec.t_grid()
    h = t[1] - t[0]
    n, N, n_cells = spec.n, spec.n_t, len(eps)
    B, A_lam = spec.pair.B, spec.pair.A + lam[:, None, None] * np.eye(n)
    fvals = spec.f_samples(t) if loads is None else loads
    f1, f2 = spec.bc.data_for(n)
    if not all(np.isfinite(x).all() for x in (fvals, f1, f2)):
        return [ValueError("array must not contain infs or NaNs")] * n_cells
    # u is linear in the data: solve for the data over 2^(e-1), e the
    # exponent of their largest component, so that a load near the
    # float64 limit keeps the sweep finite; powers of two scale exactly
    top = max(np.abs(part).max(initial=0.0)
              for x in (fvals, f1, f2) for part in (x.real, x.imag))
    scale = np.ldexp(1.0, int(np.frexp(top)[1]) - 1)
    fvals, f1, f2 = fvals / scale, f1 / scale, f2 / scale
    # L1 on (u_0, u_1, u_2) and L2 on (u_{N-3}, u_{N-2}, u_{N-1}), per cell
    left = spec.bc.apply(1, np.array([1.0, 0.0, 0.0]),
                         np.array([-3.0, 4.0, -1.0]) / (2 * h), eps[:, None])
    right = spec.bc.apply(2, np.array([0.0, 0.0, 1.0]),
                          np.array([1.0, -4.0, 3.0]) / (2 * h), eps[:, None])
    data = (B, A_lam, fvals, f1, f2, left, right)
    real = not any(np.any(np.imag(x)) for x in data)
    if real:
        B, A_lam, fvals, f1, f2, left, right = (x.real for x in data)
    eye = np.eye(n, dtype=np.float64 if real else np.complex128)
    s = eps[:, None, None]
    lower = -s / h**2 * eye - B / (2 * h)
    diag = 2 * s / h**2 * eye + A_lam
    upper = -s / h**2 * eye + B / (2 * h)
    left, right = left[:, :, None, None] * eye, right[:, :, None, None] * eye

    def column(v):
        return np.broadcast_to(v[:, None], (n_cells, len(v), 1))

    with np.errstate(over="ignore", invalid="ignore"):
        # rows 0 and 1, L1 then the stencil; first[:, i] = [Uhat_i | r_i]
        # with u_i = r_i - Uhat_i u_2
        P = np.block([[left[:, 0], left[:, 1]], [lower, diag]])
        rhs = np.block([[left[:, 2], column(f1)], [upper, column(fvals[1])]])
        first, fails = solve_cells(P, rhs)
        first = first.reshape(n_cells, 2, n, n + 1)
        # the stencil at N-2, then L2; last[:, i] = [V_i | s_i] with
        # u_{N-2+i} = s_i - V_i u_{N-3}
        P = np.block([[diag, upper], [right[:, 1], right[:, 2]]])
        last = _solve_live(fails, P, np.concatenate([lower, right[:, 0]], axis=1),
                           column(np.concatenate([fvals[N - 2], f2])))
        last = last.reshape(n_cells, 2, n, n + 1)
        D_first = diag - lower @ first[:, 1, :, :n]
        D_last = (D_first if N == 5 else diag) - upper @ last[:, 0, :, :n]
        load = np.repeat(fvals[None, 2:N - 2], n_cells, axis=0)
        load[:, 0] -= (lower @ first[:, 1, :, n:])[..., 0]
        load[:, -1] -= (upper @ last[:, 0, :, n:])[..., 0]
        kinds = [(None, D_first, upper), (lower, diag, upper), (lower, D_last, None)]
        cls = np.ones(N - 4, int)
        cls[0], cls[-1] = 0, 2
        u = np.empty((n_cells, N, n), dtype=eye.dtype)
        u[:, 2:N - 2] = _cyclic_reduction(kinds, cls, load, fails)
        u[:, :2] = first[..., n] - (first[..., :n] @ u[:, None, 2, :, None])[..., 0]
        u[:, N - 2:] = last[..., n] - (last[..., :n] @ u[:, None, N - 3, :, None])[..., 0]
        u *= scale
    out = []
    for fail, ui in zip(fails, u):
        if fail is None and not np.isfinite(ui).all():
            fail = Overflow("finite difference solution overflowed to non-finite values")
        out.append(GridFunction(t, ui, meta={"path": "direct"}) if fail is None else fail)
    return out


def direct_solve(spec: ProblemSpec, loads=None) -> GridFunction:
    """Block-tridiagonal finite difference solve of the full problem.

    Interior rows are the standard O(h^2) stencil; the boundary rows are
    spec.bc.apply of one-sided O(h^2) derivatives, which reach two nodes
    in.  Two 2n x 2n pivots absorb them: rows 0 and 1 give (u_0, u_1) in
    terms of u_2, rows N-2 and N-1 give (u_{N-2}, u_{N-1}) in terms of
    u_{N-3}.  The nodes 2..N-3 left over share one stencil except for
    the diagonal blocks of the two end rows (one row at n_t = 5), and
    odd-even block cyclic reduction solves them (_cyclic_reduction):
    each level inverts one block per distinct row class, O(log n_t) in
    all.  The solve runs in float64 when A + lam, B, the load, the
    boundary vectors and the two boundary rows are all real, else in
    complex128; the result is complex128 either way.  Both pivots and
    every block of the reduction go through linalg.solve_cells, whose
    rcond guard sees the block and its coupling columns, so the first
    failing inverse raises: the first pivot's, then the last pivot's,
    then in reduction order.  No inverted block depends on the load.
    Non-finite load or boundary data raise ValueError up
    front; after that, a block that leaves the finite range raises
    Overflow, and so does a solution past the float64 range, as "finite
    difference solution overflowed to non-finite values".  This is the
    batch of one of direct_batch, which takes loads.
    """
    return _solo(direct_batch(spec, [(spec.eps, spec.lam)], loads))


def full_solve(spec: ProblemSpec, loads=None) -> GridFunction:
    """Solve the full problem: solve_batch's batch of one, failure raised."""
    return _solo(solve_batch(spec, [(spec.eps, spec.lam)], loads))


def _solo(cells: list) -> GridFunction:
    u, = cells
    if isinstance(u, Exception):
        raise u
    return u


def solve_batch(spec: ProblemSpec, cells, loads=None) -> list:
    """spec at every (eps, lam) pair of cells: per cell, its GridFunction,
    whose meta["path"] names the route, or the SOLVER_ERRORS its solve
    raised.  A pair without a joint eigenbasis is one direct_batch over
    all the cells, any other one _modes_batch.  loads is sampled when
    None; an eps that is not finite and positive raises ValueError."""
    batch = direct_batch if spec.pair.joint_eigenbasis is None else _modes_batch
    return batch(spec, cells, loads)


def _modes_batch(spec: ProblemSpec, cells, loads=None) -> list:
    """solve_batch on the modes route.  Once per batch it checks every
    eps, samples the load when loads is None and takes the boundary
    vectors and the load (FV, None without one) into the basis; non-finite
    data make every cell direct_batch's ValueError.  Then each cell is
    one _mode_solve, and its failure is its value."""
    cells = [(_positive_eps(eps), complex(lam)) for eps, lam in cells]
    Vinv, n = spec.pair.joint_eigenbasis[1], spec.n
    if loads is None and spec.f is not None:
        loads = spec.f_samples(spec.t_grid())
    with np.errstate(over="ignore", invalid="ignore"):
        f1, f2 = (Vinv @ f for f in spec.bc.data_for(n))
        if not all(np.isfinite(x).all() for x in (f1, f2, () if loads is None else loads)):
            return [ValueError("array must not contain infs or NaNs")] * len(cells)
        FV = None
        if loads is not None and loads.any():
            FV = np.empty((spec.n_t, 2 * n), dtype=np.complex128)
            FV[:, n:] = np.matmul(loads, Vinv.T, out=FV[:, :n])[::-1]
    out = []
    for eps, lam in cells:
        try:
            out.append(_mode_solve(spec, eps, lam, f1, f2, FV))
        except SOLVER_ERRORS as exc:
            out.append(exc)
    return out


# nodes of the load interpolant per step; a 4-node cubic was off by
# 1.6e-10 at eps = 1e-2
STENCIL_WIDTH = 6


def _phi(z: np.ndarray, k_max: int) -> np.ndarray:
    """phi_0(z) .. phi_k_max(z) in rows: phi_0 = e^z and phi_(k+1)(z) =
    (phi_k(z) - 1/k!) / z.  Below |z| = 2, where that would lose up to
    k_max! / 2^k_max, 20 terms of sum_j z^j / (j + k_max)! give phi_k_max
    and the rest follow downward."""
    out = np.empty((k_max + 1, len(z)), dtype=np.complex128)
    out[0] = np.exp(z)
    for k in range(k_max):
        out[k + 1] = (out[k] - 1.0 / factorial(k)) / z
    small = np.abs(z) < 2.0
    zs = z[small]
    taylor = [1.0 / factorial(j + k_max) for j in range(20)]
    out[k_max, small] = zs[:, None] ** np.arange(20) @ taylor
    for k in range(k_max - 1, 0, -1):
        out[k, small] = zs * out[k + 1, small] + 1.0 / factorial(k)
    return out


@functools.cache
def _lagrange(offsets: tuple) -> np.ndarray:
    """D[m, i] = m! c_im, sum_m c_im theta^m being the Lagrange polynomial
    of offsets[i]: integer roots and denominators, one rounding each.
    Shared, so read-only."""
    D = np.empty((len(offsets), len(offsets)))
    for i, o in enumerate(offsets):
        others = np.delete(offsets, i)
        D[:, i] = np.polynomial.polynomial.polyfromroots(others) / np.prod(o - others)
    D *= np.array([factorial(m) for m in range(len(offsets))])[:, None]
    D.flags.writeable = False
    return D


def _increments(F, z, h: float, out, step) -> None:
    """out[k] = int_0^h e^(z (h - s)/h) p_k(s) ds, p_k interpolating the
    columns of F at the min(STENCIL_WIDTH, len(F)) nodes o_i h from t_k
    nearest step k.  As int_0^h e^(z (h - s)/h) (s/h)^m ds is
    h m! phi_(m+1)(z), node i weighs h sum_m D[m, i] phi_(m+1)(z).  step
    is scratch."""
    N, width = len(F), min(STENCIL_WIDTH, len(F))
    shift = np.clip(np.arange(N - 1) - width // 2 + 1, 0, N - width) - np.arange(N - 1)
    phi = _phi(z, width)[1:]
    for sh in np.unique(shift):
        k = np.flatnonzero(shift == sh)
        lo, hi = k[0] + sh, k[-1] + 1 + sh
        w = h * (_lagrange(tuple(range(sh, sh + width))).T @ phi)
        run = np.multiply(F[lo:hi], w[0], out=out[k[0]:k[-1] + 1])
        for i in range(1, width):
            run += np.multiply(F[lo + i:hi + i], w[i], out=step[:len(run)])


def _scan(P, x, step) -> None:
    """x_k += P x_(k-1) in place, in order, elementwise, by doubling: after
    the pass of stride d each row sums its last 2d terms.  step is scratch."""
    d = 1
    while d < len(x):
        x[d:] += np.multiply(x[:-d], P, out=step[d:])
        d, P = 2 * d, P * P


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _mode_solve(spec: ProblemSpec, eps: float, lam: complex, f1, f2, FV) -> GridFunction:
    """Solve a pair with a joint eigenbasis at eps and lam mode by mode ("modes").

    f1, f2 and FV, the load forward and then reversed, are the data in
    the basis (_modes_batch), shared by the cells and only read.

    Mode a, b of the basis solves -eps u'' + b u' + c u = f, c = a + lam,
    as u = (x + y)/s + alpha e^(r- t) + beta e^(r+ (t - T)).  Here s is
    (b^2 + 4 eps c)^(1/2), and r-, r+ are the roots of eps r^2 - b r - c,
    the larger by modulus as (b +- s)/(2 eps) and the other as
    -2c/(b +- s), so neither cancels.  x' = r- x + f from x(0) = 0 and
    y' = r+ y - f from y(T) = 0 are scanned forward and backward, each
    step adding the exact integral of the load's interpolant
    (_increments), and alpha, beta solve each mode's 2 x 2 boundary
    system by Cramer's rule on rows scaled to unit max-norm.  Raises
    SqrtNotConverged when some b^2 + 4 eps c lies within
    BRANCH_CUT_RTOL max|b^2 + 4 eps c| of (-inf, 0], SingularMatrix for
    a scaled determinant below MIN_RCOND and Overflow for a solution
    that is not finite.
    """
    V, _, a, b = spec.pair.joint_eigenbasis
    t, n, N = spec.t_grid(), spec.n, spec.n_t
    h, c = t[1] - t[0], a + lam
    m = b * b + 4.0 * eps * c
    tol = BRANCH_CUT_RTOL * np.abs(m).max()
    on_cut = (np.abs(m.imag) <= tol) & (m.real <= tol)
    if on_cut.any():
        raise SqrtNotConverged(
            f"b^2 + 4 eps (a + lam) = {complex(m[on_cut][0]):.3e} on the branch cut (-inf, 0]")
    s = np.sqrt(m)
    plus = (b.conj() * s).real >= 0
    q = np.where(plus, b + s, b - s)
    large, small = q / (2.0 * eps), -2.0 * c / q
    r_minus, r_plus = np.where(plus, small, large), np.where(plus, large, small)
    # one workspace, so that a solve makes few large allocations and a
    # sweep reuses its heap instead of refaulting it: E holds
    # [e^(r- t) | e^(r+ (T - t))]; with a load, x runs forward in xy's first
    # n columns and y backward in its last n
    E, *xy = np.empty((1 if FV is None else 2, N, 2 * n), dtype=np.complex128)
    # L1 and L2 of e^(r t) per unit value at their ends, r = r-, r+
    L1, L2 = (spec.bc.apply(k, 1.0, np.stack([r_minus, r_plus]), eps) for k in (1, 2))
    z = np.concatenate([r_minus, -r_plus]) * h   # both decay if Re r- < 0 < Re r+
    P = np.exp(z)
    if FV is not None:
        xy, = xy
        xy[0] = 0.0
        _increments(FV, z, h, xy[1:], E)
        _scan(P, xy, E)
        xy /= np.tile(s, 2)
        # (x + y)/s is y(0)/s and r+ y(0)/s at 0, x(T)/s and r- x(T)/s at T
        f1 = f1 - L1[1] * xy[-1, n:]
        f2 = f2 - L2[0] * xy[-1, :n]
    _orbit(P, np.ones(2 * n), N, out=E)
    S = np.array([[L1[0], L1[1] * E[-1, n:]], [L2[0] * E[-1, :n], L2[1]]])
    scale = np.abs(S).max(axis=1)
    (S11, S12), (S21, S22) = S / scale[:, None]
    f1, f2 = f1 / scale[0], f2 / scale[1]
    det = S11 * S22 - S12 * S21
    if not np.all(np.abs(det) >= MIN_RCOND):
        raise SingularMatrix(f"mode boundary system has scaled determinant "
                             f"{np.abs(det).min():.3e} below {MIN_RCOND:.0e}")
    E *= np.concatenate([f1 * S22 - S12 * f2, S11 * f2 - S21 * f1]) / np.tile(det, 2)
    if FV is not None:
        E += xy
    E[:, :n] += E[::-1, n:]
    u = E[:, :n] @ V.T
    if not np.isfinite(u).all():
        raise Overflow("mode solution overflowed to non-finite values")
    return GridFunction(t, u, meta={"path": "modes"})
