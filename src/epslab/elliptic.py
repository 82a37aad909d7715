"""Two-point solvers for -eps u'' + B u' + (A + lam) u = f on (0, T).

solve_batch solves one spec at a sequence of (eps, lam) cells and is the
one place that picks a route; full_solve is its batch of one.  Both
routes go through _batched: every route solves one kind of lam per
stack, in the dtype its data promote to (linalg.narrow), so a cell's
numbers never depend on its batch; the same code runs in either dtype.
The batch (_Batch) is per cell its GridFunction or its error, and it
hands out the solution stacks those GridFunctions view (stacks).
In a joint eigenbasis the problem splits into n scalar ones, solved
exactly but for the load quadrature (_modes_stack): every length-n step
for all the stack's cells at once and the n_t-long passes cell by cell,
in one workspace, into one solution stack.
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
derivatives; the nodes between share one stencil and are solved in
place by odd-even block cyclic reduction, O(log n_t) solve_cells calls.
Their rcond guard sees each block alone, and the route applies each
inverse to the coupling and the load itself; the data are scaled by a
power of two, so only a block past the float64 range surfaces, as
Overflow, or a solution past it, as "solution overflowed" at the end.
Every route reads spec.loads.
direct_batch runs the scheme for several (eps, lam) cells at once: per
kind of lam (_fd_stack), the blocks carry a leading cell axis, each
solve_cells call inverts the stack of the cells that have not failed,
and a cell's failure is its own; direct_solve is its batch of one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import factorial
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import exprparse
from .discretize import BoundaryData, GridFunction, OperatorPair, SpaceGrid
from .linalg import (BRANCH_CUT_RTOL, MIN_RCOND, NUMERICAL_ERRORS, Overflow, SingularMatrix,
                     SqrtNotConverged, expm, mat_solve, narrow, op_norm, solve_cells, sqrtm)

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


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one singularly perturbed two-point problem.

    eps must be finite and positive, lam finite, T finite and positive,
    and the time grid needs n_t >= 5 nodes.  f is None (zero load), a callable
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
        object.__setattr__(self, "eps", _positive_eps(self.eps))
        object.__setattr__(self, "lam", complex(self.lam))
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        object.__setattr__(self, "T", float(self.T))
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if self.n_t < 5:
            raise ValueError("need at least 5 time nodes")
        object.__setattr__(self, "_f_expr", exprparse.parse(self.f, allowed_vars=("t", "y"))
                           if isinstance(self.f, str) else None)
        self.bc.data_for(self.pair.n)  # shape check up front

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def A_lam(self) -> np.ndarray:
        """A + lam, lam narrowed (linalg.narrow)."""
        return self.pair.A + narrow(self.lam) * np.eye(self.n)

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t)

    @functools.cached_property
    def loads(self) -> Optional[np.ndarray]:
        """f_samples on t_grid(), read-only, or None without a load: sampled
        once per spec, and a copy made by dataclasses.replace samples its own."""
        if self.f is None:
            return None
        loads = self.f_samples(self.t_grid())
        loads.flags.writeable = False
        return loads

    def f_samples(self, t) -> np.ndarray:
        """The interior load on time nodes t, narrowed; shape (len(t), n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = self.n
        if self.f is None:
            return np.zeros((len(t), n))
        if self._f_expr is not None:
            grid = self.pair.grid or SpaceGrid.uniform_interior(n)
            vals = exprparse.eval_expr(
                self._f_expr, {"t": t[:, None], "y": grid.nodes[None, :]})
            return np.broadcast_to(narrow(vals), (len(t), n)).copy()
        return narrow(np.stack([np.asarray(self.f(float(ti))).reshape(n) for ti in t]))


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


def _boundary_matrix(G1, G2, E1, E2, bc: BoundaryData, eps: float) -> np.ndarray:
    """The 2n x 2n boundary system in the unknowns (g1, h2)."""
    eye = np.eye(G1.shape[0], dtype=np.complex128)
    return np.block([[bc.apply(1, eye, -G1, eps), bc.apply(1, eye, G2, eps) @ E2],
                     [bc.apply(2, eye, -G1, eps) @ E1, bc.apply(2, eye, G2, eps)]])


def compute_q_system(spec: ProblemSpec) -> QSystem:
    """Square-root calculus plus the solved boundary weights for spec.

    The boundary system is driven by the raw boundary vectors of spec
    and sees no load: it serves the homogeneous reference solution
    (homogeneous_solution) and parabolic.build_MN, not the solvers.
    """
    B = spec.pair.B
    R = sqrtm(B @ B + 4.0 * spec.eps * spec.A_lam)
    Q1, Q2 = (B + R) / (2.0 * spec.eps), (B - R) / (2.0 * spec.eps)
    G1, G2 = -Q2, Q1
    E1 = expm(-spec.T * G1)
    E2 = expm(-spec.T * G2)
    f1, f2 = spec.bc.data_for(spec.n)
    S = _boundary_matrix(G1, G2, E1, E2, spec.bc, spec.eps)
    g1, h2 = np.split(mat_solve(S, np.concatenate([f1, f2])), 2)
    return QSystem(Q1=Q1, Q2=Q2, Qlam=R, G1=G1, G2=G2,
                   E1=E1, E2=E2, g1=g1, g2=E2 @ h2, h2=h2)


def _orbit(P: np.ndarray, start: np.ndarray, n_t: int, out=None) -> np.ndarray:
    """n_t states of the step x -> P x from start, sampled by block doubling.

    Row 0 is start.  With the first k rows filled, the next
    m = min(k, n_t - k) rows are rows[:m] @ (P^k)^T, one GEMM, and P^k
    is then squared: about log2(n_t) GEMMs plus as many n x n
    squarings, O(n_t n^2) flops in all; a vector P acts elementwise, and
    out, if given, takes the states.  Raises Overflow when a state is
    not finite.
    """
    step = np.matmul if P.ndim == 2 else np.multiply
    x = np.empty((n_t, len(start)), np.result_type(P, start)) if out is None else out
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
    return x


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
    w = _orbit(P2, qsys.h2, spec.n_t)[::-1]  # a view: no GEMM on negative strides
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


def _solve_live(fails: list, M) -> np.ndarray:
    """linalg.solve_cells' inverses of the (cells, n, n) stack M,
    skipping every cell that has failed already.

    A cell that fails here gets the error direct_solve raises for it in
    fails and a zero inverse, and no later call inverts its blocks.
    """
    Minv, errors = solve_cells(M, skip=[f is not None for f in fails])
    for i, exc in enumerate(errors):
        if isinstance(exc, SingularMatrix):
            fails[i] = exc
        elif exc is not None:
            # the data are finite, so a non-finite block is overflow
            fails[i] = Overflow("finite difference sweep overflowed to non-finite values")
            fails[i].__cause__ = exc
    return Minv


def _rows(index: np.ndarray) -> slice:
    """The increasing, evenly spaced row indices index as a slice, so that
    indexing by it makes views and not copies."""
    step = index[1] - index[0] if len(index) > 1 else 1
    return slice(int(index[0]), int(index[-1]) + 1, int(step))


def _shifted(rows: slice, by: int) -> slice:
    """rows moved on by `by` places."""
    return slice(rows.start + by, rows.stop + by, rows.step)


def _cyclic_reduction(kinds: list, cls: np.ndarray, x: np.ndarray, fails: list) -> None:
    """Solve L_i x_{i-1} + D_i x_i + U_i x_{i+1} = load_i by odd-even
    reduction, in place: x holds the loads on entry, the solution on return.

    The leading axis of x, (cells, rows, n), and of every block,
    (cells, n, n), runs over the cells of a stack, which share the row
    classes: row i has class cls[i], and kinds[c] = (L, D, U) are the
    block stacks of class c, with None for the missing neighbour of an
    end row.  Level l eliminates every other row of those s = 2^l apart:
    per distinct class among them, one solve_cells stack inverts D, and
    x_j = y_j - alpha x_{j-s} - beta x_{j+s} with y_j = D^-1 load_j,
    which overwrites load_j, alpha = D^-1 L and beta = D^-1 U.  A kept
    row's class becomes the triple of the classes of its left neighbour,
    itself and its right neighbour, and per triple batched GEMMs update
    its load where it stands, then its blocks; the back substitution
    writes x_j over y_j.  The rows of a class are indexed by a slice
    (_rows): with a first, an interior and a last class at the start,
    every class's rows are evenly spaced.  The guard sees each block
    alone; the first failing inverse of a cell in reduction order goes
    to fails (_solve_live), and that cell's rows of x mean nothing.  The
    caller holds the errstate.
    """
    s, levels = 1, []
    while len(cls) > 1:
        m = len(cls)
        elim = {}
        for c in np.unique(cls[1::2]):
            rows = _rows(s * (2 * np.flatnonzero(cls[1::2] == c) + 1))
            L, D, U = kinds[c]
            Dinv = _solve_live(fails, D)
            x[:, rows] = x[:, rows] @ Dinv.mT
            elim[c] = (rows, Dinv @ L, None if U is None else Dinv @ U)
        keep = np.arange(0, m, 2)
        left = np.where(keep > 0, cls[keep - 1], -1)
        right = np.where(keep + 1 < m, cls[np.minimum(keep + 1, m - 1)], -1)
        K = len(kinds) + 1
        codes, new_cls = np.unique((left + 1) * K * K + cls[keep] * K + right + 1,
                                   return_inverse=True)
        new_kinds = []
        for j, code in enumerate(codes):
            l, c, r = code // (K * K) - 1, code // K % K, code % K - 1
            L, D, U = kinds[c]
            rows = _rows(2 * s * np.flatnonzero(new_cls == j))
            if l >= 0:
                _, alpha, beta = elim[l]
                x[:, rows] -= x[:, _shifted(rows, -s)] @ L.mT
                L, D = -L @ alpha, D - L @ beta
            if r >= 0:
                _, alpha, beta = elim[r]
                x[:, rows] -= x[:, _shifted(rows, s)] @ U.mT
                D, U = D - U @ alpha, None if beta is None else -U @ beta
            new_kinds.append((L, D, U))
        levels.append((s, elim))
        kinds, cls, s = new_kinds, new_cls, 2 * s
    _, D, _ = kinds[cls[0]]
    x[:, :1] = x[:, :1] @ _solve_live(fails, D).mT
    for s, elim in reversed(levels):
        for rows, alpha, beta in elim.values():
            x[:, rows] -= x[:, _shifted(rows, -s)] @ alpha.mT
            if beta is not None:
                x[:, rows] -= x[:, _shifted(rows, s)] @ beta.mT


def direct_batch(spec: ProblemSpec, cells) -> list:
    """direct_solve of spec at every (eps, lam) pair of cells, as one batch
    (_batched): per kind of lam, one _fd_stack; per cell, its
    GridFunction or the exception a solo direct_solve raises for it."""
    return _batched(_fd_stack, "direct", spec, cells)


def _fd_stack(spec: ProblemSpec, eps: np.ndarray, lam: np.ndarray, f1, f2) -> tuple:
    """The finite difference scheme of direct_solve at the cells eps[j],
    lam[j], whose lam share one dtype, with the boundary vectors f1, f2.

    The cells share everything else: the row classes of the cyclic
    reduction, the load samples (spec.loads) and the dtype their data
    promote to, which is each cell's solo dtype.  Blocks, end pivots and
    the solution u are (cells, ...) stacks, and every factorization is
    one solve_cells call over the stack, whose guard judges each cell
    apart; each end pivot's inverse gives its coupling Uhat (Vhat) and
    its load r (s) as arrays of their own.  u holds the scaled data on
    entry: the pivots read their ends, and the cyclic reduction solves
    the interior nodes in place.  Returns u and, per cell, None or its
    error; a failed cell gets no further factorization and leaves the
    others.
    """
    t = spec.t_grid()
    h = t[1] - t[0]
    n, N, n_cells, loads = spec.n, spec.n_t, len(eps), spec.loads
    B, A_lam = spec.pair.B, spec.pair.A + lam[:, None, None] * np.eye(n)
    data = (f1, f2) if loads is None else (f1, f2, loads)
    # u is linear in the data: solve for the data over 2^(e-1), e the
    # exponent of their largest component, so that a load near the
    # float64 limit keeps the sweep finite; powers of two scale exactly
    top = max(np.abs(part).max(initial=0.0) for x in data for part in (x.real, x.imag))
    scale = np.ldexp(1.0, int(np.frexp(top)[1]) - 1)
    # L1 on (u_0, u_1, u_2) and L2 on (u_{N-3}, u_{N-2}, u_{N-1}), per cell
    left = spec.bc.apply(1, np.array([1.0, 0.0, 0.0]),
                         np.array([-3.0, 4.0, -1.0]) / (2 * h), eps[:, None])
    right = spec.bc.apply(2, np.array([0.0, 0.0, 1.0]),
                          np.array([1.0, -4.0, 3.0]) / (2 * h), eps[:, None])
    dtype = np.result_type(B, A_lam, *data, left, right)
    u = np.empty((n_cells, N, n), dtype)
    np.divide(f1, scale, out=u[:, 0])
    np.divide(0.0 if loads is None else loads[1:N - 1], scale, out=u[:, 1:N - 1])
    np.divide(f2, scale, out=u[:, N - 1])
    eye = np.eye(n, dtype=dtype)
    left, right = left[:, :, None, None] * eye, right[:, :, None, None] * eye
    with np.errstate(over="ignore", invalid="ignore"):
        e = eps[:, None, None]
        lower = -e / h**2 * eye - B / (2 * h)
        diag = 2 * e / h**2 * eye + A_lam
        upper = -e / h**2 * eye + B / (2 * h)
        fails = [None] * n_cells
        # rows 0 and 1, L1 then the stencil: u_i = r_i - Uhat_i u_2
        Pinv = _solve_live(fails, np.block([[left[:, 0], left[:, 1]], [lower, diag]]))
        Uhat = (Pinv @ np.concatenate([left[:, 2], upper], axis=1)).reshape(n_cells, 2, n, n)
        r = (Pinv @ u[:, :2].reshape(n_cells, 2 * n, 1)).reshape(n_cells, 2, n, 1)
        # the stencil at N-2, then L2: u_{N-2+i} = s_i - Vhat_i u_{N-3}
        Pinv = _solve_live(fails, np.block([[diag, upper], [right[:, 1], right[:, 2]]]))
        Vhat = (Pinv @ np.concatenate([lower, right[:, 0]], axis=1)).reshape(n_cells, 2, n, n)
        s = (Pinv @ u[:, N - 2:].reshape(n_cells, 2 * n, 1)).reshape(n_cells, 2, n, 1)
        D_first = diag - lower @ Uhat[:, 1]
        D_last = (D_first if N == 5 else diag) - upper @ Vhat[:, 0]
        u[:, 2] -= (lower @ r[:, 1])[..., 0]
        u[:, N - 3] -= (upper @ s[:, 0])[..., 0]
        kinds = [(None, D_first, upper), (lower, diag, upper), (lower, D_last, None)]
        cls = np.ones(N - 4, int)
        cls[0], cls[-1] = 0, 2
        _cyclic_reduction(kinds, cls, u[:, 2:N - 2], fails)
        u[:, :2] = (r - Uhat @ u[:, None, 2, :, None])[..., 0]
        u[:, N - 2:] = (s - Vhat @ u[:, None, N - 3, :, None])[..., 0]
        u *= scale
    for j, ui in enumerate(u):
        if fails[j] is None and not np.isfinite(ui).all():
            fails[j] = Overflow("finite difference solution overflowed to non-finite values")
    return u, fails


def direct_solve(spec: ProblemSpec) -> GridFunction:
    """Block-tridiagonal finite difference solve of the full problem.

    Interior rows are the standard O(h^2) stencil; the boundary rows are
    spec.bc.apply of one-sided O(h^2) derivatives, which reach two nodes
    in.  Two 2n x 2n pivots absorb them: rows 0 and 1 give (u_0, u_1) in
    terms of u_2, rows N-2 and N-1 give (u_{N-2}, u_{N-1}) in terms of
    u_{N-3}.  The nodes 2..N-3 left over share one stencil except for
    the diagonal blocks of the two end rows (one row at n_t = 5), and
    odd-even block cyclic reduction solves them in the solution array
    (_cyclic_reduction): each level inverts one block per distinct row
    class, O(log n_t) in all, in the dtype the data promote to.  Both
    pivots and every block of the reduction go through
    linalg.solve_cells, whose rcond guard sees the block alone, so the
    first failing inverse raises: the first pivot's, then the last
    pivot's, then in reduction order.  No inverted block depends on the
    load.  A non-finite eps, lam, load or
    boundary vector raises ValueError up front; after that, a block
    past the float64 range (eps / h^2, say) raises Overflow, and so
    does a solution past it, as "finite difference solution overflowed
    to non-finite values".  This is the batch of one of direct_batch,
    and a cell's numbers never depend on its batch.
    """
    return _solo(direct_batch(spec, [(spec.eps, spec.lam)]))


def full_solve(spec: ProblemSpec) -> GridFunction:
    """Solve the full problem: solve_batch's batch of one, failure raised."""
    return _solo(solve_batch(spec, [(spec.eps, spec.lam)]))


def _solo(cells: list) -> GridFunction:
    u, = cells
    if isinstance(u, Exception):
        raise u
    return u


def solve_batch(spec: ProblemSpec, cells) -> list:
    """spec at every (eps, lam) pair of cells, as one batch (_batched): per
    cell, its GridFunction, whose meta["path"] names the route, or the
    SOLVER_ERRORS its solve raised.  A pair without a joint eigenbasis
    takes the FD route (direct_batch), any other one the modes route
    (_modes_stack); every cell reads spec.loads.  An eps that is not
    finite and positive, or a lam that is not finite, raises ValueError."""
    if spec.pair.joint_eigenbasis is None:
        return direct_batch(spec, cells)
    return _batched(_modes_stack, "modes", spec, cells)


class _Batch(list):
    """Per cell, in cell order, its GridFunction or its error; stacks holds
    (index, stack) per kind of lam, in the order the kinds first occur,
    with stack[k] the solution of cell index[k], which that cell's
    GridFunction views.  A failed cell's row means nothing."""

    def __init__(self, cells: list, stacks: list):
        super().__init__(cells)
        self.stacks = stacks


def _batched(route: Callable, path: str, spec: ProblemSpec, cells) -> _Batch:
    """route(spec, eps, lam, f1, f2) once per kind of lam, real or
    complex, as a _Batch: eps and lam hold one kind's cells, so each cell
    solves in its solo dtype, bit for bit its solo solve, and route
    returns their solution stack and per cell None or its error.  Each
    solved row becomes a GridFunction with meta["path"] = path.  Each eps
    and lam is checked (ValueError) and each lam narrowed (linalg.narrow)
    first; a non-finite spec.loads or boundary vector f1, f2 makes every
    cell its ValueError, with no stack."""
    eps = np.array([_positive_eps(e) for e, _ in cells])
    lam = [narrow(complex(z)) for _, z in cells]
    if not np.isfinite(lam).all():
        raise ValueError("lam must be finite")
    f1, f2 = spec.bc.data_for(spec.n)
    if not all(np.isfinite(x).all() for x in (f1, f2, () if spec.loads is None else spec.loads)):
        return _Batch([ValueError("array must not contain infs or NaNs")] * len(cells), [])
    t, out, stacks = spec.t_grid(), [None] * len(cells), []
    for kind in dict.fromkeys(z.dtype for z in lam):
        index = [i for i, z in enumerate(lam) if z.dtype == kind]
        stack, errors = route(spec, eps[index], np.array([lam[i] for i in index]), f1, f2)
        for i, row, exc in zip(index, stack, errors):
            out[i] = GridFunction(t, row, meta={"path": path}) if exc is None else exc
        stacks.append((index, stack))
    return _Batch(out, stacks)


class _Load:
    """The load in the basis, forward and then reversed (F), shared by a
    stack's cells.  doubled, F with each column twice, is made once per
    stack when a complex cell first takes a real load (_increments)."""

    def __init__(self, F: np.ndarray):
        self.F = F

    @functools.cached_property
    def doubled(self) -> np.ndarray:
        return self.F.repeat(2, axis=1)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _modes_stack(spec: ProblemSpec, eps: np.ndarray, lam: np.ndarray, f1, f2) -> tuple:
    """Solve a pair with a joint eigenbasis mode by mode at the cells
    eps[j], lam[j], whose lam share one dtype (_batched), with the
    boundary vectors f1, f2: the (cells, n_t, n) solution stack and, per
    cell, None or the SOLVER_ERRORS its solve raised.

    Once per stack, f1, f2 and spec.loads (FV, a _Load, None without one)
    go into the pair's joint eigenbasis (V, Vinv, a, b), shared by the
    cells and only read.  The cells run in the dtype they and lam
    promote to, each cell's solo dtype; with real data past the
    branch-cut check every b^2 + 4 eps c is > 0, so every root is real.

    Mode a, b of the basis solves -eps u'' + b u' + c u = f, c = a + lam,
    as u = (x + y)/s + alpha e^(r- t) + beta e^(r+ (t - T)).  Here s is
    (b^2 + 4 eps c)^(1/2), and r-, r+ are the roots of eps r^2 - b r - c,
    the larger by modulus as (b +- s)/(2 eps) and the other as
    -2c/(b +- s), so neither cancels.  x' = r- x + f from x(0) = 0 and
    y' = r+ y - f from y(T) = 0 are scanned forward and backward, each
    step adding the exact integral of the load's interpolant
    (_increments), and alpha, beta solve each mode's 2 x 2 boundary
    system by Cramer's rule on rows scaled to unit max-norm.

    Everything of length n is done for all the cells at once, as
    (cells, n) stacks: c and b^2 + 4 eps c with their checks, the roots,
    the boundary rows, the steps' exponents z and propagators P, and
    with a load every cell's increment weights (_weights, one _phi).
    The passes over the n_t x 2n workspace stay per cell, in one
    workspace for all of them, and each cell's u goes into its row of
    the solution stack.  A cell
    fails on its own: Overflow when some b^2 + 4 eps c is not finite,
    SqrtNotConverged when one lies within BRANCH_CUT_RTOL
    max|b^2 + 4 eps c| of (-inf, 0], then Overflow from the orbit,
    SingularMatrix for a scaled determinant below MIN_RCOND and Overflow
    for a solution that is not finite.
    """
    V, Vinv, a, b = spec.pair.joint_eigenbasis
    t, n, N = spec.t_grid(), spec.n, spec.n_t
    f1, f2 = Vinv @ f1, Vinv @ f2
    FV = None
    if spec.loads is not None and spec.loads.any():
        FV = _Load(np.empty((N, 2 * n), np.result_type(spec.loads, Vinv)))
        FV.F[:, n:] = np.matmul(spec.loads, Vinv.T, out=FV.F[:, :n])[::-1]
    h, c = t[1] - t[0], a + lam[:, None]
    m = b * b + 4.0 * eps[:, None] * c
    errors = [None] * len(eps)
    tol = BRANCH_CUT_RTOL * np.abs(m).max(axis=1, keepdims=True)
    on_cut = (np.abs(m.imag) <= tol) & (m.real <= tol)
    for j, mj in enumerate(m):
        if not np.isfinite(mj).all():
            errors[j] = Overflow("b^2 + 4 eps (a + lam) overflowed to non-finite values")
        elif on_cut[j].any():
            errors[j] = SqrtNotConverged(f"b^2 + 4 eps (a + lam) = {complex(mj[on_cut[j]][0]):.3e} "
                                         f"on the branch cut (-inf, 0]")
    s = np.sqrt(m)
    plus = (b.conj() * s).real >= 0
    q = np.where(plus, b + s, b - s)
    large, small = q / (2.0 * eps[:, None]), -2.0 * c / q
    r_minus, r_plus = np.where(plus, small, large), np.where(plus, large, small)
    # L1 and L2 of e^(r t) per unit value at their ends, r = r-, r+, per cell
    L1, L2 = np.stack([spec.bc.apply(k, 1.0, np.stack([r_minus, r_plus]), eps[:, None])
                       for k in (1, 2)])
    # one workspace for every cell, so that a solve makes few large
    # allocations: E holds [e^(r- t) | e^(r+ (T - t))]; with a load, x
    # runs forward in xy's first n columns and y backward in its last n
    dtype = np.result_type(L1, f1, f2, *(() if FV is None else (FV.F,)))
    E, *xy = np.empty((1 if FV is None else 2, N, 2 * n), dtype)
    U = np.empty((len(eps), N, n), np.result_type(dtype, V))
    z = np.concatenate([r_minus, -r_plus], axis=1) * h   # both decay if Re r- < 0 < Re r+
    P = np.exp(z)
    if FV is not None:
        # xy holds x/s and y/s: the increments come scaled by 1/s
        xy, = xy
        w = _weights(N, z, h, 1.0 / np.tile(s, 2))
    for j in (j for j, fail in enumerate(errors) if fail is None):
        try:
            g1, g2 = f1, f2
            if FV is not None:
                xy[0] = 0.0
                _increments(FV, w[j], xy[1:])
                _scan(P[j], xy, E)
                # (x + y)/s is y(0)/s and r+ y(0)/s at 0, x(T)/s and r- x(T)/s at T
                g1 = f1 - L1[1, j] * xy[-1, n:]
                g2 = f2 - L2[0, j] * xy[-1, :n]
            _orbit(P[j], np.ones(2 * n), N, out=E)
            S = np.array([[L1[0, j], L1[1, j] * E[-1, n:]], [L2[0, j] * E[-1, :n], L2[1, j]]])
            scale = np.abs(S).max(axis=1)
            (S11, S12), (S21, S22) = S / scale[:, None]
            g1, g2 = g1 / scale[0], g2 / scale[1]
            det = S11 * S22 - S12 * S21
            if not np.all(np.abs(det) >= MIN_RCOND):
                raise SingularMatrix(f"mode boundary system has scaled determinant "
                                     f"{np.abs(det).min():.3e} below {MIN_RCOND:.0e}")
            E *= np.concatenate([g1 * S22 - S12 * g2, S11 * g2 - S21 * g1]) / np.tile(det, 2)
            if FV is not None:
                E += xy
            E[:, :n] += E[::-1, n:]
            np.matmul(E[:, :n], V.T, out=U[j])
            if not np.isfinite(U[j]).all():
                raise Overflow("mode solution overflowed to non-finite values")
        except SOLVER_ERRORS as exc:
            errors[j] = exc
    return U, errors


# nodes of the load interpolant per step; a 4-node cubic was off by
# 1.6e-10 at eps = 1e-2
STENCIL_WIDTH = 6
# _phi sums the Taylor series of phi_k below this |z| and recurs above it
PHI_TAYLOR_RADIUS = 2.0


@np.errstate(divide="ignore", invalid="ignore")
def _phi(z: np.ndarray, k_max: int) -> np.ndarray:
    """phi_0(z) .. phi_k_max(z) in rows: phi_0 = e^z and phi_(k+1)(z) =
    (phi_k(z) - 1/k!) / z.  Below |z| = PHI_TAYLOR_RADIUS, where that
    would lose up to k_max! / 2^k_max (and divides by 0 at z = 0), 20
    terms of sum_j z^j / (j + k_max)!, by Horner, give phi_k_max and the
    rest follow downward, in z's dtype."""
    out = np.empty((k_max + 1, len(z)), dtype=z.dtype)
    out[0] = np.exp(z)
    for k in range(k_max):
        out[k + 1] = (out[k] - 1.0 / factorial(k)) / z
    small = np.abs(z) < PHI_TAYLOR_RADIUS
    zs = z[small]
    taylor = np.full_like(zs, 1.0 / factorial(k_max + 19))
    for j in range(k_max + 18, k_max - 1, -1):
        taylor *= zs
        taylor += 1.0 / factorial(j)
    out[k_max, small] = taylor
    for k in range(k_max - 1, 0, -1):
        out[k, small] = zs * out[k + 1, small] + 1.0 / factorial(k)
    return out


def _lagrange(offsets: tuple) -> np.ndarray:
    """D[m, i] = m! c_im, sum_m c_im theta^m being the Lagrange polynomial
    of offsets[i]: integer roots and denominators, one rounding each."""
    D = np.empty((len(offsets), len(offsets)))
    for i, o in enumerate(offsets):
        others = np.delete(offsets, i)
        D[:, i] = np.polynomial.polynomial.polyfromroots(others) / np.prod(o - others)
    D *= np.array([factorial(m) for m in range(len(offsets))])[:, None]
    return D


@functools.cache
def _stencils(n_t: int) -> tuple:
    """(D, inner, edges, starts) for an n_t-node grid.  Step k interpolates at
    the width = min(STENCIL_WIDTH, n_t) nodes from start_k =
    clip(k - width//2 + 1, 0, n_t - width); its class c = k - start_k
    puts them at offsets -c .. width - 1 - c from t_k, and D[c] is
    _lagrange of those offsets, transposed.  All steps but the edges
    share the interior class inner = width//2 - 1 and take the sliding
    windows in turn; the edges are the first width//2 - 1 steps and the last
    width - 1 - width//2, whose windows start (starts) at node 0 or
    n_t - width.  Shared, so read-only."""
    width = min(STENCIL_WIDTH, n_t)
    D = np.stack([_lagrange(tuple(range(-c, width - c))).T for c in range(width - 1)])
    inner = width // 2 - 1
    edges = np.r_[:inner, n_t - width + inner + 1:n_t - 1]
    starts = np.where(edges < inner, 0, n_t - width)
    for a in (D, edges, starts):
        a.flags.writeable = False
    return D, inner, edges, starts


def _weights(n_t: int, z: np.ndarray, h: float, scale) -> np.ndarray:
    """The increment weights of an n_t-node grid for each cell's row of
    exponents z, (cells, columns): w[j, c] = D[c] @ (phi_(1..width)(z[j])
    h scale[j]), (cells, classes, width, columns), from one _phi over
    every cell's z.  As int_0^h e^(z (h - s)/h) (s/h)^m ds is
    h m! phi_(m+1)(z), node i of class c weighs w[j, c, i] in the step's
    integral (_increments).  scale broadcasts against z."""
    D = _stencils(n_t)[0]
    width = D.shape[-1]
    phi = _phi(z.ravel(), width)[1:].reshape(width, *z.shape)
    x = np.empty((len(z), width, z.shape[1]), z.dtype)
    np.multiply(phi, h * scale, out=x.transpose(1, 0, 2))
    return D @ x[:, None]


def _increments(load: _Load, w: np.ndarray, out) -> None:
    """out[k] = scale int_0^h e^(z (h - s)/h) p_k(s) ds for one cell, p_k
    interpolating the columns of load.F at the nodes of step k
    (_stencils), with w that cell's weights (_weights): one einsum over
    the load's sliding windows gives the interior steps and one over
    their gathered windows the edge steps.  Complex weights meet a real
    load as their float64 view against load.doubled, all in float64 and
    with the same bits as against the load cast to complex, in about a
    quarter of the time."""
    F = load.F
    _, inner, edges, starts = _stencils(len(F))
    width = w.shape[1]
    if np.iscomplexobj(w) and not np.iscomplexobj(F):
        F, w, out = load.doubled, w.view(np.float64), out.view(np.float64)
    windows = sliding_window_view(F, width, axis=0)
    np.einsum("ij,kji->kj", w[inner], windows, out=out[inner:inner + len(windows)])
    out[edges] = np.einsum("kij,kji->kj", w[edges - starts], windows[starts])


def _scan(P, x, step) -> None:
    """x_k += P x_(k-1) in place, in order, elementwise, by a Brent-Kung
    scan (Brent & Kung 1982; Blelloch 1990): the up sweep at stride s
    adds P^s times row s-1 mod 2s into row 2s-1 mod 2s, so that row
    2s-1 mod 2s sums its block of 2s terms, and the down sweep, from the
    largest s down, adds P^s times row 2s-1 mod 2s into row 3s-1 mod 2s.
    About 2 len(x) row updates in all; step is scratch of len(x)//2 rows."""
    n, s, powers = len(x), 1, []
    while 2 * s <= n:
        powers.append((s, P))
        x[2 * s - 1::2 * s] += np.multiply(x[s - 1:n - s:2 * s], P, out=step[:n // (2 * s)])
        s, P = 2 * s, P * P
    for s, P in reversed(powers):
        x[3 * s - 1::2 * s] += np.multiply(x[2 * s - 1:n - s:2 * s], P,
                                           out=step[:(n - s) // (2 * s)])
