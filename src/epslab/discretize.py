"""Spatial grids, operator pairs, boundary data and weighted norms.

The operator coefficients live on the unit interval in the variable y.
A SpaceGrid carries the interior collocation nodes plus quadrature
weights that integrate to one; matrices built on it (second order
differential operators with dynamic boundary conditions, integral
operators by Nystrom quadrature) act on vectors of nodal values.

Norms come in three layers: the weighted-ell2 norm standing in for the
ground space E, the time-integrated mixed norm standing in for
L_p(0,T;E), and a K-functional quadrature realizing the real
interpolation norm between D(A) and E.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import exprparse
from .linalg import (SectorialityReport, SingularMatrix, as_complex_matrix,
                     check_positivity, inv, mat_solve, op_norm, solve_cells)

__all__ = [
    "NonPositiveCoefficient", "ConditionReport",
    "SpaceGrid", "GridFunction", "OperatorPair", "BoundaryData",
    "build_wentzell_operator", "build_integral_operator",
    "check_condition_1", "check_condition_2_1", "check_condition_4_1",
    "e_norm", "check_p", "mixed_norm", "kfunctional_norm", "COMMUTE_RTOL",
    "EIGENBASIS_RTOL",
]


class NonPositiveCoefficient(ValueError):
    """Diffusion coefficient fails strict positivity on the closed interval."""


def _as_coefficient(fn, variables: tuple) -> Callable:
    """Sampler of a coefficient given as an expression, a callable or a constant.

    The sampler takes the variables as keyword arrays and returns the
    coefficient broadcast to the shape of the first one, so a constant,
    whether a number or an expression such as "2", samples like any other
    coefficient.
    """
    if isinstance(fn, str):
        node = exprparse.parse(fn, allowed_vars=variables)
        sample = lambda **kw: exprparse.eval_expr(node, kw)
    elif callable(fn):
        sample = lambda **kw: fn(*(kw[v] for v in variables))
    else:
        value = float(fn)
        sample = lambda **kw: value
    return lambda **kw: np.broadcast_to(sample(**kw), np.shape(kw[variables[0]]))


@dataclass(frozen=True)
class SpaceGrid:
    """Interior nodes of [0, 1] with quadrature weights summing to one."""
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def h(self) -> float:
        return 1.0 / (len(self.nodes) + 1)

    @classmethod
    def uniform_interior(cls, n_y: int) -> "SpaceGrid":
        """n_y equispaced interior nodes j*h, h = 1/(n_y+1).

        Weights are the trapezoid rule with the endpoint half-cells lumped
        onto the first and last interior nodes, so they sum to one exactly
        and integrate smooth functions to O(h^2).
        """
        if n_y < 1:
            raise ValueError(f"need at least one interior node, got {n_y}")
        if n_y == 1:
            return cls(nodes=np.array([0.5]), weights=np.array([1.0]))
        h = 1.0 / (n_y + 1)
        nodes = h * np.arange(1, n_y + 1)
        weights = np.full(n_y, h)
        weights[0] = weights[-1] = 1.5 * h
        return cls(nodes=nodes, weights=weights)


@dataclass
class GridFunction:
    """Vector-valued function sampled on a uniform time grid."""
    t: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.t.ndim != 1 or len(self.t) < 3:
            raise ValueError("time grid must be 1-d with at least 3 nodes")
        steps = np.diff(self.t)
        h = steps.mean()
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * abs(h):
            raise ValueError("time grid must be uniform and increasing")
        if self.values.ndim != 2 or self.values.shape[0] != len(self.t):
            raise ValueError(
                f"values shape {self.values.shape} does not match {len(self.t)} time nodes")

    @property
    def n_t(self) -> int:
        return len(self.t)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def T(self) -> float:
        return float(self.t[-1] - self.t[0])

    def e_norms(self, weights=None) -> np.ndarray:
        """E-norm of each time slice."""
        return e_norm(self.values, weights)


COMMUTE_RTOL = 1e-10
# a joint eigenbasis is kept when it reproduces A and B to this relative
# backward error; eigenvalues of A this close share one eigenspace
EIGENBASIS_RTOL = 1e-10
RESOLVENT_T_SAMPLES = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)


class OperatorPair:
    """Matrix pair (A, B); A is certified positive at construction.

    Pass check_positive=False to skip the resolvent scan (needed when A
    has a nontrivial kernel, as dynamic-boundary operators do).  The scan
    samples lam_samples, which the pair keeps for later scans.  A and B
    are fixed at construction and never reassigned, so the commutator
    norm, the scale ||A|| ||B|| and the joint eigenbasis are computed
    once per pair, when first asked for.
    """

    def __init__(self, A, B, grid: Optional[SpaceGrid] = None,
                 check_positive: bool = True,
                 lam_samples: Sequence = (0.0, 1.0, 10.0, 100.0, 1000.0)):
        self.A = as_complex_matrix(A)
        self.B = as_complex_matrix(B)
        if self.A.shape != self.B.shape:
            raise ValueError(f"A and B shapes differ: {self.A.shape} vs {self.B.shape}")
        if grid is not None and grid.n != self.A.shape[0]:
            raise ValueError(f"grid has {grid.n} nodes but A is {self.A.shape[0]}x{self.A.shape[0]}")
        self.grid = grid
        self.lam_samples = tuple(lam_samples)
        self.positivity: Optional[SectorialityReport] = None
        if check_positive:
            rep = check_positivity(self.A, lam_samples=self.lam_samples)
            if not rep.passed:
                raise ValueError(
                    f"A fails the positivity scan: bound {rep.bound:.3e} at "
                    f"lam={rep.worst_lam} exceeds cap {rep.cap:.1e}")
            self.positivity = rep

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def weights(self) -> np.ndarray:
        if self.grid is not None:
            return np.asarray(self.grid.weights, dtype=float)
        return np.full(self.n, 1.0 / self.n)

    @cached_property
    def commutator_norm(self) -> float:
        """||AB - BA||_2."""
        return op_norm(self.A @ self.B - self.B @ self.A)

    @cached_property
    def _norm_product(self) -> float:
        return op_norm(self.A) * op_norm(self.B)

    def commutes(self) -> bool:
        """||AB - BA|| <= COMMUTE_RTOL ||A|| ||B||: the pair may have a joint eigenbasis."""
        scale = self._norm_product
        if scale == 0.0:
            return True
        return self.commutator_norm <= COMMUTE_RTOL * scale

    @cached_property
    def joint_eigenbasis(self):
        """(V, V^-1, a, b) with A = V diag(a) V^-1 and B = V diag(b) V^-1, or None.

        Commuting diagonalizable matrices share an eigenbasis: V is A's
        (np.linalg.eig), turned within each of A's eigenspaces by B's
        eigenbasis there, and V^-1 comes from linalg.inv.  a and b are the
        diagonals of V^-1 A V and V^-1 B V.  The basis is kept only when

            kappa_F(V) ||V^-1 M V - diag(m)||_F <= EIGENBASIS_RTOL ||M||_F

        for M = A and M = B, which bounds the relative backward error of
        the factorization; otherwise, and for a pair that does not
        commute or a V that fails inv's rcond guard, it is None.  A
        defective pair, such as A = B = [[2, 1], [0, 2]], has none.
        """
        if not self.commutes():
            return None
        w, V = np.linalg.eig(self.A)
        try:
            Bv = inv(V) @ self.B @ V
            tol = EIGENBASIS_RTOL * np.linalg.norm(self.A)
            for space in {tuple(np.flatnonzero(np.abs(w - x) <= tol)) for x in w}:
                if len(space) > 1:
                    V[:, space] = V[:, space] @ np.linalg.eig(Bv[np.ix_(space, space)])[1]
            Vinv = inv(V)
        except SingularMatrix:
            return None
        kappa = np.linalg.norm(V) * np.linalg.norm(Vinv)
        diagonals = []
        for M in (self.A, self.B):
            D = Vinv @ M @ V
            m = np.diagonal(D)
            if kappa * np.linalg.norm(D - np.diag(m)) > EIGENBASIS_RTOL * np.linalg.norm(M):
                return None
            diagonals.append(m)
        basis = (V, Vinv, *diagonals)
        for x in basis:  # every caller shares these arrays
            x.flags.writeable = False
        return basis


@dataclass(frozen=True)
class BoundaryData:
    """Two boundary functionals on (0, T), one per endpoint.

    L1 u = alpha0 u(0) + sqrt(eps) alpha1 u'(0) = f1   (order m1)
    L2 u = beta0  u(T) + sqrt(eps) beta1  u'(T) = f2   (order m2)

    m_k is 1 (derivative/Robin condition) exactly when alpha1 resp. beta1
    is nonzero, else 0 (value condition).  The determinant
    d = alpha0*beta1 - beta0*alpha1 must be nonzero: two value conditions,
    two pure derivative conditions or an end without coefficients fail.
    """
    alpha: tuple
    beta: tuple
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        alpha = tuple(complex(c) for c in self.alpha)
        beta = tuple(complex(c) for c in self.beta)
        if len(alpha) != 2 or len(beta) != 2:
            raise ValueError("alpha and beta must each have two coefficients")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "f1", np.atleast_1d(np.asarray(self.f1, dtype=np.complex128)))
        object.__setattr__(self, "f2", np.atleast_1d(np.asarray(self.f2, dtype=np.complex128)))
        if self.f1.ndim != 1 or self.f2.ndim != 1:
            raise ValueError("boundary data f1, f2 must be scalars or vectors")
        if self.d == 0:
            raise ValueError(
                "degenerate boundary pair: alpha0*beta1 - beta0*alpha1 must be nonzero")

    @property
    def m1(self) -> int:
        return int(self.alpha[1] != 0)

    @property
    def m2(self) -> int:
        return int(self.beta[1] != 0)

    @property
    def d(self) -> complex:
        return self.alpha[0] * self.beta[1] - self.beta[0] * self.alpha[1]

    def apply(self, k: int, u, du, eps: float):
        """L_k on values u and derivatives du at its end: c0*u + sqrt(eps)*c1*du."""
        c0, c1 = self.alpha if k == 1 else self.beta
        return c0 * u + np.sqrt(eps) * c1 * du

    def theta(self, p: float) -> tuple:
        """Interpolation exponents theta_k = m_k/2 + 1/(2p), each in (0, 1)."""
        th = (self.m1 / 2 + 1 / (2 * p), self.m2 / 2 + 1 / (2 * p))
        if not all(0 < t < 1 for t in th):
            raise ValueError(f"p = {p} gives theta = {th}; each theta_k must lie in (0, 1)")
        return th

    def data_for(self, n: int) -> tuple:
        """Boundary vectors broadcast to dimension n."""
        out = []
        for f in (self.f1, self.f2):
            if len(f) == n:
                out.append(f.copy())
            elif len(f) == 1:
                out.append(np.full(n, f[0], dtype=np.complex128))
            else:
                raise ValueError(f"boundary vector of length {len(f)} does not fit dimension {n}")
        return tuple(out)


def _one_sided_rows(a0: float, b0: float, h: float):
    """Coefficients of a0*u'' + b0*u' at an endpoint, O(h^2) one-sided.

    Returns coefficients on (u_bnd, u_in1, u_in2, u_in3) walking inward.
    """
    # u'(0)  ~ (-3 u0 + 4 u1 - u2) / (2h)
    # u''(0) ~ (2 u0 - 5 u1 + 4 u2 - u3) / h^2
    c_dd = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    c_d = np.array([-3.0, 4.0, -1.0, 0.0]) / (2 * h)
    return a0 * c_dd + b0 * c_d


def build_wentzell_operator(grid: SpaceGrid, a, b) -> np.ndarray:
    """Matrix of A u = -(a u'' + b u') with a u'' + b u' = 0 at both ends.

    One matrix L on all n + 2 nodes holds central rows of -(a u'' + b u')
    on the interior and, in the two end rows, the one-sided O(h^2) rows of
    a u'' + b u' = 0.  A is its Schur complement on the interior: the end
    rows give the boundary values (u_0, u_{n+1}) = S u_interior with
    S = -C^-1 R through one 2x2 mat_solve, and A = L_II + L_IB S; a C
    that mat_solve refuses raises ValueError.  Constants are reproduced
    exactly in the kernel.
    """
    n = grid.n
    if n < 2:
        raise ValueError("dynamic boundary elimination needs at least 2 interior nodes")
    h = grid.h
    full = np.linspace(0.0, 1.0, n + 2)
    a_all = np.asarray(_as_coefficient(a, ("y",))(y=full), dtype=float)
    b_all = np.asarray(_as_coefficient(b, ("y",))(y=full), dtype=float)
    if np.any(a_all <= 0):
        raise NonPositiveCoefficient(
            f"diffusion coefficient must be positive; min over grid is {a_all.min():.3e}")

    L = np.zeros((n + 2, n + 2))
    j = np.arange(1, n + 1)
    aj, bj = a_all[1:-1], b_all[1:-1]
    L[j, j - 1] = -(aj / h**2 - bj / (2 * h))
    L[j, j] = -(-2 * aj / h**2)
    L[j, j + 1] = -(aj / h**2 + bj / (2 * h))
    L[0, :4] = _one_sided_rows(a_all[0], b_all[0], h)
    # the right row walks inward from u_{n+1}, with the derivative mirrored
    L[-1, -4:] = _one_sided_rows(a_all[-1], -b_all[-1], h)[::-1]
    ends, inner = [0, n + 1], slice(1, n + 1)
    C, R = L[ends][:, ends], L[ends, inner]
    try:
        S = -mat_solve(C, R)
    except SingularMatrix as exc:
        raise ValueError("degenerate boundary elimination (singular 2x2 system)") from exc
    return L[inner, inner] + L[inner][:, ends] @ S


def build_integral_operator(grid: SpaceGrid, kernel) -> np.ndarray:
    """Nystrom matrix B[i, j] = K(y_i, y_j) * w_j of (Bu)(y) = int K(y,s)u(s)ds."""
    k_fn = _as_coefficient(kernel, ("y", "tau"))
    Y = grid.nodes[:, None]
    Tau = grid.nodes[None, :]
    K = np.asarray(k_fn(y=Y + 0 * Tau, tau=Tau + 0 * Y), dtype=complex)
    return K * grid.weights[None, :]


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    details: dict


def check_condition_1(bc: BoundaryData) -> ConditionReport:
    """Nondegeneracy of the boundary functionals (two-point specialization).

    Each functional here touches a single endpoint, so the cross terms in
    the general smallness inequality vanish identically and the check
    reduces to nonvanishing leading coefficients.
    """
    lead1 = bc.alpha[bc.m1]
    lead2 = bc.beta[bc.m2]
    d_lead = (-1) ** bc.m1 * lead1 * lead2
    passed = lead1 != 0 and lead2 != 0
    return ConditionReport(
        name="condition_1", passed=bool(passed),
        details={
            "alpha_leading": lead1, "beta_leading": lead2,
            "leading_determinant": d_lead,
            "smallness_lhs": 0.0, "smallness_rhs": abs(d_lead),
        })


def check_condition_2_1(pair: OperatorPair,
                        bc: Optional[BoundaryData] = None) -> ConditionReport:
    """Smallness of B against A: ||B|| < sup_t ||A (A+t)^-1||.

    The supremum is sampled at RESOLVENT_T_SAMPLES, whose resolvents are
    one solve_cells stack, skipping any t where A+t is singular
    (relevant when A has a kernel).  When a BoundaryData is supplied
    its determinant d != 0 is recorded too.
    """
    norm_b = op_norm(pair.B)
    ts = np.array(RESOLVENT_T_SAMPLES, dtype=float)
    resolvents, errors = solve_cells(pair.A + ts[:, None, None] * np.eye(pair.n))
    sup, sup_at, skipped = 0.0, None, []
    for t, R, error in zip(ts, resolvents, errors):
        if isinstance(error, SingularMatrix):
            skipped.append(float(t))
        elif error is not None:
            raise error
        elif (value := op_norm(pair.A @ R)) > sup:
            sup, sup_at = value, float(t)
    passed = norm_b < sup
    details = {"norm_B": norm_b, "sup_resolvent_ratio": sup,
               "sup_at_t": sup_at, "skipped_t": skipped}
    if bc is not None:
        details["d"] = bc.d
        passed = passed and bc.d != 0
    return ConditionReport(name="condition_2_1", passed=bool(passed), details=details)


def check_condition_4_1(grid: SpaceGrid, a, b, kernel) -> ConditionReport:
    """Coefficient sanity for the concrete boundary value problem.

    Checks: kernel finite on the grid square, a positive on nodes and
    endpoints, b real, and the weight exp(-int_{1/2}^x b/a) integrable
    (finite trapezoid quadrature on a fine grid).
    """
    a_fn = _as_coefficient(a, ("y",))
    b_fn = _as_coefficient(b, ("y",))
    k_fn = _as_coefficient(kernel, ("y", "tau"))
    full = np.linspace(0.0, 1.0, grid.n + 2)
    a_all = np.asarray(a_fn(y=full), dtype=complex)
    b_all = np.asarray(b_fn(y=full), dtype=complex)
    Y = grid.nodes[:, None]
    Tau = grid.nodes[None, :]
    K = np.asarray(k_fn(y=Y + 0 * Tau, tau=Tau + 0 * Y), dtype=complex)

    a_positive = bool(np.all(a_all.real > 0) and np.all(a_all.imag == 0))
    b_real = bool(np.all(b_all.imag == 0))
    k_finite = bool(np.all(np.isfinite(K)))

    # integrability of the density exp(-int_{1/2}^x b/a dt)
    fine = np.linspace(0.0, 1.0, 2001)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.asarray(b_fn(y=fine), dtype=float) / np.asarray(a_fn(y=fine), dtype=float)
        prim = np.concatenate(([0.0], np.cumsum((ratio[1:] + ratio[:-1]) / 2) * (fine[1] - fine[0])))
        half = prim[len(fine) // 2]
        density = np.exp(-(prim - half))
        weight_mass = float(np.trapezoid(density, fine))
    weight_finite = bool(np.isfinite(weight_mass))

    passed = a_positive and b_real and k_finite and weight_finite
    return ConditionReport(
        name="condition_4_1", passed=bool(passed),
        details={"a_min": float(a_all.real.min()), "a_positive": a_positive,
                 "b_real": b_real, "kernel_finite": k_finite,
                 "kernel_max_abs": float(np.abs(K).max()),
                 "weight_mass": weight_mass, "weight_finite": weight_finite})


def _e_weights(n: int, weights=None) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match dimension {n}")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return w


def e_norm(v, weights=None):
    """Weighted-ell2 norm standing in for the ground space E, over the last axis.

    A stack gives one norm per row; a norm past the float range is inf, silently.
    """
    x = np.atleast_1d(np.asarray(v, dtype=np.complex128))
    w = _e_weights(x.shape[-1], weights)
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum(w * np.abs(x) ** 2, axis=-1))


def check_p(p: float) -> None:
    """Reject a norm exponent outside [1, inf], nan included."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")


def mixed_norm(u: GridFunction, p: float = 2.0, weights=None) -> float:
    """Discrete L_p(0,T;E) norm: trapezoid in t over per-slice E-norms."""
    check_p(p)
    slices = u.e_norms(weights)
    if p == np.inf:
        return float(slices.max())
    with np.errstate(over="ignore"):
        return float(np.trapezoid(slices**p, u.t) ** (1.0 / p))


def kfunctional_norm(f, A, theta: float, p: float = 2.0, weights=None) -> float:
    """Real-interpolation norm of f between E and D(A) of exponent theta.

    K(t, f) = inf_g ||f - g||_E + t ||A g||_E is evaluated on a lower
    envelope: candidate splittings g solve the regularized problems
    (W + mu A^H W A) g = W f along a log grid of mu (1e-10..1e10),
    augmented by the exact endpoints g = f and g = 0.  The generalized
    Hermitian eigenpairs A^H W A V = W V diag(l), V^H W V = I, read off
    one SVD, give every candidate g = V (I + mu diag(l))^-1 c in closed
    form: with c = V^H W f,

        ||f - g||_E^2 = sum |mu l c / (1 + mu l)|^2,
        ||A g||_E^2   = sum l |c|^2 / (1 + mu l)^2.

    The returned value is the quadrature

        ( sum_j (t_j^-theta K(t_j))^p  dlog t )^(1/p)

    over a log-spaced t grid (1e-4..1e4), a truncation of the integral
    form of the (E(A), E)_{theta,p} norm, and max_j t_j^-theta K(t_j) at
    p = inf.  Exact for 1x1 A.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    check_p(p)
    M = as_complex_matrix(A)
    n = M.shape[0]
    x = np.atleast_1d(np.asarray(f, dtype=np.complex128))
    if x.shape != (n,):
        raise ValueError(f"vector of length {len(x)} does not match operator size {n}")
    w = _e_weights(n, weights)
    t_grid = np.logspace(-4, 4, 200)
    mu = np.logspace(-10, 10, 81)[:, None]

    # eigenpairs (sigma^2, W^(-1/2) z) of the pencil (A^H W A, W) from the
    # SVD of W^(1/2) A W^(-1/2); forming A^H W A would square its condition
    sw = np.sqrt(w)
    _, sigma, Zh = np.linalg.svd(sw[:, None] * M / sw[None, :])
    lam = sigma ** 2
    c2 = np.abs(Zh @ (sw * x)) ** 2
    shrink = 1.0 / (1.0 + mu * lam)
    # endpoint splittings g = f (r=0) and g = 0 (s=0), then one per mu
    r = np.concatenate(([0.0, e_norm(x, w)],
                        np.sqrt(np.sum((mu * lam * shrink) ** 2 * c2, axis=1))))
    s = np.concatenate(([e_norm(M @ x, w), 0.0],
                        np.sqrt(np.sum(lam * shrink ** 2 * c2, axis=1))))
    K = np.min(r[None, :] + t_grid[:, None] * s[None, :], axis=1)

    weighted = t_grid ** (-theta) * K
    if p == np.inf:
        return float(weighted.max())
    return float(np.trapezoid(weighted ** p, np.log(t_grid)) ** (1.0 / p))
