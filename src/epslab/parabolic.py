"""First-order limit problem and the boundary-data propagators.

The vanishing-viscosity limit of the two-point problem is the Cauchy
problem B u' + (A + lam) u = f, u(0) = u0.  It is described by the same
elliptic.ProblemSpec as the two-point problem, with eps and the boundary
data left out, and cauchy_solve integrates it with the exact propagator
of the homogeneous part and midpoint quadrature of the load (second
order, exact when f = 0).

build_MN packages the solved boundary system of the elliptic problem
into the two operator kernels M(t), N(t) with u_hom(t) = M(t) f1 +
N(t) f2; their norms as functions of t and eps carry the boundary layer
structure that the measurement code in estimates quantifies.
"""
from __future__ import annotations

import numpy as np

from .discretize import GridFunction
from .elliptic import ProblemSpec, _boundary_matrix, _orbit, compute_q_system
from .linalg import Overflow, expm, inv, mat_solve, op_norm

__all__ = ["cauchy_solve", "build_MN", "CAUCHY_STABILITY_CAP"]

CAUCHY_STABILITY_CAP = 1e6


def cauchy_solve(spec: ProblemSpec, u0) -> GridFunction:
    """Integrate the eps -> 0 limit of spec with the exact propagator.

    The limit is B w' + (A + lam) w = f on spec's time grid, w(0) = u0;
    spec.eps and spec.bc do not enter.  B must be invertible: a singular
    B raises SingularMatrix from the first solve, and a u0 whose length
    is not spec.n raises ValueError.

    u_{i+1} = E u_i + c_i, E = exp(-h G), G = B^-1 (A + lam), with the
    forcing c_i = h E_half B^-1 f(t_i + h/2) formed for all steps by one
    GEMM.  Midpoint quadrature makes the step second order.  With f = 0
    the orbit of E is sampled by block doubling (elliptic._orbit) and is
    exact up to roundoff; with a load the recurrence runs one
    matrix-vector product per step.  Raises Overflow when exp(-T G)
    exceeds the stability cap or the orbit is not finite.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=np.complex128))
    if u0.shape != (spec.n,):
        raise ValueError(f"u0 has length {len(u0)}, operator size is {spec.n}")
    G = mat_solve(spec.pair.B, spec.A_lam)
    ET = expm(-spec.T * G)
    if op_norm(ET) > CAUCHY_STABILITY_CAP:
        raise Overflow(
            f"limit propagator norm {op_norm(ET):.3e} exceeds {CAUCHY_STABILITY_CAP:.0e}")
    t = spec.t_grid()
    h = t[1] - t[0]
    E = expm(-h * G)
    if spec.f is None:
        u = _orbit(E, u0, spec.n_t)
    else:
        u = np.empty((spec.n_t, spec.n), dtype=np.complex128)
        u[0] = u0
        fmid = spec.f_samples(t[:-1] + h / 2.0)
        binv_f = mat_solve(spec.pair.B, fmid.T).T
        c = h * (binv_f @ expm(-h * G / 2.0).T)
        for i in range(spec.n_t - 1):
            u[i + 1] = E @ u[i] + c[i]
    return GridFunction(t, u, meta={"path": "cauchy"})


def build_MN(spec: ProblemSpec):
    """Boundary-data propagators of the homogeneous two-point problem.

    Returns callables M(t), N(t) mapping to n x n matrices with
    u_hom(t) = M(t) f1 + N(t) f2; pass derivative=1 for d/dt.  They are
    built from the block inverse X of the boundary system:

        M(t) = V1(t) X11 + V2(t) X21,  N(t) = V1(t) X12 + V2(t) X22,

    V1(t) = exp(-t G1), V2(t) = exp(-(T-t) G2).
    """
    qsys = compute_q_system(spec)
    n = spec.n
    X = inv(_boundary_matrix(qsys.G1, qsys.G2, qsys.E1, qsys.E2, spec.bc, spec.eps))
    X11, X12 = X[:n, :n], X[:n, n:]
    X21, X22 = X[n:, :n], X[n:, n:]

    def V(t: float, derivative: int):
        V1 = expm(-t * qsys.G1)
        V2 = expm(-(spec.T - t) * qsys.G2)
        if derivative == 0:
            return V1, V2
        if derivative == 1:
            return -qsys.G1 @ V1, qsys.G2 @ V2
        raise ValueError("derivative must be 0 or 1")

    def M(t: float, derivative: int = 0) -> np.ndarray:
        V1, V2 = V(float(t), derivative)
        return V1 @ X11 + V2 @ X21

    def N(t: float, derivative: int = 0) -> np.ndarray:
        V1, V2 = V(float(t), derivative)
        return V1 @ X12 + V2 @ X22

    return M, N
