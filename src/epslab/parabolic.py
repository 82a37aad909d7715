"""First-order limit problem and the boundary-data propagators.

The vanishing-viscosity limit of the two-point problem is the Cauchy
problem B u' + (A + lam) u = f, u(0) = u0, integrated here with the
exact propagator of the homogeneous part and midpoint quadrature of the
load (second order, exact when f = 0).

build_MN packages the solved boundary system of the elliptic problem
into the two operator kernels M(t), N(t) with u_hom(t) = M(t) f1 +
N(t) f2; their norms as functions of t and eps carry the boundary layer
structure that the measurement code in estimates quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .discretize import GridFunction, IntervalProblem, OperatorPair
from .elliptic import (ProblemSpec, QSystem, _boundary_blocks, _orbit,
                       compute_q_system)
from .linalg import Overflow, expm, inv, mat_solve, op_norm

__all__ = [
    "CauchySpec", "cauchy_solve", "build_MN", "CAUCHY_STABILITY_CAP",
]

CAUCHY_STABILITY_CAP = 1e6


@dataclass
class CauchySpec(IntervalProblem):
    """First-order problem B u' + (A + lam) u = f on (0, T), u(0) = u0.

    B must be invertible.  The load f and the time grid work as in
    IntervalProblem, as they do for ProblemSpec.
    """
    pair: OperatorPair
    lam: complex
    T: float
    u0: np.ndarray
    f: Union[None, str, Callable] = None
    n_t: int = 201

    def __post_init__(self):
        self._init_interval(min_nodes=3)
        self.u0 = np.atleast_1d(np.asarray(self.u0, dtype=np.complex128))
        if self.u0.shape != (self.pair.n,):
            raise ValueError(
                f"u0 has length {len(self.u0)}, operator size is {self.pair.n}")
        # the drift must be invertible for the problem to be well posed
        inv(self.pair.B)


def cauchy_solve(cspec: CauchySpec) -> GridFunction:
    """Integrate the first-order problem with the exact propagator.

    u_{i+1} = E u_i + c_i, E = exp(-h G), G = B^-1 (A + lam), with the
    forcing c_i = h E_half B^-1 f(t_i + h/2) formed for all steps by one
    GEMM.  Midpoint quadrature makes the step second order.  With f = 0
    the orbit of E is sampled by block doubling (elliptic._orbit) and is
    exact up to roundoff; with a load the recurrence runs one
    matrix-vector product per step.  Raises Overflow when exp(-T G)
    exceeds the stability cap or the orbit is not finite.
    """
    G = mat_solve(cspec.pair.B, cspec.A_lam)
    ET = expm(-cspec.T * G)
    if op_norm(ET) > CAUCHY_STABILITY_CAP:
        raise Overflow(
            f"limit propagator norm {op_norm(ET):.3e} exceeds {CAUCHY_STABILITY_CAP:.0e}")
    t = cspec.t_grid()
    h = t[1] - t[0]
    E = expm(-h * G)
    Eh = expm(-h * G / 2.0)
    if cspec.f is None:
        u = _orbit(E, cspec.u0, cspec.n_t)
    else:
        u = np.empty((cspec.n_t, cspec.n), dtype=np.complex128)
        u[0] = cspec.u0
        fmid = cspec.f_samples(t[:-1] + h / 2.0)
        binv_f = mat_solve(cspec.pair.B, fmid.T).T
        c = h * (binv_f @ Eh.T)
        for i in range(cspec.n_t - 1):
            u[i + 1] = E @ u[i] + c[i]
    return GridFunction(t, u, meta={"path": "cauchy"})


def build_MN(spec: ProblemSpec, qsys: Optional[QSystem] = None):
    """Boundary-data propagators of the homogeneous two-point problem.

    Returns callables M(t), N(t) mapping to n x n matrices with
    u_hom(t) = M(t) f1 + N(t) f2; pass derivative=1 for d/dt.  They are
    built from the block inverse X of the boundary system:

        M(t) = V1(t) X11 + V2(t) X21,  N(t) = V1(t) X12 + V2(t) X22,

    V1(t) = exp(-t G1), V2(t) = exp(-(T-t) G2).
    """
    if qsys is None:
        qsys = compute_q_system(spec)
    n = spec.n
    A11, A12, A21, A22 = _boundary_blocks(
        qsys.G1, qsys.G2, qsys.E1, qsys.E2, spec.bc, spec.eps)
    S = np.block([[A11, A12], [A21, A22]])
    X = inv(S)
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
