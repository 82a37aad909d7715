"""Dense matrix kernels shared by every solver in the package.

Every LU factorization of the package is one LAPACK gesv (partial
pivoting) run by gesv, which states the pivot guard once, but for two
numpy calls: multiplier's resolvent inverse and
discretize.build_wentzell_operator's 2x2 solve.  mat_solve
adds shape checks and works in float64 when matrix and right-hand side
are both real, in complex128 otherwise.  The rest of the operator calculus
runs on explicit complex matrices: the principal matrix square root by
the Schur method of Bjorck & Hammarling (scipy.linalg.sqrtm) behind a
spectrum check, a capped matrix exponential, the spectral operator norm
from the SVD, and the resolvent-bound scan used to certify that an
operator behaves like a positive one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv, zgesv

__all__ = [
    "SingularMatrix", "SqrtNotConverged", "Overflow", "NUMERICAL_ERRORS",
    "SectorialityReport",
    "as_complex_matrix", "gesv", "mat_solve", "inv", "sqrtm", "expm",
    "op_norm", "check_positivity",
    "GESV", "DEFAULT_PIVOT_RTOL", "BRANCH_CUT_RTOL", "EXPM_NORM_CAP",
]

DEFAULT_PIVOT_RTOL = 1e-13
# sqrtm refuses eigenvalues within this multiple of ||M||_F of (-inf, 0]
BRANCH_CUT_RTOL = 1e-12
EXPM_NORM_CAP = 1e8
# the raw LAPACK solver for each working dtype; no guard
GESV = {np.dtype(np.float64): dgesv, np.dtype(np.complex128): zgesv}


class SingularMatrix(np.linalg.LinAlgError):
    """LU factorization met a pivot below the relative threshold."""


class SqrtNotConverged(ArithmeticError):
    """No principal square root: the spectrum meets (-inf, 0]."""


class Overflow(OverflowError):
    """A matrix exponential or a solution left the representable working range."""


# every typed numerical failure of the package; SingularMatrix is a LinAlgError
NUMERICAL_ERRORS = (Overflow, SqrtNotConverged, np.linalg.LinAlgError)


def as_complex_matrix(M) -> np.ndarray:
    """Coerce to a square complex128 2-d array; reject anything else."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def gesv(M: np.ndarray, coupling, load=None) -> np.ndarray:
    """Solve M X = [coupling | load] by one LAPACK gesv behind the pivot guard.

    M and the right-hand side share one dtype of GESV; coupling or load
    may be None, and a lone coupling may be a vector.  The guard never
    looks at the load and raises, in this order: ValueError for a
    non-finite M, SingularMatrix for the zero (or empty) matrix,
    ValueError for non-finite coupling, ValueError when gesv rejects an
    argument, and SingularMatrix when the smallest |U_ii| of the LU
    factors falls below DEFAULT_PIVOT_RTOL * ||M||_inf.  Neither input
    is overwritten.
    """
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    norm = np.abs(M).sum(axis=1).max(initial=0.0)
    if norm == 0.0:
        raise SingularMatrix("zero matrix")
    if coupling is not None and not np.isfinite(coupling).all():
        raise ValueError("array must not contain infs or NaNs")
    rhs = coupling
    if load is not None:
        rhs = load if coupling is None else np.hstack([coupling, load])
    lu, _, x, info = GESV[M.dtype](M, rhs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gesv")
    pivot = np.abs(np.diagonal(lu)).min()
    if pivot < DEFAULT_PIVOT_RTOL * norm:
        raise SingularMatrix(f"pivot ratio {pivot / norm:.3e} below {DEFAULT_PIVOT_RTOL:.0e}")
    return x


def mat_solve(M, rhs) -> np.ndarray:
    """Solve M x = rhs by gesv; rhs may be a vector or matrix.

    Works in float64 when M and rhs are both real and in complex128
    otherwise, and returns x in that dtype.  ValueError for a misshapen
    M or rhs, then gesv's guard with rhs as the coupling columns.
    """
    A, b = np.asarray(M), np.asarray(rhs)
    complex_ = np.iscomplexobj(A) or np.iscomplexobj(b)
    dtype = np.dtype(np.complex128 if complex_ else np.float64)
    A, b = A.astype(dtype, copy=False), b.astype(dtype, copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise ValueError(f"rhs of shape {b.shape} does not match a {A.shape} matrix")
    return gesv(A, b)


def inv(M) -> np.ndarray:
    A = as_complex_matrix(M)
    return mat_solve(A, np.eye(A.shape[0], dtype=np.complex128))


def sqrtm(M) -> np.ndarray:
    """Principal square root by the Schur method (scipy.linalg.sqrtm).

    The eigenvalues are read off the diagonal of the complex Schur form
    first.  One within BRANCH_CUT_RTOL * ||M||_F of the closed negative
    real axis, 0 included, has no principal root and raises
    SqrtNotConverged, as does a non-finite result.  The zero matrix maps
    to zeros.
    """
    A = as_complex_matrix(M)
    scale = np.abs(A).max(initial=0.0)
    if scale == 0.0:
        return np.zeros_like(A)
    norm = scale * np.linalg.norm(A / scale, "fro")  # no overflow past 1e154
    T, Z = scipy.linalg.schur(A, output="complex")
    ev = np.diagonal(T)
    tol = BRANCH_CUT_RTOL * norm
    on_cut = (np.abs(ev.imag) <= tol) & (ev.real <= tol)
    if np.any(on_cut):
        raise SqrtNotConverged(
            f"eigenvalue {complex(ev[on_cut][0]):.3e} on the branch cut (-inf, 0]")
    R = Z @ scipy.linalg.sqrtm(T) @ Z.conj().T
    if not np.all(np.isfinite(R)):
        raise SqrtNotConverged("square root has non-finite entries")
    return R


def expm(M) -> np.ndarray:
    """Matrix exponential; raises Overflow past EXPM_NORM_CAP or non-finite."""
    A = as_complex_matrix(M)
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A)
    if not np.all(np.isfinite(E)):
        raise Overflow("matrix exponential overflowed to non-finite entries")
    norm = np.linalg.norm(E, np.inf)
    if norm > EXPM_NORM_CAP:
        raise Overflow(f"matrix exponential norm {norm:.3e} exceeds cap {EXPM_NORM_CAP:.0e}")
    return E


def op_norm(M) -> float:
    """Spectral norm (largest singular value), from the SVD."""
    return float(np.linalg.norm(as_complex_matrix(M), 2))


@dataclass(frozen=True)
class SectorialityReport:
    """Resolvent-bound scan of A along a ray of spectral shifts."""
    lam_samples: tuple
    values: tuple
    bound: float
    cap: float
    passed: bool
    worst_lam: complex


def check_positivity(A, lam_samples: Sequence = (0.0, 1.0, 10.0, 100.0, 1000.0),
                     cap: float = 1e3) -> SectorialityReport:
    """Measure sup over samples of (1+|lam|)*||(A+lam)^-1||.

    A uniform bound of this quantity is the operational stand-in for A
    being a positive operator.  Raises SingularMatrix when A+lam is not
    invertible at some sample.
    """
    M = as_complex_matrix(A)
    n = M.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    values = []
    for lam in lam_samples:
        res = mat_solve(M + complex(lam) * eye, eye)
        values.append((1.0 + abs(complex(lam))) * op_norm(res))
    bound = max(values)
    worst = complex(lam_samples[int(np.argmax(values))])
    return SectorialityReport(
        lam_samples=tuple(complex(x) for x in lam_samples),
        values=tuple(values), bound=float(bound), cap=float(cap),
        passed=bool(bound <= cap), worst_lam=worst)
