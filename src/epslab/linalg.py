"""Dense matrix kernels shared by every solver in the package.

Every dense solve of the package but one runs through solve_cells,
which inverts its matrices by numpy's LAPACK (np.linalg.inv, called
through the name INV) and states the guard once: a matrix whose
reciprocal 1-norm condition number rcond = 1/(||M||_1 ||M^-1||_1) falls
below MIN_RCOND is refused.  The rcond is exact, not estimated, and M
is not equilibrated.  solve_cells takes a stack of matrices, inverts it
in one call, reports a failure per matrix and returns the inverses;
each caller applies its own.  mat_solve and inv are its one-matrix
forms, and mat_solve checks and applies a right-hand side.
The one outside the guard is elliptic._modes_stack's n 2 x 2 boundary
systems per cell, solved by Cramer's rule behind a scaled-determinant
guard of its own.  The rest of the
operator calculus is the principal matrix square root by the Schur
method of Bjorck & Hammarling (scipy.linalg.sqrtm) behind a spectrum
check, a capped matrix exponential (scipy.linalg.expm), the spectral
operator norm from the SVD, and the resolvent-bound scan used to
certify that an operator behaves like a positive one.  Every kernel
keeps its input's kind (_kind): a real-typed input is worked in float64
and a complex-typed one in complex128, and only sqrtm's complex Schur
form makes a real input's result complex.  narrow states the dtype
rule.  scipy is imported inside sqrtm and expm only, so a run that
calls neither never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SingularMatrix", "SqrtNotConverged", "Overflow", "NUMERICAL_ERRORS",
    "SectorialityReport",
    "narrow", "as_matrix", "solve_cells", "mat_solve", "inv",
    "sqrtm", "expm", "op_norm", "check_positivity",
    "INV", "MIN_RCOND", "BRANCH_CUT_RTOL", "EXPM_NORM_CAP",
]

MIN_RCOND = 1e-13
# sqrtm refuses eigenvalues within this multiple of ||M||_F of (-inf, 0]
BRANCH_CUT_RTOL = 1e-12
EXPM_NORM_CAP = 1e8
# the raw inverse of a (cells, n, n) stack; no guard.  solve_cells
# inverts through this name and nothing else calls it
INV = np.linalg.inv


class SingularMatrix(np.linalg.LinAlgError):
    """A matrix whose rcond falls below MIN_RCOND, or the zero matrix."""


class SqrtNotConverged(ArithmeticError):
    """No principal square root: the spectrum meets (-inf, 0]."""


class Overflow(OverflowError):
    """A matrix exponential or a solution left the representable working range."""


# every typed numerical failure of the package; SingularMatrix is a LinAlgError
NUMERICAL_ERRORS = (Overflow, SqrtNotConverged, np.linalg.LinAlgError)


def narrow(x) -> np.ndarray:
    """x as float64 when its imaginary part is zero, else as complex128.

    The package's dtype rule and its one judgement of realness by value,
    applied where data enter: OperatorPair, BoundaryData, ProblemSpec's
    f_samples and A_lam, each cell's lam and cauchy_solve's u0.  numpy's
    type promotion carries the dtype on through every solver and
    measurement.  A real-typed x is not copied; a scalar gives a 0-d array.
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return x.astype(np.float64, copy=False)
    return x.astype(np.complex128, copy=False) if x.imag.any() else x.real.astype(np.float64)


def _kind(*xs) -> type:
    """complex128 when any of xs is complex-typed, else float64."""
    return np.complex128 if any(np.iscomplexobj(x) for x in xs) else np.float64


def as_matrix(M) -> np.ndarray:
    """Coerce to a square 2-d array of finite entries in M's kind (_kind);
    reject anything else."""
    A = np.asarray(M)
    A = A.astype(_kind(A), copy=False)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def _inverses(M: np.ndarray) -> np.ndarray:
    """INV of the stack M; a matrix LAPACK finds exactly singular gets NaNs."""
    try:
        return INV(M)
    except np.linalg.LinAlgError:
        out = np.full_like(M, np.nan)
        for i in range(len(M)):
            try:
                out[i] = INV(M[i:i + 1])[0]
            except np.linalg.LinAlgError:
                pass
        return out


def solve_cells(M: np.ndarray, skip=None) -> tuple:
    """Guarded inverse of each cell of a (cells, n, n) stack.

    Returns (inverses, errors): errors[i] is None or cell i's failure,
    checked in this order: ValueError for a non-finite M, SingularMatrix
    for the zero (or empty) matrix, and SingularMatrix when rcond =
    1/(||M||_1 ||M^-1||_1) falls below MIN_RCOND, which an inverse that
    is not finite does too.  One INV call inverts the cells that pass
    the first two checks and are not flagged in skip; a skipped cell
    gets None, and it and every failed cell get zeros.  The inverses
    keep M's dtype, and M is not overwritten.
    """
    norm = np.abs(M).sum(axis=1).max(axis=1, initial=0.0)
    finite = np.isfinite(M).all(axis=(1, 2))
    skip = np.zeros(len(M), bool) if skip is None else np.asarray(skip, bool)
    live = finite & (norm > 0.0) & ~skip
    errors = [None] * len(M)
    for i in np.flatnonzero(~live & ~skip):
        errors[i] = (ValueError("matrix entries must be finite") if not finite[i]
                     else SingularMatrix("zero matrix"))
    if not live.any():
        return np.zeros_like(M), errors
    every = live.all()
    Minv = _inverses(M if every else M[live])
    with np.errstate(over="ignore", invalid="ignore"):
        rcond = 1.0 / (norm[live] * np.abs(Minv).sum(axis=1).max(axis=1))
    refused = ~(rcond >= MIN_RCOND)
    for i, r in zip(np.flatnonzero(live)[refused], rcond[refused]):
        errors[i] = SingularMatrix(f"rcond {np.nan_to_num(r):.3e} below {MIN_RCOND:.0e}")
    Minv[refused] = 0.0
    if every:
        return Minv, errors
    out = np.zeros_like(M)
    out[live] = Minv
    return out, errors


def mat_solve(M, rhs) -> np.ndarray:
    """Solve M x = rhs by solve_cells' inverse of M; rhs may be a vector
    or matrix.

    Works in float64 when M and rhs are both real-typed and in complex128
    otherwise, and returns x in that dtype.  Fails with as_matrix's
    ValueError for M, ValueError for a misshapen rhs, SingularMatrix for
    the zero matrix, ValueError for a non-finite rhs, then SingularMatrix
    for an rcond below MIN_RCOND.
    """
    dtype = _kind(M, rhs)
    A, b = as_matrix(np.asarray(M, dtype)), np.asarray(rhs, dtype)
    if b.ndim not in (1, 2) or b.shape[0] != A.shape[0]:
        raise ValueError(f"rhs of shape {b.shape} does not match a {A.shape} matrix")
    (Ainv,), (error,) = solve_cells(A[None])
    if A.any() and not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if error is not None:
        raise error
    return Ainv @ b


def inv(M) -> np.ndarray:
    """Inverse of a square matrix behind solve_cells' guard, in M's kind."""
    (X,), (error,) = solve_cells(as_matrix(M)[None])
    if error is not None:
        raise error
    return X


def sqrtm(M) -> np.ndarray:
    """Principal square root by the Schur method (scipy.linalg.sqrtm).

    The eigenvalues are read off the diagonal of the complex Schur form
    first.  One within BRANCH_CUT_RTOL * ||M||_F of the closed negative
    real axis, 0 included, has no principal root and raises
    SqrtNotConverged, as does a non-finite result.  The zero matrix maps
    to zeros.
    """
    import scipy.linalg
    A = as_matrix(M)
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
    """Matrix exponential in M's kind; Overflow past EXPM_NORM_CAP or non-finite."""
    import scipy.linalg
    A = as_matrix(M)
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
    return float(np.linalg.norm(as_matrix(M), 2))


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
    being a positive operator.  The resolvents are one solve_cells
    stack, in float64 when A and the narrowed samples are real; raises
    the first sample's SingularMatrix when A+lam is not invertible there.
    """
    M = as_matrix(A)
    lams = narrow([complex(x) for x in lam_samples])
    res, errors = solve_cells(M + lams[:, None, None] * np.eye(M.shape[0]))
    for error in errors:
        if error is not None:
            raise error
    values = [(1.0 + abs(lam)) * op_norm(R) for lam, R in zip(lams, res)]
    bound = max(values)
    return SectorialityReport(
        lam_samples=tuple(complex(x) for x in lams),
        values=tuple(values), bound=float(bound), cap=float(cap),
        passed=bool(bound <= cap), worst_lam=complex(lams[int(np.argmax(values))]))
