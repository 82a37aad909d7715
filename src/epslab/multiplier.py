"""Whole-line Fourier solve of the load and the multiplier bounds.

Extending f by zero off (0, T) and solving on a long periodic cell
turns the equation into one algebraic system per frequency:

    (A + i xi B + (eps xi^2 + lam) I) u_hat(xi) = f_hat(xi).

For a commuting pair with a joint eigenbasis A = V diag(a) V^-1,
B = V diag(b) V^-1 every system is diagonal in that basis, so each
frequency costs n divisions by a + i xi b + eps xi^2 + lam.  The
solution symbol Phi(xi) is the inverse above, taken behind
linalg.solve_cells' guard.  No solver route uses
the whole-line solve any more: it is an independent reference for the
modes route of elliptic.full_solve, evaluated exactly at any points by
the direct sum over its n_x frequencies.  The module also measures the
uniform multiplier bounds whose finiteness is the quantitative content
of the coercive estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import SingularMatrix, as_matrix, solve_cells

__all__ = [
    "LineGrid", "LineSolution",
    "whole_line_solve", "resolvent_symbol", "multiplier_bound_scan",
]


@dataclass(frozen=True)
class LineGrid:
    """Uniform periodic grid on [-halfwidth, halfwidth)."""
    x: np.ndarray
    xi: np.ndarray
    halfwidth: float

    @property
    def n_x(self) -> int:
        return len(self.x)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @classmethod
    def make(cls, n_x: int, halfwidth: float) -> "LineGrid":
        if n_x < 4 or (n_x & (n_x - 1)) != 0:
            raise ValueError(f"n_x must be a power of two >= 4, got {n_x}")
        if halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        dx = 2.0 * halfwidth / n_x
        x = -halfwidth + dx * np.arange(n_x)
        xi = 2.0 * np.pi * np.fft.fftfreq(n_x, d=dx)
        return cls(x=x, xi=xi, halfwidth=float(halfwidth))


def _symbol(A, B, eps: float, lam: complex, xi) -> np.ndarray:
    """Stack of A + i xi B + (eps xi^2 + lam) I, shape (m, n, n)."""
    A = as_matrix(A)
    B = as_matrix(B)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    diag = np.arange(A.shape[0])
    M = np.multiply.outer(1j * xi, B)
    M += A
    M[:, diag, diag] += (eps * xi**2 + lam)[:, None]
    return M


def resolvent_symbol(A, B, eps: float, lam: complex, xi) -> np.ndarray:
    """Stack of Phi(xi) = (A + i xi B + (eps xi^2 + lam))^-1, shape (m, n, n).

    The stack inverts behind linalg.solve_cells' guard; the first
    frequency it refuses raises its error (SingularMatrix when the
    symbol is singular or too ill-conditioned there).
    """
    Phi, errors = solve_cells(_symbol(A, B, eps, lam, xi))
    for error in errors:
        if error is not None:
            raise error
    return Phi


@dataclass
class LineSolution:
    """Fourier-side solution; evaluation is exact trig interpolation."""
    grid: LineGrid
    uhat: np.ndarray

    def on_grid(self, points, derivative: int = 0) -> np.ndarray:
        """Values of d^derivative u / dx^derivative at any points: the
        direct sum, one (m, n_x) phase matrix times uhat."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        xi = self.grid.xi
        phase = np.exp(1j * np.outer(pts - self.grid.x[0], xi)) * (1j * xi) ** derivative
        return phase @ self.uhat / self.grid.n_x


def whole_line_solve(spec, n_x: int) -> LineSolution:
    """Solve the constant-coefficient problem on the periodic line.

    The load is spec's interior f, extended by zero outside [0, T], on
    the periodic window [-8T, 8T) with n_x nodes, a power of two >= 4.
    The pair's joint eigenbasis (OperatorPair.joint_eigenbasis)
    diagonalizes every symbol, so with d = a + i xi b + eps xi^2 + lam

        uhat = ((fhat V^-T) / d) V^T,

    two (n_x, n) x (n, n) products and one division; neither Phi nor a
    symbol matrix is formed.  ValueError when the pair has no joint
    eigenbasis, SingularMatrix when d vanishes at some frequency.
    """
    basis = spec.pair.joint_eigenbasis
    if basis is None:
        raise ValueError("the whole-line route needs a commuting pair with a joint eigenbasis")
    V, Vinv, a, b = basis
    grid = LineGrid.make(n_x, 8.0 * spec.T)
    fhat = np.zeros((grid.n_x, spec.n), dtype=np.complex128)
    mask = (grid.x >= 0.0) & (grid.x <= spec.T)
    if spec.f is not None and np.any(mask):
        fhat[mask] = spec.f_samples(grid.x[mask])
    np.fft.fft(fhat, axis=0, out=fhat)

    # w is the load in the eigenbasis; fhat's buffer then holds d and
    # uhat.  d = [i xi, 1, eps xi^2 + lam] @ [b; a; 1] is one small GEMM,
    # with none of the (n_x, n) temporaries a broadcast sum would make
    w = fhat @ Vinv.T
    xi = grid.xi
    terms = np.stack([1j * xi, np.ones_like(xi), spec.eps * xi**2 + spec.lam], axis=1)
    d = np.matmul(terms, np.stack([b, a, np.ones_like(a)]), out=fhat)
    if not d.all():
        raise SingularMatrix("the symbol is singular at some frequency")
    w /= d
    uhat = np.matmul(w, V.T, out=fhat)
    return LineSolution(grid=grid, uhat=uhat)


def _weight_scalar(eps: float, lam: complex, xi: np.ndarray) -> np.ndarray:
    """s(xi) = sum_j eps^(j/2) |lam|^(1-j/2) |xi|^j for j = 0, 1, 2."""
    alam = abs(lam)
    out = np.full_like(xi, alam, dtype=float)
    if eps > 0:
        out = out + np.sqrt(eps * alam) * np.abs(xi) + eps * xi**2
    return out


def multiplier_bound_scan(pair, eps_list: Sequence, lam_list: Sequence,
                          xi: Optional[np.ndarray] = None) -> list:
    """Uniform bounds of the weighted solution symbols over a xi grid.

    For each (eps, lam), with Phi the solution symbol, measures

        bound_weighted  = sup_xi || s(xi) Phi(xi) ||,
        bound_coercive  = sup_xi (1 + |eps xi^2 + lam|) ||Phi(xi)||.

    eps = 0 rows scan the limit symbol (A + i xi B + lam)^-1 with
    s = |lam|.  Returns one dict per (eps, lam) pair.
    """
    if xi is None:
        pos = np.logspace(-3, 4, 200)
        xi = np.concatenate([-pos[::-1], [0.0], pos])
    xi = np.asarray(xi, dtype=float)
    records = []
    for eps in eps_list:
        for lam in lam_list:
            Phi = resolvent_symbol(pair.A, pair.B, float(eps), complex(lam), xi)
            norms = np.linalg.norm(Phi, 2, axis=(1, 2))
            s = _weight_scalar(float(eps), complex(lam), xi)
            coercive = (1.0 + np.abs(float(eps) * xi**2 + complex(lam))) * norms
            weighted = s * norms
            records.append({
                "eps": float(eps), "lam": complex(lam),
                "bound_weighted": float(weighted.max()),
                "bound_coercive": float(coercive.max()),
                "argmax_xi": float(xi[int(weighted.argmax())]),
            })
    return records
