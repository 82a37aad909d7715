"""Whole-line Fourier route for the interior load.

Extending f by zero off (0, T) and solving on a long periodic cell
turns the equation into one algebraic system per frequency:

    (A + i xi B + (eps xi^2 + lam) I) u_hat(xi) = f_hat(xi).

For a commuting pair with a joint eigenbasis A = V diag(a) V^-1,
B = V diag(b) V^-1 every system is diagonal in that basis, so each
frequency costs n divisions by a + i xi b + eps xi^2 + lam.  The
solution symbol Phi(xi) is the inverse above.  Trig interpolation
evaluates the solution and its derivatives exactly: at m equispaced
points whose step divides the cell length by a chirp-z (zoom)
transform, whose FFTs have a power-of-two length >= n_x + m - 1
whatever the step, and at a few arbitrary points, such as the two ends
of the time interval that the boundary correction needs, by the direct
sum over the n_x frequencies.  The module also measures the uniform
multiplier bounds whose finiteness is the quantitative content of the
coercive estimates.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import SingularMatrix, as_complex_matrix

__all__ = [
    "AliasWarning", "LineGrid", "LineSolution", "check_n_x",
    "whole_line_solve", "resolvent_symbol", "multiplier_bound_scan",
    "ALIAS_BAND_FRACTION", "ALIAS_ENERGY_TOL",
]

ALIAS_BAND_FRACTION = 0.05
ALIAS_ENERGY_TOL = 1e-6


class AliasWarning(UserWarning):
    """Sampled load carries nontrivial energy in the top frequency band."""


def check_n_x(n_x: int) -> None:
    """Reject a line grid size that is not a power of two >= 4."""
    if n_x < 4 or (n_x & (n_x - 1)) != 0:
        raise ValueError(f"n_x must be a power of two >= 4, got {n_x}")


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
        check_n_x(n_x)
        if halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        dx = 2.0 * halfwidth / n_x
        x = -halfwidth + dx * np.arange(n_x)
        xi = 2.0 * np.pi * np.fft.fftfreq(n_x, d=dx)
        return cls(x=x, xi=xi, halfwidth=float(halfwidth))


def _symbol(A, B, eps: float, lam: complex, xi) -> np.ndarray:
    """Stack of A + i xi B + (eps xi^2 + lam) I, shape (m, n, n)."""
    A = as_complex_matrix(A)
    B = as_complex_matrix(B)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    diag = np.arange(A.shape[0])
    M = np.multiply.outer(1j * xi, B)
    M += A
    M[:, diag, diag] += (eps * xi**2 + lam)[:, None]
    return M


def resolvent_symbol(A, B, eps: float, lam: complex, xi) -> np.ndarray:
    """Stack of Phi(xi) = (A + i xi B + (eps xi^2 + lam))^-1, shape (m, n, n)."""
    return np.linalg.inv(_symbol(A, B, eps, lam, xi))


@dataclass
class LineSolution:
    """Fourier-side solution; evaluation is exact trig interpolation."""
    grid: LineGrid
    uhat: np.ndarray
    alias_energy: float

    def on_grid(self, points, derivative: int = 0) -> np.ndarray:
        """Values of d^derivative u / dx^derivative at equispaced points.

        The points p_l = p0 + l h (l < m) must be equispaced to within
        1e-9 |h|, and for m >= 2 the step |h| must divide the window
        length L = 2 halfwidth to within 1e-9 L; otherwise ValueError.
        Then every p_l lies on the periodic grid of P = L / |h| points
        from p0, and with integer wavenumbers k (xi_k = 2 pi k / L)

            u(p_l) = 1/n_x sum_k coef_k W^(k l),   W = exp(+-2 pi i / P),
            coef_k = (i xi_k)^d exp(i (p0 - x0) xi_k) uhat_k,

        with the sign of h.  The sum is a chirp-z (zoom) transform
        (Bluestein): with k l = (k^2 + l^2 - (l - k)^2) / 2 it is a
        pre-chirp W^(k^2/2), a linear convolution with the conjugate
        chirp W^(-q^2/2) and a post-chirp W^(l^2/2).  The convolution
        takes one forward and one inverse FFT, along the points, of the
        power-of-two length Lf >= n_x + m - 1.  Each chirp phase is
        pi (q^2 mod 2P) / P with q^2 reduced in integers, so it stays
        exact however large q^2 grows.  The work array holds Lf n values
        whatever P is: 2048 n on a time grid of 801 nodes with n_x 1024.
        A single point uses P = 1.
        """
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        m = len(pts)
        n_x, n = self.uhat.shape
        if m == 0:
            return np.zeros((0, n), dtype=np.complex128)
        h = float(pts[-1] - pts[0]) / max(m - 1, 1)
        if np.any(np.abs(np.diff(pts) - h) > 1e-9 * abs(h)):
            raise ValueError("on_grid needs equispaced points")
        L = 2.0 * self.grid.halfwidth
        P = round(L / abs(h)) if h else 1
        if m > 1 and abs(P * abs(h) - L) > 1e-9 * L:
            raise ValueError(f"on_grid needs a step that divides the window length {L}")
        half = n_x // 2
        Lf = 1 << (n_x + m - 2).bit_length()
        # chirp[q] = W^(q^2 / 2) for every |k|, l and |l - k| that occurs
        chirp = _chirp(m + half, P if h >= 0 else -P)
        # the conjugate chirp at l - k mod Lf, for 1 - n_x/2 <= l - k < m + n_x/2
        kernel = np.zeros(Lf, dtype=np.complex128)
        kernel[:m + half] = chirp.conj()
        kernel[Lf - half + 1:] = kernel[half - 1:0:-1]
        np.fft.fft(kernel, out=kernel)
        xi = self.grid.xi
        fac = (1j * xi) ** derivative * np.exp(1j * (pts[0] - self.grid.x[0]) * xi)
        fac[:half] *= chirp[:half]          # k = 0 .. n_x/2 - 1
        fac[half:] *= chirp[half:0:-1]      # k = -n_x/2 .. -1
        chirp = chirp[:m] / n_x
        # k >= 0 sits at row k and k < 0 at row Lf + k.  Every product is
        # taken in place and without a broadcast (which allocates numpy's
        # iteration buffer), so the work array is the one large temporary
        buf = np.zeros((Lf, n), dtype=np.complex128)
        np.einsum("kj,k->kj", self.uhat[:half], fac[:half], out=buf[:half])
        np.einsum("kj,k->kj", self.uhat[half:], fac[half:], out=buf[Lf - half:])
        np.fft.fft(buf, axis=0, out=buf)
        for j in range(n):
            buf[:, j] *= kernel
        np.fft.ifft(buf, axis=0, out=buf)
        for j in range(n):
            buf[:m, j] *= chirp
        # the values are the first m rows; no view of buf exists, so it
        # shrinks in place and hands the other Lf - m rows back
        buf.resize((m, n), refcheck=False)
        return buf

    def at_points(self, points, derivative: int = 0) -> np.ndarray:
        """Values of d^derivative u / dx^derivative at any few points: the
        direct sum, one (m, n_x) phase matrix times uhat."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        xi = self.grid.xi
        phase = np.exp(1j * np.outer(pts - self.grid.x[0], xi)) * (1j * xi) ** derivative
        return phase @ self.uhat / self.grid.n_x

    def nodal_values(self, derivative: int = 0) -> np.ndarray:
        fac = (1j * self.grid.xi) ** derivative
        return np.fft.ifft(fac[:, None] * self.uhat, axis=0)


def _chirp(count: int, P: int) -> np.ndarray:
    """exp(+-i pi q^2 / |P|) for q < count, with the sign of P.

    q^2 is reduced mod 2|P| in integers first, so every phase lies in
    [0, 2 pi) and is exact to a few ulps however large q is.
    """
    q = np.arange(count, dtype=np.int64)
    return np.exp(1j * (np.pi / P) * (q * q % (2 * abs(P))))


def whole_line_solve(spec) -> LineSolution:
    """Solve the constant-coefficient problem on the periodic line.

    The load is spec's interior f, extended by zero outside [0, T], on
    the periodic window [-8T, 8T) with spec.n_x nodes.  The pair's joint
    eigenbasis (OperatorPair.joint_eigenbasis) diagonalizes every symbol,
    so with d = a + i xi b + eps xi^2 + lam

        uhat = ((fhat V^-T) / d) V^T,

    two (n_x, n) x (n, n) products and one division; neither Phi nor a
    symbol matrix is formed.  ValueError when the pair has no joint
    eigenbasis, SingularMatrix when d vanishes at some frequency.
    Warns with AliasWarning when the top ALIAS_BAND_FRACTION of the
    frequency axis carries more than ALIAS_ENERGY_TOL of the load energy,
    a sign that n_x under-resolves f.
    """
    basis = spec.pair.joint_eigenbasis
    if basis is None:
        raise ValueError("the whole-line route needs a commuting pair with a joint eigenbasis")
    V, Vinv, a, b = basis
    grid = LineGrid.make(spec.n_x, 8.0 * spec.T)
    fhat = np.zeros((grid.n_x, spec.n), dtype=np.complex128)
    mask = (grid.x >= 0.0) & (grid.x <= spec.T)
    if spec.f is not None and np.any(mask):
        fhat[mask] = spec.f_samples(grid.x[mask])
    np.fft.fft(fhat, axis=0, out=fhat)

    total = np.vdot(fhat, fhat).real
    alias = 0.0
    if total > 0:
        cut = (1.0 - ALIAS_BAND_FRACTION) * np.max(np.abs(grid.xi))
        top = fhat[np.abs(grid.xi) >= cut]
        alias = float(np.vdot(top, top).real / total)
        if alias > ALIAS_ENERGY_TOL:
            warnings.warn(
                f"top {ALIAS_BAND_FRACTION:.0%} of the frequency band holds "
                f"{alias:.2e} of the load energy; increase n_x",
                AliasWarning, stacklevel=2)

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
    return LineSolution(grid=grid, uhat=uhat, alias_energy=alias)


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
