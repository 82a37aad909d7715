"""Reference solutions for the benchmark probes, independent of epslab.

Nothing here imports epslab.  The probes solve

    -eps u'' + B u' + (A + lam) u = f(t),  0 < t < T,
    alpha0 u(0) + alpha1 sqrt(eps) u'(0) = f1,
    beta0  u(T) + beta1  sqrt(eps) u'(T) = f2,

and the oracle answers them three ways:

- `closed_form_diagonal`: diagonal A and B with f = 0, component by
  component from the two characteristic roots (exact up to roundoff);
- `bvp_diagonal`: diagonal A and B with a load, one scalar
  `scipy.integrate.solve_bvp` per component;
- `bvp_system`: any (A, B), one `solve_bvp` on the first-order system in
  (u, sqrt(eps) u'), which stays well scaled as eps -> 0.

`self_check` validates both routes on the scalar problem whose boundary
coefficient is g1 = 1/(1+e^-2).
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_bvp

BVP_TOL = 1e-8
BVP_MAX_NODES = 400_000
SELF_CHECK_TOL = 1e-8


def _initial_mesh(T: float, eps: float) -> np.ndarray:
    """Uniform mesh plus geometric clusters inside both boundary layers."""
    x = np.linspace(0.0, T, 201)
    if eps < 0.05:
        layer = np.geomspace(0.01 * eps * T, 0.05 * T, 60)
        x = np.unique(np.concatenate([x, layer, T - layer]))
        # drop near-duplicates where the clusters meet the uniform nodes
        x = x[np.concatenate([np.diff(x) > 1e-3 * eps * T, [True]])]
    return x


def bvp_system(A, B, eps: float, lam: float, load: Optional[Callable],
               alpha, beta, f1, f2, T: float, t_out: np.ndarray,
               tol: float = BVP_TOL):
    """(u, sqrt(eps) u') on t_out, each (len(t_out), n), from solve_bvp.

    With v = sqrt(eps) u' the system is
        u' = v / sqrt(eps),
        v' = ((A + lam) u + B v / sqrt(eps) - f) / sqrt(eps).
    `load(t)` returns f sampled at the nodes t, shape (n, len(t)).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    se = np.sqrt(eps)
    eye = np.eye(n)
    M = np.block([[np.zeros((n, n)), eye / se],
                  [(A + lam * eye) / se, B / eps]])
    f1 = np.broadcast_to(np.asarray(f1, dtype=float), (n,))
    f2 = np.broadcast_to(np.asarray(f2, dtype=float), (n,))
    a0, a1 = alpha
    b0, b1 = beta

    def fun(t, z):
        out = M @ z
        if load is not None:
            out[n:] -= load(t) / se
        return out

    def fun_jac(t, z):
        return np.broadcast_to(M[:, :, None], (2 * n, 2 * n, len(t)))

    def bc(za, zb):
        return np.concatenate([a0 * za[:n] + a1 * za[n:] - f1,
                               b0 * zb[:n] + b1 * zb[n:] - f2])

    Ja = np.zeros((2 * n, 2 * n))
    Jb = np.zeros((2 * n, 2 * n))
    Ja[:n, :n], Ja[:n, n:] = a0 * eye, a1 * eye
    Jb[n:, :n], Jb[n:, n:] = b0 * eye, b1 * eye

    x = _initial_mesh(T, eps)
    sol = solve_bvp(fun, bc, x, np.zeros((2 * n, len(x))), fun_jac=fun_jac,
                    bc_jac=lambda za, zb: (Ja, Jb), tol=tol,
                    max_nodes=BVP_MAX_NODES)
    if sol.status != 0:
        raise RuntimeError(f"solve_bvp did not converge: {sol.message}")
    z = sol.sol(t_out)
    return z[:n].T, z[n:].T


def bvp_diagonal(a, b, eps: float, lam: float, load_t: Callable, load_y,
                 alpha, beta, f1, f2, T: float, t_out: np.ndarray,
                 tol: float = BVP_TOL) -> np.ndarray:
    """Diagonal pair, separable load f_j(t) = load_t(t) * load_y[j]."""
    cols = []
    for j, (aj, bj) in enumerate(zip(a, b)):
        def load(t, j=j):
            return (load_t(t) * load_y[j])[None, :]
        cols.append(bvp_system([[aj]], [[bj]], eps, lam, load, alpha, beta,
                               f1, f2, T, t_out, tol=tol)[0][:, 0])
    return np.stack(cols, axis=1)


def closed_form_diagonal(a, b, eps: float, lam: float, alpha, beta, f1, f2,
                         T: float, t_out: np.ndarray):
    """Diagonal pair, f = 0: u_j = C1 e^(r1 t) + C2 e^(r2 (t - T)).

    Returns (u, sqrt(eps) u') on t_out, each (len(t_out), n).
    r1 < 0 < r2 are the roots of eps r^2 - b r - (a + lam) = 0, written
    without cancellation for b >= 0, the sign of every probe's drift.
    """
    a0, a1 = alpha
    b0, b1 = beta
    se = np.sqrt(eps)
    us, vs = [], []
    for aj, bj in zip(a, b):
        al = aj + lam
        s = np.sqrt(bj * bj + 4.0 * eps * al)
        r1, r2 = -2.0 * al / (bj + s), (bj + s) / (2.0 * eps)
        E1, E2 = np.exp(r1 * T), np.exp(-r2 * T)
        S = np.array([[a0 + a1 * se * r1, (a0 + a1 * se * r2) * E2],
                      [(b0 + b1 * se * r1) * E1, b0 + b1 * se * r2]])
        C1, C2 = np.linalg.solve(S, [f1, f2])
        x1, x2 = C1 * np.exp(r1 * t_out), C2 * np.exp(r2 * (t_out - T))
        us.append(x1 + x2)
        vs.append(se * (r1 * x1 + r2 * x2))
    return np.stack(us, axis=1), np.stack(vs, axis=1)


def rel_l2_error(u: np.ndarray, ref: np.ndarray, t: np.ndarray) -> float:
    """Relative L2(0, T; l2) error with trapezoid weights in t."""
    w = np.gradient(t)
    w[0] = (t[1] - t[0]) / 2
    w[-1] = (t[-1] - t[-2]) / 2
    num = np.sum(w * np.sum(np.abs(u - ref) ** 2, axis=1))
    den = np.sum(w * np.sum(np.abs(ref) ** 2, axis=1))
    return float(np.sqrt(num / den))


def self_check() -> float:
    """Largest deviation of either route from the scalar closed form.

    -u'' + u = 0 on (0, 1) with u(0) = 1, u'(1) = 0 is solved by
    u = (e^-t + e^(t-2)) / (1 + e^-2): the decaying mode e^-t carries
    g1 = 1 / (1 + e^-2), recovered from a solution as (u(0) - u'(0)) / 2.
    """
    g1 = 1.0 / (1.0 + np.exp(-2.0))
    t = np.linspace(0.0, 1.0, 401)
    exact = (np.exp(-t) + np.exp(t - 2.0)) / (1.0 + np.exp(-2.0))
    problem = ((1, 0), (0, 1), 1.0, 0.0, 1.0, t)   # alpha, beta, f1, f2, T, t
    routes = (
        bvp_system([[1.0]], [[0.0]], 1.0, 0.0, None, *problem,
                   tol=BVP_TOL),
        closed_form_diagonal([1.0], [0.0], 1.0, 0.0, *problem),
    )
    worst = 0.0
    for u, v in routes:   # eps = 1, so v = u'
        worst = max(worst, float(np.abs(u[:, 0] - exact).max()),
                    abs((u[0, 0] - v[0, 0]) / 2.0 - g1))
    return worst


def cached(cache_dir: Path, key_parts: tuple, compute: Callable) -> np.ndarray:
    """Load the array for key_parts from cache_dir, or compute and store it."""
    h = hashlib.sha256()
    for part in key_parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    path = cache_dir / f"oracle-{h.hexdigest()[:24]}.npy"
    if path.is_file():
        return np.load(path)
    value = compute()
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, value)
    tmp.replace(path)
    return value
