"""Quantitative measurements on solved problems.

Each routine turns one analytic claim into numbers: weighted-derivative
ratios for the coercive estimate, the eps-derivative bounds, the decay
rate of the boundary propagator M, boundedness of N, and the gap
between the elliptic solution and its first-order limit as eps -> 0.
Nothing here asserts; callers (tests, CLI) compare against thresholds.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .discretize import GridFunction, check_p, e_norm, kfunctional_norm, mixed_norm
from .elliptic import ProblemSpec, _eps_stencil, full_solve
from .linalg import (Overflow, SingularMatrix, SqrtNotConverged, mat_solve,
                     op_norm, sqrtm)
from .parabolic import CauchySpec, build_MN, cauchy_solve

__all__ = [
    "EstimateReport", "EpsDerivativeReport", "DecayFit", "ConvergenceRecord",
    "FitDegenerate", "coercive_report", "uniformity_sweep",
    "uniformity_factors", "epsilon_derivative_report", "decay_fit",
    "layer_norm_sweep", "convergence_study", "time_derivatives",
]

SOLVER_ERRORS = (Overflow, SingularMatrix, SqrtNotConverged,
                 np.linalg.LinAlgError, ValueError)


class FitDegenerate(ArithmeticError):
    """The quantity being fitted is numerically zero or constant."""


def _lam_pow(mod: float, e: float) -> float:
    # convention: |lam|^0 = 1 even at lam = 0, so zero-lam rows keep the
    # unweighted terms and drop the positively weighted ones
    if e == 0:
        return 1.0
    return mod ** e


def time_derivatives(u: GridFunction) -> Tuple[np.ndarray, np.ndarray]:
    """First and second t-derivatives, O(h^2), one-sided at the ends."""
    v = u.values
    if u.n_t < 4:
        raise ValueError("need at least 4 time nodes for derivatives")
    h = u.dt
    du = np.empty_like(v)
    ddu = np.empty_like(v)
    du[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    du[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    du[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    ddu[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    ddu[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
    ddu[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    return du, ddu


@dataclass(frozen=True)
class EstimateReport:
    """Weighted-derivative terms of one solve against its data norms.

    lhs_terms carries the eps^(j/2) weighting, lhs_alt_terms the
    eps^(j/2 - 1/p) variant and lhs_third_terms eps^(j/2 - 1/(2p));
    au_norm enters every total unweighted.  ratio is lhs_total / rhs,
    zero by convention when the data vanish.
    """
    eps: float
    lam: complex
    p: float
    lhs_terms: Tuple[float, float, float]
    lhs_alt_terms: Tuple[float, float, float]
    lhs_third_terms: Tuple[float, float, float]
    au_norm: float
    rhs: float
    ratio: float
    status: str = "ok"

    @property
    def lhs_total(self) -> float:
        return sum(self.lhs_terms) + self.au_norm

    @property
    def lhs_alt_total(self) -> float:
        return sum(self.lhs_alt_terms) + self.au_norm

    @property
    def lhs_third_total(self) -> float:
        return sum(self.lhs_third_terms) + self.au_norm


def _failed_report(eps: float, lam: complex, p: float, msg: str) -> EstimateReport:
    nan3 = (np.nan,) * 3
    return EstimateReport(eps, lam, p, nan3, nan3, nan3, np.nan, np.nan,
                          np.nan, status=f"error: {msg}")


def _data_norms(spec: ProblemSpec, p: float, weights: np.ndarray) -> float:
    """Boundary part of the data norm: sum_k ||f_k||_Ek + |lam|^(1-theta_k)||f_k||."""
    f1, f2 = spec.bc.data_for(spec.n)
    th1, th2 = spec.bc.theta(p)
    mod = abs(spec.lam)
    A = spec.pair.A
    total = 0.0
    for fk, th in ((f1, th1), (f2, th2)):
        if e_norm(fk, weights) == 0.0:
            continue
        total += kfunctional_norm(fk, A, th, p=p, weights=weights)
        total += _lam_pow(mod, 1.0 - th) * e_norm(fk, weights)
    return total


def coercive_report(spec: ProblemSpec, u: Optional[GridFunction] = None,
                    p: float = 2.0) -> EstimateReport:
    """Measure every term of the two-sided a-priori bound on one solve.

    Left side: eps^(j/2) |lam|^(1-j/2) ||u^(j)||_X for j = 0, 1, 2 plus
    ||Au||_X, with the two alternative eps-weight families alongside.
    Right side: ||f||_X plus interpolation and plain norms of the
    boundary data.  Derivatives are O(h^2) finite differences.
    """
    if u is None:
        u = full_solve(spec)
    w = spec.pair.weights()
    t = u.t
    du, ddu = time_derivatives(u)
    norms = [mixed_norm(u, p=p, weights=w),
             mixed_norm(GridFunction(t, du), p=p, weights=w),
             mixed_norm(GridFunction(t, ddu), p=p, weights=w)]
    au = (spec.pair.A @ u.values.T).T
    au_norm = mixed_norm(GridFunction(t, au), p=p, weights=w)
    mod = abs(spec.lam)
    main, alt, third = [], [], []
    for j in range(3):
        lam_w = _lam_pow(mod, 1.0 - j / 2.0)
        main.append(spec.eps ** (j / 2.0) * lam_w * norms[j])
        alt.append(spec.eps ** (j / 2.0 - 1.0 / p) * lam_w * norms[j])
        third.append(spec.eps ** (j / 2.0 - 1.0 / (2 * p)) * lam_w * norms[j])
    f_norm = mixed_norm(GridFunction(t, spec.f_samples(t)), p=p, weights=w)
    rhs = f_norm + _data_norms(spec, p, w)
    lhs_total = sum(main) + au_norm
    ratio = lhs_total / rhs if rhs > 0 else 0.0
    return EstimateReport(spec.eps, spec.lam, p, tuple(main), tuple(alt),
                          tuple(third), au_norm, rhs, ratio)


def uniformity_sweep(base: ProblemSpec, eps_list: Sequence[float],
                     lam_list: Sequence[complex],
                     p: float = 2.0) -> List[EstimateReport]:
    """coercive_report over the (eps, lam) grid; failures become rows.

    Cells run serially in input order, eps fastest within each lam.  An
    inadmissible p raises before any cell runs.
    """
    base.bc.theta(p)
    reports = []
    for lam in lam_list:
        for eps in eps_list:
            spec = dataclasses.replace(base, eps=eps, lam=lam)
            try:
                reports.append(coercive_report(spec, p=p))
            except SOLVER_ERRORS as exc:
                reports.append(_failed_report(eps, lam, p, str(exc)))
    return reports


def uniformity_factors(reports: Sequence[EstimateReport]) -> dict:
    """Per lam: (max ratio, max/min ratio across eps).

    Only ok rows with rhs > 0 count: a row with zero data has ratio 0 by
    convention and carries no information about uniformity.  A lam with
    no such row is left out.
    """
    out = {}
    for rep in reports:
        if rep.status == "ok" and rep.rhs > 0:
            out.setdefault(rep.lam, []).append(rep.ratio)
    return {lam: (max(rs), max(rs) / min(rs)) for lam, rs in out.items()}


@dataclass(frozen=True)
class EpsDerivativeReport:
    """Weighted norms of du/deps and d2u/deps2 against the data norms."""
    eps: float
    lam: complex
    p: float
    d1_weighted: float
    d2_weighted: float
    rhs: float
    ratio: float
    scaled_u_norm: float
    data_comparator: float


def epsilon_derivative_report(spec: ProblemSpec, p: float = 2.0,
                              delta: Optional[float] = None) -> EpsDerivativeReport:
    """Evaluate the smoothness-in-eps bound on one solve.

    d1_weighted = eps^(3/2-1/p) |lam|^(1/2) ||du/deps||_X and
    d2_weighted = eps^(3-1/p) ||d2u/deps2||_X; rhs is the boundary-data
    norm.  scaled_u_norm = eps^(1/p) ||u||_X is tracked against
    sum_k ||A_lam^(-m_k/2) f_k|| for the vanishing-eps comparison.
    """
    w = spec.pair.weights()
    u, (d1, d2) = _eps_stencil(spec, delta, (1, 2))
    mod = abs(spec.lam)
    d1w = spec.eps ** (1.5 - 1.0 / p) * _lam_pow(mod, 0.5) * mixed_norm(
        d1, p=p, weights=w)
    d2w = spec.eps ** (3.0 - 1.0 / p) * mixed_norm(d2, p=p, weights=w)
    rhs = _data_norms(spec, p, w)
    lhs = d1w + d2w
    ratio = lhs / rhs if rhs > 0 else 0.0
    scaled = spec.eps ** (1.0 / p) * mixed_norm(u, p=p, weights=w)
    f1, f2 = spec.bc.data_for(spec.n)
    root = sqrtm(spec.A_lam)
    comp = 0.0
    for fk, m in ((f1, spec.bc.m1), (f2, spec.bc.m2)):
        vec = fk if m == 0 else mat_solve(root, fk)
        comp += e_norm(vec, w)
    return EpsDerivativeReport(spec.eps, spec.lam, p, d1w, d2w, rhs, ratio,
                               scaled, comp)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay rate of log ||M(t)|| against t/eps."""
    omega: float
    C1: float
    residual: float
    window: Tuple[float, float]
    n_samples: int


def decay_fit(spec: ProblemSpec, window: Tuple[float, float] = (0.1, 0.6),
              n_samples: int = 25) -> DecayFit:
    """Fit ||M(t, eps)|| ~ C1 exp(-omega t / eps) over a t-window.

    Requires lam = 0 (the limit regime).  residual is the fit RMS
    relative to the spread of the log-norm samples.  Raises
    FitDegenerate when M underflows to zero or is constant over the
    window.
    """
    if spec.lam != 0:
        raise ValueError("decay_fit requires lam = 0")
    lo, hi = window
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError("window must satisfy 0 < lo < hi <= 1 (fractions of T)")
    M, _ = build_MN(spec)
    ts = np.linspace(lo * spec.T, hi * spec.T, n_samples)
    norms = np.array([op_norm(M(t)) for t in ts])
    if np.any(norms <= 0.0):
        raise FitDegenerate("M underflows to zero on the fit window")
    y = np.log(norms)
    spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    if spread < 1e-12:
        raise FitDegenerate("log ||M|| is constant over the fit window")
    s = ts / spec.eps
    coef = np.polyfit(s, y, 1)
    resid = y - np.polyval(coef, s)
    rel = float(np.sqrt(np.mean(resid ** 2))) / spread
    return DecayFit(omega=float(-coef[0]), C1=float(np.exp(coef[1])),
                    residual=rel, window=(lo * spec.T, hi * spec.T),
                    n_samples=n_samples)


def layer_norm_sweep(spec: ProblemSpec, eps_list: Sequence[float],
                     t_frac: float = 0.5, n_t_samples: int = 9) -> List[dict]:
    """Track ||M(t_frac T)|| and sup_t ||N(t)|| as eps varies."""
    rows = []
    ts = np.linspace(0.0, spec.T, n_t_samples)
    for eps in eps_list:
        sp = dataclasses.replace(spec, eps=eps)
        M, N = build_MN(sp)
        rows.append({
            "eps": eps,
            "M_norm": op_norm(M(t_frac * sp.T)),
            "N_sup": max(op_norm(N(t)) for t in ts),
        })
    return rows


@dataclass(frozen=True)
class ConvergenceRecord:
    """Gap between the elliptic solve and the first-order limit per eps."""
    eps_list: Tuple[float, ...]
    x_norm_gaps: Tuple[float, ...]
    sup_norm_gaps: Tuple[float, ...]
    floor: float
    above_floor: Tuple[bool, ...]
    fitted_rate: float
    delta: float
    statuses: Tuple[str, ...]


def _sup_gap(t: np.ndarray, diff: np.ndarray, weights, delta: float,
             T: float) -> float:
    mask = (t >= delta - 1e-12) & (t <= T - delta + 1e-12)
    if not np.any(mask):
        raise ValueError("compact window is empty")
    sl = diff[mask]
    return float(np.max(np.sqrt(np.maximum(
        (np.abs(sl) ** 2 @ np.asarray(weights)).real, 0.0))))


def convergence_study(base: ProblemSpec, cauchy: CauchySpec,
                      eps_list: Sequence[float], compact_delta: float,
                      p: float = 2.0, floor_factor: float = 5.0) -> ConvergenceRecord:
    """Measure the vanishing-viscosity gap over a decreasing eps list.

    The second-order problem is re-wired from the limit problem's data:
    both boundary values are set to u0 and the load to the limit load,
    so the only difference from the first-order solve is the eps term.
    Gaps are reported in the mixed norm and as a sup over the compact
    window [delta, T - delta]; the discretization floor is estimated by
    grid halving at the smallest eps, and gaps are flagged above-floor
    when they exceed floor_factor times it.  base and cauchy must share
    the operator pair, and both need lam = 0; an inadmissible p raises
    before any solve.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 2 or any(e2 >= e1 for e1, e2 in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing, length >= 2")
    if base.lam != 0 or cauchy.lam != 0:
        raise ValueError("convergence study requires lam = 0")
    if not (np.array_equal(cauchy.pair.A, base.pair.A)
            and np.array_equal(cauchy.pair.B, base.pair.B)):
        raise ValueError("cauchy and base must share the operator pair (A, B)")
    if not (0.0 < compact_delta < base.T / 2):
        raise ValueError("compact_delta must lie in (0, T/2)")
    check_p(p)
    w = base.pair.weights()
    limit = cauchy_solve(dataclasses.replace(cauchy, T=base.T, n_t=base.n_t))
    u0 = cauchy.u0

    def wired(eps: float, n_t: int) -> ProblemSpec:
        bc = dataclasses.replace(base.bc, f1=u0.copy(), f2=u0.copy())
        return dataclasses.replace(base, eps=eps, bc=bc, f=cauchy.f, n_t=n_t)

    x_gaps, sup_gaps, statuses = [], [], []
    for eps in eps_arr:
        u = None
        try:
            u = full_solve(wired(eps, base.n_t))
            diff = u.values - limit.values
            x_gaps.append(mixed_norm(GridFunction(u.t, diff), p=p, weights=w))
            sup_gaps.append(_sup_gap(u.t, diff, w, compact_delta, base.T))
            statuses.append("ok")
        except SOLVER_ERRORS as exc:
            x_gaps.append(np.nan)
            sup_gaps.append(np.nan)
            statuses.append(f"error: {exc}")

    # discretization floor at the sharpest layer: the last solve, u,
    # against the same problem on a halved grid
    floor = np.nan
    if u is not None:
        try:
            fine = full_solve(wired(eps_arr[-1], 2 * (base.n_t - 1) + 1))
            dd = u.values - fine.values[::2]
            floor = mixed_norm(GridFunction(u.t, dd), p=p, weights=w)
        except SOLVER_ERRORS:
            pass

    above = tuple(bool(np.isfinite(g) and np.isfinite(floor)
                       and g > floor_factor * floor) for g in x_gaps)
    pts = [(e, g) for e, g, a in zip(eps_arr, x_gaps, above)
           if a and np.isfinite(g) and g > 0]
    if len(pts) >= 2:
        le = np.log([p_[0] for p_ in pts])
        lg = np.log([p_[1] for p_ in pts])
        rate = float(np.polyfit(le, lg, 1)[0])
    else:
        rate = np.nan
    return ConvergenceRecord(tuple(eps_arr), tuple(x_gaps), tuple(sup_gaps),
                             float(floor), above, rate, compact_delta,
                             tuple(statuses))
