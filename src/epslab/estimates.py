"""Quantitative measurements on solved problems.

Each routine turns one analytic claim into numbers: weighted-derivative
ratios for the coercive estimate, the decay rate of the boundary
propagator M, boundedness of N, and the gap between the elliptic
solution and its first-order limit as eps -> 0.
Nothing here asserts; callers (tests, CLI) compare against thresholds.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .discretize import (GridFunction, check_p, e_norm, kfunctional_norm, mixed_norm, time_norm,
                         time_norms)
from .elliptic import SOLVER_ERRORS, ProblemSpec, full_solve, solve_batch
from .linalg import Overflow, op_norm
from .parabolic import build_MN, cauchy_solve

__all__ = [
    "EstimateReport", "DecayFit", "ConvergenceRecord",
    "FitDegenerate", "coercive_report", "solve_and_report", "uniformity_sweep",
    "uniformity_factors", "decay_fit",
    "layer_norm_sweep", "convergence_study", "time_derivatives",
]

DECAY_N_SAMPLES = 25
LAYER_N_T_SAMPLES = 9
LAYER_T_FRAC = 0.5


class FitDegenerate(ArithmeticError):
    """The quantity being fitted is numerically zero or constant."""


def _lam_pow(mod: float, e: float) -> float:
    # convention: |lam|^0 = 1 even at lam = 0, so zero-lam rows keep the
    # unweighted terms and drop the positively weighted ones
    if e == 0:
        return 1.0
    return mod ** e


def _derivative(v: np.ndarray, h: float, order: int, out: np.ndarray) -> np.ndarray:
    """The first or second t-derivative of v, (n_t, n) or a (cells, n_t, n)
    stack on a grid of step h, into out, O(h^2), one-sided at the ends;
    the interior stencil runs in place in out."""
    if v.shape[-2] < 4:
        raise ValueError("need at least 4 time nodes for derivatives")
    # the time axis first: v[k] and o[k] are the rows of node k
    v, o = np.moveaxis(v, -2, 0), np.moveaxis(out, -2, 0)
    inner = o[1:-1]
    if order == 1:
        np.subtract(v[2:], v[:-2], out=inner)
        inner /= 2 * h
        o[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        o[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    else:
        np.subtract(v[2:], np.multiply(2, v[1:-1], out=inner), out=inner)
        inner += v[:-2]
        inner /= h**2
        o[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
        o[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    return out


def time_derivatives(u: GridFunction) -> Tuple[np.ndarray, np.ndarray]:
    """First and second t-derivatives, O(h^2), one-sided at the ends."""
    return (_derivative(u.values, u.dt, 1, np.empty_like(u.values)),
            _derivative(u.values, u.dt, 2, np.empty_like(u.values)))


@dataclass(frozen=True)
class EstimateReport:
    """Weighted-derivative terms of one solve against its data norms.

    lhs_terms carries the eps^(j/2) weighting and lhs_alt_terms the
    eps^(j/2 - 1/p) variant; au_norm enters both totals unweighted.
    ratio is lhs_total / rhs, zero by convention when the data vanish.
    """
    eps: float
    lam: complex
    p: float
    lhs_terms: Tuple[float, float, float]
    lhs_alt_terms: Tuple[float, float, float]
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


def _failed_report(eps: float, lam: complex, p: float, msg: str) -> EstimateReport:
    nan3 = (np.nan,) * 3
    return EstimateReport(eps, lam, p, nan3, nan3, np.nan, np.nan, np.nan,
                          status=f"error: {msg}")


@dataclass(frozen=True)
class _DataTerms:
    """The terms of a coercive report that depend on neither eps nor lam.

    A is the pair's A and f_norm ||f||_X of ProblemSpec.loads (0
    without a load); ends holds (||f_k||_Ek, theta_k, ||f_k||) per end
    with nonzero data, ||f_k||_Ek being the K-functional interpolation norm.
    """
    A: np.ndarray
    weights: np.ndarray
    f_norm: float
    ends: Tuple[Tuple[float, float, float], ...]


def _data_terms(spec: ProblemSpec, p: float) -> _DataTerms:
    """Measure the data norms of spec, once per sweep."""
    A, w = spec.pair.A, spec.pair.weights()
    ends = []
    for fk, th in zip(spec.bc.data_for(spec.n), spec.bc.theta(p)):
        norm = e_norm(fk, w)
        if norm != 0.0:
            ends.append((kfunctional_norm(fk, A, th, p=p, weights=w), th, norm))
    f_norm = 0.0 if spec.loads is None else mixed_norm(
        GridFunction(spec.t_grid(), spec.loads), p=p, weights=w)
    return _DataTerms(A, w, f_norm, tuple(ends))


# a huge but finite solution overflows here and in _report; the Overflow
# of _report is the only signal
@np.errstate(over="ignore", invalid="ignore")
def _measure(stack: np.ndarray, t: np.ndarray, p: float, data: _DataTerms) -> list:
    """The mixed norms of u, u', u'' and Au for each solution u of stack,
    (rows, n_t, n), on the time grid t: one 4-tuple of floats per row.

    One scratch stack of stack's shape and of its and A's promoted dtype
    holds u', then u'', then Au, each measured before the next
    overwrites it: one e_norm per quantity over every row, one trapezoid
    along the time axis (time_norms).  Au is one matmul per row.
    """
    check_p(p)
    w = data.weights
    scratch = np.empty(stack.shape, np.result_type(stack, data.A))
    norms = [time_norms(e_norm(stack, w), t, p)]
    for order in (1, 2):
        _derivative(stack, float(t[1] - t[0]), order, scratch)
        norms.append(time_norms(e_norm(scratch, w), t, p))
    for u, au in zip(stack, scratch):
        np.matmul(u, data.A.T, out=au)
    norms.append(time_norms(e_norm(scratch, w), t, p))
    return list(zip(*norms))


@np.errstate(over="ignore", invalid="ignore")
def _report(norms: tuple, eps: float, lam: complex, p: float, data: _DataTerms):
    """The EstimateReport of the mixed norms of u, u', u'' and Au at
    (eps, lam), or an Overflow when a term is not finite."""
    *norms, au_norm = norms
    mod = abs(lam)
    main, alt = [], []
    for j in range(3):
        lam_w = _lam_pow(mod, 1.0 - j / 2.0)
        main.append(eps ** (j / 2.0) * lam_w * norms[j])
        alt.append(eps ** (j / 2.0 - 1.0 / p) * lam_w * norms[j])
    # boundary part of the data norm: sum_k ||f_k||_Ek + |lam|^(1-theta_k) ||f_k||
    bdry = 0.0
    for interp, th, norm in data.ends:
        bdry += interp
        bdry += _lam_pow(mod, 1.0 - th) * norm
    rhs = data.f_norm + bdry
    lhs_total = sum(main) + au_norm
    ratio = lhs_total / rhs if rhs > 0 else 0.0
    if not np.isfinite(main + alt + [au_norm, rhs, ratio]).all():
        return Overflow("coercive report overflowed to non-finite values")
    return EstimateReport(eps, lam, p, tuple(main), tuple(alt), au_norm, rhs, ratio)


def coercive_report(spec: ProblemSpec, p: float = 2.0) -> EstimateReport:
    """Measure every term of the two-sided a-priori bound on the solve of spec.

    Left side: eps^(j/2) |lam|^(1-j/2) ||u^(j)||_X for j = 0, 1, 2 plus
    ||Au||_X, with the alternative eps^(j/2 - 1/p) weighting alongside.
    Right side: ||f||_X plus interpolation and plain norms of the
    boundary data.  Derivatives are O(h^2) finite differences.  Raises
    Overflow when a measured number is not finite.
    """
    return solve_and_report(spec, p)[1]


def solve_and_report(spec: ProblemSpec,
                     p: float = 2.0) -> Tuple[GridFunction, EstimateReport]:
    """full_solve of spec and its coercive_report, from one sampling of the
    load: the batch of one of uniformity_sweep's measurement
    (_solve_and_measure)."""
    (u,), (rep,) = _solve_and_measure(spec, [(spec.eps, spec.lam)], p, _data_terms(spec, p))
    if isinstance(rep, Exception):  # a failed solve's error included
        raise rep
    return u, rep


def _solve_and_measure(spec: ProblemSpec, cells: list, p: float, data: _DataTerms) -> tuple:
    """The elliptic.solve_batch of spec at cells, and per cell the
    coercive report of its solution, or the exception its solve or its
    measurement raised.

    Each solution stack of the batch that holds a solved cell is
    measured in one _measure, the scalar terms per solved cell; a
    non-finite one is an Overflow.  Every route solves one kind of lam
    per stack, so neither a cell's solution nor its numbers depend on the
    cells solved and measured with it.
    """
    batch = solve_batch(spec, cells)
    out, t = list(batch), spec.t_grid()
    for index, stack in batch.stacks:
        solved = [(k, i) for k, i in enumerate(index) if not isinstance(batch[i], Exception)]
        if not solved:
            continue
        try:
            norms = _measure(stack, t, p, data)
        except SOLVER_ERRORS as exc:
            for _, i in solved:
                out[i] = exc
            continue
        for k, i in solved:
            eps, lam = cells[i]
            out[i] = _report(norms[k], float(eps), complex(lam), p, data)
    return batch, out


def uniformity_sweep(base: ProblemSpec, eps_list: Sequence[float],
                     lam_list: Sequence[complex],
                     p: float = 2.0) -> List[EstimateReport]:
    """coercive_report over the (eps, lam) grid; failures become rows.

    Rows come in input order, eps fastest within each lam.  The data
    norms, which depend on neither eps nor lam, are computed once per
    sweep, and they and every solve read base.loads, sampled once.  The
    whole grid is one elliptic.solve_batch, so the sweep holds every
    cell's solution at once, and the cells are measured after it, one
    pass per solution stack the batch returns (_solve_and_measure).  An
    empty eps or lam list gives no rows; an inadmissible p or a
    non-finite lam (solve_batch) raises before any cell runs.
    """
    base.bc.theta(p)
    cells = [(eps, lam) for lam in lam_list for eps in eps_list]
    if not cells:
        return []
    try:
        data = _data_terms(base, p)
    except SOLVER_ERRORS as exc:
        return [_failed_report(eps, lam, p, str(exc)) for eps, lam in cells]
    _, reports = _solve_and_measure(base, cells, p, data)
    return [_failed_report(eps, lam, p, str(rep)) if isinstance(rep, Exception) else rep
            for (eps, lam), rep in zip(cells, reports)]


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
class DecayFit:
    """Least-squares decay rate of log ||M(t)|| against t/eps."""
    omega: float
    C1: float
    residual: float
    window: Tuple[float, float]
    n_samples: int


def decay_fit(spec: ProblemSpec, window: Tuple[float, float] = (0.1, 0.6)) -> DecayFit:
    """Fit ||M(t, eps)|| ~ C1 exp(-omega t / eps) at DECAY_N_SAMPLES t in a window.

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
    ts = np.linspace(lo * spec.T, hi * spec.T, DECAY_N_SAMPLES)
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
                    n_samples=DECAY_N_SAMPLES)


def layer_norm_sweep(spec: ProblemSpec, eps_list: Sequence[float]) -> List[dict]:
    """Track ||M(LAYER_T_FRAC T)|| and max ||N|| over LAYER_N_T_SAMPLES t per eps."""
    rows = []
    ts = np.linspace(0.0, spec.T, LAYER_N_T_SAMPLES)
    for eps in eps_list:
        sp = dataclasses.replace(spec, eps=eps)
        M, N = build_MN(sp)
        rows.append({
            "eps": eps,
            "M_norm": op_norm(M(LAYER_T_FRAC * sp.T)),
            "N_sup": max(op_norm(N(t)) for t in ts),
        })
    return rows


@dataclass(frozen=True)
class ConvergenceRecord:
    """Gap between the elliptic solve and the first-order limit per eps;
    without a load, floor is roundoff (see convergence_study)."""
    eps_list: Tuple[float, ...]
    x_norm_gaps: Tuple[float, ...]
    sup_norm_gaps: Tuple[float, ...]
    floor: float
    above_floor: Tuple[bool, ...]
    fitted_rate: float
    delta: float
    statuses: Tuple[str, ...]


def _sup_gap(t: np.ndarray, slices: np.ndarray, delta: float, T: float) -> float:
    """max of the per-slice norms over the compact window [delta, T - delta]."""
    mask = (t >= delta - 1e-12) & (t <= T - delta + 1e-12)
    if not np.any(mask):
        raise ValueError("compact window is empty")
    return float(np.max(slices[mask]))


def convergence_study(base: ProblemSpec, u0: np.ndarray,
                      eps_list: Sequence[float], compact_delta: float,
                      p: float = 2.0, floor_factor: float = 5.0) -> ConvergenceRecord:
    """Measure the vanishing-viscosity gap over a decreasing eps list.

    The limit B w' + A w = f, w(0) = u0 is base's own eps -> 0 limit
    (cauchy_solve), and each eps solves base with both boundary values
    set to u0, so the two solves differ only by the eps term.  Gaps are
    reported in the mixed norm and as a sup over the compact window
    [delta, T - delta]; a non-finite gap is an error row.  The floor is
    the grid-halving difference of the gap u - w at the smallest eps,
    with both u and w solved again on the halved grid (nan when not
    finite), and gaps above floor_factor times it are flagged.  Without
    a load, on a pair with a joint eigenbasis, both solves are exact in
    t, so the floor is roundoff, about 1e-14, and every gap is above it
    by construction; a load adds the error of cauchy_solve's midpoint
    rule, and only then can the floor bound a gap.  base needs lam = 0;
    an inadmissible p raises before any solve.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 2 or any(e2 >= e1 for e1, e2 in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must be strictly decreasing, length >= 2")
    if base.lam != 0:
        raise ValueError("convergence study requires lam = 0")
    if not (0.0 < compact_delta < base.T / 2):
        raise ValueError("compact_delta must lie in (0, T/2)")
    if not 0 <= floor_factor < np.inf:
        raise ValueError(f"floor_factor must be finite and >= 0, got {floor_factor}")
    check_p(p)
    w = base.pair.weights()
    limit = cauchy_solve(base, u0)
    u0 = limit.values[0]  # u0 narrowed, as a vector of length n

    def wired(eps: float, n_t: int) -> ProblemSpec:
        bc = dataclasses.replace(base.bc, f1=u0.copy(), f2=u0.copy())
        return dataclasses.replace(base, eps=eps, bc=bc, n_t=n_t)

    rows = []
    for eps in eps_arr:
        u = None
        try:
            u = full_solve(wired(eps, base.n_t))
            slices = e_norm(u.values - limit.values, w)
            gaps = (time_norm(slices, u.t, p), _sup_gap(u.t, slices, compact_delta, base.T))
            if not np.isfinite(gaps).all():
                raise Overflow("gap to the limit solution is not finite")
            rows.append((*gaps, "ok"))
        except SOLVER_ERRORS as exc:
            rows.append((np.nan, np.nan, f"error: {exc}"))
    x_gaps, sup_gaps, statuses = zip(*rows)

    # discretization floor at the sharpest layer: the last gap, u - w,
    # against the same gap on a halved grid
    floor = np.nan
    if u is not None:
        try:
            n_fine = 2 * (base.n_t - 1) + 1
            fine = full_solve(wired(eps_arr[-1], n_fine))
            fine_limit = cauchy_solve(dataclasses.replace(base, n_t=n_fine), u0)
            dd = (u.values - limit.values) - (fine.values[::2] - fine_limit.values[::2])
            floor = mixed_norm(GridFunction(u.t, dd), p=p, weights=w)
        except SOLVER_ERRORS:
            pass
    floor = float(floor) if np.isfinite(floor) else np.nan

    # a failed gap or floor is nan, and nan compares false
    above = tuple(bool(g > floor_factor * floor) for g in x_gaps)
    pts = [(e, g) for e, g, a in zip(eps_arr, x_gaps, above) if a]
    if len(pts) >= 2:
        le = np.log([p_[0] for p_ in pts])
        lg = np.log([p_[1] for p_ in pts])
        rate = float(np.polyfit(le, lg, 1)[0])
    else:
        rate = np.nan
    return ConvergenceRecord(tuple(eps_arr), x_gaps, sup_gaps, floor, above,
                             rate, compact_delta, statuses)
