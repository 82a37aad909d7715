import dataclasses

import numpy as np
import pytest
import scipy.integrate as si

from epslab.discretize import BoundaryData, GridFunction, OperatorPair
from epslab.elliptic import ProblemSpec, full_solve
from epslab.estimates import (ConvergenceRecord, DecayFit, EstimateReport,
                              FitDegenerate, coercive_report,
                              convergence_study, decay_fit,
                              epsilon_derivative_report, layer_norm_sweep,
                              time_derivatives, uniformity_factors,
                              uniformity_sweep)
from epslab.presets import (convergence_problem, decay_base,
                            dirichlet_neumann, make_scalar_pair,
                            make_wentzell_pair, uniformity_base)


def l2_quad(fn, T=1.0):
    val, _ = si.quad(lambda t: abs(fn(t)) ** 2, 0.0, T, limit=400)
    return np.sqrt(val)


def dn_closed_form(eps, a, lam, T=1.0, f1=1.0):
    """u solving -eps u'' + (a+lam) u = 0, u(0)=f1, u'(T)=0 (b = 0)."""
    q = np.sqrt((a + lam) / eps)
    g1 = f1 / (1.0 + np.exp(-2 * q * T))
    h2 = g1 * np.exp(-q * T)
    u = lambda t: g1 * np.exp(-q * t) + h2 * np.exp(-q * (T - t))
    du = lambda t: -q * g1 * np.exp(-q * t) + q * h2 * np.exp(-q * (T - t))
    ddu = lambda t: q ** 2 * u(t)
    return u, du, ddu


def dn_spec(eps=1.0, a=1.0, b=0.0, lam=1.0, n_t=801, f1=1.0, f2=0.0):
    pair = OperatorPair(np.array([[a]]), np.array([[b]]), check_positive=False)
    bc = BoundaryData((1.0, 0.0), (0.0, 1.0),
                      np.array([f1], dtype=complex),
                      np.array([f2], dtype=complex))
    return ProblemSpec(pair=pair, eps=eps, lam=lam, T=1.0, bc=bc, n_t=n_t)


# ----------------------------------------------------------- derivatives


def test_time_derivatives_second_order():
    errs = []
    for n_t in (101, 201):
        t = np.linspace(0.0, 1.0, n_t)
        vals = np.stack([np.sin(2 * t), np.exp(t)], axis=1)
        du, ddu = time_derivatives(GridFunction(t, vals))
        want_d = np.stack([2 * np.cos(2 * t), np.exp(t)], axis=1)
        want_dd = np.stack([-4 * np.sin(2 * t), np.exp(t)], axis=1)
        errs.append(max(np.max(np.abs(du - want_d)),
                        np.max(np.abs(ddu - want_dd))))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 1e-3


def test_time_derivatives_needs_four_nodes():
    t = np.linspace(0, 1, 3)
    with pytest.raises(ValueError):
        time_derivatives(GridFunction(t, np.zeros((3, 1))))


# ------------------------------------------------------- coercive_report


def test_scalar_closed_form_terms():
    # eps=1, lam=1: all three weight families coincide and every term has
    # an integral oracle from the explicit solution
    spec = dn_spec(eps=1.0, a=1.0, lam=1.0, n_t=801)
    u, du, ddu = dn_closed_form(1.0, 1.0, 1.0)
    rep = coercive_report(spec)
    want = (1.0 * l2_quad(u), 1.0 * l2_quad(du), 1.0 * l2_quad(ddu))
    for got, ref in zip(rep.lhs_terms, want):
        assert abs(got - ref) < 1e-4 * ref
    assert abs(rep.au_norm - l2_quad(u)) < 1e-4 * l2_quad(u)
    assert rep.lhs_terms == rep.lhs_alt_terms == rep.lhs_third_terms
    assert rep.rhs > 0
    assert rep.ratio == rep.lhs_total / rep.rhs
    assert rep.status == "ok"


def test_weight_families_scale_exactly():
    # p=2, eps=0.25: alt = main * eps^(-1/2), third = main * eps^(-1/4)
    spec = dn_spec(eps=0.25, a=1.0, lam=2.0, n_t=201)
    rep = coercive_report(spec)
    for j in range(3):
        assert np.isclose(rep.lhs_alt_terms[j], rep.lhs_terms[j] * 2.0,
                          rtol=1e-12)
        assert np.isclose(rep.lhs_third_terms[j], rep.lhs_terms[j] * np.sqrt(2.0),
                          rtol=1e-12)


def test_zero_data_ratio_zero():
    spec = dn_spec(f1=0.0, f2=0.0, n_t=51)
    rep = coercive_report(spec)
    assert rep.lhs_total == 0.0
    assert rep.rhs == 0.0
    assert rep.ratio == 0.0


def test_lam_zero_drops_weighted_terms():
    spec = dn_spec(lam=0.0, n_t=101)
    rep = coercive_report(spec)
    assert rep.lhs_terms[0] == 0.0
    assert rep.lhs_terms[1] == 0.0
    assert rep.lhs_terms[2] > 0.0  # |lam|^0 = 1 convention
    assert rep.au_norm > 0.0


def test_linearity_doubles_both_sides():
    base = uniformity_base("scalar", eps=0.2, lam=1.0, n_t=101)
    rep1 = coercive_report(base)
    doubled = dataclasses.replace(
        base,
        bc=dataclasses.replace(base.bc, f1=2 * base.bc.f1, f2=2 * base.bc.f2),
        f="2*exp(-64*(t-0.5)^2)")
    rep2 = coercive_report(doubled)
    assert np.isclose(rep2.lhs_total, 2 * rep1.lhs_total, rtol=1e-10)
    assert np.isclose(rep2.rhs, 2 * rep1.rhs, rtol=1e-10)
    assert np.isclose(rep2.ratio, rep1.ratio, rtol=1e-10)


def test_resolvent_decay_in_lam():
    sols = []
    for lam in (1.0, 10.0, 100.0):
        rep = coercive_report(dn_spec(lam=lam, n_t=201))
        sols.append(rep.lhs_terms[0] / lam)  # recovers ||u||_X
    assert sols[0] > sols[1] > sols[2]


# ------------------------------------------------------ uniformity_sweep


def test_single_cell_reduces_to_report():
    base = uniformity_base("scalar", n_t=101)
    reps = uniformity_sweep(base, [0.3], [2.0])
    direct = coercive_report(dataclasses.replace(base, eps=0.3, lam=2.0))
    assert len(reps) == 1
    assert reps[0] == direct


def test_scalar_sweep_uniform():
    base = uniformity_base("scalar", n_t=101)
    eps_list = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
    reps = uniformity_sweep(base, eps_list, [1.0, 10.0, 100.0])
    assert len(reps) == 15
    assert all(r.status == "ok" for r in reps)
    for lam, (mx, factor) in uniformity_factors(reps).items():
        assert np.isfinite(mx)
        assert factor <= 10.0, f"lam={lam}: factor {factor}"


def test_sweep_records_failures():
    # A + lam has negative spectrum at lam=-5, so the square root diverges
    pair = OperatorPair(np.array([[1.0]]), np.array([[0.0]]),
                        check_positive=False)
    base = dataclasses.replace(uniformity_base("scalar", n_t=51),
                               pair=pair, f=None)
    reps = uniformity_sweep(base, [1.0], [1.0, -5.0])
    assert reps[0].status == "ok"
    assert reps[1].status.startswith("error")
    assert np.isnan(reps[1].ratio)
    factors = uniformity_factors(reps)
    assert list(factors) == [1.0]


def test_sweep_records_an_overflowing_solve_as_an_error():
    # the load 1e308 at t = 0.95 overflows the finite difference back
    # substitution; the cell is an error row, not an ok row holding nan
    bc = BoundaryData(alpha=(1.0, 0.5), beta=(1.0, 1.0), f1=np.ones(4), f2=np.ones(4))

    def load(t):
        return np.full(4, 1e308 if abs(t - 0.95) < 1e-12 else 0.0)

    base = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=1e-2, lam=3.0, T=1.0,
                       bc=bc, f=load, n_t=21)
    reps = uniformity_sweep(base, [1e-2], [3.0, 3 + 2j])
    assert [r.status for r in reps] == [
        "error: finite difference solution overflowed to non-finite values"] * 2
    assert all(np.isnan(r.ratio) for r in reps)


# ---------------------------------------------- epsilon_derivative_report


def test_eps_derivative_report_scalar_oracle():
    import sympy as sp
    eps0, lam, a = 0.2, 1.0, 1.0
    spec = dn_spec(eps=eps0, a=a, lam=lam, n_t=401)
    t, e = sp.symbols("t e", positive=True)
    u_sym = sp.cosh((1 - t) * sp.sqrt((a + lam) / e)) / sp.cosh(sp.sqrt((a + lam) / e))
    d1 = sp.lambdify(t, sp.diff(u_sym, e).subs(e, eps0), "numpy")
    d2 = sp.lambdify(t, sp.diff(u_sym, e, 2).subs(e, eps0), "numpy")
    rep = epsilon_derivative_report(spec)
    want1 = eps0 ** 1.0 * abs(lam) ** 0.5 * l2_quad(d1)
    want2 = eps0 ** 2.5 * l2_quad(d2)
    assert abs(rep.d1_weighted - want1) < 5e-3 * want1
    assert abs(rep.d2_weighted - want2) < 2e-2 * want2
    assert rep.rhs > 0
    assert rep.ratio == (rep.d1_weighted + rep.d2_weighted) / rep.rhs
    # m1 = 0 datum enters plainly, zero Neumann datum drops out
    assert np.isclose(rep.data_comparator, 1.0, rtol=1e-12)
    u = full_solve(spec)
    from epslab.discretize import mixed_norm
    assert np.isclose(rep.scaled_u_norm,
                      np.sqrt(eps0) * mixed_norm(u), rtol=1e-12)


def test_eps_derivative_report_solves_each_stencil_node_once(monkeypatch):
    import epslab.elliptic
    import epslab.estimates
    from epslab.discretize import e_norm, mixed_norm
    from epslab.elliptic import epsilon_derivative
    from epslab.estimates import _data_norms
    from epslab.linalg import mat_solve, sqrtm

    p = 2.0
    spec = uniformity_base("scalar", eps=0.1)
    w = spec.pair.weights()
    d1 = epsilon_derivative(spec, order=1)
    d2 = epsilon_derivative(spec, order=2)
    u = full_solve(spec)
    d1w = spec.eps ** (1.5 - 1.0 / p) * abs(spec.lam) ** 0.5 * mixed_norm(
        d1, p=p, weights=w)
    d2w = spec.eps ** (3.0 - 1.0 / p) * mixed_norm(d2, p=p, weights=w)
    rhs = _data_norms(spec, p, w)
    f1, f2 = spec.bc.data_for(spec.n)
    root = sqrtm(spec.A_lam)
    comp = sum(e_norm(fk if m == 0 else mat_solve(root, fk), w)
               for fk, m in ((f1, spec.bc.m1), (f2, spec.bc.m2)))

    calls = []

    def counting(sp):
        calls.append(sp.eps)
        return full_solve(sp)

    monkeypatch.setattr(epslab.elliptic, "full_solve", counting)
    monkeypatch.setattr(epslab.estimates, "full_solve", counting)
    rep = epsilon_derivative_report(spec, p=p)
    assert len(calls) == 3
    assert rep.d1_weighted == d1w
    assert rep.d2_weighted == d2w
    assert rep.rhs == rhs
    assert rep.ratio == (d1w + d2w) / rhs
    assert rep.scaled_u_norm == spec.eps ** (1.0 / p) * mixed_norm(u, p=p, weights=w)
    assert rep.data_comparator == comp
    assert (rep.eps, rep.lam, rep.p) == (spec.eps, spec.lam, p)


# -------------------------------------------------------------- decay_fit


def test_decay_fit_matches_scalar_exponent():
    spec = decay_base(eps=0.05)
    fit = decay_fit(spec)
    R = np.sqrt(0.25 + 4 * 0.05)
    expected = (R + 0.5) / 2.0  # eps * fast-mode generator
    assert fit.omega > 0
    assert abs(fit.omega - expected) < 0.05 * expected
    assert fit.residual < 0.10
    assert fit.window == (0.1, 0.6)


def test_decay_fit_validation():
    spec = decay_base()
    with pytest.raises(ValueError):
        decay_fit(dataclasses.replace(spec, lam=1.0))
    with pytest.raises(ValueError):
        decay_fit(spec, window=(0.5, 0.2))


def test_decay_fit_underflow_degenerate():
    with pytest.raises(FitDegenerate):
        decay_fit(decay_base(eps=1e-5))


def test_decay_fit_ignores_f1_amplitude():
    spec = decay_base(eps=0.04)
    fit1 = decay_fit(spec)
    spec2 = dataclasses.replace(
        spec, bc=dataclasses.replace(spec.bc, f1=2 * spec.bc.f1))
    fit2 = decay_fit(spec2)
    assert fit1 == fit2


def test_layer_norm_sweep_monotone():
    spec = decay_base()
    rows = layer_norm_sweep(spec, [1e-1, 1e-2, 1e-3, 1e-4])
    m = [r["M_norm"] for r in rows]
    n = [r["N_sup"] for r in rows]
    for hi, lo in zip(m, m[1:]):
        assert lo <= hi
    assert m[-1] < m[0]
    assert max(n) < 5.0


# ------------------------------------------------------ convergence_study


def test_convergence_scalar():
    base, cauchy = convergence_problem("scalar")
    rec = convergence_study(base, cauchy, [1e-1, 1e-2, 1e-3, 1e-4], 0.1)
    assert all(s == "ok" for s in rec.statuses)
    gaps = rec.x_norm_gaps
    sups = rec.sup_norm_gaps
    for hi, lo in zip(gaps, gaps[1:]):
        assert lo <= 1.05 * hi
    for hi, lo in zip(sups, sups[1:]):
        assert lo <= 1.05 * hi
    assert all(rec.above_floor)
    assert gaps[0] / gaps[-1] > 10
    assert sups[0] / sups[-1] > 10
    assert 0.7 < rec.fitted_rate < 1.3


def test_convergence_commuting():
    base, cauchy = convergence_problem("commuting")
    rec = convergence_study(base, cauchy, [1e-1, 1e-2, 1e-3], 0.1)
    gaps = rec.x_norm_gaps
    assert all(s == "ok" for s in rec.statuses)
    for hi, lo in zip(gaps, gaps[1:]):
        assert lo <= 1.05 * hi
    assert gaps[0] / gaps[-1] > 10


def test_convergence_validation():
    base, cauchy = convergence_problem("scalar")
    with pytest.raises(ValueError):
        convergence_study(base, cauchy, [1e-2, 1e-1], 0.1)
    with pytest.raises(ValueError):
        convergence_study(base, cauchy, [1e-1], 0.1)
    with pytest.raises(ValueError):
        convergence_study(dataclasses.replace(base, lam=1.0), cauchy,
                          [1e-1, 1e-2], 0.1)
    with pytest.raises(ValueError):
        convergence_study(base, cauchy, [1e-1, 1e-2], 0.6)
    with pytest.raises(ValueError, match="lam = 0"):
        convergence_study(base, dataclasses.replace(cauchy, lam=1.0),
                          [1e-1, 1e-2], 0.1)
    for other in (make_scalar_pair(a=2.0), make_scalar_pair(b=1.0)):
        with pytest.raises(ValueError, match="operator pair"):
            convergence_study(base, dataclasses.replace(cauchy, pair=other),
                              [1e-1, 1e-2], 0.1)


def test_convergence_floor_flag():
    base, cauchy = convergence_problem("scalar", n_t=101)
    rec = convergence_study(base, cauchy, [1e-1, 1e-2], 0.1,
                            floor_factor=1e30)
    assert not any(rec.above_floor)
    assert np.isnan(rec.fitted_rate)
    assert np.isfinite(rec.floor)
