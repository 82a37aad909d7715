import dataclasses
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate as si

from epslab import discretize, estimates, linalg
from epslab.cli import REALS, _build_spec, load_config
from epslab.discretize import BoundaryData, GridFunction, OperatorPair, mixed_norm
from epslab.elliptic import ProblemSpec, direct_solve, full_solve
from epslab.estimates import (ConvergenceRecord, DecayFit, EstimateReport,
                              FitDegenerate, coercive_report,
                              convergence_study, decay_fit, layer_norm_sweep,
                              time_derivatives, uniformity_factors,
                              uniformity_sweep)
from epslab.linalg import Overflow, SingularMatrix
from epslab.parabolic import cauchy_solve
from epslab.presets import (convergence_problem, decay_base,
                            dirichlet_neumann, make_commuting_pair,
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


def test_measure_peaks_below_one_and_a_half_solutions():
    # one scratch array holds u', u'' and Au in turn, and no norm makes a
    # temporary of the solution's size
    spec = ProblemSpec(pair=make_commuting_pair(n_y=16), eps=1e-2, lam=1.0, T=1.0,
                       bc=dirichlet_neumann(16), f="exp(-64*(t-0.5)^2)*(1+0.2*y)", n_t=801)
    data = estimates._data_terms(spec, 2.0)
    u = full_solve(spec)
    want = estimates._measure(u.values[None], u.t, 2.0, data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = estimates._measure(u.values[None], u.t, 2.0, data)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 1.5 * u.values.nbytes


# ------------------------------------------------------- coercive_report


def test_scalar_closed_form_terms():
    # eps=1, lam=1: both weight families coincide and every term has
    # an integral oracle from the explicit solution
    spec = dn_spec(eps=1.0, a=1.0, lam=1.0, n_t=801)
    u, du, ddu = dn_closed_form(1.0, 1.0, 1.0)
    rep = coercive_report(spec)
    want = (1.0 * l2_quad(u), 1.0 * l2_quad(du), 1.0 * l2_quad(ddu))
    for got, ref in zip(rep.lhs_terms, want):
        assert abs(got - ref) < 1e-4 * ref
    assert abs(rep.au_norm - l2_quad(u)) < 1e-4 * l2_quad(u)
    assert rep.lhs_terms == rep.lhs_alt_terms
    assert rep.rhs > 0
    assert rep.ratio == rep.lhs_total / rep.rhs
    assert rep.status == "ok"


def test_weight_families_scale_exactly():
    # p=2, eps=0.25: alt = main * eps^(-1/2)
    spec = dn_spec(eps=0.25, a=1.0, lam=2.0, n_t=201)
    rep = coercive_report(spec)
    for j in range(3):
        assert np.isclose(rep.lhs_alt_terms[j], rep.lhs_terms[j] * 2.0,
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


@pytest.mark.filterwarnings("error")
def test_sweep_records_an_overflowing_solve_as_an_error():
    # the load 1e308 at t = 0.95 gives a solution near 9e306, whose
    # second derivative overflows; the cell is an error row, not an ok
    # row holding nan, and no warning is printed
    bc = BoundaryData(alpha=(1.0, 0.5), beta=(1.0, 1.0), f1=np.ones(4), f2=np.ones(4))

    def load(t):
        return np.full(4, 1e308 if abs(t - 0.95) < 1e-12 else 0.0)

    base = ProblemSpec(pair=make_wentzell_pair(n_y=4), eps=1e-2, lam=3.0, T=1.0,
                       bc=bc, f=load, n_t=21)
    reps = uniformity_sweep(base, [1e-2], [3.0, 3 + 2j])
    assert [r.status for r in reps] == [
        "error: coercive report overflowed to non-finite values"] * 2
    assert all(np.isnan(r.ratio) for r in reps)


def _report_numbers(rep):
    return (*rep.lhs_terms, *rep.lhs_alt_terms, rep.au_norm, rep.rhs, rep.ratio)


def _counting_factorizations(monkeypatch, counts):
    """Count every factorized matrix: each is inverted through linalg.INV,
    one per cell of its stack."""
    INV = linalg.INV

    def counting(M):
        counts["lu"] += len(M)
        return INV(M)

    monkeypatch.setattr(linalg, "INV", counting)


@pytest.mark.parametrize("eps_list", [[1e8, 1.0, 1e-2], [1.0, 1e8, 1e-2]])
def test_failing_cell_leaves_the_rest_of_its_batch_alone(monkeypatch, eps_list):
    # at eps = 1e8 the first 2n x 2n pivot of the wentzell FD solve fails
    # the rcond guard; the two other cells of the same batch still solve,
    # and the failed cell makes no factorization after its first pivot
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "scalar_solve.ini",
                      preset="wentzell")
    base = _build_spec(cfg, "wentzell", eps_list, lam=1.0)
    # the route test inverts V once per pair and caches the result: read
    # it first, so that inverse counts against no solve below
    assert base.pair.joint_eigenbasis is None
    counts = Counter()
    _counting_factorizations(monkeypatch, counts)
    reps = uniformity_sweep(base, eps_list, [1.0])
    batch = counts["lu"]
    assert [r.eps for r in reps] == eps_list
    for eps, rep in zip(eps_list, reps):
        spec = dataclasses.replace(base, eps=eps)
        if eps == 1e8:
            before = counts["lu"]
            with pytest.raises(SingularMatrix, match=r"^rcond 2\.083e-14 below 1e-13$") as exc:
                direct_solve(spec)
            assert rep.status == "error: " + str(exc.value)
            assert counts["lu"] == before + 1  # the first pivot, nothing after it
            continue
        solo = coercive_report(spec)
        assert rep.status == solo.status == "ok"
        for got, want in zip(_report_numbers(rep), _report_numbers(solo)):
            assert got == pytest.approx(want, rel=1e-13, abs=0)
    assert counts["lu"] - batch == batch > 0


@pytest.mark.parametrize("preset", ["commuting", "scalar", "wentzell"])
def test_measure_of_a_real_solve_is_that_of_its_complex_copy(preset):
    spec = uniformity_base(preset, eps=1e-2, lam=10.0)
    data = estimates._data_terms(spec, 2.0)
    assert data.A.dtype == np.float64
    u = full_solve(spec)
    assert u.values.dtype == np.float64
    copy = GridFunction(u.t, u.values.astype(complex))

    def report(v):
        norms, = estimates._measure(v.values[None], v.t, 2.0, data)
        return estimates._report(norms, spec.eps, spec.lam, 2.0, data)

    rep, want = report(u), report(copy)
    for got, ref in zip(_report_numbers(rep), _report_numbers(want)):
        assert got == pytest.approx(ref, rel=1e-14, abs=0)


def test_wentzell_sweep_computes_its_data_terms_once(monkeypatch):
    # 15 cells: the two boundary interpolation norms and the load samples
    # are taken once per sweep, and the batched FD solve factors no more
    # blocks per cell than a solo direct_solve may
    base = uniformity_base("wentzell")
    counts = Counter()

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(estimates, "kfunctional_norm",
                        counting("kfunctional", estimates.kfunctional_norm))
    monkeypatch.setattr(ProblemSpec, "f_samples", counting("load", ProblemSpec.f_samples))
    _counting_factorizations(monkeypatch, counts)
    reps = uniformity_sweep(base, [1.0, 1e-1, 1e-2, 1e-3, 1e-4], [1.0, 10.0, 100.0])
    assert len(reps) == 15 and all(r.status == "ok" for r in reps)
    assert 0 < counts["kfunctional"] <= 2
    assert counts["load"] == 1
    assert 0 < counts["lu"] <= 15 * (2 * int(np.ceil(np.log2(base.n_t))) + 4)


def test_commuting_sweep_samples_the_load_once(monkeypatch):
    # the hoisted samples serve the data norms and every cell's solve
    counts = Counter()
    sample = ProblemSpec.f_samples

    def counting(*args, **kwargs):
        counts["load"] += 1
        return sample(*args, **kwargs)

    monkeypatch.setattr(ProblemSpec, "f_samples", counting)
    reps = uniformity_sweep(uniformity_base("commuting", n_t=51), [1, 0.1, 0.01], [1, 10])
    assert [r.status for r in reps] == ["ok"] * 6
    assert counts["load"] == 1


@pytest.mark.parametrize("preset", ["commuting", "wentzell"])
def test_sweep_norms_each_quantity_once_per_stack(monkeypatch, preset):
    # u, u', u'' and Au are each normed once over the stack of solutions,
    # so the number of e_norm calls does not grow with the cells
    calls = []
    for module in (estimates, discretize):
        monkeypatch.setattr(module, "e_norm", lambda v, w=None, norm=discretize.e_norm:
                            calls.append(np.shape(v)) or norm(v, w))
    base = uniformity_base(preset, n_t=51)
    # a lam list of one kind is one stack; one that mixes kinds is two
    for lam_list, n_stacks in (([1.0, 10.0, 100.0], 1), ([1.0, 10.0, 3 + 2j], 2)):
        counts = []
        for eps_list in ([1.0, 1e-2], [1.0, 1e-1, 1e-2, 1e-3, 1e-4]):
            calls.clear()
            reps = uniformity_sweep(base, eps_list, lam_list)
            assert [r.status for r in reps] == ["ok"] * 3 * len(eps_list)
            assert sum(len(shape) == 3 for shape in calls) == 4 * n_stacks
            counts.append(len(calls))
        assert counts[0] == counts[1]


def test_modes_sweep_records_each_failed_cell_as_its_row():
    # at lam = -5+1j the orbit of the eps = 1e-6 cell overflows on the
    # modes route; that cell is an error row and its neighbours are
    # their solo reports
    pair = OperatorPair(np.array([[1.0]]), np.array([[0.005]]), check_positive=False)
    base = dataclasses.replace(uniformity_base("scalar", n_t=51), pair=pair, f="1")
    eps_list = [1e-2, 1e-6, 1.0]
    reps = uniformity_sweep(base, eps_list, [-5 + 1j])
    assert [r.status for r in reps] == [
        "ok", "error: semigroup orbit left the representable range", "ok"]
    for eps, rep in zip(eps_list[::2], reps[::2]):
        assert rep == coercive_report(dataclasses.replace(base, eps=eps, lam=-5 + 1j))


def test_a_stack_whose_every_cell_failed_is_not_measured(monkeypatch):
    # at eps = 1e-6 the orbit overflows at lam = -5+1j but not at lam = 2:
    # the complex stack holds no solved cell, so only the real one is
    # measured
    calls = []
    measure = estimates._measure
    monkeypatch.setattr(estimates, "_measure",
                        lambda stack, *args: calls.append(stack.dtype) or measure(stack, *args))
    pair = OperatorPair(np.array([[1.0]]), np.array([[0.005]]), check_positive=False)
    base = dataclasses.replace(uniformity_base("scalar", n_t=51), pair=pair, f="1")
    reps = uniformity_sweep(base, [1e-6], [-5 + 1j, 2.0])
    assert [r.status for r in reps] == [
        "error: semigroup orbit left the representable range", "ok"]
    assert calls == [np.float64]


@pytest.mark.parametrize("preset", ["wentzell", "commuting"])
def test_sweep_is_one_solve_batch(monkeypatch, preset):
    # the whole eps x lam grid goes to the solver at once, complex lam included
    calls = []
    solve_batch = estimates.solve_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_batch(*args, **kwargs)

    monkeypatch.setattr(estimates, "solve_batch", counting)
    reps = uniformity_sweep(uniformity_base(preset, n_t=51), [1.0, 1e-2], [1.0, 10.0, 3 + 2j])
    assert [r.status for r in reps] == ["ok"] * 6
    assert len(calls) == 1


def test_mixed_lam_wentzell_sweep_matches_its_solo_reports():
    # the lam = 1 cells solve in float64 and the lam = 3+2j cells in
    # complex128, each kind as its own stack: every cell is its solo
    # report bit for bit
    base = uniformity_base("wentzell")
    eps_list, lam_list = [1.0, 1e-2, 1e-4], [1.0, 3 + 2j]
    reps = uniformity_sweep(base, eps_list, lam_list)
    cells = [(eps, lam) for lam in lam_list for eps in eps_list]
    assert [(r.eps, r.lam) for r in reps] == cells
    for (eps, lam), rep in zip(cells, reps):
        solo = coercive_report(dataclasses.replace(base, eps=eps, lam=lam))
        assert rep.status == solo.status == "ok"
        assert rep == solo


def test_modes_sweep_reads_the_boundary_data_once_per_batch(monkeypatch):
    # the boundary data go into the eigenbasis once per sweep, not per cell
    base = uniformity_base("commuting", n_t=51)
    calls, data_for = [0], BoundaryData.data_for

    def counting(self, n):
        calls[0] += 1
        return data_for(self, n)

    monkeypatch.setattr(BoundaryData, "data_for", counting)
    counts = []
    for eps_list, lam_list in [([1.0], [1.0]), ([1.0, 0.3, 0.1, 1e-2, 1e-3], [1.0, 10.0, 3 + 2j])]:
        calls[0] = 0
        reps = uniformity_sweep(base, eps_list, lam_list)
        assert [r.status for r in reps] == ["ok"] * len(eps_list) * len(lam_list)
        counts.append(calls[0])
    assert counts[1] == counts[0]


@pytest.mark.parametrize("preset", ["wentzell", "commuting"])
def test_sweep_of_an_undefined_load_is_all_error_rows(preset):
    def load(t):
        raise ValueError(f"load undefined at t = {t:g}")

    base = dataclasses.replace(uniformity_base(preset, n_t=51), f=load)
    reps = uniformity_sweep(base, [1.0, 1e-2], [1.0, 3 + 2j])
    assert [(r.eps, r.lam) for r in reps] == [(1.0, 1.0), (1e-2, 1.0), (1.0, 3 + 2j),
                                              (1e-2, 3 + 2j)]
    assert [r.status for r in reps] == ["error: load undefined at t = 0"] * 4
    assert all(np.isnan(r.ratio) for r in reps)


@pytest.mark.parametrize("preset", ["wentzell", "commuting"])
def test_sweep_of_an_empty_list_has_no_rows(preset):
    base = uniformity_base(preset, n_t=51)
    assert uniformity_sweep(base, [], [1.0, 10.0]) == []
    assert uniformity_sweep(base, [1.0, 1e-2], []) == []


@pytest.mark.filterwarnings("error")
def test_report_with_an_overflowing_norm_is_an_error():
    # at p = 1e300 every mixed norm overflows to inf, which is no measurement
    base = uniformity_base("scalar", n_t=51)
    with pytest.raises(Overflow):
        coercive_report(base, p=1e300)
    reps = uniformity_sweep(base, [1.0, 0.1], [1.0], p=1e300)
    assert [r.status for r in reps] == [
        "error: coercive report overflowed to non-finite values"] * 2


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
    base, u0 = convergence_problem("scalar")
    rec = convergence_study(base, u0, [1e-1, 1e-2, 1e-3, 1e-4], 0.1)
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
    base, u0 = convergence_problem("commuting")
    rec = convergence_study(base, u0, [1e-1, 1e-2, 1e-3], 0.1)
    gaps = rec.x_norm_gaps
    assert all(s == "ok" for s in rec.statuses)
    for hi, lo in zip(gaps, gaps[1:]):
        assert lo <= 1.05 * hi
    assert gaps[0] / gaps[-1] > 10


@pytest.mark.parametrize("preset, eps_list", [("scalar", [1e-1, 1e-2, 1e-3, 1e-4]),
                                              ("commuting", [1e-1, 1e-2, 1e-3])])
def test_convergence_floor_without_a_load_is_roundoff(preset, eps_list):
    # both solves are exact in t, so the grid-halving floor measures
    # roundoff and every gap lies above it by construction
    base, u0 = convergence_problem(preset)
    assert base.loads is None
    rec = convergence_study(base, u0, eps_list, 0.1)
    assert all(s == "ok" for s in rec.statuses)
    assert 0 <= rec.floor <= 1e-10 * min(rec.x_norm_gaps)
    assert all(rec.above_floor)


def test_convergence_validation():
    base, u0 = convergence_problem("scalar")
    with pytest.raises(ValueError):
        convergence_study(base, u0, [1e-2, 1e-1], 0.1)
    with pytest.raises(ValueError):
        convergence_study(base, u0, [1e-1], 0.1)
    with pytest.raises(ValueError):
        convergence_study(dataclasses.replace(base, lam=1.0), u0,
                          [1e-1, 1e-2], 0.1)
    with pytest.raises(ValueError):
        convergence_study(base, u0, [1e-1, 1e-2], 0.6)


def test_convergence_with_a_load_matches_its_two_solves():
    # the limit problem takes base's load; each eps solves base with both
    # boundary values set to u0
    base, u0 = convergence_problem("commuting", n_t=101)
    base = dataclasses.replace(base, f="100*exp(-64*(t-0.5)^2)")
    eps_list = [1e-1, 1e-2]
    rec = convergence_study(base, u0, eps_list, 0.1)
    assert rec.statuses == ("ok", "ok")
    limit = cauchy_solve(base, u0)
    bc = dataclasses.replace(base.bc, f1=u0, f2=u0)
    for eps, gap in zip(eps_list, rec.x_norm_gaps):
        u = full_solve(dataclasses.replace(base, eps=eps, bc=bc))
        diff = GridFunction(u.t, u.values - limit.values)
        assert gap == mixed_norm(diff, p=2.0, weights=base.pair.weights())


def test_convergence_floor_includes_the_limit_solve_error():
    # the floor is ||(u - u_fine) - (w - w_fine)||, so it differs from the
    # limit solve's own grid-halving difference by at most u's
    base, u0 = convergence_problem("commuting", n_t=101)
    base = dataclasses.replace(base, f="100*exp(-64*(t-0.5)^2)")
    rec = convergence_study(base, u0, [1e-1, 1e-2], 0.1)
    w = cauchy_solve(base, u0)
    w_fine = cauchy_solve(dataclasses.replace(base, n_t=201), u0)
    bc = dataclasses.replace(base.bc, f1=u0, f2=u0)
    u = full_solve(dataclasses.replace(base, eps=1e-2, bc=bc))
    u_fine = full_solve(dataclasses.replace(base, eps=1e-2, bc=bc, n_t=201))

    def halving(coarse, fine):
        return mixed_norm(GridFunction(coarse.t, coarse.values - fine.values[::2]), p=2.0,
                          weights=base.pair.weights())

    own, solve = halving(w, w_fine), halving(u, u_fine)
    assert own > 1e-4 and solve < 1e-3 * own
    assert abs(rec.floor - own) <= solve


def test_convergence_study_at_the_converge_wide_size_peaks_below_10_mib():
    # the limit solve runs in float64 like the elliptic ones, so the gaps
    # u - w and the floor's differences make no complex temporaries
    ini = Path(__file__).resolve().parent / "golden" / "converge-wide.ini"
    cfg = load_config(ini)
    eps_list = cfg.get("convergence", "eps_list", REALS)
    base = _build_spec(cfg, "commuting", eps_list, lam=0.0)
    u0 = cfg.getvector("data", "u0", base.n, default=1.0)
    assert (base.n, base.n_t) == (64, 1601)
    want = convergence_study(base, u0, eps_list, 0.1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = convergence_study(base, u0, eps_list, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got == want
    assert cauchy_solve(base, u0).values.dtype == np.float64
    assert peak < 10 * 2**20


@pytest.mark.filterwarnings("error")
def test_convergence_records_an_overflowing_gap_as_an_error():
    base, _ = convergence_problem("scalar", n_t=51)
    rec = convergence_study(base, np.array([1e308]), [1e-1, 1e-2], 0.1)
    assert rec.statuses == ("error: gap to the limit solution is not finite",) * 2
    assert np.isnan(rec.x_norm_gaps + rec.sup_norm_gaps).all()
    assert np.isnan(rec.floor)
    assert not any(rec.above_floor)


@pytest.mark.parametrize("floor_factor", [np.nan, np.inf, -1.0])
def test_convergence_rejects_a_bad_floor_factor(floor_factor):
    base, u0 = convergence_problem("scalar", n_t=51)
    with pytest.raises(ValueError, match="floor_factor must be finite and >= 0"):
        convergence_study(base, u0, [1e-1, 1e-2], 0.1, floor_factor=floor_factor)


def test_convergence_floor_flag():
    base, u0 = convergence_problem("scalar", n_t=101)
    rec = convergence_study(base, u0, [1e-1, 1e-2], 0.1,
                            floor_factor=1e30)
    assert not any(rec.above_floor)
    assert np.isnan(rec.fitted_rate)
    assert np.isfinite(rec.floor)
