"""End-to-end acceptance gate.

Each test exercises one advertised guarantee of the package at its
stated tolerance and prints a single PASS/FAIL line on the real stdout,
so the gate stays visible even when pytest captures output.  Tests are
numbered so the verbose run lists them in order.
"""
import random
import sys
import time
from contextlib import contextmanager

import numpy as np

from epslab.discretize import GridFunction, mixed_norm
from epslab.elliptic import ProblemSpec, compute_q_system, direct_solve, full_solve
from epslab.estimates import (convergence_study, decay_fit, layer_norm_sweep,
                              uniformity_factors, uniformity_sweep)
from epslab.exprparse import (BinOp, Call, Neg, Num, ParseError, Var, parse,
                              pretty)
from epslab.linalg import expm, op_norm, sqrtm
from epslab.multiplier import multiplier_bound_scan
from epslab.presets import (PRESET_NAMES, convergence_problem,
                            cross_validation_spec, decay_base,
                            dirichlet_neumann, make_pair, make_scalar_pair,
                            make_wentzell_pair, uniformity_base)

EPS_DECADES = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
LAM_POINTS = (1.0, 10.0, 100.0)


@contextmanager
def criterion(num, label, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"\n[acceptance {num}] FAIL {label} ({dt:.2f}s)",
              file=sys.__stdout__, flush=True)
        raise
    dt = time.perf_counter() - t0
    timed_out = limit is not None and dt >= limit
    verdict = "FAIL" if timed_out else "PASS"
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"\n[acceptance {num}] {verdict} {label} ({dt:.2f}s{budget})",
          file=sys.__stdout__, flush=True)
    assert not timed_out, f"criterion {num} exceeded {limit}s: {dt:.2f}s"


def test_01_scalar_closed_form_oracle():
    with criterion(1, "scalar closed-form oracle", limit=1.0):
        pair = make_scalar_pair(a=1.0, b=0.0)
        spec = ProblemSpec(pair=pair, eps=1.0, lam=0.0, T=1.0,
                           bc=dirichlet_neumann(1, f1=1.0, f2=0.0), n_t=400)
        g1_exact = 1.0 / (1.0 + np.exp(-2.0))
        qsys = compute_q_system(spec)
        assert abs(qsys.g1[0] - g1_exact) <= 1e-8
        assert abs(qsys.g2[0] - (1.0 - g1_exact)) <= 1e-8
        u = full_solve(spec)
        exact = (np.exp(-u.t) + np.exp(u.t - 2.0)) / (1.0 + np.exp(-2.0))
        assert np.abs(u.values[:, 0] - exact).max() <= 1e-8


def test_02_solver_cross_validation():
    with criterion(2, "mode route vs finite differences", limit=30.0):
        spec = cross_validation_spec(n_t=400)
        u_modes = full_solve(spec)
        u_fd = direct_solve(spec)
        assert u_modes.meta["path"] == "modes"
        diff = GridFunction(u_fd.t, u_modes.values - u_fd.values)
        assert mixed_norm(diff) / mixed_norm(u_fd) <= 1e-3

        # semidiscrete manufactured solution on the non-commuting pair:
        # the load is assembled from the same matrices the solver sees,
        # so the observed error is purely the O(h^2) time discretization
        pair = make_wentzell_pair()
        n = pair.n
        eps, lam, T = 0.3, 0.5, 1.0
        phi = np.linspace(0.5, 1.5, n).astype(complex)
        Aphi = (pair.A + lam * np.eye(n)) @ phi
        Bphi = pair.B @ phi

        def load(t):
            return (eps * np.pi**2 * np.sin(np.pi * t) * phi
                    + np.pi * np.cos(np.pi * t) * Bphi
                    + np.sin(np.pi * t) * Aphi)

        bc = dirichlet_neumann(n, f1=0.0, f2=0.0)
        bc.f2[:] = np.sqrt(eps) * np.pi * np.cos(np.pi * T) * phi
        errs = []
        for n_t in (51, 101, 201):
            s = ProblemSpec(pair=pair, eps=eps, lam=lam, T=T, bc=bc,
                            f=load, n_t=n_t)
            u = direct_solve(s)
            exact = np.sin(np.pi * u.t)[:, None] * phi[None, :]
            errs.append(np.abs(u.values - exact).max())
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert rates.min() >= 1.8, f"observed orders {rates}"


def test_03_q_calculus_identities():
    with criterion(3, "square-root calculus and semigroup law", limit=10.0):
        for name in PRESET_NAMES:
            pair = make_pair(name)
            for eps, lam in ((0.1, 1.0), (1e-3, 10.0)):
                spec = ProblemSpec(pair=pair, eps=eps, lam=lam, T=1.0,
                                   bc=dirichlet_neumann(pair.n), n_t=5)
                q = compute_q_system(spec)
                B = pair.B
                target = B @ B + 4.0 * eps * (pair.A + lam * np.eye(pair.n))
                assert op_norm(eps * (q.Q1 + q.Q2) - B) <= 1e-9 * max(op_norm(B), 1.0)
                assert op_norm(eps * (q.Q1 - q.Q2) - q.Qlam) <= 1e-9 * op_norm(q.Qlam)
                assert op_norm(q.Qlam @ q.Qlam - target) <= 1e-9 * op_norm(target)
                for G in (q.G1, q.G2):
                    E_s, E_t = expm(-0.3 * G), expm(-0.45 * G)
                    E_st = expm(-0.75 * G)
                    assert op_norm(E_s @ E_t - E_st) <= 1e-8 * max(1.0, op_norm(E_st))

        rng = np.random.default_rng(1234)
        for k in range(100):
            n = int(rng.integers(1, 65))
            d = rng.uniform(0.1, 10.0, size=n)
            if k % 2:
                V = np.eye(n) + (0.1 / np.sqrt(n)) * rng.normal(size=(n, n))
                M = V @ np.diag(d) @ np.linalg.inv(V)
            else:
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                M = Q @ np.diag(d) @ Q.T
            S = sqrtm(M)
            assert op_norm(S @ S - M) <= 1e-10 * op_norm(M)


def test_04_coercivity_uniformity():
    with criterion(4, "coercive ratio uniform across decades", limit=60.0):
        for name in ("scalar", "commuting"):
            reports = uniformity_sweep(uniformity_base(name),
                                       EPS_DECADES, LAM_POINTS)
            assert all(r.status == "ok" for r in reports), name
            for lam, (max_ratio, factor) in uniformity_factors(reports).items():
                assert np.isfinite(max_ratio)
                assert factor <= 10.0, (name, lam, factor)


def test_05_multiplier_bound():
    with criterion(5, "weighted solution symbol bounded", limit=None):
        for name in ("scalar", "commuting"):
            records = multiplier_bound_scan(make_pair(name),
                                            EPS_DECADES, LAM_POINTS)
            by_lam = {}
            for rec in records:
                by_lam.setdefault(rec["lam"], []).append(rec["bound_coercive"])
            for lam, vals in by_lam.items():
                assert max(vals) / min(vals) < 10.0, (name, lam, vals)
                if name == "scalar":
                    assert all(abs(v - 1.0) <= 1e-10 for v in vals), (lam, vals)


def test_06_singular_perturbation_convergence():
    with criterion(6, "vanishing-viscosity gap decay", limit=120.0):
        for name in ("scalar", "commuting"):
            base, u0 = convergence_problem(name)
            rec = convergence_study(base, u0, EPS_DECADES[1:],
                                    compact_delta=0.1 * base.T)
            assert all(s == "ok" for s in rec.statuses), name
            for gaps in (rec.x_norm_gaps, rec.sup_norm_gaps):
                gaps = np.asarray(gaps)
                live = [g for g, a in zip(gaps, rec.above_floor) if a]
                for g_prev, g_next in zip(live, live[1:]):
                    assert g_next <= 1.05 * g_prev, (name, gaps)
                assert len(live) >= 2 and live[0] / live[-1] > 10.0, (name, gaps)


def test_07_boundary_layer_decay():
    with criterion(7, "layer propagator decay", limit=None):
        fit = decay_fit(decay_base())
        assert fit.omega > 0.0
        assert fit.residual < 0.10
        rows = layer_norm_sweep(decay_base(), (0.05, 0.02, 0.01, 0.005))
        m_norms = [row["M_norm"] for row in rows]
        assert all(b < a for a, b in zip(m_norms, m_norms[1:])), m_norms
        assert max(row["N_sup"] for row in rows) <= 5.0


FUZZ_ALPHABET = "0123456789.+-*/^()[]{} \tytausincoexpqrblg_,!%?@#~=<>$:;'"


def _random_ast(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(rng.uniform(0.0, 1e6))
        return Var(rng.choice(("y", "t", "tau")))
    if roll < 0.45:
        return Neg(_random_ast(rng, depth - 1))
    if roll < 0.6:
        return Call(rng.choice(("sin", "cos", "exp", "sqrt", "abs")),
                    _random_ast(rng, depth - 1))
    return BinOp(rng.choice("+-*/^"),
                 _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_08_parser_robustness():
    with criterion(8, "parser never aborts, round-trips", limit=None):
        rng = random.Random(20260814)
        for _ in range(10**5):
            src = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randrange(0, 33)))
            try:
                node = parse(src, allowed_vars=("y", "t", "tau"))
            except ParseError:
                continue
            pretty(node)
        for _ in range(10**3):
            node = _random_ast(rng, depth=6)
            back = parse(pretty(node), allowed_vars=("y", "t", "tau"))
            assert back == node
