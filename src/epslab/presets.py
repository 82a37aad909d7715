"""Canonical operator pairs and ready-made problem scenarios.

Three families cover the measurement surface: a scalar pair with every
closed form available, a commuting diagonal family that exercises the
mode-by-mode route at matrix scale, and a non-commuting pair built from
a second-order coefficient operator plus an integral drift, which forces
the finite-difference route.  The scenario builders wire the boundary
and load data used by the sweeps so tests and the CLI agree on what
"the scalar preset" means.
"""
from __future__ import annotations

import inspect
from typing import Tuple

import numpy as np

from .discretize import (BoundaryData, OperatorPair, SpaceGrid, _as_coefficient,
                         build_integral_operator, build_wentzell_operator)
from .elliptic import ProblemSpec

__all__ = [
    "PRESET_NAMES", "make_scalar_pair", "make_commuting_pair",
    "make_wentzell_pair", "make_pair", "preset_defaults", "dirichlet_neumann",
    "neumann_dirichlet", "uniformity_base", "decay_base",
    "convergence_problem", "cross_validation_spec",
]

PRESET_NAMES = ("scalar", "commuting", "wentzell")


def make_scalar_pair(a: float = 1.0, b: float = 0.5,
                     check_positive: bool = True) -> OperatorPair:
    return OperatorPair([[a]], [[b]], check_positive=check_positive)


def make_commuting_pair(n_y: int = 8, a: str = "1+2*y", b0: float = 0.3,
                        b1: float = 0.1,
                        check_positive: bool = True) -> OperatorPair:
    """Diagonal multiplication operator A and the polynomial drift
    B = b0 I + b1 A; they commute by construction and share the standard
    basis, so full_solve takes the modes route for this family."""
    grid = SpaceGrid.uniform_interior(n_y)
    A = np.diag(_as_coefficient(a, ("y",))(y=grid.nodes))
    B = b0 * np.eye(n_y) + b1 * A
    return OperatorPair(A, B, grid=grid, check_positive=check_positive)


def make_wentzell_pair(n_y: int = 16, a: str = "1+y", b: str = "y",
                       kernel: str = "0.5*exp(-(y-tau)^2)",
                       check_positive: bool = True) -> OperatorPair:
    """Second-order coefficient operator with operator-valued boundary
    rows, paired with a Nystrom integral drift.  A and B do not commute,
    so solvers must take the finite-difference route.  A has a constant
    kernel direction, so positivity is sampled away from lam = 0."""
    grid = SpaceGrid.uniform_interior(n_y)
    A = build_wentzell_operator(grid, a, b)
    B = build_integral_operator(grid, kernel)
    return OperatorPair(A, B, grid=grid, check_positive=check_positive,
                        lam_samples=(1.0, 10.0, 100.0, 1000.0))


def _builder(name: str):
    builders = {"scalar": make_scalar_pair, "commuting": make_commuting_pair,
                "wentzell": make_wentzell_pair}
    if name not in builders:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return builders[name]


def make_pair(name: str, **kwargs) -> OperatorPair:
    return _builder(name)(**kwargs)


def preset_defaults(name: str) -> dict:
    """Default coefficients of a preset, read off its builder's signature."""
    params = inspect.signature(_builder(name)).parameters
    return {key: par.default for key, par in params.items()
            if key != "check_positive"}


def _data(n: int, scale: complex) -> np.ndarray:
    return np.full(n, scale, dtype=complex)


def dirichlet_neumann(n: int, f1: complex = 1.0, f2: complex = 0.5) -> BoundaryData:
    """Value pinned at t = 0, scaled slope at t = T."""
    return BoundaryData((1.0, 0.0), (0.0, 1.0), _data(n, f1), _data(n, f2))


def neumann_dirichlet(n: int, f1: complex = 1.0, f2: complex = 1.0) -> BoundaryData:
    """Scaled slope at t = 0, value pinned at t = T."""
    return BoundaryData((0.0, 1.0), (1.0, 0.0), _data(n, f1), _data(n, f2))


def uniformity_base(preset: str = "scalar", eps: float = 1.0,
                    lam: complex = 1.0, n_t: int = 201) -> ProblemSpec:
    """Template cell for the coercive-ratio sweep.

    Carries an interior load alongside the boundary data so the ratio
    has an eps-independent anchor on both sides.
    """
    pair = make_pair(preset)
    n = pair.n
    if preset == "commuting":
        f = "exp(-64*(t-0.5)^2)*(1+0.2*y)"
    else:
        f = "exp(-64*(t-0.5)^2)"
    return ProblemSpec(pair=pair, eps=eps, lam=lam, T=1.0,
                       bc=dirichlet_neumann(n), f=f, n_t=n_t)


def decay_base(eps: float = 0.05, b: float = -0.5, n_t: int = 101) -> ProblemSpec:
    """Scalar scenario whose t = 0 mode is a sharp layer.

    With b < 0 the fast mode sits at the left end, so the f1-propagator
    M(t) decays like exp(-|b| t / eps) and the f2-propagator N(t)
    carries the slow mode anchored at t = T.
    """
    pair = make_scalar_pair(b=b)
    return ProblemSpec(pair=pair, eps=eps, lam=0.0, T=1.0,
                       bc=neumann_dirichlet(1), n_t=n_t)


def convergence_problem(preset: str = "scalar",
                        n_t: int = 201) -> Tuple[ProblemSpec, np.ndarray]:
    """Elliptic template plus the start value u0 of its first-order limit.

    The drift is positive, so the slow mode anchors at t = 0 and the
    limit problem marches forward from u0; the layer at t = T enters
    through the scaled-slope condition with vanishing amplitude.  The
    study re-wires both boundary data to u0.
    """
    pair = make_pair(preset)
    n = pair.n
    if preset == "commuting":
        y = pair.grid.nodes
        u0 = 1.0 + y * (1.0 - y)
    elif preset == "scalar":
        u0 = np.array([1.0])
    else:
        raise ValueError("convergence scenarios need a commuting pair")
    base = ProblemSpec(pair=pair, eps=0.1, lam=0.0, T=1.0,
                       bc=dirichlet_neumann(n), n_t=n_t)
    return base, np.asarray(u0, dtype=float)


def cross_validation_spec(eps: float = 0.1, lam: complex = 1.0,
                          n_t: int = 400) -> ProblemSpec:
    """Commuting-pair scenario with a compact interior bump at mid-interval,
    used to compare the modes route against the finite-difference one."""
    pair = make_commuting_pair()
    return ProblemSpec(pair=pair, eps=eps, lam=lam, T=2.0,
                       bc=dirichlet_neumann(pair.n), f="exp(-16*(t-1)^2)*(1+0.2*y)",
                       n_t=n_t)
