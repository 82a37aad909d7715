"""Seeded workload generation for the epslab benchmark.

Each workload is an INI written from one of the shipped configs in
`configs/`, scaled up so a run does measurable work.  The seed jitters
the eps values inside their decade (or half decade), the lambda values
and the centre of the load bump; it never changes the grid sizes or the
number of cells, so the amount of work is the same for every seed.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# jitter half-widths: log10 units for eps and lambda, absolute for the bump
EPS_JITTER = 0.05
LAM_JITTER = 0.05
BUMP_JITTER = 0.02

LOAD_TEMPLATE = "exp(-64*(t-{c})^2)*(1+0.2*y)"
WENTZELL_OPERATORS = {"a": "1+y", "b": "y", "kernel": "0.5*exp(-(y-tau)^2)"}


@dataclass(frozen=True)
class Workload:
    """One generated workload: its INI text plus what the checks need."""
    name: str
    mode: str            # "sweep" or "converge"
    preset: str          # "commuting" or "wentzell"
    jobs: int
    ini_text: str
    eps_list: tuple
    lam_list: tuple      # real lambda values; converge uses (0.0,)
    bump_centre: Optional[float]  # None when the load is absent
    n_t: int
    pair_kwargs: dict    # arguments of epslab.presets.make_pair
    bc_data: tuple       # (f1, f2) boundary values of the probe
    err_tol: float       # err_max above this fails the run

    @property
    def n_ops(self) -> int:
        """Operations per CLI run: sweep cells or convergence solves."""
        if self.mode == "sweep":
            return len(self.eps_list) * len(self.lam_list)
        return len(self.eps_list)

    @property
    def ini_hash(self) -> str:
        return hashlib.sha256(self.ini_text.encode()).hexdigest()[:16]

    def probe(self) -> dict:
        """The single solve checked against the oracle: smallest eps,
        first lambda, same grid as the workload."""
        return {"eps": self.eps_list[-1], "lam": self.lam_list[0],
                "f1": self.bc_data[0], "f2": self.bc_data[1],
                "bump_centre": self.bump_centre}

    def probe_overrides(self) -> list:
        p = self.probe()
        out = [f"solve.eps={p['eps']!r}", f"solve.lambda=[{p['lam']!r},0]",
               f"boundary.f1={p['f1']!r}", f"boundary.f2={p['f2']!r}"]
        if p["bump_centre"] is None:
            out.append("data.f=none")
        return out


def _read_template(root: Path, name: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    path = root / "configs" / name
    if not path.is_file():
        raise FileNotFoundError(f"template config not found: {path}")
    cp.read_string(path.read_text(), source=str(path))
    return cp


def _dump(cp: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _jittered_eps(rng: random.Random, exponents) -> tuple:
    # half-widths stay well below half the exponent spacing, so the list
    # remains strictly decreasing
    return tuple(10.0 ** (e + rng.uniform(-EPS_JITTER, EPS_JITTER))
                 for e in exponents)


def _sweep(root: Path, name: str, preset: str, jobs: int, seed: int,
           tiny: bool) -> Workload:
    cp = _read_template(root, "commuting_sweep.ini")
    rng = random.Random(f"{name}:{seed}")
    exponents = (0, -1, -2) if tiny else (0, -1, -2, -3, -4)
    bases = (1.0,) if tiny else (1.0, 10.0, 100.0)
    eps = _jittered_eps(rng, exponents)
    lams = tuple(b * 10.0 ** rng.uniform(-LAM_JITTER, LAM_JITTER) for b in bases)
    centre = 0.5 + rng.uniform(-BUMP_JITTER, BUMP_JITTER)
    n_t, n_y = (51, 4) if tiny else (801, 16)

    load = cp.get("data", "f")
    if not re.fullmatch(r"exp\(-64\*\(t-0\.5\)\^2\)\*\(1\+0\.2\*y\)", load):
        raise ValueError(f"unexpected load in commuting_sweep.ini: {load!r}")
    cp.set("scenario", "name", f"bench-{name}")
    cp.set("scenario", "preset", preset)
    cp.set("sweep", "eps_list", " ".join(repr(e) for e in eps))
    cp.set("sweep", "lambda_list", " ".join(f"[{lam!r},0]" for lam in lams))
    cp.set("grid", "n_t", str(n_t))
    cp.set("grid", "n_y", str(n_y))
    cp.set("grid", "n_x", "1024")
    cp.set("data", "f", LOAD_TEMPLATE.format(c=repr(centre)))
    if preset == "wentzell":
        cp.remove_section("operators")
        cp.add_section("operators")
        for key, val in WENTZELL_OPERATORS.items():
            cp.set("operators", key, val)
        kwargs = dict(WENTZELL_OPERATORS, n_y=n_y)
        tol = 1e-2
    else:
        kwargs = {"n_y": n_y, "a": cp.get("operators", "a"),
                  "b0": cp.getfloat("operators", "b0"),
                  "b1": cp.getfloat("operators", "b1")}
        tol = 1e-8
    return Workload(name=name, mode="sweep", preset=preset, jobs=jobs,
                    ini_text=_dump(cp), eps_list=eps, lam_list=lams,
                    bump_centre=centre, n_t=n_t, pair_kwargs=kwargs,
                    bc_data=(cp.getfloat("boundary", "f1"),
                             cp.getfloat("boundary", "f2")),
                    err_tol=tol)


def _converge(root: Path, seed: int, tiny: bool) -> Workload:
    cp = _read_template(root, "commuting_converge.ini")
    rng = random.Random(f"converge-wide:{seed}")
    exponents = (-1, -1.5, -2) if tiny else (-1, -1.5, -2, -2.5, -3, -3.5, -4)
    eps = _jittered_eps(rng, exponents)
    n_t, n_y = (51, 4) if tiny else (1601, 64)
    cp.set("scenario", "name", "bench-converge-wide")
    cp.set("convergence", "eps_list", " ".join(repr(e) for e in eps))
    cp.set("grid", "n_t", str(n_t))
    cp.set("grid", "n_y", str(n_y))
    cp.set("data", "u0", "1.0")
    cp.set("data", "f0", "none")
    kwargs = {"n_y": n_y, "a": cp.get("operators", "a"),
              "b0": cp.getfloat("operators", "b0"),
              "b1": cp.getfloat("operators", "b1")}
    return Workload(name="converge-wide", mode="converge", preset="commuting",
                    jobs=1, ini_text=_dump(cp), eps_list=eps, lam_list=(0.0,),
                    bump_centre=None, n_t=n_t, pair_kwargs=kwargs,
                    # the convergence study rewires both boundary values to u0
                    bc_data=(1.0, 1.0), err_tol=1e-8)


WORKLOADS = ("sweep-split", "sweep-fd", "converge-wide")


def make_workload(name: str, seed: int, root: Path, tiny: bool = False) -> Workload:
    """Build workload `name` for `seed` from the configs under `root`."""
    if name == "sweep-split":
        return _sweep(root, name, "commuting", 1, seed, tiny)
    if name == "sweep-fd":
        return _sweep(root, name, "wentzell", 2, seed, tiny)
    if name == "converge-wide":
        return _converge(root, seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
