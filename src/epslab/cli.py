"""Config-driven batch runner.

Reads an INI-style scenario file, builds the requested preset problem,
executes one of four modes (solve, sweep, converge, check) and writes
CSV/JSON results plus two-column .dat files with a plotting stub.
Outputs are deterministic: identical config bytes produce identical
output bytes, and every file records the scenario name and a hash of
the effective config.

Exit codes: 0 success, 1 configuration or validation failure (including
failed condition checks), 2 numerical failure during a run.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .discretize import (SpaceGrid, BoundaryData, check_condition_1,
                         check_condition_2_1, check_condition_4_1)
from .elliptic import ProblemSpec, _positive_eps
from .estimates import (EstimateReport, convergence_study, solve_and_report,
                        uniformity_factors, uniformity_sweep)
from .exprparse import EvalError, ParseError
from .linalg import NUMERICAL_ERRORS, check_positivity
from .presets import (PRESET_NAMES, dirichlet_neumann, make_pair,
                      preset_defaults)

__all__ = ["ConfigError", "main", "run"]

_TOKEN_RE = re.compile(r"\[[^\]]*\]|\S+")


class ConfigError(ValueError):
    """Bad or missing configuration value; message names the key path."""


# ----------------------------------------------------------- config access


def _parse_complex(token: str) -> complex:
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ValueError(f"unterminated complex pair {token!r}")
        parts = [p for p in token[1:-1].replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ValueError(f"complex pair needs two entries, got {token!r}")
        return complex(float(parts[0]), float(parts[1]))
    return complex(float(token), 0.0)


def _complex_list(text: str) -> list:
    return [_parse_complex(t) for t in _TOKEN_RE.findall(text)]


# config value kinds: (cast of the raw string, what a failed cast expected)
REAL = (float, "expected a real number")
INT = (int, "expected an integer")
COMPLEX = (_parse_complex, "expected a real or [re, im] pair")
REALS = (lambda s: [float(t) for t in _TOKEN_RE.findall(s)],
         "expected space-separated reals")
COMPLEXES = (_complex_list, "expected space-separated [re, im] pairs or reals")
VECTOR = (_complex_list, "expected a scalar or n values")


class Config:
    """Typed reads over configparser with key-path error messages."""

    def __init__(self, cp: configparser.ConfigParser):
        self.cp = cp

    def raw(self, section: str, key: str, default=None) -> Optional[str]:
        if self.cp.has_option(section, key):
            val = self.cp.get(section, key).strip()
            return val if val else default
        return default

    def get(self, section: str, key: str, kind: tuple, default=None,
            required: bool = False):
        """[section] key cast by kind: a (cast, description) pair.

        An unset key gives default, or a ConfigError when required; a
        failed cast is a ConfigError naming the key and the description.
        """
        val = self.raw(section, key)
        if val is None:
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        cast, what = kind
        try:
            return cast(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"[{section}] {key}: {what}: {exc}") from None

    def getvector(self, section, key, n, default=None):
        vals = self.get(section, key, VECTOR,
                        None if default is None else [complex(default)])
        if vals is None:
            return None
        if len(vals) == 1:
            return np.full(n, vals[0], dtype=complex)
        if len(vals) == n:
            return np.array(vals, dtype=complex)
        raise ConfigError(f"[{section}] {key}: expected 1 or {n} values, got {len(vals)}")

    def getexpr(self, section, key, default=None):
        val = self.raw(section, key)
        if val is None or val.lower() == "none":
            return default
        return val


def load_config(path, overrides: Sequence[str] = (),
                preset: Optional[str] = None) -> Config:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cp.read_string(p.read_text(), source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from None
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section.strip(), key.strip(), value.strip())
    if preset is not None:
        if not cp.has_section("scenario"):
            cp.add_section("scenario")
        cp.set("scenario", "preset", preset)
    return Config(cp)


def config_hash(cfg: Config, mode: str) -> str:
    lines = [f"mode={mode}"]
    for section in sorted(cfg.cp.sections()):
        for key in sorted(cfg.cp.options(section)):
            lines.append(f"[{section}] {key} = {cfg.cp.get(section, key)}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


# ------------------------------------------------------- problem assembly


def _preset_kwargs(cfg: Config, preset: str) -> dict:
    """Preset coefficients set in the config; presets supplies the rest."""
    if preset not in PRESET_NAMES:
        raise ConfigError(f"[scenario] preset: unknown preset {preset!r}")
    kwargs = {}
    for key, default in preset_defaults(preset).items():
        section = "grid" if key == "n_y" else "operators"
        kind = {int: INT, float: REAL}.get(type(default))
        value = (cfg.getexpr(section, key) if kind is None
                 else cfg.get(section, key, kind))
        if value is not None:
            kwargs[key] = value
    return kwargs


def _build_bc(cfg: Config, n: int) -> BoundaryData:
    """Boundary keys set in the config; dirichlet_neumann supplies the rest."""
    values = {"alpha": cfg.get("boundary", "alpha", COMPLEXES),
              "beta": cfg.get("boundary", "beta", COMPLEXES),
              "f1": cfg.getvector("boundary", "f1", n),
              "f2": cfg.getvector("boundary", "f2", n)}
    try:
        return dataclasses.replace(dirichlet_neumann(n), **{
            key: val for key, val in values.items() if val is not None})
    except ValueError as exc:
        raise ConfigError(f"[boundary]: {exc}") from None


def _build_spec(cfg: Config, preset: str, eps_list: Sequence[float],
                lam: complex) -> ProblemSpec:
    """The problem at eps_list[0]; every eps in eps_list must be valid, by
    the spec's own eps rule, so the load is parsed once."""
    pair = make_pair(preset, **_preset_kwargs(cfg, preset))
    bc = _build_bc(cfg, pair.n)
    T = cfg.get("scenario", "T", REAL, 1.0)
    f = cfg.getexpr("data", "f")
    n_t = cfg.get("grid", "n_t", INT, 201)
    try:
        spec = ProblemSpec(pair=pair, eps=eps_list[0], lam=lam, T=T, bc=bc,
                           f=f, n_t=n_t)
        for eps in eps_list[1:]:
            _positive_eps(eps)
        return spec
    except (ValueError, ParseError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from None


# ------------------------------------------------------------- formatting


def _fmt(x) -> str:
    return repr(float(x))


def _lam_key(lam: complex) -> str:
    """lam as re+imj, each part in its shortest round-trip digits, no trailing .0."""
    re_, im = (_fmt(x).removesuffix(".0") for x in (lam.real, lam.imag))
    return f"{re_}{'' if im.startswith('-') else '+'}{im}j"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        if c.imag == 0:
            return c.real
        return [c.real, c.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_text(path: Path, text: str) -> None:
    # the directory appears with its first file, so a config error leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write(path: Path, header: str, lines: List[str]) -> None:
    _write_text(path, "\n".join([header] + lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _report_row(rep: EstimateReport) -> str:
    cells = [_fmt(rep.eps), _fmt(rep.lam.real), _fmt(rep.lam.imag),
             _fmt(rep.lhs_terms[0]), _fmt(rep.lhs_terms[1]),
             _fmt(rep.lhs_terms[2]), _fmt(rep.au_norm), _fmt(rep.lhs_total),
             _fmt(rep.lhs_alt_total), _fmt(rep.rhs), _fmt(rep.ratio),
             rep.status.replace(",", ";")]
    return ",".join(cells)


SWEEP_HEADER = ("eps,lambda_re,lambda_im,term0,term1,term2,au_norm,"
                "lhs_total,lhs_alt_total,rhs,ratio,status")

PLOT_STUB = '''#!/usr/bin/env python3
"""Render the two-column .dat files next to this script (needs matplotlib)."""
import glob
import os
import sys

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib is not installed; inspect the .dat files directly")

here = os.path.dirname(os.path.abspath(__file__))
fig, ax = plt.subplots()
for path in sorted(glob.glob(os.path.join(here, "*.dat"))):
    xs, ys = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            a, b = line.split()
            xs.append(float(a))
            ys.append(float(b))
    ax.plot(xs, ys, marker="o", label=os.path.basename(path))
if any(ax.lines):
    ax.set_xscale("log")
    ax.set_yscale("log")
ax.legend()
out = os.path.join(here, "plots.png")
fig.savefig(out, dpi=150)
print(out)
'''


# ------------------------------------------------------------------ modes


def _run_solve(cfg: Config, out: Path, header: str, ident: dict) -> int:
    spec = _build_spec(cfg, ident["preset"],
                       [cfg.get("solve", "eps", REAL,
                                cfg.get("scenario", "eps", REAL, 0.1))],
                       lam=cfg.get("solve", "lambda", COMPLEX,
                                   cfg.get("scenario", "lambda", COMPLEX, 1.0)))
    u, rep = solve_and_report(spec, p=cfg.get("scenario", "p", REAL, 2.0))
    cols = ["t"]
    for j in range(u.n):
        cols += [f"u{j}_re", f"u{j}_im"]
    rows = []
    for i, t in enumerate(u.t):
        cells = [_fmt(t)]
        for j in range(u.n):
            cells += [_fmt(u.values[i, j].real), _fmt(u.values[i, j].imag)]
        rows.append(",".join(cells))
    _write(out / "solution.csv", header, [",".join(cols)] + rows)
    weights = spec.pair.weights()
    norms = u.e_norms(weights)
    _write(out / "solution.dat", header,
           [f"{_fmt(t)} {_fmt(v)}" for t, v in zip(u.t, norms)])
    _write(out / "estimate.csv", header, [SWEEP_HEADER, _report_row(rep)])
    _write_json(out / "summary.json", {
        **ident, "path": u.meta.get("path"), "eps": spec.eps, "lambda": spec.lam,
        "ratio": rep.ratio, "lhs_total": rep.lhs_total, "rhs": rep.rhs})
    return 0


def _run_sweep(cfg: Config, out: Path, header: str, ident: dict) -> int:
    eps_list = cfg.get("sweep", "eps_list", REALS, required=True)
    lam_list = cfg.get("sweep", "lambda_list", COMPLEXES, required=True)
    if not eps_list or not lam_list:
        raise ConfigError("[sweep] eps_list and lambda_list must be nonempty")
    p = cfg.get("scenario", "p", REAL, 2.0)
    base = _build_spec(cfg, ident["preset"], eps_list, lam=lam_list[0])
    reports = uniformity_sweep(base, eps_list, lam_list, p=p)
    _write(out / "sweep.csv", header,
           [SWEEP_HEADER] + [_report_row(r) for r in reports])
    factors = uniformity_factors(reports)
    for i, lam in enumerate(lam_list):
        rows = [f"{_fmt(r.eps)} {_fmt(r.ratio)}"
                for r in reports if r.lam == lam and r.status == "ok"]
        _write(out / f"sweep_lam{i}.dat", header, rows)
    _write_json(out / "summary.json", {
        **ident, "p": p, "n_cells": len(reports),
        "n_failed": sum(r.status != "ok" for r in reports),
        "uniformity": {_lam_key(lam): {"max_ratio": mx, "factor": fac}
                       for lam, (mx, fac) in factors.items()}})
    return 2 if any(r.status != "ok" for r in reports) else 0


def _run_converge(cfg: Config, out: Path, header: str, ident: dict) -> int:
    eps_list = cfg.get("convergence", "eps_list", REALS, required=True)
    base = _build_spec(cfg, ident["preset"], eps_list,
                       lam=cfg.get("scenario", "lambda", COMPLEX, 0.0))
    u0 = cfg.getvector("data", "u0", base.n, default=1.0)
    if cfg.getexpr("data", "f0") is not None:
        raise ConfigError("[data] f0 is no longer read; the load is [data] f")
    try:
        record = convergence_study(
            base, u0, eps_list,
            compact_delta=cfg.get("convergence", "delta", REAL, 0.1 * base.T),
            p=cfg.get("scenario", "p", REAL, 2.0),
            floor_factor=cfg.get("convergence", "floor_factor", REAL, 5.0))
    except ValueError as exc:
        raise ConfigError(f"invalid convergence scenario: {exc}") from None
    rows = []
    for eps, xg, sg, ab in zip(record.eps_list, record.x_norm_gaps,
                               record.sup_norm_gaps, record.above_floor):
        rows.append(",".join([_fmt(eps), _fmt(xg), _fmt(sg),
                              _fmt(record.floor),
                              "true" if ab else "false"]))
    _write(out / "converge.csv", header, ["eps,x_gap,sup_gap,floor,above_floor"] + rows)
    _write(out / "converge.dat", header,
           [f"{_fmt(e)} {_fmt(g)}" for e, g in
            zip(record.eps_list, record.x_norm_gaps) if np.isfinite(g)])
    _write_json(out / "summary.json", {
        **ident, "fitted_rate": record.fitted_rate,
        "floor": record.floor, "delta": record.delta,
        "statuses": list(record.statuses)})
    return 2 if any(s != "ok" for s in record.statuses) else 0


def _run_check(cfg: Config, out: Path, header: str, ident: dict) -> int:
    preset = ident["preset"]
    try:
        kwargs = _preset_kwargs(cfg, preset)
        pair = make_pair(preset, check_positive=False, **kwargs)
    except (ValueError, ParseError) as exc:
        raise ConfigError(f"cannot build preset {preset!r}: {exc}") from None
    bc = _build_bc(cfg, pair.n)
    pos = check_positivity(pair.A, lam_samples=pair.lam_samples)
    c1 = check_condition_1(bc)
    c21 = check_condition_2_1(pair, bc=bc)
    grid = pair.grid or SpaceGrid.uniform_interior(4)
    coeffs = {**preset_defaults(preset), **kwargs}
    if preset == "wentzell":
        c41 = check_condition_4_1(grid, coeffs["a"], coeffs["b"], coeffs["kernel"])
    else:
        # the other presets have no drift or kernel coefficient: check a alone
        c41 = check_condition_4_1(grid, coeffs["a"], 0.0, 0.0)
    payload = {
        **ident,
        "positivity": {"passed": pos.passed, "details": {
            "bound": pos.bound, "cap": pos.cap, "worst_lam": pos.worst_lam,
            "lam_samples": list(pos.lam_samples), "values": list(pos.values)}},
        "condition_1": {"passed": c1.passed, "details": c1.details},
        "condition_2_1": {"passed": c21.passed, "details": c21.details},
        "condition_4_1": {"passed": c41.passed, "details": c41.details},
    }
    _write_json(out / "report.json", payload)
    all_passed = all([pos.passed, c1.passed, c21.passed, c41.passed])
    return 0 if all_passed else 1


RUNNERS = {"solve": _run_solve, "sweep": _run_sweep,
           "converge": _run_converge, "check": _run_check}
MODES = tuple(RUNNERS)


# ------------------------------------------------------------- entry point


def run(config_path, out_dir, mode: Optional[str] = None,
        preset: Optional[str] = None, overrides: Sequence[str] = ()) -> int:
    cfg = load_config(config_path, overrides=overrides, preset=preset)
    mode = mode or cfg.raw("scenario", "mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    ident = {"scenario": cfg.raw("scenario", "name", Path(config_path).stem),
             "config_hash": config_hash(cfg, mode), "mode": mode,
             "preset": cfg.raw("scenario", "preset", "scalar")}
    header = f"# scenario={ident['scenario']} config_hash={ident['config_hash']}"
    out = Path(out_dir)
    code = RUNNERS[mode](cfg, out, header, ident)
    if mode != "check":  # check writes no .dat files to plot
        _write_text(out / "plot.py", PLOT_STUB)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="epslab",
        description="Batch runner for singular-perturbation solver experiments.")
    parser.add_argument("mode", nargs="?", choices=MODES,
                        help="run mode (defaults to [scenario] mode in the config)")
    parser.add_argument("--config", required=True, help="scenario file (INI format)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="ignored; a sweep solves its whole eps x lambda grid "
                             "as one batch in one process")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="override [scenario] preset")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a config entry (repeatable)")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.out, mode=args.mode,
                   preset=args.preset, overrides=args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, EvalError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
