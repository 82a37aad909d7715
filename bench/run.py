"""End-to-end and per-layer benchmark of the epslab CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; epslab is imported from ./src and the
workload INIs are generated from ./configs.  Workloads (see
workloads.py): sweep-split, sweep-fd, converge-wide.

--trace 0 measures the end-to-end metrics with tracing off:
    wall_s       median wall time of one in-process CLI run
    ops_per_s    median of (operations finished ok / wall time) per run
    setup_s      median, over fresh processes, of the time to import
                 epslab.cli, load the config and build the preset pair
    peak_rss_mb  peak resident memory of a child process running the
                 workload once
    err_digits   -log10(err_max), the correct digits of the probe
and prints two more figures that the final JSON does not carry as metrics:
    err_max      relative L2 error of one `epslab solve` at the smallest
                 eps against oracle.py, which does not use epslab
    fail_frac    failed / attempted operations (the final JSON carries
                 them as `failed` and `attempted`)
--trace 1 alternates untraced and traced runs and reports, per traced
run, `<module>.<function>.{calls,self_s,busy_s[,fail]}` for every
function in spans.TARGETS, `estimates.parallel_eff` and
`trace.overhead_s`; the spans of the last traced run are written to
.bench_out/<workload>-s<seed>-t1/trace.json (see table.py).

Every run is checked: exit code 0, every output row ok and finite, and
output files byte-identical across all runs of the invocation (with
--trace 0 also against a separate process).  With --trace 0, err_max
must be within the workload's tolerance and the oracle must pass its
closed-form self-check.  The last stdout line is one JSON object with
keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"

MIN_RUNS = 3
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "err_digits": "digits"}
LAYER_UNITS = {"calls": "count", "self_s": "s", "busy_s": "s", "fail": "count",
               "parallel_eff": "ratio", "overhead_s": "s"}


class CheckoutError(RuntimeError):
    """The working directory is not an epslab checkout."""


def _require_checkout() -> None:
    for rel in ("src/epslab/cli.py", "configs/commuting_sweep.ini",
                "configs/commuting_converge.ini"):
        if not (ROOT / rel).is_file():
            raise CheckoutError(f"{rel} not found under {ROOT}; "
                                "run from the root of an epslab checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import epslab
    if Path(epslab.__file__).resolve().parent != (ROOT / "src" / "epslab").resolve():
        raise CheckoutError(f"epslab imported from {epslab.__file__}, not ./src")


# ------------------------------------------------------------- environment


def environment(seed: int, wl) -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass

    def blas(mod):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_numpy": blas(numpy), "blas_scipy": blas(scipy),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "commit": commit, "seed": seed, "ini_hash": wl.ini_hash,
    }


# --------------------------------------------------------- output checks


def _file_hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _finite(cells) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def check_outputs(wl, out_dir: Path, rc: int) -> tuple:
    """(operations ok, problems, uniformity factors) for one CLI run."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    ok = 0
    uniformity = {}
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        if wl.mode == "sweep":
            rows = (out_dir / "sweep.csv").read_text().splitlines()[2:]
            for row in rows:
                cells = row.split(",")
                if cells[-1] == "ok" and _finite(cells[:-1]):
                    ok += 1
                else:
                    problems.append(f"sweep row not ok: {row}")
            uniformity = {lam: v["factor"]
                          for lam, v in summary["uniformity"].items()}
        else:
            rows = (out_dir / "converge.csv").read_text().splitlines()[2:]
            for row, status in zip(rows, summary["statuses"]):
                if status == "ok" and _finite(row.split(",")[:4]):
                    ok += 1
                else:
                    problems.append(f"converge row not ok: {row} ({status})")
        if len(rows) != wl.n_ops:
            problems.append(f"{len(rows)} rows, expected {wl.n_ops}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    return min(ok, wl.n_ops), problems, uniformity


# ------------------------------------------------------------ processes


def _child_result(args: list, returncode: int, stdout: str, stderr: str) -> dict:
    if returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _child(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "child.py")] + args,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return _child_result(args, proc.returncode, proc.stdout, proc.stderr)


def _child_alongside(args: list, task) -> tuple:
    """Run a child process while `task()` runs here; (child result, task())."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        value = task()
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return _child_result(args, proc.returncode, stdout, stderr), value


def _cli_argv(wl, ini: Path, out_dir: Path) -> list:
    return ["--config", str(ini), "--out", str(out_dir), "--jobs", str(wl.jobs)]


class Runner:
    """In-process CLI runs with their checks accumulated."""

    def __init__(self, wl, ini: Path, work: Path):
        from epslab import cli
        self.cli = cli
        self.wl = wl
        self.out_dir = work / "run"
        self.argv = _cli_argv(wl, ini, self.out_dir)
        self.expected_hashes = None   # output hashes every run must match
        self.problems: list = []
        self.uniformity: dict = {}
        self.attempted = self.failed = 0

    def expect_hashes(self, hashes: dict, who: str) -> None:
        if self.expected_hashes is None:
            self.expected_hashes = hashes
        elif hashes != self.expected_hashes:
            self.problems.append(f"outputs of {who} differ from the first run")

    def warm_up(self, work: Path) -> None:
        """One untimed run of the tiny variant: lazy imports and first calls."""
        from workloads import make_workload
        tiny = make_workload(self.wl.name, 0, ROOT, tiny=True)
        ini = work / "warm-up.ini"
        ini.write_text(tiny.ini_text)
        rc = self.cli.main(_cli_argv(tiny, ini, work / "warm-up"))
        if rc != 0:
            self.problems.append(f"warm-up run exited with {rc}")

    def run(self) -> tuple:
        """One CLI run; returns (wall seconds, operations ok)."""
        gc.collect()
        t0 = time.perf_counter()
        rc = self.cli.main(self.argv)
        wall = time.perf_counter() - t0
        ok, problems, self.uniformity = check_outputs(self.wl, self.out_dir, rc)
        self.problems.extend(problems)
        self.expect_hashes(_file_hashes(self.out_dir), "an in-process run")
        self.attempted += self.wl.n_ops
        self.failed += self.wl.n_ops - ok
        return wall, ok


# ---------------------------------------------------------------- oracle


def _boundary(ini: Path) -> tuple:
    import configparser
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(ini)
    alpha = tuple(float(x) for x in cp.get("boundary", "alpha").split())
    beta = tuple(float(x) for x in cp.get("boundary", "beta").split())
    return alpha, beta, cp.getfloat("scenario", "T")


def reference(wl, ini: Path):
    """Oracle solution of the probe problem on the workload's time grid."""
    import numpy as np
    from epslab import presets
    import oracle

    p = wl.probe()
    alpha, beta, T = _boundary(ini)
    t = np.linspace(0.0, T, wl.n_t)
    pair = presets.make_pair(wl.preset, **wl.pair_kwargs)
    A, B = pair.A, pair.B
    if np.abs(A.imag).max() > 0 or np.abs(B.imag).max() > 0:
        raise RuntimeError("oracle expects a real operator pair")
    A, B = A.real, B.real
    diagonal = not (np.any(A - np.diag(np.diag(A))) or np.any(B - np.diag(np.diag(B))))
    y = pair.grid.nodes
    c = p["bump_centre"]
    args = (alpha, beta, p["f1"], p["f2"], T, t)

    def compute():
        if c is None:
            if not diagonal:
                raise RuntimeError("homogeneous probe needs a diagonal pair")
            return oracle.closed_form_diagonal(np.diag(A), np.diag(B), p["eps"],
                                               p["lam"], *args)[0]
        if diagonal:
            return oracle.bvp_diagonal(np.diag(A), np.diag(B), p["eps"], p["lam"],
                                       lambda s: np.exp(-64.0 * (s - c) ** 2),
                                       1.0 + 0.2 * y, *args)
        return oracle.bvp_system(
            A, B, p["eps"], p["lam"],
            lambda s: np.exp(-64.0 * (s - c) ** 2)[None, :] * (1.0 + 0.2 * y)[:, None],
            *args)[0]

    key = ("probe-v1", A, B, p["eps"], p["lam"], c, args[:5], t, oracle.BVP_TOL)
    return t, oracle.cached(CACHE, key, compute)


def probe_error(wl, ini: Path, work: Path, t_ref, ref) -> float:
    """Relative L2 error of one `epslab solve` at the smallest eps."""
    import numpy as np
    from epslab import cli
    import oracle

    out_dir = work / "probe"
    argv = ["solve"] + _cli_argv(wl, ini, out_dir)
    for item in wl.probe_overrides():
        argv += ["--override", item]
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"probe solve exited with {rc}")
    data = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=2, ndmin=2)
    t, u = data[:, 0], data[:, 1::2] + 1j * data[:, 2::2]
    if t.shape != t_ref.shape or np.abs(t - t_ref).max() > 1e-12:
        raise RuntimeError("probe time grid differs from the oracle's")
    return oracle.rel_l2_error(u, ref, t)


# ------------------------------------------------------------ measuring


def _quartiles(xs) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def measure_end_to_end(wl, ini: Path, work: Path, seconds: float,
                       setup_repeats: int) -> dict:
    import oracle

    setups = [_child(["setup", str(ini), wl.preset, json.dumps(wl.pair_kwargs)])
              ["setup_s"] for _ in range(setup_repeats)]
    # the peak-memory child is not timed, so the oracle runs alongside it
    child_out = work / "child"
    child, (t_ref, ref) = _child_alongside(
        ["run"] + _cli_argv(wl, ini, child_out), lambda: reference(wl, ini))

    runner = Runner(wl, ini, work)
    runner.warm_up(work)
    _, problems, _ = check_outputs(wl, child_out, child["rc"])
    runner.problems.extend(problems)
    runner.expect_hashes(_file_hashes(child_out), "the child process")
    walls, rates = [], []
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < t_end:
        wall, ok = runner.run()
        walls.append(wall)
        rates.append(ok / wall)

    err = probe_error(wl, ini, work, t_ref, ref)
    if not err <= wl.err_tol:
        runner.problems.append(f"err_max {err:.3e} above tolerance {wl.err_tol:.0e}")
    self_err = oracle.self_check()
    if not self_err <= oracle.SELF_CHECK_TOL:
        runner.problems.append(f"oracle self-check off by {self_err:.3e}")

    metrics = {"wall_s": statistics.median(walls),
               "ops_per_s": statistics.median(rates),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": child["peak_rss_mb"],
               "err_digits": -math.log10(err)}
    return {"runner": runner, "metrics": metrics, "err_max": err,
            "samples": {"wall_s": walls, "ops_per_s": rates, "setup_s": setups},
            "oracle_self_check": self_err}


def measure_layers(wl, ini: Path, work: Path, seconds: float) -> dict:
    import spans as spanlib

    runner = Runner(wl, ini, work)
    runner.warm_up(work)
    tracer = spanlib.Tracer()
    plain, traced, per_run = [], [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < t_end:
        plain.append(runner.run()[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run()[0])
        finally:
            tracer.uninstall()
        per_run.append(spanlib.aggregate(tracer.spans, wl.jobs))

    metrics = {}
    for name in spanlib.NAMES:
        for stat in ("calls", "self_s", "busy_s", "fail"):
            if stat == "fail" and name not in spanlib.FAILING:
                continue
            mid = statistics.median_low if stat in ("calls", "fail") else statistics.median
            metrics[f"{name}.{stat}"] = mid(r[name][stat] for r in per_run)
    metrics["estimates.parallel_eff"] = statistics.median(r["parallel_eff"] for r in per_run)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    trace = {"wall_s": statistics.median(plain),
             "traced_wall_s": statistics.median(traced), "jobs": wl.jobs,
             **spanlib.dump(tracer.spans)}
    return {"runner": runner, "metrics": metrics,
            "samples": {"wall_s": plain, "traced_wall_s": traced},
            "trace": trace}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: n_t = 51, three cells")
    args = parser.parse_args(argv)
    try:
        _require_checkout()
    except (CheckoutError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import make_workload

    wl = make_workload(args.workload, args.seed, ROOT, tiny=args.tiny)
    tag = f"{wl.name}-s{args.seed}-t{args.trace}" + ("-tiny" if args.tiny else "")
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ini = work / "workload.ini"
    ini.write_text(wl.ini_text)
    env = environment(args.seed, wl)

    if args.trace:
        res = measure_layers(wl, ini, work, args.seconds)
    else:
        res = measure_end_to_end(wl, ini, work, args.seconds,
                                 2 if args.tiny else SETUP_REPEATS)
    runner = res["runner"]
    correct = not runner.problems and runner.failed == 0
    fail_frac = runner.failed / runner.attempted

    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} "
          f"ini_hash={wl.ini_hash} runs={len(res['samples']['wall_s'])}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for lam, factor in sorted(runner.uniformity.items()):
        print(f"# uniformity lam={lam} factor={factor!r} "
              "(evidence only; the paper's bound is 10)")
    for name, samples in res["samples"].items():
        lo, hi = _quartiles(samples)
        print(f"# samples {name}: n={len(samples)} p25={lo!r} p75={hi!r}")
    for problem in runner.problems[:20]:
        print(f"# check failed: {problem}")
    for name, value in res["metrics"].items():
        print(f"{name} {value!r} {unit_of(name)}")
    if "err_max" in res:
        print(f"err_max {res['err_max']!r} rel")
    print(f"fail_frac {fail_frac!r} ratio")

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "ini_hash": wl.ini_hash,
              "correct": correct, "problems": runner.problems,
              "attempted": runner.attempted, "failed": runner.failed,
              "fail_frac": fail_frac, "err_max": res.get("err_max"),
              "uniformity": runner.uniformity,
              "metrics": res["metrics"], "samples": res["samples"],
              "oracle_self_check": res.get("oracle_self_check"),
              "output_hashes": runner.expected_hashes}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        trace = {"workload": wl.name, "seed": args.seed,
                 "ini_hash": wl.ini_hash, **res["trace"]}
        (work / "trace.json").write_text(json.dumps(trace) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
