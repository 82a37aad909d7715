import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epslab.cli import Config, ConfigError, _preset_kwargs, load_config, main, run
from epslab.elliptic import ProblemSpec
from epslab.presets import make_commuting_pair, make_pair

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_MINI = """
[scenario]
name = mini
mode = sweep
preset = scalar

[sweep]
eps_list = 1 0.1
lambda_list = [1,0]

[grid]
n_t = 51

[data]
f = exp(-64*(t-0.5)^2)
"""

SOLVE_MINI = """
[scenario]
name = minisolve
mode = solve
preset = scalar

[solve]
eps = 0.25
lambda = [1, 0]

[grid]
n_t = 51
"""

CONVERGE_MINI = """
[scenario]
name = miniconv
mode = converge
preset = scalar
lambda = [0, 0]

[convergence]
eps_list = 0.1 0.01

[grid]
n_t = 51

[data]
u0 = 1.0
"""


def write(tmp_path, text, name="c.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_solve_outputs(tmp_path):
    cfgp = write(tmp_path, SOLVE_MINI)
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out)]) == 0
    for fname in ("solution.csv", "solution.dat", "estimate.csv",
                  "summary.json", "plot.py"):
        assert (out / fname).is_file()
    head = (out / "solution.csv").read_text().splitlines()
    assert head[0].startswith("# scenario=minisolve config_hash=")
    assert head[1] == "t,u0_re,u0_im"
    assert head[2].startswith("0.0,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "solve"
    assert summary["eps"] == 0.25
    assert summary["path"] == "modes"


def test_sweep_outputs_and_schema(tmp_path):
    cfgp = write(tmp_path, SWEEP_MINI)
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == ("eps,lambda_re,lambda_im,term0,term1,term2,au_norm,"
                        "lhs_total,lhs_alt_total,rhs,ratio,status")
    assert len(lines) == 4  # header comment + schema + 2 cells
    assert all(row.endswith(",ok") for row in lines[2:])
    assert (out / "sweep_lam0.dat").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_cells"] == 2
    assert summary["n_failed"] == 0
    assert "1+0j" in summary["uniformity"]


def test_sweep_keeps_one_uniformity_entry_per_lambda(tmp_path):
    # the two lambdas agree to six significant digits; each keeps its entry
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "scalar_sweep.ini"), "--out", str(out),
                 "--override", "sweep.lambda_list=[1,0] [1.0000001,0]",
                 "--override", "sweep.eps_list=1 0.1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_cells"] == 4
    assert sorted(summary["uniformity"]) == ["1+0j", "1.0000001+0j"]


def test_sweep_on_zero_data_writes_empty_uniformity(tmp_path):
    # every ratio is 0 by convention, so no lam has a uniformity factor
    text = (CONFIGS / "scalar_sweep.ini").read_text()
    for old, new in (("f1 = 1.0", "f1 = 0.0"), ("f2 = 0.5", "f2 = 0.0"),
                     ("f = exp(-64*(t-0.5)^2)", "f = none")):
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert len(rows) == 15 and all(row.endswith(",ok") for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_failed"] == 0
    assert summary["uniformity"] == {}


def test_byte_identical_reruns(tmp_path):
    cfgp = write(tmp_path, SWEEP_MINI)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["--config", str(cfgp), "--out", str(out2), "--jobs", "2"]) == 0
    for fname in ("sweep.csv", "summary.json", "sweep_lam0.dat"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_converge_outputs(tmp_path):
    cfgp = write(tmp_path, CONVERGE_MINI)
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out)]) == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[1] == "eps,x_gap,sup_gap,floor,above_floor"
    assert len(lines) == 4
    assert lines[2].endswith(",true")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["statuses"] == ["ok", "ok"]


def test_check_mode_shipped_config(tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(CONFIGS / "wentzell_check.ini"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("positivity", "condition_1", "condition_2_1", "condition_4_1"):
        assert report[key]["passed"] is True
        assert "details" in report[key]
    assert report["config_hash"]


def test_check_mode_failing_condition(tmp_path):
    cfgp = write(tmp_path, """
[scenario]
mode = check
preset = scalar

[operators]
a = 1.0
b = 5.0
""")
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["condition_2_1"]["passed"] is False
    assert report["positivity"]["passed"] is True


def test_missing_required_key(tmp_path, capsys):
    cfgp = write(tmp_path, "[scenario]\nmode = sweep\npreset = scalar\n")
    assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "[sweep] eps_list" in err


def test_config_error_leaves_no_out_directory(tmp_path, capsys):
    out = tmp_path / "o1" / "sub"
    assert main(["sweep", "--config", str(CONFIGS / "wentzell_check.ini"),
                 "--out", str(out)]) == 1
    assert "missing required key [sweep] eps_list" in capsys.readouterr().err
    assert not (tmp_path / "o1").exists()


def test_bad_mode_and_missing_file(tmp_path):
    cfgp = write(tmp_path, "[scenario]\npreset = scalar\n")
    assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
    assert main(["--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1


def test_numerical_failure_exit_code(tmp_path):
    cfgp = write(tmp_path, """
[scenario]
mode = sweep
preset = scalar

[operators]
a = 1.0
b = 0.0

[sweep]
eps_list = 1
lambda_list = [1,0] [-5,0]

[grid]
n_t = 51
""")
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out)]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert rows[0].endswith(",ok")
    assert "error" in rows[1]


@pytest.mark.filterwarnings("error")
def test_overflowing_finite_load_is_a_numerical_failure(tmp_path, capsys):
    # the wentzell solve goes through direct_solve; on this finite load
    # its solution or its coercive report overflows, with no warning
    assert main(["--config", str(write(tmp_path, SOLVE_MINI)),
                 "--out", str(tmp_path / "out"), "--preset", "wentzell",
                 "--override", "data.f=1e308*exp(-10000*(t-0.5)^2)"]) == 2
    assert "numerical failure: Overflow" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset", ["scalar", "commuting"])
def test_solve_at_huge_eps(tmp_path, preset):
    # B^2 + 4 eps (A + lam) has entries near 1e300; the square root's
    # branch-cut check must not overflow, and u stays at its data 1
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "scalar_solve.ini"), "--out", str(out),
                 "--preset", preset, "--override", "solve.eps=1e300"]) == 0
    u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=2)[:, 1:]
    np.testing.assert_allclose(u[:, 0::2], 1.0, rtol=1e-12)
    np.testing.assert_allclose(u[:, 1::2], 0.0, atol=1e-12)


def test_overrides_and_preset_flag(tmp_path):
    cfgp = write(tmp_path, SOLVE_MINI)
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out),
                 "--override", "solve.eps=0.5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eps"] == 0.5
    with pytest.raises(ConfigError):
        run(cfgp, out, overrides=["noseparator"])
    cfg = load_config(cfgp, preset="commuting")
    assert cfg.raw("scenario", "preset") == "commuting"


def test_preset_keys_missing_from_config_keep_preset_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[scenario]\npreset = commuting\n"
                                      "[grid]\nn_y = 4\n[operators]\nb1 = 0.2\n"))
    pair = make_pair("commuting", **_preset_kwargs(cfg, "commuting"))
    want = make_commuting_pair(n_y=4, b1=0.2)
    assert np.array_equal(pair.A, want.A) and np.array_equal(pair.B, want.B)


def test_config_hash_tracks_content(tmp_path):
    c1 = load_config(write(tmp_path, SOLVE_MINI, "a.ini"))
    c2 = load_config(write(tmp_path, SOLVE_MINI.replace("0.25", "0.35"), "b.ini"))
    from epslab.cli import config_hash
    assert config_hash(c1, "solve") != config_hash(c2, "solve")
    assert config_hash(c1, "solve") != config_hash(c1, "sweep")
    assert len(config_hash(c1, "solve")) == 16


@pytest.mark.parametrize("override", ["sweep.eps_list=1 0", "sweep.eps_list=1 inf"])
def test_invalid_spec_is_config_error(tmp_path, capsys, override):
    cfgp = write(tmp_path, SWEEP_MINI)
    assert main(["--config", str(cfgp), "--out", str(tmp_path / "out"),
                 "--override", override]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")),
                         ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, config, monkeypatch):
    # every key the file sets must be one the CLI reads
    read = set()
    raw = Config.raw

    def recording_raw(self, section, key, default=None):
        read.add((section, key))
        return raw(self, section, key, default)

    monkeypatch.setattr(Config, "raw", recording_raw)
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    cp = load_config(config).cp
    unread = {(sec, key) for sec in cp.sections() for key in cp.options(sec)} - read
    assert not unread


@pytest.mark.parametrize("mini, override", [
    (SWEEP_MINI, "data.f=sqrt(t-0.5)"),
    (SOLVE_MINI, "data.f=sqrt(t-0.5)"),
    ((CONFIGS / "wentzell_check.ini").read_text(), "operators.a=sqrt(y-0.5)"),
], ids=["sweep-load", "solve-load", "wentzell-coefficient"])
def test_expression_that_fails_to_evaluate_is_invalid_scenario(
        tmp_path, capsys, mini, override):
    assert main(["--config", str(write(tmp_path, mini)),
                 "--out", str(tmp_path / "out"), "--override", override]) == 1
    assert "invalid scenario: " in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "inf", "0.5", "nan"])
def test_sweep_with_inadmissible_p_is_invalid_scenario(tmp_path, capsys, p):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "scalar_sweep.ini"), "--out", str(out),
                 "--override", f"scenario.p={p}"]) == 1
    assert "invalid scenario: p = " in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("p", ["nan", "0.5"])
def test_converge_with_inadmissible_p_is_config_error(tmp_path, capsys, p):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "commuting_converge.ini"), "--out", str(out),
                 "--override", f"scenario.p={p}"]) == 1
    assert "p must be >= 1" in capsys.readouterr().err
    assert not (out / "converge.csv").exists()


def test_converge_never_forms_theta(tmp_path):
    assert main(["--config", str(write(tmp_path, CONVERGE_MINI)),
                 "--out", str(tmp_path / "out"), "--override", "scenario.p=1"]) == 0


def test_converge_takes_its_load_from_data_f(tmp_path):
    config = str(CONFIGS / "commuting_converge.ini")
    plain, loaded = tmp_path / "plain", tmp_path / "loaded"
    assert main(["--config", config, "--out", str(plain)]) == 0
    assert main(["--config", config, "--out", str(loaded),
                 "--override", "data.f=100*exp(-64*(t-0.5)^2)"]) == 0
    rows = [(out / "converge.csv").read_text().splitlines()[2:]
            for out in (plain, loaded)]
    assert rows[0] != rows[1]


@pytest.mark.parametrize("f0, code", [("none", 0), ("1", 1), ("exp(-t)", 1)])
def test_data_f0_is_none_or_a_config_error(tmp_path, capsys, f0, code):
    assert main(["--config", str(write(tmp_path, CONVERGE_MINI)),
                 "--out", str(tmp_path / "out"), "--override", f"data.f0={f0}"]) == code
    if code:
        assert capsys.readouterr().err == (
            "config error: [data] f0 is no longer read; the load is [data] f\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_norms_are_a_numerical_failure(tmp_path, capsys):
    # at p = 1e300 every mixed norm overflows to inf
    assert main(["--config", str(CONFIGS / "scalar_solve.ini"),
                 "--out", str(tmp_path / "solve"), "--override", "scenario.p=1e300"]) == 2
    assert "numerical failure: Overflow" in capsys.readouterr().err
    out = tmp_path / "sweep"
    assert main(["--config", str(CONFIGS / "scalar_sweep.ini"),
                 "--out", str(out), "--override", "scenario.p=1e300"]) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert len(rows) == 15 and all(",error: " in row for row in rows)


@pytest.mark.filterwarnings("error")
def test_overflowing_convergence_gaps_are_error_rows(tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / "commuting_converge.ini"),
                 "--out", str(out), "--override", "data.u0=1e308"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert all(s.startswith("error: ") for s in summary["statuses"])
    assert summary["floor"] == "nan"


@pytest.mark.parametrize("load", ["(" * 250 + "t" + ")" * 250, "+".join(["t"] * 3001),
                                  "-" * 990 + "t"], ids=["parens", "sum", "neg"])
def test_too_deep_load_is_invalid_scenario(tmp_path, capsys, load):
    assert main(["--config", str(write(tmp_path, SOLVE_MINI)),
                 "--out", str(tmp_path / "out"), "--override", f"data.f={load}"]) == 1
    assert "invalid scenario: " in capsys.readouterr().err


@pytest.mark.parametrize("config, override, message", [
    ("scalar_solve", "scenario.T=nan", "invalid scenario: T must be finite and positive, got nan"),
    ("scalar_sweep", "scenario.T=inf", "invalid scenario: T must be finite and positive, got inf"),
    ("commuting_converge", "scenario.T=nan",
     "invalid scenario: T must be finite and positive, got nan"),
    ("commuting_converge", "convergence.floor_factor=nan",
     "invalid convergence scenario: floor_factor must be finite and >= 0, got nan"),
    ("commuting_converge", "convergence.floor_factor=-1",
     "invalid convergence scenario: floor_factor must be finite and >= 0, got -1.0"),
], ids=["solve-T", "sweep-T", "converge-T", "floor-nan", "floor-negative"])
def test_bad_T_or_floor_factor_is_config_error(tmp_path, capsys, config, override, message):
    assert main(["--config", str(CONFIGS / f"{config}.ini"), "--out", str(tmp_path / "out"),
                 "--override", override]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_robin_neumann_sweep_runs_at_p_inf(tmp_path):
    # both orders are 1, so theta = (0.5, 0.5) stays admissible
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, SWEEP_MINI)), "--out", str(out),
                 "--override", "boundary.alpha=1 1",
                 "--override", "scenario.p=inf"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)


def test_boundary_order_follows_coefficients(tmp_path):
    # no [boundary] m1 key: alpha = 1 0.5 is an order-1 Robin condition
    out = tmp_path / "out"
    assert main(["--config", str(write(tmp_path, SOLVE_MINI)), "--out", str(out),
                 "--override", "boundary.alpha=1 0.5"]) == 0
    assert (out / "summary.json").is_file()


@pytest.mark.parametrize("overrides", [("boundary.m1=1", "boundary.m2=0"), ("grid.n_x=1000",)],
                         ids=["order", "n_x"])
def test_stale_keys_are_ignored(tmp_path, overrides):
    # the orders come from alpha and beta, and no route reads n_x: the old
    # keys change nothing
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfgp = write(tmp_path, SOLVE_MINI)
    assert main(["--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["--config", str(cfgp), "--out", str(out2),
                 *(arg for item in overrides for arg in ("--override", item))]) == 0
    assert ((out1 / "solution.csv").read_text().splitlines()[1:]
            == (out2 / "solution.csv").read_text().splitlines()[1:])


@pytest.mark.parametrize("override", ["operators.a=2", "operators.b=0",
                                      "operators.kernel=0.5"])
def test_wentzell_takes_constant_coefficients(tmp_path, override):
    assert main(["--config", str(CONFIGS / "wentzell_check.ini"),
                 "--out", str(tmp_path / "out"), "--override", override]) == 0


@pytest.mark.parametrize("config, override, message", [
    ("scalar_solve", "grid.n_t=x", "[grid] n_t: expected an integer: "
     "invalid literal for int() with base 10: 'x'"),
    ("scalar_solve", "scenario.T=x", "[scenario] T: expected a real "
     "number: could not convert string to float: 'x'"),
    ("scalar_solve", "solve.lambda=[1", "[solve] lambda: expected a real or [re, im] "
     "pair: unterminated complex pair '[1'"),
    ("scalar_sweep", "sweep.eps_list=1 x", "[sweep] eps_list: expected space-separated "
     "reals: could not convert string to float: 'x'"),
    ("scalar_sweep", "sweep.lambda_list=[1,2,3]", "[sweep] lambda_list: expected "
     "space-separated [re, im] pairs or reals: complex pair needs two entries, "
     "got '[1,2,3]'"),
    ("scalar_sweep", "sweep.eps_list=", "missing required key [sweep] eps_list"),
    ("commuting_converge", "data.u0=x", "[data] u0: expected a scalar or n values: "
     "could not convert string to float: 'x'"),
    ("commuting_converge", "data.u0=1 2 3", "[data] u0: expected 1 or 8 values, got 3"),
    ("commuting_sweep", "grid.n_y=x", "[grid] n_y: expected an integer: "
     "invalid literal for int() with base 10: 'x'"),
    ("commuting_sweep", "operators.b0=x", "[operators] b0: expected a real number: "
     "could not convert string to float: 'x'"),
], ids=["int", "real", "complex", "reals", "complexes", "required", "vector",
        "vector-length", "preset-int", "preset-real"])
def test_config_read_errors_name_the_key(tmp_path, capsys, config, override, message):
    assert main(["--config", str(CONFIGS / f"{config}.ini"), "--out", str(tmp_path / "out"),
                 "--override", override]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_shipped_configs_parse():
    for name in ("scalar_solve", "scalar_sweep", "commuting_sweep",
                 "commuting_converge", "wentzell_check"):
        cfg = load_config(CONFIGS / f"{name}.ini")
        assert cfg.raw("scenario", "mode") in ("solve", "sweep", "converge", "check")


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("config", [
    CONFIGS / "scalar_solve.ini", CONFIGS / "scalar_sweep.ini",
    CONFIGS / "commuting_sweep.ini", CONFIGS / "wentzell_check.ini",
    GOLDEN / "sweep-split.ini", GOLDEN / "sweep-fd.ini",
], ids=lambda p: p.stem)
def test_solve_sweep_and_check_never_load_scipy(tmp_path, config):
    # only converge mode reaches linalg.expm, the one kernel of these
    # runs that would import scipy; a fresh process shows what a run loads
    code = ("import sys\nfrom epslab.cli import main\n"
            f"rc = main(['--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "print(rc, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


def test_solve_mode_samples_the_load_once(tmp_path, monkeypatch):
    # the solve and its coercive report share one sampling of the load
    calls, sample = [], ProblemSpec.f_samples

    def counting(self, t):
        calls.append(len(t))
        return sample(self, t)

    monkeypatch.setattr(ProblemSpec, "f_samples", counting)
    assert main(["--config", str(CONFIGS / "scalar_solve.ini"),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_module_entry_point(tmp_path):
    cfgp = write(tmp_path, SOLVE_MINI)
    proc = subprocess.run(
        [sys.executable, "-m", "epslab", "solve", "--config", str(cfgp),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "out" / "summary.json").is_file()
