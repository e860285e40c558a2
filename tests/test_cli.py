import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from memlens.cli import build_parser, main

HB_SWEEP_CFG = """
[run]
seed = 7
dimension = 4
horizon = 0.5

[loss]
id = quadratic
eig_min = 0.02
eig_max = 0.2

[optimizer]
kind = heavyball
h = 1e-2
beta1 = 0.9

[experiment]
h_grid = 1e-2,5e-3,2.5e-3,1.25e-3,6.25e-4,3.125e-4
order = both
"""


@pytest.fixture
def sweep_cfg(tmp_path):
    p = tmp_path / "hb.cfg"
    p.write_text(HB_SWEEP_CFG)
    return p


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_sweep_end_to_end(sweep_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("sweep", "--config", sweep_cfg, "--out-dir", out, "--jobs", 1)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "[PASS] slope-second" in printed and "[PASS] slope-first" in printed
    csvs = sorted(out.glob("sweep_second_*.csv"))
    assert csvs and csvs[0].read_text().splitlines()[0] == "h,max_linf_error,status"
    summary = json.loads(next(out.glob("sweep_both_*_summary.json")).read_text())
    assert summary["status"] == "pass"
    assert 1.7 <= summary["reports"]["second"]["slope"] <= 2.3


def test_missing_config_exits_2(tmp_path, capsys):
    rc = run_cli("sweep", "--config", tmp_path / "nope.cfg")
    assert rc == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_unknown_override_key_named(sweep_cfg, tmp_path, capsys):
    rc = run_cli("sweep", "--config", sweep_cfg, "--out-dir", tmp_path / "o",
                 "--set", "experiment.bogus=1")
    assert rc == 2
    assert "experiment.bogus" in capsys.readouterr().err


STOCK_HB_CFG = Path(__file__).resolve().parents[1] / "configs" / "heavyball_sweep.cfg"
COMMAND_OF = {"optimizer.kind=adamw": ("minibatch-corr",
                                       STOCK_HB_CFG.parent / "minibatch_perm.cfg")}


@pytest.mark.parametrize("override,key", [
    ("run.horizon=inf", "horizon"),
    ("experiment.h_grid=1e-2,0,5e-3", "experiment.h_grid"),
    ("optimizer.lambda=nan", "lambda"),
    ("run.theta0_scale=nan", "theta0_scale"),
    ("experiment.dt_ratio=0", "experiment.dt_ratio"),
    ("experiment.dt_ratio=2", "experiment.dt_ratio"),
    ("experiment.n_list=-1", "experiment.n_list"),
    ("experiment.fraction_min=nan", "experiment.fraction_min"),
    ("experiment.r2_min=1.5", "experiment.r2_min"),
    ("experiment.corr_tol=0", "experiment.corr_tol"),
    ("experiment.burn_in_tol=inf", "experiment.burn_in_tol"),
    ("experiment.samples=99", "experiment.samples"),
    ("experiment.correction_variant=bogus", "experiment.correction_variant"),
    ("experiment.ode_target=bogus", "experiment.ode_target"),
    ("experiment.order=bogus", "experiment.order"),
    ("optimizer.kspec=bogus", "optimizer.kspec"),
    ("optimizer.kind=adamw", "optimizer.kind"),
])
def test_bad_value_exits_2_naming_key(override, key, sweep_cfg, tmp_path, capsys):
    # minibatch-corr evaluates only the heavy-ball correction
    command, cfg = COMMAND_OF.get(override, ("sweep", sweep_cfg))
    rc = run_cli(command, "--config", cfg, "--out-dir", tmp_path / "o",
                 "--jobs", 1, "--set", override)
    assert rc == 2
    assert key in capsys.readouterr().err


def test_unknown_config_key_named(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(HB_SWEEP_CFG + "\nwrong_key = 3\n")
    rc = run_cli("run", "--config", p, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "experiment.wrong_key" in capsys.readouterr().err


def test_manifest_round_trip_byte_identical(sweep_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("sweep", "--config", sweep_cfg, "--out-dir", out1, "--jobs", 1) == 0
    manifest = out1 / "manifest.json"
    assert manifest.is_file()
    assert run_cli("sweep", "--config", manifest, "--out-dir", out2, "--jobs", 1) == 0
    for csv1 in out1.glob("*.csv"):
        assert (out2 / csv1.name).read_bytes() == csv1.read_bytes()


def test_repeat_run_byte_identical(sweep_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--config", sweep_cfg, "--out-dir", out1)
    run_cli("run", "--config", sweep_cfg, "--out-dir", out2)
    csvs1 = sorted(out1.glob("run_*.csv"))
    assert csvs1
    for c in csvs1:
        assert c.read_bytes() == (out2 / c.name).read_bytes()


def test_run_trajectory_csv_columns(sweep_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", sweep_cfg, "--out-dir", out) == 0
    csv = next(out.glob("run_heavyball_*.csv"))
    header = csv.read_text().splitlines()[0]
    assert header == "step,t,theta_0,theta_1,theta_2,theta_3,loss"


def test_help_lists_commands_and_keys(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    text = capsys.readouterr().out
    for cmd in ("run", "sweep", "defect", "closeness", "ode-compare",
                "minibatch-corr", "corr-table", "gradcheck"):
        assert cmd in text
    for key in ("run.horizon", "experiment.h_grid", "optimizer.h", "loss.id"):
        assert key.split(".")[1] in text
    assert "time units" in text  # units are documented


def test_gradcheck_command(sweep_cfg, tmp_path, capsys):
    rc = run_cli("gradcheck", "--config", sweep_cfg, "--out-dir", tmp_path / "o")
    assert rc == 0
    assert "max_rel_err_grad=" in capsys.readouterr().out


def test_corr_table_command(sweep_cfg, tmp_path):
    out = tmp_path / "out"
    rc = run_cli("corr-table", "--config", sweep_cfg, "--out-dir", out,
                 "--set", "experiment.n_list=1,5,50")
    assert rc == 0
    csv = next(out.glob("corr-table_*.csv"))
    lines = csv.read_text().splitlines()
    assert lines[0] == "method,kind,n,component,value"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert {"bruteforce", "contraction", "closed-finite-n", "closed-asymptotic"} <= methods
    # both faster routes are gated against the brute force at every n
    summary = json.loads(next(out.glob("corr-table_*_summary.json")).read_text())
    assert [g["name"] for g in summary["gates"]] == [
        f"{route}-vs-brute-n={n}" for n in (1, 5, 50) for route in ("closed", "contraction")]


def test_no_gate_is_a_failure(sweep_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("corr-table", "--config", sweep_cfg, "--out-dir", out,
                 "--set", "experiment.n_list=")
    assert rc == 1
    assert "[FAIL] no gate ran" in capsys.readouterr().out
    summary = json.loads(next(out.glob("corr-table_*_summary.json")).read_text())
    assert summary["gates"] == [] and summary["status"] == "fail"


def test_defect_command_summary_row(sweep_cfg, tmp_path):
    out = tmp_path / "out"
    rc = run_cli("defect", "--config", sweep_cfg, "--out-dir", out,
                 "--set", "experiment.h_grid=1e-2,5e-3,2.5e-3,1.25e-3,6.25e-4")
    assert rc == 0
    csv = next(out.glob("defect_*.csv"))
    lines = csv.read_text().splitlines()
    assert lines[0] == "h,n,defect"
    assert lines[-1].startswith("slope,")


def test_summaries_record_the_correction_route(sweep_cfg, tmp_path):
    # the second-order runs' correction method, and the fallback when one was
    # taken; first-order runs take none
    out = tmp_path / "nesterov"
    assert run_cli("sweep", "--config", sweep_cfg, "--out-dir", out,
                   "--set", "optimizer.kind=nesterov", "--set", "optimizer.beta1=0.5") == 0
    reports = json.loads(next(out.glob("sweep_both_*_summary.json")).read_text())["reports"]
    assert reports["second"]["correction_method"] == "closed-finite-n"
    assert "correction_fallback" not in reports["second"]
    assert "correction_method" not in reports["first"]
    out = tmp_path / "adamw"
    assert run_cli("defect", "--config", sweep_cfg, "--out-dir", out,
                   "--set", "optimizer.kind=adamw", "--set", "optimizer.beta2=0.95",
                   "--set", "optimizer.eps=1e-3",
                   "--set", "optimizer.bias_correction=false") == 0
    summary = json.loads(next(out.glob("defect_*_summary.json")).read_text())
    assert summary["correction_method"] == "contraction"
    assert "without bias correction" in summary["correction_fallback"]


def test_ode_compare_command(sweep_cfg, tmp_path):
    out = tmp_path / "out"
    rc = run_cli("ode-compare", "--config", sweep_cfg, "--out-dir", out,
                 "--set", "experiment.h_grid=1e-2,5e-3,2.5e-3,1.25e-3")
    assert rc == 0
    summary = json.loads(next(out.glob("ode-compare_*_summary.json")).read_text())
    assert 1.7 <= summary["slope"] <= 2.3


def test_closeness_command(tmp_path):
    p = tmp_path / "adam.cfg"
    p.write_text("""
[run]
seed = 11
dimension = 6
horizon = 0.3

[loss]
id = logistic
points = 40

[optimizer]
kind = adamw
h = 1e-3
beta1 = 0.9
beta2 = 0.95
lambda = 1e-3
eps = 1e-6

[experiment]
h_grid = 1e-3
burn_in_tol = 1e-3
""")
    out = tmp_path / "out"
    rc = run_cli("closeness", "--config", p, "--out-dir", out)
    assert rc == 0
    csv = next(out.glob("closeness_*.csv"))
    assert csv.read_text().splitlines()[0] == "h,n,t,gap_second,gap_first"
    # the summary names the correction of the second-order runs
    summary = json.loads(next(out.glob("closeness_*_summary.json")).read_text())
    assert summary["correction_method"] == "closed-finite-n"
    assert "correction_fallback" not in summary
    # without bias correction the ordering gate needs a longer horizon (it
    # reads 0.85 at T = 0.3, 0.97 at T = 1)
    out = tmp_path / "unbiased"
    assert run_cli("closeness", "--config", p, "--out-dir", out, "--set", "run.horizon=1",
                   "--set", "optimizer.bias_correction=false") == 0
    summary = json.loads(next(out.glob("closeness_*_summary.json")).read_text())
    assert summary["correction_method"] == "contraction"
    assert "without bias correction" in summary["correction_fallback"]


def test_minibatch_corr_command(tmp_path):
    p = tmp_path / "mb.cfg"
    p.write_text("""
[run]
seed = 3
dimension = 3
horizon = 1.0

[loss]
id = minibatch-quadratic
count = 5
spread = 0.4

[optimizer]
kind = heavyball
h = 1e-3
beta1 = 0.5

[experiment]
samples = 2000
""")
    out = tmp_path / "out"
    rc = run_cli("minibatch-corr", "--config", p, "--out-dir", out)
    assert rc == 0
    csv = next(out.glob("minibatch-corr_*.csv"))
    lines = csv.read_text().splitlines()
    assert lines[0] == "method,component,value,stderr"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert {"exhaustive", "decomposed", "mc"} <= methods


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_out_dir_env_var_default(sweep_cfg, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("MEMLENS_OUT_DIR", str(target))
    assert run_cli("run", "--config", sweep_cfg) == 0
    assert (target / "manifest.json").is_file()
    assert list(target.glob("run_*.csv"))


def test_gate_failure_exits_1(sweep_cfg, tmp_path, capsys):
    # an unreachable slope gate turns a clean sweep into a gate failure
    rc = run_cli("sweep", "--config", sweep_cfg, "--out-dir", tmp_path / "o",
                 "--jobs", 1, "--set", "experiment.order=second",
                 "--set", "experiment.slope_min=3.5", "--set", "experiment.slope_max=4.0")
    assert rc == 1
    assert "[FAIL] slope-second" in capsys.readouterr().out


def test_domain_exit_run_exits_1(tmp_path):
    p = tmp_path / "explode.cfg"
    p.write_text("""
[run]
seed = 2
dimension = 2
horizon = 200.0

[loss]
id = quadratic
eig_min = 2.0
eig_max = 4.0
domain_radius = 50.0

[optimizer]
kind = heavyball
h = 10.0
beta1 = 0.9
""")
    assert run_cli("run", "--config", p, "--out-dir", tmp_path / "o") == 1


def test_json_config_equivalent_to_ini(sweep_cfg, tmp_path):
    from memlens.cli import config_hash, resolve_config
    ini = resolve_config(str(sweep_cfg))
    jpath = tmp_path / "same.json"
    jpath.write_text(json.dumps(ini))
    assert config_hash(resolve_config(str(jpath))) == config_hash(ini)


@pytest.mark.parametrize("command,gate", [("ode-compare", "ode-slope"),
                                          ("defect", "defect-slope")])
def test_degenerate_fit_with_invalid_points_fails(command, gate, tmp_path, capsys):
    # every h point leaves the domain, so no slope can be fitted
    out = tmp_path / "out"
    rc = run_cli(command, "--config", STOCK_HB_CFG, "--out-dir", out, "--jobs", 1,
                 "--set", "experiment.h_grid=200,100,50", "--set", "run.horizon=1e5")
    assert rc == 1
    assert f"[FAIL] {gate}" in capsys.readouterr().out
    summary = json.loads(next(out.glob(f"{command}_*_summary.json")).read_text())
    assert summary["status"] == "fail"


@pytest.mark.parametrize("target,kind,lo,hi", [
    ("memoryful", "heavyball", 0.8, 1.3),
    ("memoryless-finite-n", "heavyball", 0.8, 1.3),
    ("memoryless-finite-n", "adamw", 1.7, 2.3),
], ids=["memoryful", "memoryless-finite-n", "memoryless-finite-n-adamw"])
def test_ode_compare_offset_targets_get_the_first_order_window(target, kind, lo, hi,
                                                               tmp_path, capsys):
    # these targets keep an O(h) offset from the flow, so their gap falls as h;
    # with every memory slot bias-corrected (AdamW) the contracted update does
    # not depend on n, the offset is O(h^2) and the gap falls as h^2
    rc = run_cli("ode-compare", "--config", STOCK_HB_CFG, "--out-dir", tmp_path / "o",
                 "--jobs", 1, "--set", f"experiment.ode_target={target}",
                 "--set", f"optimizer.kind={kind}",
                 "--set", "experiment.h_grid=1e-2,5e-3,2.5e-3,1.25e-3,6.25e-4")
    assert rc == 0
    assert "[PASS] ode-slope" in capsys.readouterr().out
    summary = json.loads(next((tmp_path / "o").glob("ode-compare_*_summary.json")).read_text())
    gate = next(g for g in summary["gates"] if g["name"] == "ode-slope")
    assert gate["limit"] == f"[{lo}, {hi}]" and lo <= summary["slope"] <= hi


def test_degenerate_fit_at_rounding_floor_passes(sweep_cfg, tmp_path, capsys):
    # beta = 0: memoryless and memoryful iterations coincide, every point is
    # valid and at the rounding floor
    rc = run_cli("sweep", "--config", sweep_cfg, "--out-dir", tmp_path / "o", "--jobs", 1,
                 "--set", "optimizer.beta1=0", "--set", "experiment.order=second")
    assert rc == 0
    assert "[PASS] slope-second: value=degenerate" in capsys.readouterr().out


@pytest.mark.parametrize("section,key,value", [
    ("run", "horizon", [1]),
    ("run", "seed", 7.5),
    ("optimizer", "kind", 3),
    ("experiment", "h_grid", [1e-2, "5e-3"]),
    ("loss", "eig_min", [0.02]),
])
def test_json_value_of_wrong_type_exits_2_naming_key(section, key, value, sweep_cfg,
                                                       tmp_path, capsys):
    from memlens.cli import resolve_config
    cfg = resolve_config(str(sweep_cfg))
    cfg[section][key] = value
    jpath = tmp_path / "bad.json"
    jpath.write_text(json.dumps(cfg))
    rc = run_cli("run", "--config", jpath, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert f"{section}.{key}" in capsys.readouterr().err


STOCK_ADAM_CLOSENESS_CFG = STOCK_HB_CFG.parent / "adam_closeness.cfg"


def test_closeness_domain_exit_fails_named_gate(tmp_path, capsys):
    # theta^(0) lies outside |theta| < 0.5, so every trajectory exits at step 0
    out = tmp_path / "out"
    rc = run_cli("closeness", "--config", STOCK_ADAM_CLOSENESS_CFG, "--out-dir", out,
                 "--jobs", 1, "--set", "loss.domain_radius=0.5")
    assert rc == 1
    assert "[FAIL] clean-run-h=0.0001" in capsys.readouterr().out
    summary = json.loads(next(out.glob("closeness_*_summary.json")).read_text())
    assert summary["status"] == "fail"


def test_closeness_shorter_than_burn_in_exits_2(tmp_path, capsys):
    rc = run_cli("closeness", "--config", STOCK_ADAM_CLOSENESS_CFG, "--out-dir",
                 tmp_path / "o", "--jobs", 1, "--set", "run.horizon=1e-4")
    assert rc == 2
    assert "run.horizon" in capsys.readouterr().err


# key -> one valid value; every override draws it or one of the bad values
OVERRIDE_VALUES = {
    "run.seed": "3", "run.dimension": "3", "run.horizon": "0.01",
    "run.theta0": "ones", "run.theta0_scale": "0.5",
    "loss.eig_min": "0.5", "loss.eig_max": "2", "loss.domain_radius": "50",
    "optimizer.kind": "nesterov", "optimizer.h": "1e-2", "optimizer.beta1": "0.5",
    "optimizer.beta2": "0.9", "optimizer.lambda": "0.1", "optimizer.eps": "1e-4",
    "optimizer.bias_correction": "true",
    "optimizer.kspec": "half-squared-two-norm",
    "experiment.n_list": "1,5", "experiment.corr_tol": "1e-6",
    "experiment.order": "first", "experiment.correction_variant": "asymptotic",
    "experiment.ode_target": "memoryful", "experiment.samples": "100",
    "experiment.dt_ratio": "4",
}
BAD_VALUES = ["nan", "inf", "-1", "0", "", "bogus"]
STOCK_CONFIGS = {command: STOCK_HB_CFG.parent / f"{name}.cfg" for command, name in (
    ("run", "heavyball_sweep"), ("sweep", "heavyball_sweep"), ("defect", "heavyball_sweep"),
    ("ode-compare", "heavyball_sweep"), ("closeness", "adam_closeness"),
    ("minibatch-corr", "minibatch_perm"), ("corr-table", "adamw_corr_table"),
    ("gradcheck", "logistic_gradcheck"))}
# closeness needs a step past its 449-step burn-in at h = 3e-4
SMALL_HORIZON = {"closeness": "0.15"}


@pytest.mark.parametrize("command", sorted(STOCK_CONFIGS))
def test_outputs_follow_the_naming_rule(command, tmp_path):
    # <command>_<tag>_<hash>, with the hash of the config the manifest holds
    from memlens.cli import config_hash, resolve_config
    out = tmp_path / "out"
    rc = run_cli(command, "--config", STOCK_CONFIGS[command], "--out-dir", out, "--jobs", 1,
                 "--set", f"run.horizon={SMALL_HORIZON.get(command, '0.05')}")
    assert rc in (0, 1)
    digest = config_hash(resolve_config(str(out / "manifest.json")))
    summaries = list(out.glob("*_summary.json"))
    assert len(summaries) == 1
    summary = json.loads(summaries[0].read_text())
    assert summary["experiment"] == summaries[0].name[:-len("_summary.json")]
    assert summary["config_hash"] == digest
    csvs = list(out.glob("*.csv"))
    assert len(csvs) == {"sweep": 2, "gradcheck": 0}.get(command, 1)
    for stem in [summary["experiment"]] + [p.stem for p in csvs]:
        assert stem.startswith(f"{command}_") and stem.endswith(f"_{digest}")
    assert {p.name for p in out.iterdir()} == {"manifest.json", summaries[0].name,
                                                *(p.name for p in csvs)}


@pytest.mark.parametrize("command", ["run", "sweep", "defect", "ode-compare"])
def test_zero_step_horizon_exits_2_naming_it(command, tmp_path, capsys):
    # floor(T/h) = 0 compares nothing past theta^(0), so no gate may pass on it
    out = tmp_path / "o"
    rc = run_cli(command, "--config", STOCK_CONFIGS[command], "--out-dir", out, "--jobs", 1,
                 "--set", "run.horizon=1e-6")
    assert rc == 2
    err = capsys.readouterr().err
    assert "run.horizon=1e-06 gives 0 steps at h=0.01" in err
    assert not list(out.glob("*_summary.json"))


@pytest.mark.parametrize("points", ["0", "-3"])
def test_empty_logistic_data_exits_2_naming_points(points, tmp_path, capsys):
    rc = run_cli("run", "--config", STOCK_CONFIGS["gradcheck"], "--out-dir", tmp_path / "o",
                 "--jobs", 1, "--set", f"loss.points={points}")
    assert rc == 2
    assert f"points >= 1, got {points}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "defect", "closeness", "ode-compare"])
def test_empty_h_grid_exits_2_naming_it(command, tmp_path, capsys):
    rc = run_cli(command, "--config", STOCK_CONFIGS[command], "--out-dir", tmp_path / "o",
                 "--jobs", 1, "--set", "experiment.h_grid=")
    assert rc == 2
    assert "h_grid" in capsys.readouterr().err


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(OVERRIDE_VALUES)), unique=True, max_size=4))
    return [f"{k}={draw(st.sampled_from(BAD_VALUES + [OVERRIDE_VALUES[k]]))}" for k in keys]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(STOCK_CONFIGS)), sets=overrides())
def test_overrides_keep_the_exit_code_contract(command, sets):
    # rc 0 all gates passed, 1 a gate failed, 2 a config error; never a traceback
    argv = [command, "--config", STOCK_CONFIGS[command], "--jobs", 1,
            "--set", f"run.horizon={SMALL_HORIZON.get(command, '0.05')}"]
    for item in sets:
        argv += ["--set", item]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = run_cli(*argv, "--out-dir", out)
        summaries = [json.loads(p.read_text()) for p in Path(out).glob("*_summary.json")]
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert summaries == [] and err.getvalue().strip()
    else:
        assert [s["status"] for s in summaries] == ["pass" if rc == 0 else "fail"]
