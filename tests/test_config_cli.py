import filecmp
import re

import pytest

from coopsim.cli import main, read_frames_csv
from coopsim.config import ConfigError, RunConfig

BASE = """
# reference operating point
lambda_pu = 0.5
lambda_su = 0.5
phi_nc = 0.6
phi_c = 0.8
p_avg = 0.5
p_max = 1
policy = fbdpp
v = 500
frames = 200
seed = 42
"""


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_and_defaults(tmp_path):
    cfg = RunConfig.from_path(write_config(tmp_path, BASE))
    scenario = cfg.build_scenario()
    assert scenario.params.phi_c == 0.8
    assert scenario.policy.kind == "fbdpp" and scenario.policy.v == 500
    assert scenario.horizon_frames == 200
    assert scenario.window == 100          # default
    assert scenario.params.a_max == 1      # default


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_text(BASE + "\nwhatever = 3\n")


def test_missing_required_rejected():
    with pytest.raises(ConfigError, match="missing required"):
        RunConfig.from_text("lambda_pu = 0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig.from_text(BASE + "\nseed = 7\n")


def test_unstable_rate_rejected(tmp_path):
    bad = BASE.replace("lambda_pu = 0.5", "lambda_pu = 0.65")
    cfg = RunConfig.from_text(bad)
    with pytest.raises(ConfigError, match="unstable primary queue"):
        cfg.build_scenario()


def test_map_form_and_grid(tmp_path):
    text = """
lambda_pu = 0.4
lambda_su = 0.5
phi = 0:0.6, 0.5:0.7, 1:0.8
mu_su = 0:0, 0.5:0.5, 1:1
p_avg = 0.5
p_max = 1
power_levels = 0, 0.5, 1
policy = counter
"""
    scenario = RunConfig.from_text(text).build_scenario()
    assert scenario.params.power_set.levels == (0.0, 0.5, 1.0)
    assert scenario.params.phi_of(0.5) == 0.7


def test_schedule_parsing():
    text = BASE + "\nlambda_schedule = 350:0.2, 700:0.55\n"
    scenario = RunConfig.from_text(text).build_scenario()
    assert scenario.lambda_schedule == ((350, 0.2), (700, 0.55))


def test_cli_run_writes_csvs(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "throughput_admitted=" in captured.out
    frames = read_frames_csv(tmp_path / "out" / "frames.csv")
    assert len(frames["frame"]) == 200
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("# rng=pcg64 seed=42")
    assert summary[1].split(",")[0] == "policy"


def test_cli_run_round_trip_exact(tmp_path):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg)]) == 0
    from coopsim import run_episode
    scenario = RunConfig.from_path(cfg).build_scenario()
    metrics = run_episode(scenario)
    cols = read_frames_csv(tmp_path / "out" / "frames.csv")
    assert cols["frame_len"] == list(metrics.frame_len)
    assert cols["power_idle"] == [float(x) for x in metrics.power_idle]
    assert cols["x_su_end"] == [float(x) for x in metrics.x_su_end]


def test_cli_rerun_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/a\n", "a.conf")
    cfg_b = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/b\n", "b.conf")
    assert main(["run", "--config", str(cfg_a)]) == 0
    assert main(["run", "--config", str(cfg_b)]) == 0
    assert filecmp.cmp(tmp_path / "a" / "frames.csv", tmp_path / "b" / "frames.csv",
                       shallow=False)


def test_cli_seed_override_reflected(tmp_path):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["run", "--config", str(cfg), "--seed", "777"]) == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[-1].rstrip().endswith("777")


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, BASE.replace("lambda_pu = 0.5", "lambda_pu = 0.9"))
    assert main(["run", "--config", str(bad)]) == 1
    assert "unstable primary queue" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.conf")]) == 1


def test_cli_sweep(tmp_path, capsys):
    text = BASE.replace("frames = 200", "frames = 100")
    cfg = write_config(tmp_path, text + f"\nout_dir = {tmp_path}/out\n")
    assert main(["sweep", "--config", str(cfg), "--v-list", "10,100"]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "v,throughput_admitted,avg_q_su,avg_power"
    assert len(lines) == 4
    assert lines[2].startswith("10.0,")
    # rerun produces the identical file
    before = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg), "--v-list", "10,100"]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == before


def test_cli_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "upsilon=0.25" in out
    assert "q=0.333333333" in out
    assert main(["oracle", "--config", str(cfg), "--force-q", "0"]) == 0
    out = capsys.readouterr().out
    assert "upsilon=0.1666" in out


def test_cli_oracle_validate(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg), "--validate",
                 "--validate-slots", "60000"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("validated_throughput=")][0]
    value = float(line.split()[0].split("=")[1])
    assert value == pytest.approx(0.25, abs=0.02)


def test_cli_oracle_force_q_is_exact(tmp_path, capsys):
    # closed form at a forced q: p = 7/9 exactly, not a 1e-3 grid point
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg), "--force-q", "0.4"]) == 0
    kv = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
    assert kv["method"] == "closed-form(q=0.4 forced)"
    assert float(kv["p"]) == pytest.approx(7 / 9, abs=1e-12)
    assert float(kv["upsilon"]) == pytest.approx(0.20588235294117646, abs=1e-15)
    assert float(kv["power_used"]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("args", [
    ["--force-q", "1.5"],
    ["--force-q", "-0.1"],
    ["--force-q", "1"],                         # cooperation alone costs 0.625
    ["--force-q", "1", "--grid-step", "0.01"],
    ["--grid-step", "0.5"],
    ["--validate", "--validate-slots", "0"],
])
def test_cli_oracle_bad_inputs_are_config_errors(tmp_path, capsys, args):
    cfg = write_config(tmp_path, BASE + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg), *args]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()      # nothing written, no oracle.csv


@pytest.mark.parametrize("max_slots", ["0", "-5"])
def test_non_positive_max_slots_rejected(tmp_path, capsys, max_slots):
    cfg = write_config(tmp_path, BASE + f"\nmax_slots = {max_slots}\nout_dir = {tmp_path}/out\n")
    with pytest.raises(ConfigError, match="max_slots"):
        RunConfig.from_path(cfg).build_scenario()
    assert main(["run", "--config", str(cfg)]) == 1
    assert "max_slots must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_oracle_grid_needed_for_grids(tmp_path, capsys):
    text = """
lambda_pu = 0.5
lambda_su = 0.5
phi = 0:0.6, 0.5:0.7, 1:0.8
mu_su = 0:0, 0.5:0.5, 1:1
p_avg = 0.5
policy = counter
power_levels = 0, 0.5, 1
"""
    cfg = write_config(tmp_path, text + f"\nout_dir = {tmp_path}/out\n")
    assert main(["oracle", "--config", str(cfg)]) == 1
    assert "--grid-step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()     # the refused run creates nothing
    assert main(["oracle", "--config", str(cfg), "--grid-step", "0.01"]) == 0
    assert (tmp_path / "out" / "oracle.csv").exists()


def test_cli_analyze(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["analyze", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "t_min=5.333333333333333" in out
    assert "t_max=12.0" in out
    assert "d=902.666666666667" in out.replace("d=902.6666666666669", "d=902.666666666667")
    assert "v=500" in out and "vacuous" in out


def test_cli_analyze_equal_probs(tmp_path, capsys):
    text = BASE.replace("phi_c = 0.8", "phi_c = 0.6")
    cfg = write_config(tmp_path, text)
    assert main(["analyze", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    t_min = [l for l in out.splitlines() if l.startswith("t_min=")][0]
    t_max = [l for l in out.splitlines() if l.startswith("t_max=")][0]
    assert t_min.split("=")[1] == t_max.split("=")[1]


def test_cli_baselines_table(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    # small pinned horizon keeps this a smoke test; values are loose
    assert main(["baselines", "--config", str(cfg), "--frames", "3000"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["policy", "served", "admitted", "avg_power", "slots"]
    table = {l.split()[0]: l.split()[1:] for l in lines[1:] if l.strip()}
    assert float(table["no_coop"][0]) == pytest.approx(1 / 6, abs=0.02)
    assert float(table["always_coop"][0]) <= 0.01
    assert float(table["counter"][0]) == pytest.approx(0.137, abs=0.03)
    assert "fbdpp(v=500)" in table and "offline_opt" in table
    assert float(table["offline_opt"][0]) == pytest.approx(0.25)


def test_cli_baselines_equal_horizons(tmp_path, capsys):
    # without --frames every row, the controller's too, runs >= 1e5 slots
    cfg = write_config(tmp_path, BASE)
    assert main(["baselines", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = {l.split()[0]: l.split()[1:] for l in lines if not l.startswith("offline_opt")}
    assert set(rows) == {"no_coop", "always_coop", "counter", "fbdpp(v=500)"}
    for name, cols in rows.items():
        assert int(cols[3]) >= 100_000, name


@pytest.mark.parametrize("command", ["run", "adaptive", "sweep", "baselines"])
def test_cli_truncated_episode_exits_2(tmp_path, capsys, command):
    text = BASE + f"\nmax_slots = 1000\nv_list = 10\nout_dir = {tmp_path}/out\n"
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip()
    match = re.fullmatch(r"error: stopped at max_slots=1000 after (\d+) of (\d+) frames", err)
    assert match, err
    assert int(match.group(1)) < int(match.group(2))
    assert not (tmp_path / "out").exists()     # no CSV from a cut-short run


def test_cli_adaptive(tmp_path, capsys):
    text = (
        BASE.replace("lambda_pu = 0.5", "lambda_pu = 0.4")
        .replace("lambda_su = 0.5", "lambda_su = 0.8")
        .replace("frames = 200", "frames = 120")
    )
    text += f"\nlambda_schedule = 60:0.2\nout_dir = {tmp_path}/out\n"
    cfg = write_config(tmp_path, text)
    assert main(["adaptive", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "coop_power_ma=" in out
